"""The demos and scripts still run against the current API, every module uses its imports,
and every name src/ defines is read somewhere."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cogdiag

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("scripts/*.py")])


def run_demo(name, cwd):
    """stdout of ``demos/<name>``, run against the src/ these tests import, installed or not."""
    src = Path(cogdiag.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_autodiff_tour_runs(tmp_path):
    # the tour builds graphs by hand and asserts its own claims
    assert "one Node over 10 parameter leaves" in run_demo("04_autodiff_tour.py", tmp_path)


def test_train_and_evaluate_demo_runs(tmp_path):
    # it reads each epoch's record at run time, which an import check cannot see
    out = run_demo("01_train_and_evaluate.py", tmp_path)
    epochs = [line for line in out.splitlines() if line.startswith("  phase ")]
    assert len(epochs) >= 2 and all(" val auc 0." in line for line in epochs)
    assert "test AUC  0." in out and "rank correlation vs truth +" in out


def test_calibration_study_demo_prints_the_reliability_table(tmp_path):
    # the table is the one eval writes beside its predictions: a header and one row per bin
    lines = run_demo("03_calibration_study.py", tmp_path).splitlines()
    start = lines.index("bin,lo,hi,count,frac_correct,avg_prob,gap")
    rows = [line.split(",") for line in lines[start + 1 : start + 11]]
    assert [row[0] for row in rows] == [str(n) for n in range(1, 11)]
    assert all(len(row) == 7 for row in rows)
    assert not lines[start + 11].startswith("11,")


def test_artifact_digests_repeat(tmp_path):
    # two runs into one directory: the second wipes the first's files,
    # and every artifact of the three heads and the library run hashes the same both times
    def digest(out):
        return subprocess.run([sys.executable, str(ROOT / "scripts" / "artifact_digest.py"),
                               "--out", str(out)], capture_output=True, text=True, timeout=120)

    runs = [digest(tmp_path / "digest") for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout == runs[1].stdout
    names = {line.split("  ", 1)[1] for line in runs[0].stdout.splitlines()}
    for head in ("irt", "mirt", "ncd"):
        assert {f"{head}/checkpoint.json", f"{head}/train_log.csv", f"{head}/ability.csv",
                f"{head}/predictions_val.csv", f"{head}/reliability_test.csv"} <= names
    # and each damaged input's failing train leaves its exit code and message
    errors = {"undecodable_byte": "line 10: not valid UTF-8 (invalid start byte)",
              "wrong_field_count": "line 10: expected 3 fields, got 2",
              "bad_score_after_a_multiline_id": "line 11: score must be 0 or 1, got '7'",
              "empty_qmatrix_id": "line 5: empty id field"}
    for case, message in errors.items():
        assert f"errors/{case}/train.stderr" in names
        kept = (tmp_path / "digest" / "errors" / case / "train.stderr").read_text()
        assert kept.startswith("exit 1\nerror: ") and kept.endswith(f" {message}\n")
    # each serving command refuses a nan student_mu, and an --out that is its checkpoint
    for case, message in (("nan_student_mu", "student_mu holds a non-finite value"),
                          ("out_is_checkpoint", "is the checkpoint; writing there would replace it")):
        copy = tmp_path / "digest" / "errors" / case / "checkpoint.json"
        assert f"errors/{case}/checkpoint.json" in names
        for command in ("diagnose", "eval", "export_ability"):
            assert f"errors/{case}/{command}.stderr" in names
            kept = (copy.parent / f"{command}.stderr").read_text()
            code = 1 if case == "nan_student_mu" else 2
            assert kept.startswith(f"exit {code}\nerror: ") and message in kept
            assert str(copy) in kept
    # a library Trainer's checkpoint: diagnose and export-ability serve it, eval says why it cannot
    assert {"library/checkpoint.json", "library/diagnose.stdout", "library/diagnosis_s0000.csv",
            "library/export_ability.stdout", "library/ability.csv", "library/eval.stderr"} <= names
    kept = (tmp_path / "digest" / "library" / "eval.stderr").read_text()
    assert kept.startswith("exit 1\nerror: ")
    assert "records a library TrainConfig, which names no data files to score" in kept
    (tmp_path / "other").mkdir()
    (tmp_path / "other" / "keep.txt").write_text("not the script's")
    assert digest(tmp_path / "other").returncode == 2
    assert (tmp_path / "other" / "keep.txt").exists()


def test_artifact_digest_runs_a_perfbench_workload(tmp_path):
    # the workload's cohort and config come from perfbench/workloads.py;
    # train, eval and diagnose each leave their files and stdout
    def digest(name):
        return subprocess.run([sys.executable, str(ROOT / "scripts" / "artifact_digest.py"),
                               "--out", str(tmp_path / "digest"), "--workload", name],
                              capture_output=True, text=True, timeout=120)

    proc = digest("train-mirt-small")
    assert proc.returncode == 0, proc.stderr
    names = {line.split("  ", 1)[1] for line in proc.stdout.splitlines()}
    assert {"logs.csv", "run/checkpoint.json", "run/train_log.csv", "run/train.stdout",
            "run/predictions_test.csv", "run/eval_test.stdout", "run/diagnose.stdout"} <= names
    unknown = digest("no-such-workload")
    assert unknown.returncode == 2 and "train-mirt-small" in unknown.stderr


@pytest.mark.parametrize("path", EXAMPLES, ids=[f"{p.parent.name}/{p.name}" for p in EXAMPLES])
def test_example_compiles_and_its_cogdiag_imports_resolve(path):
    # demos 02 and 05 are not run here (05 needs the real ASSISTments files);
    # compiling every example and resolving each name it imports from cogdiag
    # catches an API it still uses after it is renamed or deleted
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    compile(tree, str(path), "exec")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cogdiag":
            module = importlib.import_module(node.module)
            for alias in node.names:
                # a name is an attribute of the module, or a submodule import loads it
                found = hasattr(module, alias.name) or importlib.util.find_spec(
                    f"{node.module}.{alias.name}") is not None
                assert found, f"{path.name}: {node.module}.{alias.name}"


MODULES = sorted(
    path
    for path in [*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py"), *EXAMPLES]
    if path.name != "__init__.py"  # a package's imports are its re-exports
)


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_imported_name_is_used(path):
    # an import binds a name; the module must read that name somewhere
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - read, f"{path.name} imports {sorted(imported - read)} and never uses them"


def _requirements(key):
    """Distribution names on pyproject.toml's ``key = [...]`` line.

    The line is parsed here because tomllib needs Python 3.11, and the
    project supports 3.10.
    """
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    items = re.search(rf"^{key} = \[(.*)\]$", text, re.M).group(1).split(",")
    return {re.match(r'\s*"([\w.-]+)', item).group(1) for item in items}


def test_third_party_imports_are_declared():
    # outside src/, a module imports only the runtime dependency and the test
    # extras, and every test extra is imported somewhere, so none is listed
    # that no code needs any more
    local = {"cogdiag", *(path.stem for path in ROOT.glob("tests/*.py"))}
    importers = {}
    for path in [*ROOT.glob("tests/*.py"), *EXAMPLES]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for top in {name.split(".")[0] for name in names} - local - sys.stdlib_module_names:
                importers.setdefault(top, set()).add(f"{path.parent.name}/{path.name}")
    extras = _requirements("test")
    undeclared = {name: sorted(where) for name, where in importers.items()
                  if name not in extras | _requirements("dependencies")}
    assert not undeclared, f"imported but not in pyproject.toml: {undeclared}"
    assert extras <= set(importers), f"test extras nothing imports: {sorted(extras - set(importers))}"


def _defined_names(tree):
    """(name, where) of each top-level def, class and constant, and each method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, f"{node.name}.{item.name}"
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name):
                    yield target.id, target.id


def _read_names(tree):
    """Names a module reads: Name and Attribute loads, imports, and identifier-like strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # perfbench names its patch targets by string, "module:Class" and "name"
            if re.fullmatch(r"[A-Za-z_][\w.:]*", node.value):
                yield from re.split(r"[.:]", node.value)


def test_every_defined_name_is_read():
    # code nothing reads is deleted.  A read anywhere counts, so a name that
    # a local variable or parameter reuses elsewhere (say, a property called
    # like a local) cannot be seen by this check; dunders are called implicitly
    readers = [*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py"), *EXAMPLES,
               *ROOT.glob("perfbench/*.py")]
    read = set()
    for path in readers:
        read.update(_read_names(ast.parse(path.read_text(encoding="utf-8"), str(path))))
    unread = []
    for path in sorted(ROOT.glob("src/cogdiag/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        unread += [f"{path.name}: {where}" for name, where in _defined_names(tree)
                   if name not in read and not (name.startswith("__") and name.endswith("__"))]
    assert not unread, f"defined and never read: {unread}"
