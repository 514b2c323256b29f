"""Flat config file parsing, validation, and round-tripping."""

import dataclasses
import json
from types import SimpleNamespace

import pytest

from cogdiag.config import (
    ConfigError,
    RunConfig,
    config_from_checkpoint,
    format_config,
    parse_config_file,
    parse_config_text,
)
from cogdiag.data import SplitSpec
from cogdiag.diagnostics import DiagnosticFunction
from cogdiag.training import TrainConfig


@pytest.fixture
def data_files(tmp_path):
    logs = tmp_path / "logs.csv"
    logs.write_text("student_id,exercise_id,score\ns1,e1,1\n")
    qmatrix = tmp_path / "q.csv"
    qmatrix.write_text("exercise_id,concept_id\ne1,c1\n")
    return logs, qmatrix


def minimal_text(logs, qmatrix, extra=""):
    return f"logs = {logs}\nqmatrix = {qmatrix}\n{extra}"


class TestParsing:
    def test_minimal_file_uses_defaults(self, data_files):
        logs, qmatrix = data_files
        cfg = parse_config_text(minimal_text(logs, qmatrix))
        assert cfg.variant == "ncd"
        assert cfg.gamma == 1e-4
        assert cfg.batch_size == 32

    def test_comments_and_blanks_ignored(self, data_files):
        logs, qmatrix = data_files
        text = f"""
        # a full-line comment
        logs = {logs}

        qmatrix = {qmatrix}  # trailing comment
        seed = 7
        """
        cfg = parse_config_text(text)
        assert cfg.seed == 7

    def test_byte_order_mark_is_skipped(self, data_files, tmp_path):
        logs, qmatrix = data_files
        text = minimal_text(logs, qmatrix, "seed = 7\n")
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert parse_config_file(marked) == parse_config_file(plain)

    def test_unknown_key_carries_line_number(self, data_files):
        logs, qmatrix = data_files
        with pytest.raises(ConfigError, match=r"line 3: unknown key 'learningrate'"):
            parse_config_text(minimal_text(logs, qmatrix, "learningrate = 0.1\n"))

    def test_duplicate_key_rejected(self, data_files):
        logs, qmatrix = data_files
        with pytest.raises(ConfigError, match="duplicate key 'seed'"):
            parse_config_text(minimal_text(logs, qmatrix, "seed = 1\nseed = 2\n"))

    def test_type_errors_name_the_expected_type(self, data_files):
        logs, qmatrix = data_files
        with pytest.raises(ConfigError, match="as int"):
            parse_config_text(minimal_text(logs, qmatrix, "seed = soon\n"))

    def test_all_errors_reported_at_once(self, data_files):
        logs, qmatrix = data_files
        bad = minimal_text(
            logs, qmatrix,
            "seed = soon\nmystery = 1\nbatch_size = 4\nbatch_size = 8\n",
        )
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        message = str(err.value)
        assert "cannot parse 'seed'" in message
        assert "unknown key 'mystery'" in message
        assert "duplicate key 'batch_size'" in message

    def test_missing_assignment_rejected(self, data_files):
        logs, qmatrix = data_files
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text(minimal_text(logs, qmatrix, "just some words\n"))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config_file(tmp_path / "absent.cfg")


# a bad value per key, and the dataclass whose check owns that key
OWNED_CHECKS = [
    ("min_logs", "0", lambda: RunConfig(min_logs=0)),
    ("bins", "0", lambda: RunConfig(bins=0)),
    ("variant", "dkt", lambda: DiagnosticFunction("dkt")),
    ("mlp_hidden1", "0", lambda: DiagnosticFunction("ncd", mlp_hidden=(0, 256))),
    ("gamma", "-1", lambda: TrainConfig(gamma=-1.0)),
    ("beta", "-0.5", lambda: TrainConfig(beta=-0.5)),
    ("learning_rate", "0", lambda: TrainConfig(learning_rate=0.0)),
    ("batch_size", "0", lambda: TrainConfig(batch_size=0)),
    ("max_epochs", "-1", lambda: TrainConfig(max_epochs=-1)),
    ("pretrain_epochs", "-7", lambda: TrainConfig(pretrain_epochs=-7)),
    ("patience", "0", lambda: TrainConfig(patience=0)),
    ("seed", "-1", lambda: TrainConfig(seed=-1)),
    ("calibration_sign", "sideways", lambda: TrainConfig(calibration_sign="sideways")),
    ("train_fraction", "1.5", lambda: SplitSpec(train_fraction=1.5)),
    ("val_fraction", "0", lambda: SplitSpec(val_fraction=0.0)),
    ("dropout_alpha", "0", lambda: TrainConfig(dropout_alpha=0.0)),
    ("dropout_keep", "1.5", lambda: TrainConfig(dropout_keep=1.5)),
]


class TestValidation:
    def test_required_paths(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("")
        assert "'logs'" in str(err.value) and "'qmatrix'" in str(err.value)

    def test_nonexistent_paths_flagged(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config_text(minimal_text(tmp_path / "no.csv", tmp_path / "no2.csv"))

    def test_bad_variant(self, data_files):
        logs, qmatrix = data_files
        with pytest.raises(ValueError, match="variant"):
            RunConfig(logs=str(logs), qmatrix=str(qmatrix), variant="dkt")

    def test_fraction_budget(self, data_files):
        logs, qmatrix = data_files
        with pytest.raises(ValueError, match="test share"):
            RunConfig(logs=str(logs), qmatrix=str(qmatrix), train_fraction=0.8, val_fraction=0.3)

    def test_range_checks(self, data_files):
        logs, qmatrix = data_files
        with pytest.raises(ValueError) as err:
            RunConfig(
                logs=str(logs), qmatrix=str(qmatrix),
                gamma=-1.0, learning_rate=0.0, patience=0, dropout_keep=1.5, bins=0, variant="dkt",
            )
        for name in ("gamma", "learning_rate", "patience", "keep_probability", "bins", "variant"):
            assert name in str(err.value)

    @pytest.mark.parametrize("key, raw, owner", OWNED_CHECKS, ids=[c[0] for c in OWNED_CHECKS])
    def test_message_is_the_owning_dataclass_message(self, data_files, key, raw, owner):
        logs, qmatrix = data_files
        with pytest.raises(ValueError) as owned:
            owner()
        with pytest.raises(ConfigError) as parsed:
            parse_config_text(minimal_text(logs, qmatrix, f"{key} = {raw}\n"))
        assert str(parsed.value) == f"<config>: {owned.value}"


class TestMapping:
    def test_train_config_fields(self, data_files):
        # a RunConfig is the TrainConfig the trainer reads: no mapping in between
        logs, qmatrix = data_files
        cfg = parse_config_text(minimal_text(
            logs, qmatrix,
            "gamma = 0.01\nbeta = 0.5\ndropout_alpha = 0.25\ndropout_keep = 1\n",
        ))
        assert isinstance(cfg, TrainConfig)
        assert cfg.gamma == 0.01 and cfg.beta == 0.5
        assert cfg.dropout_alpha == 0.25
        assert cfg.dropout_keep == 1.0

    def test_defaults_agree_with_the_library_defaults(self):
        run, train = dataclasses.asdict(RunConfig()), dataclasses.asdict(TrainConfig())
        assert {k: run[k] for k in train} == train
        assert RunConfig().split == SplitSpec()
        assert RunConfig().diagnostic == DiagnosticFunction(RunConfig().variant)

    def test_sentinels_keep_the_file_spelling(self, data_files):
        logs, qmatrix = data_files
        cfg = parse_config_text(minimal_text(logs, qmatrix))
        assert cfg.pretrain_epochs == -1
        cfg2 = parse_config_text(minimal_text(logs, qmatrix, "pretrain_epochs = 3\n"))
        assert cfg2.pretrain_epochs == 3

    def test_format_parse_round_trip(self, data_files):
        logs, qmatrix = data_files
        cfg = parse_config_text(minimal_text(
            logs, qmatrix, "seed = 11\nvariant = irt\ncalibration_sign = literal\n"
        ))
        again = parse_config_text(format_config(cfg))
        assert dataclasses.asdict(again) == dataclasses.asdict(cfg)


# the file schema: every key with its default, as format_config writes it
SCHEMA = [
    "batch_size = 32",
    "beta = 0.1",
    "bins = 10",
    "calibration_sign = consistent",
    "dropout_alpha = 0.5",
    "dropout_keep = 0.5",
    "gamma = 0.0001",
    "learning_rate = 0.002",
    "logs = ",
    "max_epochs = 100",
    "min_logs = 15",
    "mlp_hidden1 = 512",
    "mlp_hidden2 = 256",
    "output_dir = run",
    "patience = 10",
    "pretrain_epochs = -1",
    "qmatrix = ",
    "seed = 0",
    "train_fraction = 0.7",
    "val_fraction = 0.1",
    "variant = ncd",
]


def json_value(raw):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw  # a bare string


def test_config_file_schema_is_pinned():
    assert sorted(format_config(RunConfig()).splitlines()) == SCHEMA
    # a checkpoint header's run_config holding exactly these keys and defaults
    # serves, beside the default head its header names
    run_config = {key: json_value(raw) for key, _, raw in (line.partition(" = ") for line in SCHEMA)}
    ck = SimpleNamespace(run_config=run_config, fn=DiagnosticFunction("ncd"))
    assert config_from_checkpoint(ck) == RunConfig()


# keys that configure the run itself rather than a library dataclass
RUN_ONLY_KEYS = {"logs", "qmatrix", "output_dir", "min_logs"}


def built_fields(cfg):
    """Every (dataclass, field, tuple position) value the config hands to the library."""
    flat = {("TrainConfig", f.name, None): getattr(cfg, f.name) for f in dataclasses.fields(TrainConfig)}
    for obj in (cfg.split, cfg.diagnostic):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            items = enumerate(value) if isinstance(value, tuple) else [(None, value)]
            for pos, item in items:
                flat[(type(obj).__name__, f.name, pos)] = item
    return flat


def altered(value):
    """A different value that every builder still accepts."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2
    return {"ncd": "mirt", "consistent": "literal"}.get(value, value + "x")


def test_every_dataclass_field_has_exactly_one_config_key():
    base = RunConfig()
    before = built_fields(base)
    reached_by = {name: [] for name in before}
    for f in dataclasses.fields(RunConfig):
        after = built_fields(dataclasses.replace(base, **{f.name: altered(getattr(base, f.name))}))
        hits = [name for name in before if after[name] != before[name]]
        assert bool(hits) != (f.name in RUN_ONLY_KEYS), (f.name, hits)
        for name in hits:
            reached_by[name].append(f.name)
    assert {name: keys for name, keys in reached_by.items() if len(keys) != 1} == {}
