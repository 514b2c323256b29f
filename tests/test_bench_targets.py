"""The benchmark tracer's targets still exist, with the arguments its hooks read.

``perfbench/tracer.py`` wraps program functions by module attribute and
binds some of their arguments by name.  A rename or deletion there shows
up only as ``trace.missing_spans`` (or a hook error) in a traced run;
here it fails tier-1 instead.  The tracer is imported by file path and
only read, never installed.
"""

import functools
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# argument names each hook binds from the call it wraps
HOOK_ARGS = {
    "_count_pairs": ("count",),
    "_count_nodes": ("root",),
    "_count_adam_rows": ("store",),
    "_count_saved": ("path",),
    "_count_loaded": ("path",),
    "_count_dense_q": (),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TARGETS = load_tracer().TARGETS


def resolve(target):
    """The object the tracer would replace, looked up the way it does."""
    module_name, _, class_name = target.owner.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    return owner.__dict__.get(target.attr)


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t.owner}.{t.attr}")
def test_target_resolves(target):
    assert resolve(target) is not None, f"{target.span}: {target.owner}.{target.attr} is gone"


def test_dense_q_is_a_cached_property():
    (target,) = [t for t in TARGETS if t.attr == "dense_q"]
    assert isinstance(resolve(target), functools.cached_property)


@pytest.mark.parametrize(
    "target", [t for t in TARGETS if t.pre or t.post], ids=lambda t: f"{t.owner}.{t.attr}"
)
def test_hook_arguments_in_signature(target):
    original = resolve(target)
    if isinstance(original, functools.cached_property):
        original = original.func
    params = inspect.signature(original).parameters
    for hook in (target.pre, target.post):
        if hook is None:
            continue
        assert hook.__name__ in HOOK_ARGS, f"no argument list for tracer hook {hook.__name__}"
        for name in HOOK_ARGS[hook.__name__]:
            assert name in params, f"{target.span}: {hook.__name__} binds {name!r}"
