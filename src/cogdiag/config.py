"""Flat ``key = value`` run configuration files.

The format is deliberately dumb: one assignment per line, ``#`` starts
a comment, blank lines ignored.  Parsing collects every problem before
reporting, so a bad file surfaces all its errors at once instead of one
per run attempt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .checkpoint import CheckpointError
from .diagnostics import DiagnosticFunction
from .training import TrainConfig


class ConfigError(ValueError):
    """One or more invalid configuration entries; message lists them all."""


@dataclass
class RunConfig(TrainConfig):
    """Everything a training run needs, as read from one config file.

    The training values are TrainConfig's; the keys added here name the
    data, the output and the diagnostic function.  Building one checks
    every value but the data file paths.
    """

    logs: str = ""
    qmatrix: str = ""
    variant: str = "ncd"
    output_dir: str = "run"
    min_logs: int = 15
    mlp_hidden1: int = DiagnosticFunction.mlp_hidden[0]
    mlp_hidden2: int = DiagnosticFunction.mlp_hidden[1]

    def _problems(self) -> list[str]:
        problems = []
        if not (self.min_logs >= 1):
            problems.append(f"min_logs must be at least 1, got {self.min_logs}")
        try:
            self.diagnostic
        except ValueError as exc:
            problems.append(str(exc))
        return problems + super()._problems()

    @property
    def diagnostic(self) -> DiagnosticFunction:
        return DiagnosticFunction(
            variant=self.variant, mlp_hidden=(self.mlp_hidden1, self.mlp_hidden2)
        )


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite float, got {raw!r}")
    return value


_PARSERS = {int: int, float: _parse_float, str: str}
# the config schema: every key, in file order, with the type of its value
KEY_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    values: dict = {}
    errors: list[str] = []
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in KEY_TYPES:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        seen.add(key)
        try:
            values[key] = _PARSERS[KEY_TYPES[key]](raw)
        except ValueError:
            errors.append(
                f"line {lineno}: cannot parse {key!r} value {raw!r} as {KEY_TYPES[key].__name__}"
            )

    if not errors:
        # only a config file names data files to open; a checkpoint's copy
        # is checked by the commands that open them
        for key, what in (("logs", "response log CSV path"), ("qmatrix", "Q-matrix CSV path")):
            path = values.get(key, "")
            if not path:
                errors.append(f"'{key}' ({what}) is required")
            elif not Path(path).exists():
                errors.append(f"{key} file {path!r} does not exist")
        try:
            cfg = RunConfig(**values)
        except ValueError as exc:
            errors.append(str(exc))
    if errors:
        raise ConfigError(f"{source}: " + "; ".join(errors))
    return cfg


def parse_config_file(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def format_config(cfg: RunConfig) -> str:
    """Render a RunConfig back to the flat file format (resolved values)."""
    return "".join(f"{key} = {getattr(cfg, key)}\n" for key in KEY_TYPES)


def config_from_checkpoint(ck) -> TrainConfig:
    """The run config ``ck`` records, checked as strictly as a config file's values.

    ``cogdiag train`` records every key, giving a RunConfig whose head must
    agree with the header's; a library Trainer records its TrainConfig's keys
    alone, giving that TrainConfig.  Any other key set is rejected.
    """
    have, known = set(ck.run_config), KEY_TYPES.keys()
    if have != known and have != {f.name for f in fields(TrainConfig)}:
        raise CheckpointError(
            "checkpoint run_config does not match this build's configuration schema "
            f"(missing keys: {', '.join(sorted(known - have)) or 'none'}; unexpected keys: "
            f"{', '.join(sorted(have - known)) or 'none'}); retrain with `cogdiag train`"
        )
    for name, value in ck.run_config.items():
        # what a config file could hold: a bool is not an int (and loading rejected 1e999)
        if type(value) is not KEY_TYPES[name]:
            raise CheckpointError(f"checkpoint run_config is malformed: {name} = {value!r}")
    try:
        cfg = (RunConfig if have == known else TrainConfig)(**ck.run_config)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint configuration no longer valid: {exc}") from None
    if isinstance(cfg, RunConfig) and cfg.diagnostic != ck.fn:
        raise CheckpointError(
            f"checkpoint head {ck.fn} disagrees with its run_config's {cfg.diagnostic}"
        )
    return cfg
