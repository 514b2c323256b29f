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

from .diagnostics import DiagnosticFunction
from .latent import DropoutConfig
from .training import TrainConfig


class ConfigError(ValueError):
    """One or more invalid configuration entries; message lists them all."""


@dataclass
class RunConfig:
    """Everything a training run needs, as read from one config file."""

    logs: str = ""
    qmatrix: str = ""
    variant: str = "ncd"
    output_dir: str = "run"
    min_logs: int = 15
    bins: int = 10
    irt_scale: float = 1.702
    mlp_hidden1: int = 512
    mlp_hidden2: int = 256
    gamma: float = 1e-4
    beta: float = 0.1
    learning_rate: float = 0.002
    batch_size: int = 32
    max_epochs: int = 100
    pretrain_epochs: int = -1  # -1 means "same as max_epochs"
    patience: int = 10
    seed: int = 0
    train_fraction: float = 0.7
    val_fraction: float = 0.1
    preserve_order: bool = False
    pair_count: int = -1  # -1 means "same as batch_size"
    calibration_sign: str = "consistent"
    dropout_alpha: float = 0.5
    dropout_keep: float = 0.5
    dropout_enabled: bool = True
    kl_dedup: bool = False
    lazy_adam: bool = True


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite float, got {raw!r}")
    return value


_PARSERS = {int: int, float: _parse_float, str: str, bool: _parse_bool}


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    defaults = RunConfig()
    known = {f.name for f in fields(RunConfig)}
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
        if key not in known:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        seen.add(key)
        parser = _PARSERS[type(getattr(defaults, key))]
        try:
            values[key] = parser(raw)
        except ValueError:
            errors.append(
                f"line {lineno}: cannot parse {key!r} value {raw!r} as "
                f"{type(getattr(defaults, key)).__name__}"
            )

    if not errors:
        cfg = RunConfig(**values)
        # only a config file names data files to open; a checkpoint's copy
        # is checked by the commands that open them
        for key, what in (("logs", "response log CSV path"), ("qmatrix", "Q-matrix CSV path")):
            path = getattr(cfg, key)
            if not path:
                errors.append(f"'{key}' ({what}) is required")
            elif not Path(path).exists():
                errors.append(f"{key} file {path!r} does not exist")
        errors.extend(validate_run_config(cfg))
    if errors:
        raise ConfigError(f"{source}: " + "; ".join(errors))
    return cfg


def validate_run_config(cfg: RunConfig) -> list[str]:
    """Every problem with ``cfg`` except its data file paths, as messages.

    Fields that feed a dataclass are checked by building it; TrainConfig is
    built apart from its DropoutConfig, so a bad dropout hides none of its errors.
    """
    errors = []
    if not (cfg.min_logs >= 1):
        errors.append(f"min_logs must be at least 1, got {cfg.min_logs}")
    if not (cfg.bins >= 1):
        errors.append(f"bins must be at least 1, got {cfg.bins}")
    for build in (diagnostic_of, dropout_of, lambda c: TrainConfig(**_train_fields(c))):
        try:
            build(cfg)
        except ValueError as exc:
            errors.append(str(exc))
    return errors


def parse_config_file(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def diagnostic_of(cfg: RunConfig) -> DiagnosticFunction:
    return DiagnosticFunction(
        variant=cfg.variant,
        irt_scale=cfg.irt_scale,
        mlp_hidden=(cfg.mlp_hidden1, cfg.mlp_hidden2),
    )


def dropout_of(cfg: RunConfig) -> DropoutConfig:
    return DropoutConfig(
        alpha=cfg.dropout_alpha,
        keep_probability=cfg.dropout_keep,
        enabled=cfg.dropout_enabled,
    )


def _train_fields(cfg: RunConfig) -> dict:
    """TrainConfig's own fields; its ``dropout`` comes from :func:`dropout_of`."""
    return dict(
        gamma=cfg.gamma,
        beta=cfg.beta,
        learning_rate=cfg.learning_rate,
        batch_size=cfg.batch_size,
        max_epochs=cfg.max_epochs,
        pretrain_epochs=None if cfg.pretrain_epochs == -1 else cfg.pretrain_epochs,
        patience=cfg.patience,
        seed=cfg.seed,
        train_fraction=cfg.train_fraction,
        val_fraction=cfg.val_fraction,
        preserve_order=cfg.preserve_order,
        pair_count=None if cfg.pair_count == -1 else cfg.pair_count,
        calibration_sign=cfg.calibration_sign,
        kl_dedup=cfg.kl_dedup,
        lazy_adam=cfg.lazy_adam,
    )


def train_config_of(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(dropout=dropout_of(cfg), **_train_fields(cfg))


def format_config(cfg: RunConfig) -> str:
    """Render a RunConfig back to the flat file format (resolved values)."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
