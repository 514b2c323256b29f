"""Flat config file parsing, validation, and round-tripping."""

import dataclasses

import pytest

from cogdiag.config import (
    ConfigError,
    RunConfig,
    diagnostic_of,
    format_config,
    parse_config_file,
    parse_config_text,
    train_config_of,
    validate_run_config,
)
from cogdiag.data import SplitSpec
from cogdiag.diagnostics import DiagnosticFunction
from cogdiag.latent import DropoutConfig
from cogdiag.numerics import AdamConfig
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

    def test_bool_spellings(self, data_files):
        logs, qmatrix = data_files
        for raw, want in (("true", True), ("Yes", True), ("1", True), ("on", True),
                          ("false", False), ("No", False), ("0", False), ("off", False)):
            cfg = parse_config_text(minimal_text(logs, qmatrix, f"kl_dedup = {raw}\n"))
            assert cfg.kl_dedup is want

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
    ("variant", "dkt", lambda: DiagnosticFunction("dkt")),
    ("irt_scale", "0", lambda: DiagnosticFunction("ncd", irt_scale=0.0)),
    ("mlp_hidden1", "0", lambda: DiagnosticFunction("ncd", mlp_hidden=(0, 256))),
    ("gamma", "-1", lambda: TrainConfig(gamma=-1.0)),
    ("beta", "-0.5", lambda: TrainConfig(beta=-0.5)),
    ("learning_rate", "0", lambda: AdamConfig(learning_rate=0.0)),
    ("batch_size", "0", lambda: TrainConfig(batch_size=0)),
    ("max_epochs", "-1", lambda: TrainConfig(max_epochs=-1)),
    ("pretrain_epochs", "-7", lambda: TrainConfig(pretrain_epochs=-7)),
    ("patience", "0", lambda: TrainConfig(patience=0)),
    ("seed", "-1", lambda: TrainConfig(seed=-1)),
    ("pair_count", "-2", lambda: TrainConfig(pair_count=-2)),
    ("calibration_sign", "sideways", lambda: TrainConfig(calibration_sign="sideways")),
    ("train_fraction", "1.5", lambda: SplitSpec(train_fraction=1.5)),
    ("val_fraction", "0", lambda: SplitSpec(val_fraction=0.0)),
    ("dropout_alpha", "0", lambda: DropoutConfig(alpha=0.0)),
    ("dropout_keep", "1.5", lambda: DropoutConfig(keep_probability=1.5)),
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
        cfg = RunConfig(logs=str(logs), qmatrix=str(qmatrix), variant="dkt")
        assert any("variant" in e for e in validate_run_config(cfg))

    def test_fraction_budget(self, data_files):
        logs, qmatrix = data_files
        cfg = RunConfig(
            logs=str(logs), qmatrix=str(qmatrix), train_fraction=0.8, val_fraction=0.3
        )
        assert any("test share" in e for e in validate_run_config(cfg))

    def test_range_checks(self, data_files):
        logs, qmatrix = data_files
        cfg = RunConfig(
            logs=str(logs), qmatrix=str(qmatrix),
            gamma=-1.0, learning_rate=0.0, patience=0, dropout_keep=1.5,
        )
        joined = "; ".join(validate_run_config(cfg))
        for name in ("gamma", "learning_rate", "patience", "keep_probability"):
            assert name in joined

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
        logs, qmatrix = data_files
        cfg = parse_config_text(minimal_text(
            logs, qmatrix,
            "gamma = 0.01\nbeta = 0.5\ndropout_alpha = 0.25\ndropout_enabled = false\n",
        ))
        tc = train_config_of(cfg)
        assert tc.gamma == 0.01 and tc.beta == 0.5
        assert tc.dropout.alpha == 0.25
        assert tc.dropout.enabled is False

    def test_sentinels_become_none(self, data_files):
        logs, qmatrix = data_files
        cfg = parse_config_text(minimal_text(logs, qmatrix))
        tc = train_config_of(cfg)
        assert tc.pretrain_epochs is None
        assert tc.pair_count is None
        cfg2 = parse_config_text(minimal_text(logs, qmatrix, "pretrain_epochs = 3\npair_count = 9\n"))
        tc2 = train_config_of(cfg2)
        assert tc2.pretrain_epochs == 3 and tc2.pair_count == 9

    def test_format_parse_round_trip(self, data_files):
        logs, qmatrix = data_files
        cfg = parse_config_text(minimal_text(
            logs, qmatrix, "seed = 11\nvariant = irt\npreserve_order = true\n"
        ))
        again = parse_config_text(format_config(cfg))
        assert dataclasses.asdict(again) == dataclasses.asdict(cfg)


# keys that configure the run itself rather than a library dataclass
RUN_ONLY_KEYS = {"logs", "qmatrix", "output_dir", "min_logs", "bins"}


def built_fields(cfg):
    """Every (dataclass, field, tuple position) value the builders derive from ``cfg``."""
    tc = train_config_of(cfg)
    flat = {}
    for obj in (tc, tc.dropout, tc.split, diagnostic_of(cfg)):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if dataclasses.is_dataclass(value):
                continue  # TrainConfig.dropout is visited as the DropoutConfig
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
