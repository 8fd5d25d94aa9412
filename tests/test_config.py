"""Run-config parsing, strictness, and builder tests."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgf import config as cf
from sdgf import data as dt
from sdgf import model as md
from sdgf import training as tr
from sdgf.errors import ConfigError


def test_defaults_cover_every_registered_key():
    cfg = cf.RunConfig.defaults()
    assert cfg["train.batch"] == 32
    assert cfg["gcn.alpha"] == 0.5
    assert cfg["wavelet.family"] == "haar"
    # No key is a true/false switch.
    assert not any(isinstance(value, bool) for value in cf.DEFAULTS.values())


def test_parse_typed_values_and_comments():
    text = """
    # lookback
    model.input_len = 48
    train.lr = 0.005   # tuned
    wavelet.family = db4
    """
    cfg = cf.RunConfig.parse(text)
    assert cfg["model.input_len"] == 48
    assert cfg["train.lr"] == 0.005
    assert cfg["wavelet.family"] == "db4"
    # Unset keys keep their defaults.
    assert cfg["train.batch"] == 32


def test_unknown_key_is_an_error_with_location():
    with pytest.raises(ConfigError, match=r"myconf:2.*model\.hiden"):
        cf.RunConfig.parse("model.hidden = 8\nmodel.hiden = 8\n", source="myconf")


def test_duplicate_key_is_an_error():
    with pytest.raises(ConfigError, match="duplicate"):
        cf.RunConfig.parse("train.lr = 0.1\ntrain.lr = 0.2\n")


def test_bad_value_types():
    with pytest.raises(ConfigError, match="integer"):
        cf.RunConfig.parse("train.epochs = 2.5")
    with pytest.raises(ConfigError, match="number"):
        cf.RunConfig.parse("train.lr = fast")


def test_missing_equals_is_an_error():
    with pytest.raises(ConfigError, match="key = value"):
        cf.RunConfig.parse("train.lr 0.1")


def test_text_round_trip_is_exact():
    cfg = cf.RunConfig.parse("train.lr = 0.0001\nmodel.hidden = 24\nsynth.pairs = 0:1:3\n")
    again = cf.RunConfig.parse(cfg.to_text())
    assert again.values == cfg.values


STRING_KEYS = sorted(key for key, value in cf.DEFAULTS.items() if isinstance(value, str))


@pytest.mark.parametrize("value", ["lag#1.csv", "two\nlines", "cr\rhere", " lead", "trail\t", "\x85"])
def test_a_string_the_config_file_cannot_write_back_is_an_error(value):
    for key in STRING_KEYS:
        with pytest.raises(ConfigError, match=f"key '{key}'"):
            cf.RunConfig({**cf.DEFAULTS, key: value})
    # A --set strips its value, so only what lies inside it can fail.
    if value.strip() == value:
        with pytest.raises(ConfigError, match="'data.path'"):
            cf.RunConfig.defaults().override([f"data.path=x{value}x"])


def same_value(a, b):
    return type(a) is type(b) and (a == b or (a != a and b != b))


@settings(max_examples=200, deadline=None)
@given(
    assignments=st.lists(
        st.tuples(
            st.sampled_from(sorted(cf.DEFAULTS)),
            st.one_of(st.text(), st.integers().map(str), st.floats().map(repr)),
        ),
        max_size=6,
    ),
    paths=st.dictionaries(st.sampled_from(["data.path", "out.dir"]), st.text()),
)
def test_every_accepted_config_reads_back_from_its_text(assignments, paths):
    # ``paths`` stands for --data and --out, which set their keys verbatim.
    try:
        cfg = cf.RunConfig.defaults().override([f"{key}={text}" for key, text in assignments])
        cfg = cf.RunConfig({**cfg.values, **paths})
    except ConfigError:
        return
    again = cf.RunConfig.parse(cfg.to_text())
    assert again.values.keys() == cfg.values.keys()
    for key, value in cfg.values.items():
        assert same_value(again[key], value), key
    assert again.to_text() == cfg.to_text()


def test_override_parses_and_rejects():
    cfg = cf.RunConfig.defaults().override(["train.seed=9", "gcn.depth=3"])
    assert cfg["train.seed"] == 9
    assert cfg["gcn.depth"] == 3
    with pytest.raises(ConfigError, match="no.such.key"):
        cf.RunConfig.defaults().override(["no.such.key=1"])
    with pytest.raises(ConfigError, match="key=value"):
        cf.RunConfig.defaults().override(["oops"])


def test_load_missing_file():
    with pytest.raises(ConfigError, match="nowhere.cfg"):
        cf.RunConfig.load("nowhere.cfg")


def test_model_config_builder_maps_keys():
    cfg = cf.RunConfig.defaults().override(
        ["model.input_len=32", "model.horizon=8", "wavelet.levels=2", "gcn.alpha=0.3"]
    )
    mc = cf.model_config(cfg, n_vars=5)
    assert mc.input_len == 32
    assert mc.horizon == 8
    assert mc.n_vars == 5
    assert mc.levels == 2
    assert mc.alpha == 0.3


def test_train_config_builder_maps_keys():
    cfg = cf.RunConfig.defaults().override(["train.lr=0.01", "train.clip=0"])
    tc = cf.train_config(cfg)
    assert tc.lr == 0.01
    assert tc.clip == 0.0
    assert tc.batch == 32


@pytest.mark.parametrize(
    "sections,cls", [(("model", "wavelet", "gcn"), md.ModelConfig), (("train",), tr.TrainConfig)]
)
def test_each_builder_key_names_a_field_with_the_same_default(sections, cls):
    # The builders take each key under their sections as the field named
    # after the dot. The benchmark builds models from the dataclass
    # defaults and the CLI from ``DEFAULTS``, so where a field has a
    # default, its key's default is the same value of the same type.
    fields = {f.name: f for f in dataclasses.fields(cls)}
    keys = [key for key in cf.DEFAULTS if key.partition(".")[0] in sections]
    assert keys
    for key in keys:
        name = key.partition(".")[2]
        assert name in fields, key
        default = fields[name].default
        if default is not dataclasses.MISSING:
            assert type(default) is type(cf.DEFAULTS[key]) and default == cf.DEFAULTS[key], key


def test_synth_spec_builder_parses_lists():
    cfg = cf.RunConfig.defaults().override(
        ["synth.n_vars=3", "synth.periods=12,18,24", "synth.pairs=0:2:4", "synth.rows=50"]
    )
    spec = cf.synth_spec(cfg)
    assert spec.periods == [12.0, 18.0, 24.0]
    assert spec.lag_pairs == [(0, 2, 4)]


def test_synth_spec_builder_rejects_malformed_pairs():
    cfg = cf.RunConfig.defaults().override(["synth.pairs=0-1-3"])
    with pytest.raises(ConfigError, match="src:dst:lag"):
        cf.synth_spec(cfg)
    cfg = cf.RunConfig.defaults().override(["synth.pairs=a:b:c"])
    with pytest.raises(ConfigError, match="non-integer"):
        cf.synth_spec(cfg)
    cfg = cf.RunConfig.defaults().override(["synth.periods=1,two"])
    with pytest.raises(ConfigError, match="comma-separated"):
        cf.synth_spec(cfg)


def float_fields(cls):
    return [f.name for f in dataclasses.fields(cls) if "float" in f.type]


@settings(max_examples=30, deadline=None)
@given(
    train_field=st.sampled_from(float_fields(tr.TrainConfig)),
    synth_field=st.sampled_from(float_fields(dt.SynthSpec)),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    slot=st.integers(0, 1),
)
def test_a_non_finite_float_field_is_a_config_error(train_field, synth_field, bad, slot):
    with pytest.raises(ConfigError):
        tr.TrainConfig(**{train_field: bad})
    spec = {"n_vars": 2, "rows": 50, "periods": [24.0, 20.0]}
    spec[synth_field] = [bad if j == slot else 24.0 for j in range(2)] if synth_field == "periods" else bad
    with pytest.raises(ConfigError):
        dt.synthesize(dt.SynthSpec(**spec))
