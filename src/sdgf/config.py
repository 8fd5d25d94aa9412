"""Flat key=value run configuration.

One UTF-8 text file (a leading byte-order mark is skipped) drives a
whole run. Every key has a typed default below; unknown keys and
malformed values are hard errors so typos never pass silently. The
fully-resolved config is written next to each run's outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import model as md
from .data import SynthSpec, atomic_open
from .errors import ConfigError
from .training import TrainConfig

# Key -> default. The default's Python type decides how text parses.
DEFAULTS: dict = {
    "model.input_len": 96,
    "model.horizon": 96,
    "model.hidden": 64,
    "model.seed": 0,
    "wavelet.family": "haar",
    "wavelet.levels": 3,
    "wavelet.boundary": "circular",
    "gcn.alpha": 0.5,
    "gcn.depth": 2,
    "gcn.embed_dim": 16,
    "train.lr": 1e-3,
    "train.epochs": 30,
    "train.patience": 5,
    "train.batch": 32,
    "train.seed": 0,
    "train.clip": 5.0,
    "data.path": "",
    "out.dir": "runs/latest",
    "synth.n_vars": 4,
    "synth.rows": 2000,
    "synth.periods": "24,24,20,20",
    "synth.pairs": "0:1:18,2:3:12",
    "synth.noise": 0.0,
    "synth.seed": 0,
    "synth.out": "",
}


def _parse_value(key: str, text: str):
    default = DEFAULTS[key]
    text = text.strip()
    if isinstance(default, int):
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"key {key!r} expects an integer, got {text!r}") from None
    if isinstance(default, float):
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"key {key!r} expects a number, got {text!r}") from None
    return text


def _format_value(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class RunConfig:
    values: dict

    def __post_init__(self):
        # ``parse`` cuts each line of ``to_text`` at ``#`` and strips it, so
        # a string that would not read back as itself is refused.
        for key in sorted(self.values):
            value = self.values[key]
            if isinstance(value, str) and (
                "#" in value or value != value.strip() or "".join(value.splitlines()) != value
            ):
                raise ConfigError(f"key {key!r} cannot hold {value!r}: a config file cannot"
                                  " write back a '#', a line break, or outer whitespace")

    def __getitem__(self, key: str):
        if key not in self.values:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls(dict(DEFAULTS))

    @classmethod
    def parse(cls, text: str, source: str = "<config>") -> "RunConfig":
        values = dict(DEFAULTS)
        seen = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{source}:{lineno}: expected key = value, got {raw!r}")
            key, _, rhs = line.partition("=")
            key = key.strip()
            if key not in DEFAULTS:
                raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
            if key in seen:
                raise ConfigError(f"{source}:{lineno}: duplicate config key {key!r}")
            seen.add(key)
            values[key] = _parse_value(key, rhs)
        return cls(values)

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            with open(path, encoding="utf-8-sig") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        return cls.parse(text, source=path)

    def override(self, assignments) -> "RunConfig":
        """Apply ``key=value`` strings (e.g. from --set flags)."""
        values = dict(self.values)
        for item in assignments:
            if "=" not in item:
                raise ConfigError(f"override must look like key=value, got {item!r}")
            key, _, rhs = item.partition("=")
            key = key.strip()
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _parse_value(key, rhs)
        return RunConfig(values)

    def to_text(self) -> str:
        lines = [f"{key} = {_format_value(self.values[key])}" for key in sorted(self.values)]
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with atomic_open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_text())


# ---------------------------------------------------------------------------
# Builders for the typed configs the library modules consume


def _fields(cfg: RunConfig, sections: tuple) -> dict:
    """The values of the keys under ``sections``, by field: the text after the dot."""
    return {k.partition(".")[2]: cfg[k] for k in DEFAULTS if k.partition(".")[0] in sections}


def model_config(cfg: RunConfig, n_vars: int) -> md.ModelConfig:
    return md.ModelConfig(n_vars=n_vars, **_fields(cfg, ("model", "wavelet", "gcn")))


def train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(**_fields(cfg, ("train",)))


def _parse_periods(text: str):
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"synth.periods expects comma-separated numbers, got {text!r}") from None


def _parse_pairs(text: str):
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ConfigError(
                f"synth.pairs entries look like src:dst:lag, got {part!r}"
            )
        try:
            pairs.append((int(pieces[0]), int(pieces[1]), int(pieces[2])))
        except ValueError:
            raise ConfigError(f"synth.pairs entry has non-integer field: {part!r}") from None
    return pairs


def synth_spec(cfg: RunConfig) -> SynthSpec:
    return SynthSpec(
        n_vars=cfg["synth.n_vars"],
        rows=cfg["synth.rows"],
        periods=_parse_periods(cfg["synth.periods"]),
        lag_pairs=_parse_pairs(cfg["synth.pairs"]),
        noise=cfg["synth.noise"],
        seed=cfg["synth.seed"],
    )
