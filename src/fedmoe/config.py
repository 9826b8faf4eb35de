"""Experiment configuration: flat dotted keys over typed sections.

Config files are plain ``key = value`` text (``#`` comments); the same
dotted keys work as CLI flag overrides.  ``ExperimentConfig.resolve`` layers
defaults <- preset <- file <- flags, coerces types from the section
dataclasses, and validates everything before any compute.

Each rule has one owner.  A section checks its own fields in its
``__post_init__``: ``BackboneConfig``, ``AdapterConfig``, ``AuxLossConfig``
and ``DataConfig`` sit next to the modules that use them, and the
``sparsity``, ``federation``, ``seeds`` and ``output`` sections live here.
``ExperimentConfig.validate`` holds only the rules that read two sections.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

from .adapter import AdapterConfig
from .backbone import BackboneConfig
from .data import DataConfig
from .errors import ConfigurationError
from .losses import AuxLossConfig

ENV_OUTPUT_ROOT = "FEDMOE_RUNS"

# mode -> the fields of its (high, low) budgets; fixed gives every client k
_BUDGET_FIELDS = {"fixed": ("k", "k"), "capability": ("k_high", "k_low")}


@dataclass(frozen=True)
class SparsitySection:
    mode: str = "fixed"          # "fixed" | "capability"
    k: int = 2
    k_high: int = 4
    k_low: int = 1
    high_fraction: float = 0.5   # leading clients are the high-capability ones
    eval_k: int = 0              # 0 = max over client K_n

    def __post_init__(self):
        if self.mode not in _BUDGET_FIELDS:
            raise ConfigurationError("sparsity.mode must be fixed or capability")
        if not 0.0 <= self.high_fraction <= 1.0:
            raise ConfigurationError("sparsity.high_fraction outside [0, 1]")

    def budgets(self, clients: int) -> list[int]:
        """Every client's K_n: the leading ``round(high_fraction * clients)``
        clients (half to even) get the mode's high budget, the rest its low
        one; in fixed mode both are ``k``."""
        high, low = (getattr(self, name) for name in _BUDGET_FIELDS[self.mode])
        n_high = round(self.high_fraction * clients)
        return [high] * n_high + [low] * (clients - n_high)


@dataclass(frozen=True)
class FederationSection:
    clients: int = 4
    rounds: int = 20
    epochs: int = 1
    batch_size: int = 128
    lr: float = 3e-4
    weight_decay: float = 0.01
    reset_optimizer: bool = False  # fresh Adam moments every round when true

    def __post_init__(self):
        if self.clients < 1:
            raise ConfigurationError("federation.clients must be >= 1")
        if self.rounds < 0:
            raise ConfigurationError("federation.rounds must be >= 0")
        if self.epochs < 1:
            raise ConfigurationError("federation.epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("federation.batch_size must be >= 1")
        if self.lr < 0 or self.weight_decay < 0:
            raise ConfigurationError("federation.lr and weight_decay must be >= 0")


@dataclass(frozen=True)
class SeedsSection:
    run: int = 0
    data: int = 0
    frozen: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 0:
                raise ConfigurationError(
                    f"seeds.{f.name} must be >= 0, got {value}")


@dataclass(frozen=True)
class OutputSection:
    dir: str = ""                # empty: $FEDMOE_RUNS or ./runs


# public dotted key -> (section, field); "aux.lambda" keeps the usual symbol
_FIELD_ALIASES = {"aux.lambda": ("aux", "lam")}

PRESETS = {
    # 4 text-like clients, 20 rounds, batch 128, Adam 3e-4 / wd 0.01
    "agnews-like": {},
    # 10 image-like clients, 10-way labels, otherwise identical
    "cifar-like": {"federation.clients": "10", "data.classes": "10",
                   "data.n": "5000"},
}


def _field_map() -> dict[str, tuple[str, str, type]]:
    """Every public dotted key -> (section attr, field name, type)."""
    table: dict[str, tuple[str, str, type]] = {}
    for section, cls in _SECTIONS.items():
        for f in fields(cls):
            table[f"{section}.{f.name}"] = (section, f.name, f.type)
    for public, (section, name) in _FIELD_ALIASES.items():
        cls = _SECTIONS[section]
        ftype = next(f.type for f in fields(cls) if f.name == name)
        del table[f"{section}.{name}"]
        table[public] = (section, name, ftype)
    return table


_TYPES = {"int": int, "float": float, "str": str, "bool": bool}


def _coerce(key: str, raw: str, ftype) -> object:
    if isinstance(ftype, str):  # dataclass fields carry annotation strings
        ftype = _TYPES[ftype]
    text = raw.strip()
    try:
        if ftype is bool:
            lowered = text.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if ftype is int:
            return int(text)
        if ftype is float:
            value = float(text)
            if not math.isfinite(value):
                raise ValueError(f"not a finite number: {text!r}")
            return value
        return text
    except ValueError as exc:
        raise ConfigurationError(f"{key}: {exc}") from None


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config_file(path) -> dict[str, str]:
    """Read ``key = value`` lines; unknown keys fail with the key named."""
    out: dict[str, str] = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{lineno}: expected `key = value`")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = raw.strip()
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    backbone: BackboneConfig
    adapter: AdapterConfig
    sparsity: SparsitySection
    federation: FederationSection
    aux: AuxLossConfig
    data: DataConfig
    seeds: SeedsSection
    output: OutputSection

    # -- construction -------------------------------------------------------

    @classmethod
    def default(cls) -> "ExperimentConfig":
        return cls(**{name: section() for name, section in _SECTIONS.items()})

    @classmethod
    def resolve(cls, *layers: dict[str, str]) -> "ExperimentConfig":
        """Defaults overlaid with each ``{dotted key: raw string}`` layer,
        later layers winning, then validated."""
        merged: dict[str, str] = {}
        for layer in layers:
            for key in layer:
                if key not in _FIELDS:
                    raise ConfigurationError(f"unknown config key {key!r}")
            merged.update(layer)
        per_section: dict[str, dict[str, object]] = {s: {} for s in _SECTIONS}
        for key, raw in merged.items():
            section, name, ftype = _FIELDS[key]
            per_section[section][name] = _coerce(key, raw, ftype)
        cfg = cls(**{name: section_cls(**per_section[name])
                     for name, section_cls in _SECTIONS.items()})
        cfg.validate()
        return cfg

    def to_items(self) -> list[tuple[str, str]]:
        """Canonical (key, value) pairs covering every field, sorted."""
        items = []
        for key, (section, name, _ftype) in _FIELDS.items():
            items.append((key, _format(getattr(getattr(self, section), name))))
        return sorted(items)

    def canonical_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.to_items())

    def hash_id(self) -> str:
        """The experiment's content id.  ``output.dir`` is left out, so one
        experiment keeps its id under any output root."""
        text = replace(self, output=OutputSection()).canonical_text()
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.canonical_text())

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """The rules that read two sections.  A rule on one section's own
        fields lives in that section's ``__post_init__`` and ran when the
        section was built."""
        adp, spr, fed, dat = self.adapter, self.sparsity, self.federation, self.data
        for name in dict.fromkeys(_BUDGET_FIELDS[spr.mode]):  # fixed: k once
            value = getattr(spr, name)
            if not 1 <= value <= adp.experts:
                raise ConfigurationError(
                    f"sparsity.{name} = {value} outside [1, {adp.experts}]")
        if spr.eval_k != 0 and not 1 <= spr.eval_k <= adp.experts:
            raise ConfigurationError(
                f"sparsity.eval_k = {spr.eval_k} outside [1, {adp.experts}]")
        if adp.gating_mode == "uniform_one" and fed.rounds > 0:
            raise ConfigurationError(
                "adapter.gating_mode = uniform_one cannot train: its router "
                "gets no gradient (use it with federation.rounds = 0)")
        # the threshold can only ever release the gate if it exceeds 1/M
        if self.aux.lam > 0.0 and self.aux.theta_th <= 1.0 / adp.experts:
            raise ConfigurationError(
                f"aux.theta_th = {self.aux.theta_th} never deactivates with "
                f"{adp.experts} experts (needs > {1.0 / adp.experts:.4g})")
        if (dat.source == "synthetic" and dat.partition == "one_label"
                and fed.clients < dat.classes):
            raise ConfigurationError(
                f"one_label partition needs federation.clients >= "
                f"{dat.classes}")


# section name -> its dataclass, in ExperimentConfig's field order
_SECTIONS = get_type_hints(ExperimentConfig)
_FIELDS = _field_map()
