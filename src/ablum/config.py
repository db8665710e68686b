"""Experiment configuration: a flat, sectioned key-value file format.

Files are INI-style text. Every key has a default, so a minimal file may set
nothing but a seed. Lists use semicolon-separated tuples, e.g.
``peaks = 30,50,12; 70,50,12`` and ``breakpoints = 0,-0.8; 300,0.8``.
Unknown sections or keys are rejected by name.

Each key is declared once, on its ``ExperimentConfig`` field (see ``key``);
the parser, validator, serializer and sweepable set derive from the fields.
The ``[sweep]`` section is the fields of ``SweepSpec``. A Sobol campaign has
no section: its base sample count and second-order switch are command-line
flags, and it averages ``[run] replications`` seeds per design row.
"""

import configparser
import math
from dataclasses import MISSING, Field, astuple, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args

import numpy as np

from .dynamics import AttitudeSchedule
from .errors import ConfigurationError
from .landscape import default_peaks

# Alias that sets both critical-mass keys at once.
CM_ALIAS = "cm"


def key(default, section: str, range: str | None = None, *, ini: str | None = None, sweep=False):
    """Field of a config key: its INI section, its INI name where that differs
    from the field name, its valid range as the error message prints it
    (``[lo, hi]``, ``> lo`` or ``>= lo``), and whether sweeps and
    ``apply_values`` may set it."""
    return field(default=default, metadata={"section": section, "ini": ini, "range": range, "sweep": sweep})


def _number(record, name: str, integer: bool = True):
    """Key ``name`` of ``record`` (a config or a section), checked to be finite
    and, for an integer key, integral; an integer key is stored back as an int."""
    value = getattr(record, name)
    if not math.isfinite(value):
        raise ConfigurationError(f"config key {name!r} = {value!r} is not a finite number")
    if integer:
        if value != int(value):
            raise ConfigurationError(f"config key {name!r} = {value!r} is not an integer")
        value = int(value)
        object.__setattr__(record, name, value)
    return value


@dataclass(frozen=True)
class SweepParam:
    name: str
    lower: float
    upper: float
    steps: int

    def __post_init__(self):
        if self.name not in NUMERIC_KEYS and self.name != CM_ALIAS:
            raise _not_sweepable(self.name)
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ConfigurationError(f"sweep {self.name}: bounds must be finite")
        _number(self, "steps")
        if self.steps < 2:
            raise ConfigurationError("sweep steps must be >= 2")
        if self.lower > self.upper:
            raise ConfigurationError(f"sweep {self.name}: lower must be <= upper")

    def values(self):
        return np.linspace(self.lower, self.upper, self.steps)


@dataclass(frozen=True)
class SweepSpec:
    params: tuple[SweepParam, ...]
    replications: int = 1

    def __post_init__(self):
        if not 1 <= len(self.params) <= 2:
            raise ConfigurationError("sweeps take one or two parameters")
        _number(self, "replications")
        if self.replications < 1:
            raise ConfigurationError("sweep replications must be >= 1")


@dataclass
class ExperimentConfig:
    """All knobs of one experiment; every field has a sensible default."""

    grid_width: int = key(101, "grid", ">= 3", ini="width")
    grid_height: int = key(101, "grid", ">= 3", ini="height")
    peaks: tuple[tuple[float, float, float], ...] | None = key(None, "capitals")
    noise_amp: float = key(0.0, "capitals", "[0, 0.2]")

    attitude_mean: float = key(0.0, "behaviour", "[-1, 1]", sweep=True)
    attitude_sigma: float = key(0.15, "behaviour", ">= 0")
    norm_weight_w: float = key(0.5, "behaviour", "[0, 1]", sweep=True)
    norm_weight_sigma: float = key(0.0, "behaviour", ">= 0")
    inertia_lambda: float = key(0.0, "behaviour", "[0, 1]", sweep=True)
    inertia_sigma: float = key(0.0, "behaviour", ">= 0")
    cm_int: float = key(0.5, "behaviour", "[0, 1]", sweep=True)
    cm_int_sigma: float = key(0.0, "behaviour", ">= 0")
    cm_ext: float = key(0.5, "behaviour", "[0, 1]", sweep=True)
    cm_ext_sigma: float = key(0.0, "behaviour", ">= 0")
    git_upper_L: float = key(1.0, "behaviour", "[0, 1]", sweep=True)
    git_upper_sigma: float = key(0.0, "behaviour", ">= 0")
    logistic_k: float = key(10.0, "behaviour", "> 0", sweep=True)
    economic_baseline: bool = key(False, "behaviour")

    demand_mat: float = key(4000.0, "demand", "> 0", sweep=True)
    demand_nm: float = key(4000.0, "demand", "> 0", sweep=True)

    moore_radius: int = key(1, "network", ">= 1", sweep=True)
    n_tele: int = key(0, "network", ">= 0", sweep=True)

    share_c: float = key(1 / 3, "init")
    share_mi: float = key(1 / 3, "init")
    share_hi: float = key(1 / 3, "init")

    schedule: tuple[tuple[int, float], ...] | None = key(None, "schedule", ini="breakpoints")

    max_ticks: int = key(2000, "stopping")
    window: int = key(50, "stopping", ">= 1")
    epsilon: float = key(0.002, "stopping", "> 0")

    seed: int = key(0, "run", ">= 0")
    replications: int = key(1, "run", ">= 1")

    sweep: SweepSpec | None = key(None, "sweep")

    def __post_init__(self):
        if self.peaks is None:
            self.peaks = default_peaks(self.grid_width, self.grid_height)
        else:
            self.peaks = tuple(tuple(float(v) for v in p) for p in self.peaks)
        self.validate()
        if self.schedule is not None:
            self.schedule = tuple((int(t), float(m)) for t, m in self.schedule)

    def validate(self):
        """Check every key, and store an integral float of an integer key as an int."""
        for name, integer, expected, lo, hi in _NUMBERS:
            value = _number(self, name, integer)
            if not lo <= value <= hi:
                raise _out_of_range(name, value, expected)
        if self.moore_radius >= min(self.grid_width, self.grid_height):
            raise _out_of_range("moore_radius", self.moore_radius, "< min(width, height)")
        if self.max_ticks < self.window:
            raise _out_of_range("max_ticks", self.max_ticks, ">= window")
        for peak in self.peaks:
            if not all(map(math.isfinite, peak)):
                raise ConfigurationError("config key 'peaks': values must be finite numbers")
            if peak[2] <= 0:
                raise ConfigurationError("config key 'peaks': sigma must be positive")
        if any(s < 0 for s in self.shares):
            raise ConfigurationError("config keys 'share_*' must be non-negative")
        if abs(sum(self.shares) - 1.0) > 1e-9:
            raise ConfigurationError("config keys 'share_*' must sum to 1")
        if self.schedule is not None:
            try:
                AttitudeSchedule(self.schedule)
            except ConfigurationError as exc:
                raise ConfigurationError(f"config key 'breakpoints': {exc}") from None

    @property
    def shares(self) -> tuple[float, float, float]:
        return (self.share_c, self.share_mi, self.share_hi)


def _out_of_range(name: str, value, expected: str) -> ConfigurationError:
    return ConfigurationError(f"config key {name!r} = {value!r} is out of range, expected {expected}")


def _bounds(expected: str | None) -> tuple[float, float]:
    """Closed bounds of a declared range: ``[lo, hi]``, ``>= lo``, ``> lo``
    (whose lower bound is the next float above lo) or none."""
    if expected is None:
        return -math.inf, math.inf
    if expected.startswith("["):
        lo, hi = map(float, expected[1:-1].split(","))
        return lo, hi
    op, bound = expected.split()
    lo = float(bound)
    return (math.nextafter(lo, math.inf) if op == ">" else lo), math.inf


_FIELDS = fields(ExperimentConfig)
# (name, is integer, range, lo, hi) for every numeric key; ranges are parsed once, here.
_NUMBERS = tuple(
    (f.name, f.type is int, f.metadata["range"], *_bounds(f.metadata["range"]))
    for f in _FIELDS
    if f.type in (int, float)
)
# Config fields that sweep points and Sobol design rows may override.
NUMERIC_KEYS = tuple(f.name for f in _FIELDS if f.metadata["sweep"])
INT_KEYS = tuple(f.name for f in _FIELDS if f.metadata["sweep"] and f.type is int)


def _not_sweepable(name: str) -> ConfigurationError:
    return ConfigurationError(f"cannot vary {name!r}; sweepable: {', '.join(NUMERIC_KEYS + (CM_ALIAS,))}")


def round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def apply_values(config: ExperimentConfig, values: dict[str, float]) -> ExperimentConfig:
    """Override sweepable config keys, resolving the cm alias and rounding
    integer keys half-up."""
    updates: dict[str, object] = {}
    for name, value in values.items():
        if name == CM_ALIAS:
            updates["cm_int"] = float(value)
            updates["cm_ext"] = float(value)
        elif name in INT_KEYS:
            updates[name] = round_half_up(value) if math.isfinite(value) else value
        elif name in NUMERIC_KEYS:
            updates[name] = float(value)
        else:
            raise _not_sweepable(name)
    return replace(config, **updates)


def _plain(kind):
    """``kind`` without an ``| None``."""
    args = get_args(kind)
    return args[0] if type(None) in args else kind


def _items(kind):
    """Element types of a record (a fixed tuple or a dataclass); None for a
    list (``tuple[entry, ...]``)."""
    if is_dataclass(kind):
        return [f.type for f in fields(kind)]
    args = get_args(kind)
    return None if args[-1] is Ellipsis else args


def _parse(kind, text: str, key: str):
    """Read a value of type ``kind``: a scalar, a ``;``-separated list, or a
    ``,``-separated record."""
    kind, text = _plain(kind), text.strip()
    if kind is bool:
        if text.lower() in ("true", "yes", "1", "on"):
            return True
        if text.lower() in ("false", "no", "0", "off"):
            return False
        raise ConfigurationError(f"config key {key!r}: expected a boolean, got {text!r}")
    if kind in (int, float, str):
        try:
            return kind(text)
        except ValueError as exc:
            raise ConfigurationError(f"config key {key!r}: {exc}") from exc
    items = _items(kind)
    if items is None:
        entries = [e for e in text.split(";") if e.strip()]
        if not entries:
            raise ConfigurationError(f"config key {key!r}: empty list")
        return tuple(_parse(get_args(kind)[0], e, key) for e in entries)
    parts = text.split(",")
    if len(parts) != len(items):
        raise ConfigurationError(f"config key {key!r}: expected {len(items)} values per entry")
    values = [_parse(t, p, key) for t, p in zip(items, parts)]
    return kind(*values) if is_dataclass(kind) else tuple(values)


def _format(kind, value) -> str:
    """Inverse of ``_parse``; floats are written with ``repr`` so they load back exactly."""
    kind = _plain(kind)
    if kind is bool:
        return "true" if value else "false"
    if kind is float:
        return repr(float(value))
    if kind in (int, str):
        return str(kind(value))
    items = _items(kind)
    if items is None:
        return "; ".join(_format(get_args(kind)[0], v) for v in value)
    values = astuple(value) if is_dataclass(value) else value
    return ",".join(_format(t, v) for t, v in zip(items, values))


def _sections() -> dict[str, tuple[Field | None, dict[str, Field]]]:
    """INI section -> (the field holding it as a dataclass, or None for
    top-level keys; {INI key: field}), in declaration order."""
    out: dict = {}
    for f in _FIELDS:
        section, nested = f.metadata["section"], _plain(f.type)
        if is_dataclass(nested):
            out[section] = (f, {g.name: g for g in fields(nested)})
        else:
            out.setdefault(section, (None, {}))[1][f.metadata["ini"] or f.name] = f
    return out


_SECTIONS = _sections()


def loads_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive: git_upper_L
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse failure: {exc}") from exc

    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigurationError(f"unknown config section [{section}]")
        holder, keys = _SECTIONS[section]
        read = {}
        for key, raw in parser[section].items():
            if key not in keys:
                raise ConfigurationError(f"unknown config key {key!r} in section [{section}]")
            read[keys[key].name] = _parse(keys[key].type, raw, key)
        for key, f in keys.items():
            if f.default is MISSING and f.name not in read:
                raise ConfigurationError(f"config section [{section}] needs a {key!r} key")
        if holder is None:
            values.update(read)
        else:
            values[holder.name] = _plain(holder.type)(**read)
    return ExperimentConfig(**values)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    return loads_config(path.read_text())


def serialize_config(config: ExperimentConfig) -> str:
    """Full, deterministic text form; loads back to an equal config."""
    out = []
    for section, (holder, keys) in _SECTIONS.items():
        source = config if holder is None else getattr(config, holder.name)
        lines = [
            f"{key} = {_format(f.type, getattr(source, f.name))}"
            for key, f in keys.items()
            if source is not None and getattr(source, f.name) is not None
        ]
        if lines:
            out.append(f"[{section}]\n" + "\n".join(lines) + "\n\n")
    return "".join(out)
