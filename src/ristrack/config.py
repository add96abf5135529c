"""Scenario configuration: INI-style files over the library's own defaults.

Every key of a scenario file is one row of ``_SCHEMA``: its section, the
field it sets and a converter from the file's text. An absent or empty key
keeps the default of that field, so the reference evaluation setup is the set
of field defaults of :class:`ScenarioConfig`, :class:`LinkGeometry`,
:class:`TrajectorySpec` and :class:`SearchGrid`; an empty file loads as
``ScenarioConfig()``. Converters only convert types, and a converted value
that is NaN or infinite is rejected where it is converted; the constructors
check everything else. Angles appear in degrees in files and are converted
to radians at this boundary.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .mobility import TrajectorySpec
from .simengine import ExhaustivePolicy, OraclePolicy, ProposedPolicy
from .tracking import SearchGrid
from .wavefield import LinkGeometry


class ConfigError(ValueError):
    """Configuration problem; the message names the offending section and key."""


def _invalid(key: str, message: str) -> ConfigError:
    return ConfigError(f"[{_SCHEMA[key][0]}] {key}: {message}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario: geometry, walk, tracker knobs and run plan."""

    geometry: LinkGeometry = field(default_factory=LinkGeometry)
    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    continuations: tuple[tuple[float, float], ...] = ()
    algorithms: tuple[str, ...] = ("proposed", "exhaustive:1", "exhaustive:5",
                                   "exhaustive:10", "oracle")
    gamma: float = ProposedPolicy.gamma
    gamma_exh: float = ExhaustivePolicy.gamma
    grid: SearchGrid = field(default_factory=SearchGrid)
    threshold_mode: str = "normalized"
    seeds: tuple[int, ...] = (1,)
    output_dir: str = "runs"

    def __post_init__(self):
        if self.threshold_mode not in ("normalized", "absolute"):
            raise _invalid("threshold_mode", "must be 'normalized' or 'absolute', "
                           f"got {self.threshold_mode!r}")
        for key in ("gamma", "gamma_exh"):
            value = getattr(self, key)
            if value <= 0:
                raise _invalid(key, f"threshold must be > 0, got {value}")
            if self.threshold_mode == "normalized" and value > 1.0:
                raise _invalid(key, f"normalized threshold is a fraction <= 1, got {value}")
        for _, length in self.continuations:
            if length <= 0:
                raise _invalid("segments", f"segment length must be > 0, got {length:g}")
        if not self.algorithms:
            raise _invalid("algorithms", "empty algorithm list")
        try:
            names = [policy.name for policy in self.policies()]
        except ValueError as exc:
            raise _invalid("algorithms", str(exc)) from None
        # each tracker's files and summary column are keyed by its name
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise _invalid("algorithms", "each tracker may appear once, repeated: "
                           + ", ".join(repeated))
        if not self.seeds:
            raise _invalid("seeds", "empty seed list")
        if min(self.seeds) < 0:
            raise _invalid("seeds", f"seeds must be >= 0, got {min(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            raise _invalid("seeds", "seeds must be distinct")

    def policies(self):
        """Policy objects in configured order; the one parser of algorithm names."""
        out = []
        for name in self.algorithms:
            if name == "oracle":
                out.append(OraclePolicy(gamma=self.gamma))
            elif name == "proposed":
                out.append(ProposedPolicy(gamma=self.gamma, grid=self.grid))
            elif name.startswith("exhaustive:"):
                out.append(ExhaustivePolicy(gamma=self.gamma_exh,
                                            resolution_deg=float(name.split(":", 1)[1])))
            else:
                raise ValueError(f"unknown algorithm {name!r} "
                                 "(use proposed, oracle or exhaustive:<resolution_deg>)")
        return out


def _radians(raw: str) -> float:
    return np.deg2rad(float(raw))


def _db_to_linear(raw: str) -> float:
    return 10.0 ** (float(raw) / 10.0)


def _segment(raw: str) -> tuple[float, float]:
    psi, _, length = raw.partition(":")
    return (np.deg2rad(float(psi)), float(length))


def _listed(conv):
    """Converter of a comma-separated list; empty items are skipped."""
    return lambda raw: tuple(conv(p.strip()) for p in raw.split(",") if p.strip())


def _finite(value) -> bool:
    """False if a converted float or list item is NaN or infinite."""
    if isinstance(value, tuple):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


# key: (section, target, converter). A target "holder.name" is field `name` of
# the ScenarioConfig field `holder`; a bare target is a ScenarioConfig field.
_SCHEMA = {
    "n_tx": ("geometry", "geometry.n_tx", int),
    "n_ris": ("geometry", "geometry.n_ris", int),
    "wavelength_m": ("geometry", "geometry.wavelength", float),
    "spacing_m": ("geometry", "geometry.spacing", float),
    "theta1_deg": ("geometry", "geometry.theta1", _radians),
    "r1_m": ("geometry", "geometry.r1", float),
    "snr_db": ("geometry", "geometry.snr_linear", _db_to_linear),
    "theta2_init_deg": ("trajectory", "trajectory.theta2_init", _radians),
    "r2_init_m": ("trajectory", "trajectory.r2_init", float),
    "psi_a_deg": ("trajectory", "trajectory.psi_a", _radians),
    "speed_mps": ("trajectory", "trajectory.speed_v", float),
    "slot_duration_s": ("trajectory", "trajectory.slot_duration_t0", float),
    "path_length_m": ("trajectory", "trajectory.path_length", float),
    "segments": ("trajectory", "continuations", _listed(_segment)),
    "algorithms": ("tracker", "algorithms", _listed(str.lower)),
    "gamma": ("tracker", "gamma", float),
    "gamma_exh": ("tracker", "gamma_exh", float),
    "threshold_mode": ("tracker", "threshold_mode", str.lower),
    "n_sol": ("tracker", "grid.n_sol", int),
    "theta2_halfwidth_deg": ("tracker", "grid.theta2_halfwidth", _radians),
    "theta2_step_deg": ("tracker", "grid.theta2_step", _radians),
    "r_halfwidth_m": ("tracker", "grid.r_halfwidth", float),
    "seeds": ("run", "seeds", _listed(int)),
    "output_dir": ("run", "output_dir", str),
}

_SWEEPABLE = ("gamma", "gamma_exh", "n_sol", "speed_mps", "path_length_m", "algorithms")


def _apply(cfg: ScenarioConfig, raw_values: dict[str, str]) -> ScenarioConfig:
    """`cfg` with each key's raw value converted and set on its target field.

    Scenario files and `sweep --vary` both come through here, so a bad value
    fails the same way from either, naming its section and key. Non-finite
    values are rejected here once, for every key and its list items.
    """
    top: dict = {}
    nested: dict[str, dict] = {}
    keys_of: dict[str, list[str]] = {}
    for key, raw in raw_values.items():
        section, target, conv = _SCHEMA[key]
        try:
            value = conv(raw)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"[{section}] {key}: bad value {raw!r} ({exc})") from None
        if not _finite(value):
            raise ConfigError(f"[{section}] {key}: value must be finite, got {raw!r}")
        holder, _, name = target.rpartition(".")
        if holder:
            nested.setdefault(holder, {})[name] = value
            keys_of.setdefault(holder, []).append(key)
        else:
            top[name] = value
    # one replace per object, so checks that relate its fields see all new values
    for holder, fields in nested.items():
        try:
            top[holder] = replace(getattr(cfg, holder), **fields)
        except ValueError as exc:
            keys = keys_of[holder]
            raise ConfigError(f"[{_SCHEMA[keys[0]][0]}] {', '.join(keys)}: {exc}") from None
    return replace(cfg, **top)


def load_config(path: str) -> ScenarioConfig:
    """Read and validate a scenario file over the default :class:`ScenarioConfig`.

    Raises :class:`ConfigError` with the section, key and violated rule for
    semantic problems; syntax errors keep configparser's line numbers.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        # utf-8-sig drops the byte-order mark that some editors write first
        with open(path, "r", encoding="utf-8-sig") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}") from None

    # configparser copies [DEFAULT] keys into every section, where they would
    # pass as that section's own keys or be reported under the wrong section
    if parser.defaults():
        keys = ", ".join(parser.defaults())
        raise ConfigError(f"[DEFAULT] {keys}: the [DEFAULT] section is not supported; "
                          "set each key in its own section")
    sections = {row[0] for row in _SCHEMA.values()}
    raw_values = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA or _SCHEMA[key][0] != section:
                raise ConfigError(f"[{section}] unknown key {key!r}")
            raw = parser.get(section, key).strip()
            if raw:
                raw_values[key] = raw
    return _apply(ScenarioConfig(), raw_values)


def override_config(cfg: ScenarioConfig, key: str, raw_value: str) -> ScenarioConfig:
    """Return a copy of `cfg` with one sweepable parameter replaced.

    Accepts the same key names as the scenario file, optionally prefixed with
    the key's own section (``tracker.gamma``, ``trajectory.speed_mps``), and
    converts and checks the value exactly as a scenario file's.
    """
    prefix, dot, name = key.lower().rpartition(".")
    if name not in _SWEEPABLE:
        raise ConfigError(f"{key}: not sweepable (use {', '.join(_SWEEPABLE)})")
    section = _SCHEMA[name][0]
    if dot and prefix != section:
        raise ConfigError(f"{key}: {name} belongs to [{section}] "
                          f"(use {name} or {section}.{name})")
    return _apply(cfg, {name: raw_value})
