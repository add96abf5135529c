"""Scenario configuration: INI-style files with evaluation-setup defaults.

An empty file is a valid scenario; every key then takes the reference
evaluation default (16 AP antennas, 64 RIS elements, 45 deg arrival angle,
10 dB SNR, unit noise variance, thresholds 0.9/0.5, 7 training frames,
0.6 m/s walk, 15.6 us slots). Angles appear in degrees in files and are
converted to radians at this boundary.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace

import numpy as np

from .baselines import SweepSpec
from .mobility import TrajectorySpec
from .simengine import ExhaustivePolicy, OraclePolicy, ProposedPolicy
from .tracking import SearchGrid
from .wavefield import LinkGeometry


class ConfigError(ValueError):
    """Configuration file problem; message names the offending key."""


_GEOMETRY_KEYS = {
    "n_tx", "n_ris", "wavelength_m", "spacing_m", "theta1_deg", "phi_ap_deg",
    "r1_m", "alpha", "snr_db", "noise_var",
}
_TRAJECTORY_KEYS = {
    "theta2_init_deg", "r2_init_m", "psi_a_deg", "speed_mps", "slot_duration_s",
    "path_length_m", "rayleigh_scale", "segments",
}
_TRACKER_KEYS = {
    "algorithms", "gamma", "gamma_exh", "n_sol", "theta2_halfwidth_deg",
    "theta2_step_deg", "r_halfwidth_m", "r_step_m", "threshold_mode",
}
_RUN_KEYS = {"seeds", "output_dir"}
_SECTIONS = {
    "geometry": _GEOMETRY_KEYS,
    "trajectory": _TRAJECTORY_KEYS,
    "tracker": _TRACKER_KEYS,
    "run": _RUN_KEYS,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario: geometry, walk, tracker knobs and run plan."""

    geometry: LinkGeometry
    trajectory: TrajectorySpec
    continuations: tuple[tuple[float, float], ...]
    algorithms: tuple[str, ...]
    gamma: float
    gamma_exh: float
    grid: SearchGrid
    threshold_mode: str
    seeds: tuple[int, ...]
    output_dir: str

    def policies(self):
        """Policy objects in configured order."""
        out = []
        for name in self.algorithms:
            if name == "oracle":
                out.append(OraclePolicy(gamma=self.gamma))
            elif name == "proposed":
                out.append(ProposedPolicy(gamma=self.gamma, grid=self.grid))
            elif name.startswith("exhaustive:"):
                res = float(name.split(":", 1)[1])
                out.append(ExhaustivePolicy(gamma=self.gamma_exh, sweep=SweepSpec(res)))
            else:
                raise ConfigError(f"[tracker] algorithms: unknown algorithm {name!r}")
        return out


# Scenario files and `sweep --vary` share the per-key parsers below: a parser
# raises ValueError for a bad value and _value names the key it came from.


def _value(section: str, key: str, raw: str, conv):
    try:
        return conv(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {key}: bad value {raw!r} ({exc})") from None


def _build(section: str, ctor, *args, **kwargs):
    """Construct a self-validating object, reporting its ValueError per section."""
    try:
        return ctor(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] invalid: {exc}") from None


def _get(parser, section, key, conv, default):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key).strip()
    if raw == "":
        return default
    return _value(section, key, raw, conv)


def _parse_segments(raw: str) -> tuple[tuple[float, float], ...]:
    out = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        psi, _, length = part.partition(":")
        out.append((np.deg2rad(float(psi)), float(length)))
    return tuple(out)


def _parse_threshold_mode(raw: str) -> str:
    mode = raw.lower()
    if mode not in ("normalized", "absolute"):
        raise ValueError("must be 'normalized' or 'absolute'")
    return mode


def _threshold_parser(threshold_mode: str):
    def parse(raw: str) -> float:
        value = float(raw)
        if value <= 0:
            raise ValueError(f"threshold must be > 0, got {value}")
        if threshold_mode == "normalized" and value > 1.0:
            raise ValueError(f"normalized threshold is a fraction <= 1, got {value}")
        return value

    return parse


def _parse_algorithms(raw: str) -> tuple[str, ...]:
    names = tuple(p.strip().lower() for p in raw.split(",") if p.strip())
    if not names:
        raise ValueError("empty algorithm list")
    for name in names:
        if name.startswith("exhaustive:"):
            SweepSpec(float(name.split(":", 1)[1]))
        elif name not in ("oracle", "proposed"):
            raise ValueError(f"unknown algorithm {name!r} "
                             "(use proposed, oracle or exhaustive:<resolution_deg>)")
    return names


def _parse_seeds(raw: str) -> tuple[int, ...]:
    seeds = tuple(int(p.strip()) for p in raw.split(",") if p.strip())
    if not seeds:
        raise ValueError("empty seed list")
    if min(seeds) < 0:
        raise ValueError(f"seeds must be >= 0, got {min(seeds)}")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    return seeds


def load_config(path: str) -> ScenarioConfig:
    """Read, validate and default-fill a scenario file.

    Raises :class:`ConfigError` with the section, key and violated rule for
    semantic problems; syntax errors keep configparser's line numbers.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}") from None

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}")

    snr_db = _get(parser, "geometry", "snr_db", float, 10.0)
    geometry = _build(
        "geometry", LinkGeometry,
        n_tx=_get(parser, "geometry", "n_tx", int, 16),
        n_ris=_get(parser, "geometry", "n_ris", int, 64),
        wavelength=_get(parser, "geometry", "wavelength_m", float, 0.005),
        spacing_d=_get(parser, "geometry", "spacing_m", float, None),
        theta1=np.deg2rad(_get(parser, "geometry", "theta1_deg", float, 45.0)),
        phi_ap=np.deg2rad(_get(parser, "geometry", "phi_ap_deg", float, 0.0)),
        r1=_get(parser, "geometry", "r1_m", float, 4.0),
        alpha=_get(parser, "geometry", "alpha", complex, 1.0 + 0.0j),
        snr_linear=10.0 ** (snr_db / 10.0),
        noise_var=_get(parser, "geometry", "noise_var", float, 1.0),
    )
    trajectory = _build(
        "trajectory", TrajectorySpec,
        theta2_init=np.deg2rad(_get(parser, "trajectory", "theta2_init_deg", float, 20.0)),
        r2_init=_get(parser, "trajectory", "r2_init_m", float, 4.0),
        psi_a=np.deg2rad(_get(parser, "trajectory", "psi_a_deg", float, 110.0)),
        speed_v=_get(parser, "trajectory", "speed_mps", float, 0.6),
        slot_duration_t0=_get(parser, "trajectory", "slot_duration_s", float, 15.6e-6),
        path_length=_get(parser, "trajectory", "path_length_m", float, 3.0),
        rayleigh_scale=_get(parser, "trajectory", "rayleigh_scale", float,
                            1.0 / math.sqrt(2.0)),
    )
    continuations = _get(parser, "trajectory", "segments", _parse_segments, ())

    threshold_mode = _get(parser, "tracker", "threshold_mode", _parse_threshold_mode,
                          "normalized")
    threshold = _threshold_parser(threshold_mode)
    grid = _build(
        "tracker", SearchGrid,
        theta2_halfwidth=np.deg2rad(
            _get(parser, "tracker", "theta2_halfwidth_deg", float, 2.5)),
        theta2_step=np.deg2rad(_get(parser, "tracker", "theta2_step_deg", float, 0.05)),
        r_halfwidth=_get(parser, "tracker", "r_halfwidth_m", float, 0.005),
        r_step=_get(parser, "tracker", "r_step_m", float, None),
        n_sol=_get(parser, "tracker", "n_sol", int, 7),
    )

    return ScenarioConfig(
        geometry=geometry,
        trajectory=trajectory,
        continuations=continuations,
        algorithms=_get(
            parser, "tracker", "algorithms", _parse_algorithms,
            ("proposed", "exhaustive:1", "exhaustive:5", "exhaustive:10", "oracle"),
        ),
        gamma=_get(parser, "tracker", "gamma", threshold, 0.9),
        gamma_exh=_get(parser, "tracker", "gamma_exh", threshold, 0.5),
        grid=grid,
        threshold_mode=threshold_mode,
        seeds=_get(parser, "run", "seeds", _parse_seeds, (1,)),
        output_dir=_get(parser, "run", "output_dir", str, "runs"),
    )


def override_config(cfg: ScenarioConfig, key: str, raw_value: str) -> ScenarioConfig:
    """Return a copy of `cfg` with one sweepable parameter replaced.

    Accepts the same key names as the scenario file (optionally prefixed with
    the section, e.g. ``tracker.gamma``) and checks the value with the same
    per-key parser and constructor checks as a scenario file.
    """
    name = key.split(".")[-1].lower()
    if name in ("gamma", "gamma_exh"):
        value = _value("tracker", name, raw_value, _threshold_parser(cfg.threshold_mode))
        return replace(cfg, **{name: value})
    if name == "algorithms":
        return replace(cfg, algorithms=_value("tracker", name, raw_value, _parse_algorithms))
    if name == "n_sol":
        n_sol = _value("tracker", name, raw_value, int)
        return replace(cfg, grid=_build("tracker", replace, cfg.grid, n_sol=n_sol))
    if name == "speed_mps":
        speed = _value("trajectory", name, raw_value, float)
        return replace(cfg, trajectory=_build("trajectory", replace, cfg.trajectory,
                                              speed_v=speed))
    if name == "path_length_m":
        length = _value("trajectory", name, raw_value, float)
        return replace(cfg, trajectory=_build("trajectory", replace, cfg.trajectory,
                                              path_length=length))
    raise ConfigError(
        f"{key}: not sweepable (use gamma, gamma_exh, n_sol, speed_mps, "
        "path_length_m or algorithms)"
    )
