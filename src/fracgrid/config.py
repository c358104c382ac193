"""Run configuration: one validated object shared by the suite runner and the
command line. JSON in, dataclass out, every parameter checked against the
library preconditions before anything executes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

from .core import GridSpec, make_grid

__all__ = [
    "ConfigError",
    "RunConfig",
    "CHECK_IDS",
    "default_run_config",
    "run_config_from_dict",
    "load_run_config",
]


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field path."""


CHECK_IDS = (
    "ftc_roundtrip",
    "translation_estimate",
    "embedding",
    "blowup_family",
    "contiguity_p2",
    "integration_by_parts",
    "s_limit",
    "frechet_kolmogorov",
    "lyapunov",
    "holder_ladder",
)

_FORMATS = ("csv", "json")

# the blow-up probe needs growth headroom that desk grids cannot give; it is
# run explicitly by the acceptance suite, not by the bundled default
_DEFAULT_CHECKS = tuple(cid for cid in CHECK_IDS if cid != "blowup_family")


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    seed: int = 7
    s_list: tuple = (0.25, 0.5, 0.75)
    p_list: tuple = (2.0,)
    q_list: tuple = (3.0,)
    mu_list: tuple = (0.2,)
    h_sweep: tuple = (0.5, 0.25, 0.125, 0.0625)
    checks: tuple = _DEFAULT_CHECKS
    output_dir: str = "fracgrid_out"
    formats: tuple = ("json", "csv")

    def __post_init__(self):
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError(f"seed: must be a nonnegative integer, got {self.seed!r}")
        for name in ("s_list", "p_list", "q_list", "mu_list", "h_sweep", "checks"):
            if not getattr(self, name):
                where = name if name == "checks" else "params." + name.removesuffix("_list")
                raise ConfigError(f"{where}: must not be empty")
        for name in ("s_list", "mu_list"):
            for i, v in enumerate(getattr(self, name)):
                if not 0.0 < float(v) < 1.0:
                    raise ConfigError(f"params.{name[:-5]}[{i}]: {v} outside (0,1)")
        for name in ("p_list", "q_list"):
            for i, v in enumerate(getattr(self, name)):
                if not (math.isfinite(float(v)) and float(v) >= 1.0):
                    raise ConfigError(f"params.{name[:-5]}[{i}]: {v} must be finite and >= 1")
        for i, h in enumerate(self.h_sweep):
            if not 0.0 < float(h) < self.grid.extent / 4.0:
                raise ConfigError(
                    f"params.h_sweep[{i}]: {h} outside (0, extent/4 = {self.grid.extent / 4.0})")
        for i, cid in enumerate(self.checks):
            if cid not in CHECK_IDS:
                raise ConfigError(f"checks[{i}]: unknown check id {cid!r}")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError(f"output_dir: must be a nonempty string, got {self.output_dir!r}")
        if not self.formats:
            raise ConfigError("formats: at least one of csv, json required")
        for i, fmt in enumerate(self.formats):
            if fmt not in _FORMATS:
                raise ConfigError(f"formats[{i}]: {fmt!r} not in {{csv, json}}")


def default_run_config() -> RunConfig:
    return RunConfig(grid=make_grid(1, 256, 16.0))


def _integer(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where}: must be an integer, got {value!r}")
    return value


def _number(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where}: must be a number, got {value!r}")
    return float(value)


def run_config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    known = {"grid", "seed", "params", "checks", "output_dir", "formats"}
    for key in data:
        if key not in known:
            raise ConfigError(f"{key}: unknown config field")
    base = default_run_config()
    gd = data.get("grid", {})
    if not isinstance(gd, dict):
        raise ConfigError("grid: must be an object")
    dim = _integer(gd.get("dim", 1), "grid.dim")
    points = _integer(gd.get("points_per_axis", 256), "grid.points_per_axis")
    extent = _number(gd.get("extent", 16.0), "grid.extent")
    try:
        grid = make_grid(dim, points, extent)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params: must be an object")

    def take(key, fallback):
        if key not in params:
            return fallback
        val = params[key]
        if not isinstance(val, (list, tuple)):
            raise ConfigError(f"params.{key}: must be a list of numbers")
        return tuple(_number(x, f"params.{key}[{i}]") for i, x in enumerate(val))

    checks = data.get("checks", base.checks)
    if not isinstance(checks, (list, tuple)):
        raise ConfigError("checks: must be a list")
    formats = data.get("formats", base.formats)
    if not isinstance(formats, (list, tuple)):
        raise ConfigError("formats: must be a list")
    return RunConfig(
        grid=grid,
        seed=data.get("seed", base.seed),
        s_list=take("s", base.s_list),
        p_list=take("p", base.p_list),
        q_list=take("q", base.q_list),
        mu_list=take("mu", base.mu_list),
        h_sweep=take("h_sweep", base.h_sweep),
        checks=tuple(checks),
        output_dir=data.get("output_dir", base.output_dir),
        formats=tuple(formats),
    )


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    return run_config_from_dict(data)
