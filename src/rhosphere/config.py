"""Flat ``key = value`` run configuration.

One assignment per line, ``#`` starts a comment, keys are dotted paths.
Values are typed by a fixed schema; anything malformed is reported with
the file name and line number.  ``sweep.<key> = v1 v2 ...`` attaches a
list of values to an otherwise ordinary key; the sweep driver expands the
Cartesian product of all such lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .grid import is_grid_size
from .integrate import IntegratorConfig, StepLimitError, step_count
from .scenarios import KINDS, InitialSpec


class ConfigError(Exception):
    pass


# largest grid.n, validate.n and compare.m: a node count past it is a
# typo, whose arrays could take a host's memory
MAX_GRID_SIZE = 2**20

_BOOLS = {"true": True, "false": False, "yes": True, "no": False, "on": True, "off": False}

# key -> element type; a tuple marks a whitespace-separated list of that type
SCHEMA: dict[str, object] = {
    "grid.n": int,
    "run.dt": float,
    "run.t_end": float,
    "run.projection": bool,
    "run.snapshot_stride": int,
    "run.breaking_eps": float,
    "initial.kind": str,
    "initial.value": float,
    "initial.amplitude": float,
    "initial.wavenumber": int,
    "initial.mean": float,
    "initial.cos_coeffs": (float,),
    "initial.sin_coeffs": (float,),
    "initial.p": float,
    "initial.q1": float,
    "initial.q2": float,
    "initial.mollify_width": float,
    "oracle.dt": float,
    "oracle.slope_cap": float,
    "oracle.dealias": bool,
    "compare.m": int,
    "compare.times": (float,),
    "validate.n": int,
    "validate.seed": int,
    "validate.n_states": int,
}

DEFAULTS: dict[str, object] = {
    "grid.n": 256,
    "run.t_end": 1.0,
    "run.projection": True,
    "run.snapshot_stride": 100,
    "run.breaking_eps": 1e-6,
    "initial.kind": "sine",
    "initial.value": 0.0,
    "initial.amplitude": 1.0,
    "initial.wavenumber": 1,
    "initial.mean": 0.0,
    "initial.cos_coeffs": (),
    "initial.sin_coeffs": (),
    "initial.p": 1.0,
    "initial.q1": 0.25,
    "initial.q2": 0.75,
    "initial.mollify_width": 0.0,
    "oracle.slope_cap": 1e3,
    "oracle.dealias": True,
    "compare.times": (),
    "validate.n": 128,
    "validate.seed": 2026,
    "validate.n_states": 100,
}


def _parse_scalar(text: str, typ, where: str):
    if typ is bool:
        try:
            return _BOOLS[text.lower()]
        except KeyError:
            raise ConfigError(f"{where}: expected a boolean, got {text!r}") from None
    try:
        if typ is int:
            return int(text)
        if typ is float:
            return float(text)
    except ValueError:
        raise ConfigError(f"{where}: expected {typ.__name__}, got {text!r}") from None
    return text


def _parse_value(text: str, typ, where: str):
    if isinstance(typ, tuple):
        return tuple(_parse_scalar(tok, typ[0], where) for tok in text.split())
    return _parse_scalar(text, typ, where)


@dataclass
class RunConfig:
    """Typed view over a parsed configuration plus any sweep lists."""

    values: dict[str, object] = field(default_factory=dict)
    sweep: dict[str, list] = field(default_factory=dict)
    source: str = "<defaults>"

    def get(self, key: str):
        if key in self.values:
            return self.values[key]
        return DEFAULTS.get(key)

    def set(self, key: str, value) -> None:
        if key not in SCHEMA:
            raise ConfigError(f"unknown configuration key {key!r}")
        self.values[key] = value

    def with_values(self, extra: dict[str, object]) -> "RunConfig":
        merged = dict(self.values)
        merged.update(extra)
        return RunConfig(merged, dict(self.sweep), self.source)

    def _float(self, key: str, minimum: float | None = None) -> float:
        value = float(self.get(key))
        if not math.isfinite(value) or (minimum is not None and value < minimum):
            bound = "finite" if minimum is None else f"finite and >= {minimum:g}"
            raise ConfigError(f"{key} must be {bound}, got {value!r}")
        return value

    def _grid_size(self, key: str) -> int:
        n = int(self.get(key))
        if not (is_grid_size(n) and n <= MAX_GRID_SIZE):
            raise ConfigError(f"{key} must be a power of two from 16 to {MAX_GRID_SIZE}, got {n}")
        return n

    def initial_spec(self) -> InitialSpec:
        """The initial profile; a value no scenario accepts is a ConfigError."""
        kind = str(self.get("initial.kind"))
        if kind not in KINDS:
            raise ConfigError(f"initial.kind must be one of {', '.join(KINDS)}, got {kind!r}")
        n = self._grid_size("grid.n")
        wavenumber = int(self.get("initial.wavenumber"))
        if wavenumber < 1:
            raise ConfigError(f"initial.wavenumber must be >= 1, got {wavenumber}")
        coeffs = {}
        for key in ("initial.cos_coeffs", "initial.sin_coeffs"):
            coeffs[key] = tuple(self.get(key))
            if not all(math.isfinite(c) for c in coeffs[key]):
                raise ConfigError(f"{key} must be finite, got {coeffs[key]!r}")
        kmax = {"sine": wavenumber, "fourier": max(map(len, coeffs.values()))}.get(kind, 0)
        if kmax >= n // 2:
            raise ConfigError(f"wavenumber {kmax} is not resolved on grid.n = {n} nodes")
        return InitialSpec(
            kind=kind,
            n=n,
            value=self._float("initial.value"),
            amplitude=self._float("initial.amplitude"),
            wavenumber=wavenumber,
            mean=self._float("initial.mean"),
            cos_coeffs=coeffs["initial.cos_coeffs"],
            sin_coeffs=coeffs["initial.sin_coeffs"],
            p=self._float("initial.p"),
            q1=self._float("initial.q1"),
            q2=self._float("initial.q2"),
            mollify_width=self._float("initial.mollify_width", 0.0),
        )

    def integrator_config(self) -> IntegratorConfig:
        """Integrator settings; a value no run accepts is a ConfigError."""
        dt = self.get("run.dt")
        if dt is not None and not (math.isfinite(dt) and dt > 0.0):
            raise ConfigError(f"run.dt must be finite and > 0, got {dt!r}")
        stride = int(self.get("run.snapshot_stride"))
        if stride < 1:
            raise ConfigError(f"run.snapshot_stride must be >= 1, got {stride}")
        t_end = self._float("run.t_end", 0.0)
        if dt is not None:
            try:
                step_count(dt, t_end)
            except StepLimitError as exc:
                raise ConfigError(f"run.dt: {exc}") from None
        return IntegratorConfig(
            dt=None if dt is None else float(dt),
            t_end=t_end,
            projection=bool(self.get("run.projection")),
            snapshot_stride=stride,
            breaking_eps=self._float("run.breaking_eps", 0.0),
        )

    def compare_args(self) -> dict[str, object]:
        """Settings of `compare`: the comparison times (run.t_end when none
        are given), the oracle's step (None: the run's snapshot spacing),
        slope cap and dealiasing, and the sample count m (None: the oracle's
        grid).  A value no comparison accepts is a ConfigError."""
        t_end = self._float("run.t_end", 0.0)
        times = sorted(float(t) for t in self.get("compare.times")) or [t_end]
        if not all(0.0 <= t <= t_end for t in times):
            raise ConfigError("compare.times must lie within [0, run.t_end]")
        dt = self.get("oracle.dt")
        if dt is not None:
            if not (math.isfinite(dt) and dt > 0.0):
                raise ConfigError(f"oracle.dt must be finite and > 0, got {dt!r}")
            try:
                step_count(dt, t_end, "oracle.dt")
            except StepLimitError as exc:
                raise ConfigError(str(exc)) from None
        cap = float(self.get("oracle.slope_cap"))
        if not cap > 0.0:
            raise ConfigError(f"oracle.slope_cap must be > 0, got {cap!r}")
        m = self.get("compare.m")
        if m is not None and not 1 <= m <= MAX_GRID_SIZE:
            raise ConfigError(f"compare.m must be from 1 to {MAX_GRID_SIZE}, got {m!r}")
        return {"times": times, "dt": dt, "slope_cap": cap, "dealias": bool(self.get("oracle.dealias")), "m": m}

    def validation_args(self) -> dict[str, int]:
        """Keyword arguments of full_validation; a battery that would check
        no state, or could not build its grid or generator, is a ConfigError."""
        n_states = int(self.get("validate.n_states"))
        if n_states < 1:
            raise ConfigError(f"validate.n_states must be >= 1, got {n_states}")
        seed = int(self.get("validate.seed"))
        if seed < 0:
            raise ConfigError(f"validate.seed must be >= 0, got {seed}")
        return {"n": self._grid_size("validate.n"), "seed": seed, "n_states": n_states}


def parse_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    cfg = RunConfig(source=str(path))
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise ConfigError(f"{where}: empty value for {key!r}")
        if key.startswith("sweep."):
            target = key[len("sweep."):]
            typ = SCHEMA.get(target)
            if typ is None:
                raise ConfigError(f"{where}: unknown sweep target {target!r}")
            if isinstance(typ, tuple):
                raise ConfigError(f"{where}: cannot sweep list-valued key {target!r}")
            vals = [_parse_scalar(tok, typ, where) for tok in value.split()]
            if not vals:
                raise ConfigError(f"{where}: sweep for {target!r} has no values")
            cfg.sweep[target] = vals
        else:
            typ = SCHEMA.get(key)
            if typ is None:
                raise ConfigError(f"{where}: unknown configuration key {key!r}")
            cfg.values[key] = _parse_value(value, typ, where)
    return cfg
