"""Spans around the calls one layer makes into another, from outside the package.

`Tracer.install` replaces module-global names (the names through which one
layer calls another) with wrappers that record a span each: name, start,
end and the enclosing span.  It also counts numpy's real FFTs and the
bytes they read and write (computed from array sizes, not measured).
Spans stay in memory until `write`.  `layer_metrics` turns them into the
per-layer figures; a layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

from rhosphere import cli, integrate, oracle, reconstruct, validate


def _evolve_counts(args, kwargs, rec):
    return {"steps": rec.series.t.size - 1, "events": len(rec.events), "snapshots": len(rec.snapshots)}


def _oracle_counts(args, kwargs, traj):
    dt = args[1] if len(args) > 1 else kwargs["dt"]
    end = traj.blowup_time if traj.blowup else traj.times[-1]
    return {"steps": round(end / dt)}


# units of work per span name, read off each call
_COUNTS = {
    "integrate.evolve": _evolve_counts,
    "oracle.evolve": _oracle_counts,
    "reconstruct.weak_residual": lambda args, kwargs, _: {"samples": kwargs["times"]},
    "validate.full_validation": lambda args, kwargs, checks: {"checks": len(checks)},
}

# (owner, attribute, span name): the names through which one layer calls another
_WRAP_POINTS = [
    (cli, "main", "cli.main"),
    (cli, "evolve", "integrate.evolve"),
    (cli, "eulerian_evolve", "oracle.evolve"),
    (cli, "flow_map", "reconstruct.flow_map"),
    (cli, "lagrangian_velocity", "lagrangian.velocity"),
    (cli, "slope_field", "reconstruct.slope_field"),
    (cli, "full_validation", "validate.full_validation"),
    (integrate, "evolve", "integrate.evolve"),
    (integrate, "evaluate", "lagrangian.rhs"),
    (integrate, "project", "integrate.project"),
    (validate, "evolve", "integrate.evolve"),
    (reconstruct, "state_at", "reconstruct.state_at"),
    (reconstruct, "flow_map", "reconstruct.flow_map"),
    (reconstruct, "lagrangian_velocity", "lagrangian.velocity"),
    (reconstruct, "slope_field", "reconstruct.slope_field"),
    (reconstruct, "eulerian_velocity", "reconstruct.field"),
    (reconstruct, "weak_residual", "reconstruct.weak_residual"),
    (reconstruct.FlowMap, "invert", "reconstruct.invert"),
    (oracle, "eulerian_evolve", "oracle.evolve"),
    (oracle, "eulerian_rhs", "oracle.rhs"),
    (oracle, "compare", "oracle.compare"),
]


class Tracer:
    """Spans and FFT counts, recorded while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, FFT calls inside]
        self.counts = defaultdict(lambda: defaultdict(int))
        self.fft_calls = 0
        self.fft_bytes = 0
        self._stack = []
        self._patches = []

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _open(self, name):
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.fft_calls]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = perf_counter()
        span[4] = self.fft_calls - span[4]
        self._stack.pop()

    def wrap(self, owner, attr, name, counts=None):
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    self.counts[name][key] += value
            return result

        self._patch(owner, attr, traced)

    def _count_fft(self, attr):
        orig = getattr(np.fft, attr)

        @functools.wraps(orig)
        def counted(a, *args, **kwargs):
            out = orig(a, *args, **kwargs)
            self.fft_calls += 1
            self.fft_bytes += np.asarray(a).nbytes + out.nbytes
            return out

        self._patch(np.fft, attr, counted)

    def install(self):
        for owner, attr, name in _WRAP_POINTS:
            self.wrap(owner, attr, name, _COUNTS.get(name))
        self._count_fft("rfft")
        self._count_fft("irfft")

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def region(self, name):
        """One span around a block of the benchmark itself."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def write(self, path):
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "fft_calls"],
            "spans": self.spans,
        }), encoding="utf-8")


def layer_metrics(tracer, jobs, files, nbytes):
    """Per-layer figures from the spans of `jobs` traced jobs.

    Times per call are totals over calls; `files` and `nbytes` are what the
    traced jobs left in their output directories.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    ffts = defaultdict(int)
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, nfft in tracer.spans:
        total[name] += end - start
        calls[name] += 1
        ffts[name] += nfft
        if parent >= 0:
            child[parent] += end - start
    own = defaultdict(float)
    for (name, start, end, _, _), kids in zip(tracer.spans, child):
        own[name] += end - start - kids

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def mean_us(name):
        return per(total[name], calls[name], 1e6)

    steps = tracer.counts["integrate.evolve"]["steps"]
    rhs_us = mean_us("lagrangian.rhs")
    osteps = tracer.counts["oracle.evolve"]["steps"]
    cli_self = own["cli.main"] / jobs
    mb = nbytes / 1e6 / jobs
    return {
        "integrate.step_us": (per(total["integrate.evolve"], steps, 1e6), "us"),
        "integrate.self_us_per_step": (per(own["integrate.evolve"] - 3 * steps * rhs_us / 1e6, steps, 1e6), "us"),
        "integrate.project_us": (mean_us("integrate.project"), "us"),
        "integrate.steps": (steps / jobs, "count"),
        "integrate.events": (tracer.counts["integrate.evolve"]["events"] / jobs, "count"),
        "integrate.snapshots": (tracer.counts["integrate.evolve"]["snapshots"] / jobs, "count"),
        "lagrangian.rhs_us": (rhs_us, "us"),
        # three stage evaluations per step run inside the step, unwrapped
        "lagrangian.rhs_calls": ((calls["lagrangian.rhs"] + 3 * steps) / jobs, "count"),
        "lagrangian.fft_per_rhs": (per(ffts["lagrangian.rhs"], calls["lagrangian.rhs"]), "count"),
        "grid.fft_calls": (tracer.fft_calls / jobs, "count"),
        "grid.fft_mb": (tracer.fft_bytes / 1e6 / jobs, "MB"),
        "cli.self_s": (cli_self, "s"),
        "cli.files_written": (files / jobs, "count"),
        "cli.mb_written": (mb, "MB"),
        "cli.write_mb_per_s": (per(mb, cli_self), "MB/s"),
        "oracle.step_us": (per(total["oracle.evolve"], osteps, 1e6), "us"),
        "oracle.rhs_us": (mean_us("oracle.rhs"), "us"),
        "oracle.rhs_calls": (calls["oracle.rhs"] / jobs, "count"),
        "oracle.fft_per_step": (per(ffts["oracle.evolve"], osteps), "count"),
        "oracle.self_us_per_step": (per(own["oracle.evolve"], osteps, 1e6), "us"),
        "reconstruct.flow_map_us": (mean_us("reconstruct.flow_map"), "us"),
        "reconstruct.invert_us": (mean_us("reconstruct.invert"), "us"),
        "reconstruct.field_us": (mean_us("reconstruct.field"), "us"),
        "reconstruct.state_at_us": (mean_us("reconstruct.state_at"), "us"),
        "reconstruct.weak_residual_sample_us": (
            per(total["reconstruct.weak_residual"], tracer.counts["reconstruct.weak_residual"]["samples"], 1e6),
            "us"),
        "validate.full_validation_s": (total["validate.full_validation"] / jobs, "s"),
        "validate.checks": (tracer.counts["validate.full_validation"]["checks"] / jobs, "count"),
    }
