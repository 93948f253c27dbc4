"""Per-layer tracing from outside the program.

The tracer swaps the module attributes through which dispersia's layers call
each other (and numpy's FFT pair) for timing wrappers, and puts the originals
back afterwards.  Nothing under src/ is edited: the wrappers see exactly the
calls that cross a module boundary by name lookup at call time.

Spans are kept in memory as (name, start, end, attrs); self time of a layer
is its spans' duration minus the union of its child spans.  FFT calls are
too many for spans, so they are counted and timed per scheme of the solve
they run in ("other" outside the step loop: precompute, norms).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

SCHEMES = ("ei", "lt", "strang", "lri")

LAYER_UNITS = {
    "cli.self_s": "s",
    "harness.sweep_s": "s",
    "harness.self_s": "s",
    "harness.reference_solves": "count",
    "harness.reference_dup_ratio": "ratio",
    "harness.reference_s": "s",
    "harness.reference_share": "ratio",
    "harness.test_solves": "count",
    "harness.test_s": "s",
    "harness.error_s": "s",
    "integrators.steps": "count",
    **{f"integrators.step_us.{s}": "us" for s in SCHEMES},
    "integrators.precompute_s": "s",
    "integrators.precompute_calls": "count",
    "fft.calls": "count",
    "fft.calls_per_step": "ratio",
    **{f"fft.calls_per_step.{s}": "ratio" for s in SCHEMES},
    "fft.pair_us": "us",
    "model.phase_points": "count",
    "model.phase_eval_s": "s",
    "model.scan_points": "count",
    "model.bound_scan_s": "s",
    "model.c0_candidates": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _union_seconds(spans, lo: float, hi: float) -> float:
    """Length of the union of span intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for s in sorted(spans, key=lambda s: s.start):
        a, b = max(s.start, reach), min(s.end, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    def __init__(self, cli, harness, integrators, model):
        self._mods = {"cli": cli, "harness": harness, "integrators": integrators,
                      "model": model, "fft": np.fft}
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sweep_reference = None
        # category -> [fft calls, ifft calls, fft seconds, ifft seconds]
        self.fft: dict[str, list] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, attrs_of=None):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
            attrs = attrs_of(args, out) if attrs_of else {}
            self.spans.append(Span(name, t0, t1, attrs))
            return out
        return wrapper

    def _sweep(self, fn):
        def wrapper(cfg, *args, **kwargs):
            self._sweep_reference = (cfg.reference_scheme.value, cfg.reference_tau)
            return self._span("harness.sweep", fn)(cfg, *args, **kwargs)
        return wrapper

    def _solve(self, fn):
        def wrapper(config, *args, **kwargs):
            scheme = config.scheme.value
            prev = getattr(self._local, "scheme", None)
            self._local.scheme = scheme
            t0 = time.perf_counter()
            try:
                res = fn(config, *args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._local.scheme = prev
            reference = (scheme, config.tau) == self._sweep_reference
            self.spans.append(Span("harness.solve", t0, t1, {
                "scheme": scheme, "reference": reference, "steps": res.steps,
                "step_seconds": res.walltime,
                "key": (config.model.epsilon, scheme, config.tau),
            }))
            return res
        return wrapper

    def _precompute(self, fn):
        inner = self._span("integrators.precompute", fn)

        def wrapper(*args, **kwargs):
            prev = getattr(self._local, "in_precompute", False)
            self._local.in_precompute = True
            try:
                return inner(*args, **kwargs)
            finally:
                self._local.in_precompute = prev
        return wrapper

    def _fft(self, fn, slot: int):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            local = self._local
            scheme = getattr(local, "scheme", None)
            cat = "other" if scheme is None or getattr(local, "in_precompute", False) else scheme
            with self._lock:
                row = self.fft.setdefault(cat, [0, 0, 0.0, 0.0])
                row[slot] += 1
                row[slot + 2] += dt
            return out
        return wrapper

    # -- install / remove ----------------------------------------------------

    def _patch(self, mod_name: str, attr: str, make):
        mod = self._mods[mod_name]
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def __enter__(self):
        points = lambda args, out: {"points": int(np.size(args[1]))}  # noqa: E731
        scan = lambda args, out: {"points": int(np.size(args[2]) * np.size(args[3]))}  # noqa: E731
        self._patch("cli", "convergence_sweep", self._sweep)
        self._patch("cli", "compare_methods", self._sweep)
        self._patch("harness", "solve", self._solve)
        self._patch("harness", "error_x", lambda f: self._span("harness.error", f))
        self._patch("integrators", "precompute", self._precompute)
        self._patch("fft", "fft", lambda f: self._fft(f, 0))
        self._patch("fft", "ifft", lambda f: self._fft(f, 1))
        self._patch("cli", "eval_phase", lambda f: self._span("model.phase_eval", f, points))
        self._patch("cli", "eval_phase_factored",
                    lambda f: self._span("model.phase_eval", f, points))
        self._patch("cli", "eval_p", lambda f: self._span("model.phase_eval", f))
        self._patch("model", "verify_phase_lower_bound",
                    lambda f: self._span("model.bound_scan", f, scan))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)
        return False

    def cli_call(self, main, argv):
        return self._span("cli", main)(argv)

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        by = {}
        for s in self.spans:
            by.setdefault(s.name, []).append(s)

        def total(name):
            return sum(s.seconds for s in by.get(name, ()))

        def self_time(parent, children):
            kids = [s for c in children for s in by.get(c, ())]
            return sum(p.seconds - _union_seconds(kids, p.start, p.end)
                       for p in by.get(parent, ()))

        solves = by.get("harness.solve", [])
        refs = [s for s in solves if s.attrs["reference"]]
        tests = [s for s in solves if not s.attrs["reference"]]
        sweep_s = total("harness.sweep")
        reference_s = sum(s.seconds for s in refs)
        distinct = {s.attrs["key"] for s in refs}
        steps = sum(s.attrs["steps"] for s in solves)

        n_fft = sum(r[0] for r in self.fft.values())
        n_ifft = sum(r[1] for r in self.fft.values())
        t_fft = sum(r[2] for r in self.fft.values())
        t_ifft = sum(r[3] for r in self.fft.values())
        step_fft = sum(r[0] + r[1] for c, r in self.fft.items() if c in SCHEMES)

        out = {
            "cli.self_s": self_time("cli", ("harness.sweep", "model.phase_eval",
                                            "model.bound_scan")),
            "harness.sweep_s": sweep_s,
            "harness.self_s": self_time("harness.sweep", ("harness.solve", "harness.error")),
            "harness.reference_solves": len(refs),
            "harness.reference_dup_ratio": len(refs) / len(distinct) if distinct else 0.0,
            "harness.reference_s": reference_s,
            "harness.reference_share": reference_s / sweep_s if sweep_s else 0.0,
            "harness.test_solves": len(tests),
            "harness.test_s": sum(s.seconds for s in tests),
            "harness.error_s": total("harness.error"),
            "integrators.steps": steps,
            "integrators.precompute_s": total("integrators.precompute"),
            "integrators.precompute_calls": len(by.get("integrators.precompute", ())),
            "fft.calls": n_fft + n_ifft,
            "fft.calls_per_step": step_fft / steps if steps else 0.0,
            "fft.pair_us": (1e6 * (t_fft / n_fft + t_ifft / n_ifft)
                            if n_fft and n_ifft else 0.0),
            "model.phase_points": sum(s.attrs.get("points", 0)
                                      for s in by.get("model.phase_eval", ())),
            "model.phase_eval_s": total("model.phase_eval"),
            "model.scan_points": sum(s.attrs["points"] for s in by.get("model.bound_scan", ())),
            "model.bound_scan_s": total("model.bound_scan"),
            "model.c0_candidates": len(by.get("model.bound_scan", ())),
        }
        for scheme in SCHEMES:
            mine = [s for s in solves if s.attrs["scheme"] == scheme]
            n = sum(s.attrs["steps"] for s in mine)
            out[f"integrators.step_us.{scheme}"] = (
                1e6 * sum(s.attrs["step_seconds"] for s in mine) / n if n else 0.0)
            row = self.fft.get(scheme, [0, 0])
            out[f"fft.calls_per_step.{scheme}"] = (row[0] + row[1]) / n if n else 0.0
        return out
