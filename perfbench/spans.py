"""Spans around the program's public functions, and the per-layer metrics.

The traced run replaces functions at the module attributes through which
the program calls them (`heisopt.cli.solve_moment_sdp`,
`heisopt.moment_sdp.best_product_state`, ...) with wrappers that record a
span: name, start, end, parent span and the phase (set-up or pass) it ran
in. Spans stay in memory and are written out when the run ends. A span's
self time is its duration minus the part its children cover.

Per-layer figures are given for one set-up plus one pass: a span in the
set-up phase weighs 1/(set-ups) and one in a pass weighs 1/(passes).
"""

from __future__ import annotations

import functools
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    phase: str
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], int] = {}
        self.phase = "setup"
        self._local = threading.local()
        self._undo = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, owner, attr: str, name: str, on_result=None, alloc: bool = False):
        """Record a span per call of owner.attr; on_result(args, result) adds attrs."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.phase)
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            if alloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if alloc:
                    span.attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if on_result is not None:
                span.attrs.update(on_result(args, result))
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def count(self, owner, attr: str, name: str):
        """Count calls of owner.attr per phase, without a span."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            key = (name, self.phase)
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)
        self._undo.append((owner, attr, fn))

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def self_time(self, k: int) -> float:
        """Duration of span k minus the union of its children's intervals."""
        span = self.spans[k]
        kids = sorted((s.start, s.end) for s in self.spans if s.parent == k)
        covered, reach = 0.0, span.start
        for a, b in kids:
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        return (span.end - span.start) - covered

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "phase": s.phase, **s.attrs}
                for s in self.spans
            ],
            "counts": [{"name": n, "phase": p, "calls": c} for (n, p), c in self.counts.items()],
        }


def install(tracer: Tracer):
    """Wrap the program's layer boundaries; tracer.uninstall() restores them."""
    from heisopt import _kernels, cli, instance, moment_sdp, oracle, ratio_numerics, rounding

    def solve_attrs(args, sol):
        d = sol.diagnostics
        return {"n": args[0].n, "m": args[0].m, "sweeps": d.total_sweeps, "restarts": d.restarts}

    tracer.wrap(instance, "parse_instance", "instance.parse")
    tracer.wrap(instance.Instance, "arrays", "instance.arrays")
    tracer.wrap(instance.Instance, "incidence", "instance.incidence")
    for mod in (cli, moment_sdp):
        tracer.wrap(mod, "solve_moment_sdp", "moment_sdp.solve", on_result=solve_attrs)
        tracer.wrap(mod, "best_product_state", "oracle.product_search",
                    on_result=lambda args, out: {"restarts": out.restarts_used})
    for mod in (cli, rounding):
        for fn in ("bfv_round", "gw_axis_round"):
            tracer.wrap(mod, fn, "rounding.round", on_result=lambda args, out: {"trials": out.trials_run})
    tracer.wrap(cli, "exact_max_eigenvalue", "oracle.exact", alloc=True)
    tracer.wrap(oracle, "build_dense", "pauli.build_dense")
    tracer.wrap(_kernels, "diag_extreme", "oracle.diag_scan")
    tracer.wrap(_kernels, "apply_edges", "oracle.apply_edges")
    tracer.wrap(cli, "run_pipeline", "cli.pipeline")
    tracer.wrap(cli, "reproduce_constants", "cli.pipeline")
    for fn in ("approx_ratio_bfv", "approx_ratio_axis"):
        tracer.wrap(cli, fn, "ratio_numerics.curve", on_result=lambda args, c: {"points": len(c.samples)})
    tracer.count(ratio_numerics, "hyp2f1_half", "ratio_numerics.hyp2f1")


def bytes_per_sweep(n: int, m: int) -> int:
    """Bytes one numpy-lane sweep moves, computed from array sizes.

    Per sweep every qubit gathers its neighbours' triads (2m reads of 3 x 3n
    doubles) and writes its own (n writes), and the objective gathers both
    endpoints' triads of every edge (2m reads). Caches and temporaries are
    ignored.
    """
    return 8 * 9 * n * (4 * m + n)


LAYER_METRICS = [
    ("instance.parse_s", "s"), ("instance.arrays_calls", "count"), ("instance.arrays_s", "s"),
    ("instance.incidence_calls", "count"), ("instance.incidence_s", "s"),
    ("oracle.product_search_s", "s"), ("oracle.product_search_calls", "count"),
    ("oracle.product_search_restarts", "count"),
    ("moment_sdp.solve_s", "s"), ("moment_sdp.sweeps_self_s", "s"), ("moment_sdp.sweeps", "count"),
    ("moment_sdp.restarts", "count"), ("moment_sdp.sweep_ms", "ms"),
    ("moment_sdp.bytes_per_sweep", "bytes"),
    ("rounding.round_s", "s"), ("rounding.trials", "count"), ("rounding.trials_per_s", "1/s"),
    ("oracle.exact_s", "s"), ("pauli.build_dense_s", "s"), ("oracle.eigensolve_s", "s"),
    ("oracle.exact_peak_alloc_mb", "MB"), ("oracle.route.dense", "count"),
    ("oracle.route.diagonal", "count"), ("oracle.route.power", "count"),
    ("ratio_numerics.curve_s", "s"), ("ratio_numerics.hyp2f1_calls", "count"),
    ("ratio_numerics.grid_points", "count"), ("cli.pipeline_s", "s"),
]

_ROUTES = {"pauli.build_dense": "dense", "oracle.diag_scan": "diagonal", "oracle.apply_edges": "power"}


def layer_metrics(tracer: Tracer, setups: int, passes: int) -> dict[str, float]:
    """Every LAYER_METRICS value for one set-up plus one pass."""
    tot = {"setup": defaultdict(float), "pass": defaultdict(float)}
    peak_mb = 0.0
    for k, s in enumerate(tracer.spans):
        t, dur = tot[s.phase], s.end - s.start
        if s.name == "instance.parse":
            t["instance.parse_s"] += dur
        elif s.name in ("instance.arrays", "instance.incidence"):
            t[s.name + "_calls"] += 1
            t[s.name + "_s"] += dur
        elif s.name == "oracle.product_search":
            t["oracle.product_search_s"] += dur
            t["oracle.product_search_calls"] += 1
            t["oracle.product_search_restarts"] += s.attrs["restarts"]
        elif s.name == "moment_sdp.solve":
            t["moment_sdp.solve_s"] += dur
            t["moment_sdp.sweeps_self_s"] += tracer.self_time(k)
            t["moment_sdp.sweeps"] += s.attrs["sweeps"]
            t["moment_sdp.restarts"] += s.attrs["restarts"]
            t["sweep_bytes"] += s.attrs["sweeps"] * bytes_per_sweep(s.attrs["n"], s.attrs["m"])
        elif s.name == "rounding.round":
            t["rounding.round_s"] += dur
            t["rounding.trials"] += s.attrs["trials"]
        elif s.name == "oracle.exact":
            t["oracle.exact_s"] += dur
            t["oracle.eigensolve_s"] += tracer.self_time(k)
            peak_mb = max(peak_mb, s.attrs["peak_mb"])
            kids = {c.name for c in tracer.spans if c.parent == k}
            route = next((r for name, r in _ROUTES.items() if name in kids), None)
            if route is not None:
                t["oracle.route." + route] += 1
        elif s.name == "pauli.build_dense":
            t["pauli.build_dense_s"] += dur
        elif s.name == "ratio_numerics.curve":
            t["ratio_numerics.curve_s"] += dur
            t["ratio_numerics.grid_points"] += s.attrs["points"]
        elif s.name == "cli.pipeline":
            t["cli.pipeline_s"] += dur
    for (name, phase), calls in tracer.counts.items():
        tot[phase][name + "_calls"] += calls

    keys = {name for name, _ in LAYER_METRICS} | {"sweep_bytes"}
    v = {key: tot["setup"][key] / setups + tot["pass"][key] / passes for key in keys}
    v["oracle.exact_peak_alloc_mb"] = peak_mb
    if v["moment_sdp.sweeps"]:
        v["moment_sdp.sweep_ms"] = 1e3 * v["moment_sdp.sweeps_self_s"] / v["moment_sdp.sweeps"]
        v["moment_sdp.bytes_per_sweep"] = v["sweep_bytes"] / v["moment_sdp.sweeps"]
    if v["rounding.round_s"]:
        v["rounding.trials_per_s"] = v["rounding.trials"] / v["rounding.round_s"]
    return v
