"""The four workloads: set-up, the operations of one pass, and their checks.

Each workload exercises one layer of the program and leaves the others
nearly idle:

  certify-xyz  the solver (warm-start product search and relaxation sweeps)
  round-xy     rounding, with threads=2 as the README suggests
  exact-mixed  the exact oracle (dense build, eigensolve, diagonal scan)
  constants    ratio_numerics only; no graph layer runs

The program is reached through module attributes at call time
(`cli.run_pipeline`, `moment_sdp.solve_moment_sdp`, ...) so that the traced
run sees every call.
"""

from __future__ import annotations

import functools
import statistics

from heisopt import cli, instance, moment_sdp, rounding

import checks
from inputs import Spec, make_inputs


class Workload:
    """One workload; setup() may run several times, the last state is used."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        pass

    def ops(self) -> list:
        """Zero-argument callables, one per operation of a pass."""
        raise NotImplementedError

    def reference(self):
        """Reference values for check(), computed once after the passes."""
        return None

    def check(self, ref, k: int, result) -> list[str]:
        raise NotImplementedError

    def ratio(self, results: list) -> float:
        """The approximation ratio one pass certifies."""
        raise NotImplementedError

    def _parse(self, specs, workload_id: int):
        inputs = make_inputs(specs, workload_id, self.seed)
        return [(e, instance.parse_instance(e.text())) for e in inputs]


class CertifyXYZ(Workload):
    name = "certify-xyz"
    specs = [Spec("xyz-dense", 40, 0.3, "xyz"), Spec("xyz-sparse", 40, 0.1, "xyz")]

    def setup(self):
        self.inputs = self._parse(self.specs, 0)

    def ops(self):
        return [
            functools.partial(cli.run_pipeline, inst, scheme="bfv", trials=500, seed=self.seed)
            for _, inst in self.inputs
        ]

    def check(self, ref, k, report):
        return checks.check_report(report, "bfv", self.specs[k].coeffs)

    def ratio(self, reports):
        return statistics.fmean(r.certified_ratio for r in reports)


class RoundXY(Workload):
    name = "round-xy"
    spec = Spec("xy", 40, 0.2, "xy")
    trials = 20_000
    guarantees = (checks.BFV_XY, checks.AXIS_R2)

    def setup(self):
        ((self.edges, self.inst),) = self._parse([self.spec], 1)
        cfg = moment_sdp.SolverConfig(seed=self.seed)
        self.sol = moment_sdp.solve_moment_sdp(self.inst, cfg)

    def ops(self):
        return [
            functools.partial(
                fn, self.inst, self.sol, trials=self.trials, seed=self.seed, threads=2
            )
            for fn in (rounding.bfv_round, rounding.gw_axis_round)
        ]

    def reference(self):
        return checks.check_solution(self.edges, self.sol)

    def check(self, solution_failures, k, outcome):
        return solution_failures + checks.check_rounding(
            self.edges, self.sol.value, outcome, self.guarantees[k]
        )

    def ratio(self, outcomes):
        return statistics.fmean(o.energy / self.sol.value for o in outcomes)


class ExactMixed(Workload):
    name = "exact-mixed"
    specs = [
        Spec("mixed-9", 9, 0.5, "mixed"),
        Spec("mixed-10", 10, 0.5, "mixed"),
        Spec("mixed-11", 11, 0.5, "mixed"),
        Spec("xxz-10", 10, 0.5, "xxz"),
        Spec("zz-18", 18, 0.3, "zz"),
    ]

    def setup(self):
        self.inputs = self._parse(self.specs, 2)

    def ops(self):
        return [
            functools.partial(
                cli.run_pipeline, inst, scheme="axis", trials=500, seed=self.seed, oracle=True
            )
            for _, inst in self.inputs
        ]

    def reference(self):
        return [checks.max_eigenvalue(e) for e, _ in self.inputs]

    def check(self, lams, k, report):
        return checks.check_report(report, "axis", self.specs[k].coeffs) + checks.check_exact(
            report, lams[k]
        )

    def ratio(self, reports):
        return statistics.fmean(r.true_ratio for r in reports)


class Constants(Workload):
    name = "constants"
    steps = (0.01, 1e-4)

    def ops(self):
        return [functools.partial(cli.reproduce_constants, steps=self.steps)]

    def reference(self):
        refs = {
            (scheme, r, step): checks.grid_minimum(scheme, r, step)
            for step in self.steps
            for scheme in ("bfv", "axis")
            for r in (1, 2, 3)
        }
        return refs, checks.goemans_williamson()

    def check(self, ref, k, rows):
        return checks.check_constants(rows, *ref)

    def ratio(self, results):
        (rows,) = results
        return next(
            row["ratio"]
            for row in rows
            if (row["scheme"], row["r"], row["step"]) == ("bfv", 2, self.steps[-1])
        )


WORKLOADS = {w.name: w for w in (CertifyXYZ, RoundXY, ExactMixed, Constants)}
