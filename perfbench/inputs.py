"""Seeded instance text for the benchmark workloads.

The benchmark draws its own instances with numpy and hands them to the
program as instance text, the path the CLI takes. It does not call
`heisopt.generate`, so a change to that function's seed-to-instance map
cannot change the workloads.

Each input is a base graph, fixed by the workload's definition, that
`--seed` relabels: the seed permutes the qubits and the order of the edge
lines. The solver's work is a property of the graph up to isomorphism
(restarts of one graph differ by a few sweeps, while random graphs of the
same n and p differ tenfold), so relabelling keeps a pass's work steady
across seeds while every seed still hands the program different text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Base graphs are drawn from SeedSequence([BASE_SEED, workload, index]).
BASE_SEED = 1909


@dataclass(frozen=True)
class Spec:
    """One input: G(n, p) with weights in [0.1, 1] and a coefficient rule."""

    name: str
    n: int
    p: float
    coeffs: str  # "xyz", "xy", "mixed", "xxz" or "zz"


@dataclass(frozen=True)
class Edges:
    """An instance as arrays: endpoints i < j, weights, (m, 3) coefficients."""

    label: str
    n: int
    ei: np.ndarray
    ej: np.ndarray
    w: np.ndarray
    c: np.ndarray

    def text(self) -> str:
        lines = [f"# label: {self.label}", f"{self.n} {self.ei.size}"]
        for i, j, w, (a, b, g) in zip(self.ei, self.ej, self.w, self.c):
            lines.append(f"{i} {j} {w:.17g} {a:.17g} {b:.17g} {g:.17g}")
        return "\n".join(lines) + "\n"


def _coeffs(rule: str, m: int, rng) -> np.ndarray:
    if rule == "xyz":
        return np.ones((m, 3))
    if rule == "xy":
        return np.tile([1.0, 1.0, 0.0], (m, 1))
    if rule == "mixed":
        return rng.uniform(-1.0, 1.0, (m, 3))
    if rule == "xxz":
        ab, g = rng.uniform(-1.0, 1.0, (2, m))
        return np.stack([ab, ab, g], axis=1)
    if rule == "zz":
        c = np.zeros((m, 3))
        c[:, 2] = rng.uniform(-1.0, 1.0, m)
        return c
    raise ValueError(f"unknown coefficient rule {rule!r}")


def base_graph(spec: Spec, workload_id: int, index: int) -> Edges:
    """The workload's fixed graph for one input; independent of --seed."""
    rng = np.random.default_rng(np.random.SeedSequence([BASE_SEED, workload_id, index]))
    iu, ju = np.triu_indices(spec.n, 1)
    keep = rng.random(iu.size) < spec.p
    ei, ej = iu[keep], ju[keep]
    w = rng.uniform(0.1, 1.0, ei.size)
    return Edges(spec.name, spec.n, ei, ej, w, _coeffs(spec.coeffs, ei.size, rng))


def relabel(base: Edges, seed: int, index: int) -> Edges:
    """Permute qubit labels and edge order with a generator keyed on the seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    perm = rng.permutation(base.n)
    a, b = perm[base.ei], perm[base.ej]
    ei, ej = np.minimum(a, b), np.maximum(a, b)
    order = rng.permutation(ei.size)
    return Edges(
        f"{base.label}-seed{seed}", base.n, ei[order], ej[order], base.w[order], base.c[order]
    )


def make_inputs(specs, workload_id: int, seed: int) -> list[Edges]:
    return [relabel(base_graph(s, workload_id, k), seed, k) for k, s in enumerate(specs)]
