"""Instance data model, file format, validation and generators.

An instance is a weighted interaction multigraph on n qubits. Each edge
(i, j) carries a weight w >= 0 and coefficients (alpha, beta, gamma) in
[-1, 1]^3 and denotes the two-qubit term

    w * (I - alpha X_i X_j - beta Y_i Y_j - gamma Z_i Z_j).

The instance additionally carries a constant identity offset (0 for every
instance read from a file; the local-unitary reduction uses it to keep
spectra exactly equal).

File format: first non-comment line "n m", then m lines
"i j w alpha beta gamma". Lines starting with '#' are comments, blank
lines are skipped. Serialization emits 17 significant digits so parsing
round-trips float64 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from . import _kernels
from ._backend import DOMAIN_GENERATE, rng_for

__all__ = [
    "Edge",
    "Instance",
    "FamilyTag",
    "ParseError",
    "parse_instance",
    "parse_instance_file",
    "serialize_instance",
    "is_family_uniform",
    "generate",
]


class ParseError(ValueError):
    """Malformed instance text; message carries the 1-based line number."""


def _check_real(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


@dataclass(frozen=True)
class Edge:
    """One interaction term; endpoints satisfy 0 <= i < j."""

    i: int
    j: int
    w: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not (isinstance(self.i, int) and isinstance(self.j, int)):
            raise ValueError("edge endpoints must be integers")
        if not 0 <= self.i < self.j:
            raise ValueError(f"edge endpoints must satisfy 0 <= i < j, got ({self.i}, {self.j})")
        object.__setattr__(self, "w", _check_real("weight", self.w))
        if self.w < 0:
            raise ValueError(f"negative weight {self.w}")
        for name in ("alpha", "beta", "gamma"):
            v = _check_real(name, getattr(self, name))
            if abs(v) > 1:
                raise ValueError(f"{name}={v} outside [-1, 1]")
            object.__setattr__(self, name, v)

    @property
    def coeffs(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)


@dataclass(frozen=True)
class Instance:
    """Immutable weighted multigraph of Heisenberg-type edge terms.

    Construction validates the edges and builds the read-only edge table
    that arrays() returns; incidence() builds the dense coupling from it.
    """

    n: int
    edges: tuple[Edge, ...]
    label: str = ""
    offset: float = 0.0
    _table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"qubit count must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "offset", _check_real("offset", self.offset))
        for e in self.edges:
            if e.j >= self.n:
                raise ValueError(f"edge ({e.i}, {e.j}) out of range for n={self.n}")
        w = np.array([e.w for e in self.edges], dtype=float)
        table = (
            np.array([e.i for e in self.edges], dtype=np.int64),
            np.array([e.j for e in self.edges], dtype=np.int64),
            w,
            w[:, None] * np.array([e.coeffs for e in self.edges], dtype=float).reshape(-1, 3),
        )
        for a in table:
            a.flags.writeable = False
        object.__setattr__(self, "_table", table)

    @property
    def m(self) -> int:
        return len(self.edges)

    def arrays(self):
        """Edge table (ei, ej, w, wc3), read-only; wc3[e, k] = w_e * coeff_k(e)."""
        return self._table

    def incidence(self):
        """Coupling A (3, n, n) and its colour classes, from _kernels.colour_classes.

        A[k, i, j] = A[k, j, i] sums -w_e * coeff_k(e) over the edges e
        between i and j. Built anew on each call: A holds 3n^2 floats.
        """
        ei, ej, _, wc3 = self._table
        return _kernels.colour_classes(self.n, ei, ej, wc3)


@dataclass(frozen=True)
class FamilyTag:
    """A {0,1}^3 coefficient pattern; r counts the active Pauli axes."""

    alpha: int
    beta: int
    gamma: int

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if v not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.r not in (1, 2, 3):
            raise ValueError("at least one axis must be active")

    @property
    def r(self) -> int:
        return self.alpha + self.beta + self.gamma

    @property
    def active_axes(self) -> tuple[int, ...]:
        return tuple(k for k, c in enumerate((self.alpha, self.beta, self.gamma)) if c)


def is_family_uniform(inst: Instance) -> FamilyTag | None:
    """The shared {0,1}^3 tag when every edge carries it exactly, else None."""
    if not inst.edges:
        return None
    first = inst.edges[0].coeffs
    if any(e.coeffs != first for e in inst.edges):
        return None
    if any(c not in (0.0, 1.0) for c in first) or sum(first) == 0:
        return None
    return FamilyTag(int(first[0]), int(first[1]), int(first[2]))


# ----------------------------------------------------------------- file format

_LABEL_PREFIX = "# label: "


def serialize_instance(inst: Instance) -> str:
    lines = []
    if inst.label:
        lines.append(_LABEL_PREFIX + inst.label)
    lines.append(f"{inst.n} {inst.m}")
    for e in inst.edges:
        lines.append(
            f"{e.i} {e.j} {e.w:.17g} {e.alpha:.17g} {e.beta:.17g} {e.gamma:.17g}"
        )
    return "\n".join(lines) + "\n"


def parse_instance(text: str, label: str = "") -> Instance:
    header = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith(_LABEL_PREFIX) and not label:
                label = line[len(_LABEL_PREFIX):]
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: expected header 'n m', got {line!r}")
            try:
                header = (int(tokens[0]), int(tokens[1]))
            except ValueError:
                raise ParseError(f"line {lineno}: header fields must be integers") from None
            continue
        if len(edges) >= header[1]:
            raise ParseError(f"line {lineno}: more than {header[1]} edge lines")
        if len(tokens) != 6:
            raise ParseError(
                f"line {lineno}: expected 'i j w alpha beta gamma', got {line!r}"
            )
        try:
            i, j = int(tokens[0]), int(tokens[1])
            w, alpha, beta, gamma = (float(t) for t in tokens[2:])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed numeric field in {line!r}") from None
        try:
            edges.append(Edge(i, j, w, alpha, beta, gamma))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if header is None:
        raise ParseError("empty instance text (no 'n m' header)")
    if len(edges) != header[1]:
        raise ParseError(f"expected {header[1]} edges, found {len(edges)}")
    try:
        return Instance(header[0], tuple(edges), label=label)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_instance_file(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_instance(text)


# ------------------------------------------------------------------ generators


def _coerce_family(family) -> tuple[float, float, float]:
    triple = tuple(float(c) for c in family)
    if len(triple) != 3:
        raise ValueError(f"family must have 3 coefficients, got {family!r}")
    return triple


def _weights(rng, m: int, weights: str) -> np.ndarray:
    if weights == "unit":
        return np.ones(m)
    if weights == "uniform":
        # floor at 0.1 so statistical tests never see a near-degenerate edge
        return rng.uniform(0.1, 1.0, size=m)
    raise ValueError(f"weights must be 'unit' or 'uniform', got {weights!r}")


def generate(kind: str, seed: int = 0, **params) -> Instance:
    """Deterministic instance source; pure function of (kind, params, seed).

    Kinds and their params:
      single_edge  family=(a,b,g), w=1.0
      complete     n, family, weights
      cycle        n >= 3, family, weights
      bipartite    n1, n2, family, weights (complete bipartite)
      random_gnp   n, p, family, weights
    """
    family = _coerce_family(params.pop("family", (1.0, 1.0, 1.0)))
    rng = rng_for(seed, DOMAIN_GENERATE, 0)
    if kind == "single_edge":
        w = float(params.pop("w", 1.0))
        _reject_params(kind, params)
        edges = [Edge(0, 1, w, *family)]
        return Instance(2, tuple(edges), label=f"single_edge-seed{seed}")
    weights = params.pop("weights", "unit")
    if kind == "complete":
        n = _need_n(params)
        _reject_params(kind, params)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif kind == "cycle":
        n = _need_n(params)
        _reject_params(kind, params)
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        pairs = [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
    elif kind == "bipartite":
        n1 = int(params.pop("n1"))
        n2 = int(params.pop("n2"))
        _reject_params(kind, params)
        if n1 < 1 or n2 < 1:
            raise ValueError("bipartite needs n1, n2 >= 1")
        n = n1 + n2
        pairs = [(i, n1 + j) for i in range(n1) for j in range(n2)]
    elif kind == "random_gnp":
        n = _need_n(params)
        p = float(params.pop("p"))
        _reject_params(kind, params)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"edge probability must be in [0, 1], got {p}")
        pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    ws = _weights(rng, len(pairs), weights)
    edges = tuple(Edge(i, j, float(w), *family) for (i, j), w in zip(pairs, ws))
    return Instance(n, edges, label=f"{kind}-n{n}-seed{seed}")


def _need_n(params) -> int:
    n = int(params.pop("n"))
    if n < 2:
        raise ValueError("need n >= 2")
    return n


def _reject_params(kind, params):
    if params:
        raise ValueError(f"unexpected params for {kind}: {sorted(params)}")
