import numpy as np
import pytest

from heisopt import (
    Edge,
    Instance,
    ParseError,
    generate,
    instance,
    is_family_uniform,
    parse_instance,
    serialize_instance,
)
from heisopt._backend import DOMAIN_GENERATE, rng_for


def test_edge_validation():
    Edge(0, 1, 1.0, 1.0, -1.0, 0.25)
    with pytest.raises(ValueError):
        Edge(1, 0, 1.0, 0, 0, 1)  # i must be < j
    with pytest.raises(ValueError):
        Edge(0, 0, 1.0, 0, 0, 1)  # no self loops
    with pytest.raises(ValueError):
        Edge(0, 1, -0.5, 0, 0, 1)  # negative weight
    with pytest.raises(ValueError):
        Edge(0, 1, 1.0, 1.5, 0, 0)  # coefficient out of range
    with pytest.raises(ValueError):
        Edge(0, 1, float("nan"), 0, 0, 1)


def test_instance_validation():
    e = Edge(0, 1, 1.0, 1, 1, 1)
    inst = Instance(n=2, edges=(e,))
    assert inst.m == 1
    with pytest.raises(ValueError):
        Instance(n=1, edges=(e,))  # endpoint out of range
    with pytest.raises(ValueError):
        Instance(n=0, edges=())


def test_integral_indices_accepted_and_bools_refused():
    # numpy integers are integers; they are stored as int
    e = Edge(np.int64(0), np.int32(2), 1.0, 1, 1, 1)
    assert (e.i, e.j) == (0, 2) and type(e.i) is int and type(e.j) is int
    inst = Instance(np.int64(3), (e,))
    assert inst.n == 3 and type(inst.n) is int
    # a bool is not a qubit index, even where it equals one
    for i, j in ((False, True), (np.False_, 1), (0, np.True_), (0.0, 1), ("0", 1)):
        with pytest.raises(ValueError, match="edge endpoints must be integers"):
            Edge(i, j, 1.0, 1, 1, 1)
    for n in (True, np.True_, 2.0):
        with pytest.raises(ValueError, match="positive integer"):
            Instance(n, ())


def test_parallel_edges_allowed():
    edges = (Edge(0, 1, 0.5, 1, 1, 1), Edge(0, 1, 0.5, -1, -1, -1))
    inst = Instance(n=2, edges=edges)
    assert inst.m == 2


def test_arrays_layout():
    inst = Instance(n=3, edges=(Edge(0, 2, 2.0, 1.0, 0.5, -1.0), Edge(1, 2, 3.0, 0, 0, 1)))
    ei, ej, w, wc3 = inst.arrays()
    assert ei.tolist() == [0, 1]
    assert ej.tolist() == [2, 2]
    assert np.allclose(wc3[0], [2.0, 1.0, -2.0])
    assert np.allclose(wc3[1], [0.0, 0.0, 3.0])


def test_incidence_mirrors_edges():
    # qubits 0 and 1 share two parallel edges; qubit 4 has none
    edges = (
        Edge(0, 1, 1.0, 1, 1, 1),
        Edge(0, 2, 2.0, 0, 0, 1),
        Edge(2, 3, 1.5, 1, 1, 0),
        Edge(0, 1, 0.5, -0.2, 1, 0.4),
    )
    inst = Instance(n=5, edges=edges)
    A, classes = inst.incidence()
    assert A.shape == (3, 5, 5)
    assert np.array_equal(A, A.transpose(0, 2, 1))
    assert np.array_equal(A[:, 0, 1], -(1.0 * np.array([1.0, 1, 1]) + 0.5 * np.array([-0.2, 1, 0.4])))
    assert np.array_equal(A[:, 2, 3], [-1.5, -1.5, 0.0])
    assert not A[:, 1, 2].any() and not A[:, 4].any()
    for I, AI in classes:
        members = set(I.tolist())
        assert not any(e.i in members and e.j in members for e in edges)
        assert np.array_equal(AI, A[:, I])
    assert sorted(q for I, _ in classes for q in I.tolist()) == [0, 1, 2, 3]


def test_incidence_of_listed_axes_matches_the_full_build(rng):
    # random multigraphs: parallel edges, zero weights and zero coefficients
    for _ in range(8):
        n = int(rng.integers(2, 9))
        edges = []
        for _ in range(int(rng.integers(1, 3 * n))):
            i, j = sorted(int(q) for q in rng.choice(n, 2, replace=False))
            w = float(rng.choice([0.0, rng.uniform(0.1, 1.0)]))
            coeffs = (float(c) for c in rng.choice([-1.0, 0.0, 0.5, 1.0], 3))
            edges.append(Edge(i, j, w, *coeffs))
        inst = Instance(n=n, edges=tuple(edges))
        A, classes = inst.incidence()
        for axes in ([], [2], [0, 2], [0, 1, 2]):
            AK, rows = inst.incidence(axes)
            assert AK.shape == (len(axes), n, n)
            assert np.array_equal(AK, A[axes]) and AK.tobytes() == A[axes].tobytes()
            assert len(rows) == len(classes)
            for (J, AJ), (I, AI) in zip(rows, classes):
                assert np.array_equal(J, I)
                assert np.array_equal(AJ, AI[axes])


@pytest.mark.parametrize(
    "edges, axes",
    [((), (0, 1, 2)), ((Edge(0, 1, 1.0, 1, 1, 1),), [])],
    ids=["edgeless", "no-axes"],
)
def test_incidence_is_float64_with_no_entries(edges, axes):
    # an empty bincount comes out int64; the coupling and its slices must not
    A, classes = Instance(n=3, edges=edges).incidence(axes)
    assert A.dtype == np.float64 and A.shape == (len(axes), 3, 3)
    assert not A.any()
    assert all(AI.dtype == np.float64 for _, AI in classes)


def test_arrays_are_built_once_and_read_only():
    inst = Instance(n=3, edges=(Edge(0, 2, 2.0, 1.0, 0.5, -1.0), Edge(1, 2, 3.0, 0, 0, 1)))
    first, again = inst.arrays(), inst.arrays()
    assert all(a is b for a, b in zip(first, again))
    for a in first:
        with pytest.raises(ValueError):
            a[0] = 0
    empty = Instance(n=2, edges=()).arrays()
    assert [a.shape for a in empty] == [(0,), (0,), (0,), (0, 3)]


def test_zero_weight_edge_still_separates_colours():
    # the edge adds nothing to the coupling, but its qubits are still neighbours
    inst = Instance(n=3, edges=(Edge(0, 1, 0.0, 1, 1, 1),))
    A, classes = inst.incidence()
    assert not A.any()
    assert [I.tolist() for I, _ in classes] == [[0], [1]]


def test_family_uniform_detection():
    mk = lambda *tags: Instance(
        n=3, edges=tuple(Edge(i, i + 1, 1.0, *t) for i, t in enumerate(tags))
    )
    tag = is_family_uniform(mk((1, 1, 0), (1, 1, 0)))
    assert tag is not None and tag.r == 2 and tag.active_axes == (0, 1)
    assert is_family_uniform(mk((1, 1, 0), (1, 0, 1))) is None  # mixed tags
    assert is_family_uniform(mk((0.5, 0, 0), (0.5, 0, 0))) is None  # not {0,1}
    assert is_family_uniform(mk((0, 0, 0), (0, 0, 0))) is None  # rank 0


def test_serialize_parse_round_trip(rng):
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        edges = []
        for _ in range(m):
            i, j = sorted(rng.choice(n, 2, replace=False).tolist())
            edges.append(
                Edge(int(i), int(j), float(rng.uniform(0, 3)), *(float(x) for x in rng.uniform(-1, 1, 3)))
            )
        inst = Instance(n=n, edges=tuple(edges), label="roundtrip")
        back = parse_instance(serialize_instance(inst))
        assert back.n == inst.n and back.m == inst.m and back.label == inst.label
        for a, b in zip(back.edges, inst.edges):
            assert a == b  # 17 significant digits reproduce doubles exactly


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_instance("not a header\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_instance("2 1\n0 1 1.0 0 0\n")  # five tokens, need six
    with pytest.raises(ParseError):
        parse_instance("2 2\n0 1 1 0 0 1\n")  # missing second edge


def test_parse_skips_comments_and_blanks():
    text = "# label: hello\n\n# a comment\n2 1\n0 1 1 0 0 1\n"
    inst = parse_instance(text)
    assert inst.label == "hello"
    assert inst.m == 1


def test_generate_kinds():
    e = generate("single_edge", family=(1, 1, 0))
    assert e.n == 2 and e.m == 1 and e.edges[0].coeffs == (1.0, 1.0, 0.0)
    assert e.edges[0].w == 1.0

    c = generate("cycle", n=5)
    assert c.n == 5 and c.m == 5

    k = generate("complete", n=4)
    assert k.m == 6

    b = generate("bipartite", n1=2, n2=3)
    assert b.n == 5 and b.m == 6

    g1 = generate("random_gnp", n=8, p=0.5, seed=3)
    g2 = generate("random_gnp", n=8, p=0.5, seed=3)
    assert g1.edges == g2.edges  # same seed, same graph
    g3 = generate("random_gnp", n=8, p=0.5, seed=4)
    assert g1.edges != g3.edges


def test_generate_rejects_bad_params():
    with pytest.raises(ValueError):
        generate("cycle", n=2)
    with pytest.raises(ValueError):
        generate("single_edge", n=4)
    with pytest.raises(ValueError):
        generate("single_edge", w=2.0)
    with pytest.raises(ValueError):
        generate("no_such_kind")
    with pytest.raises(ValueError):
        generate("complete", n=3, family=(2, 0, 0))


def test_generate_uniform_weights_in_range():
    inst = generate("complete", n=6, weights="uniform", seed=9)
    ws = [e.w for e in inst.edges]
    assert all(0.1 <= w <= 1.0 for w in ws)
    assert len(set(ws)) > 1


@pytest.mark.parametrize(
    "n, p, seed, weights",
    [(7, 0.5, 11, "unit"), (40, 0.3, 3, "uniform"), (60, 0.0, 2, "uniform"), (30, 1.0, 5, "uniform"), (300, 0.04, 0, "unit")],
)
def test_random_gnp_matches_one_draw_per_pair(n, p, seed, weights):
    # the reference draws one scalar per pair, in row order, then the weights
    rng = rng_for(seed, DOMAIN_GENERATE, 0)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    ws = instance._weights(rng, len(pairs), weights)
    got = generate("random_gnp", seed=seed, n=n, p=p, weights=weights)
    assert got.edges == tuple(Edge(i, j, float(w), 1, 1, 1) for (i, j), w in zip(pairs, ws))
    if p in (0.0, 1.0):
        assert got.m == p * n * (n - 1) // 2
