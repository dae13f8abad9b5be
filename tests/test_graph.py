import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsig.graph import (
    build_graph,
    load_edge_list,
    propagate,
    row_operator,
    save_edge_list,
    sym_operator,
)
from graphsig.synth import sbm_graph


def random_graph(rng, n, p=0.2):
    mask = rng.random((n, n)) < p
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
    return build_graph(n, edges)


def test_build_graph_cleans_input():
    g = build_graph(4, [(0, 1), (1, 0), (0, 1), (2, 2), (3, 1)])
    assert g.n == 4
    assert g.n_edges == 2
    assert g.edges.tolist() == [[0, 1], [1, 3]]
    assert g.degree.tolist() == [1, 2, 0, 1]
    assert (g.adj != g.adj.T).nnz == 0


def test_build_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="4"):
        build_graph(3, [(0, 4)])
    with pytest.raises(ValueError, match="-1"):
        build_graph(3, [(-1, 2)])


def set_based_edges(n, edge_list):
    """Clean edge set, one pair at a time."""
    pairs = set()
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) has endpoint outside [0,{n})")
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return sorted(pairs)


@st.composite
def raw_edge_lists(draw):
    n = draw(st.integers(0, 12))
    ids = st.integers(-2, n + 1) if draw(st.booleans()) else st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(ids, ids), max_size=40)) if n else []
    # repeat some pairs, reversed, so duplicates of both orientations occur
    return n, edges + [(v, u) for u, v in edges[: draw(st.integers(0, len(edges)))]]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(raw_edge_lists(), st.booleans())
def test_build_graph_equals_the_set_reference(case, as_array):
    n, edge_list = case
    raw = np.array(edge_list, dtype=np.int64).reshape(-1, 2) if as_array else edge_list
    try:
        want = set_based_edges(n, edge_list)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            build_graph(n, raw)
        assert str(got.value) == str(e)  # the first offending edge in input order
        return
    g = build_graph(n, raw)
    assert g.edges.dtype == np.int64 and g.edges.shape == (len(want), 2)
    assert g.edges.tolist() == [list(p) for p in want]
    dense = np.zeros((n, n))
    for u, v in want:
        dense[u, v] = dense[v, u] = 1.0
    assert np.array_equal(g.adj.toarray(), dense)
    assert g.degree.dtype == np.int64
    assert g.degree.tolist() == dense.sum(axis=1).astype(int).tolist()


def test_build_graph_rejects_malformed_pairs():
    with pytest.raises(ValueError, match="pairs"):
        build_graph(4, [(0, 1, 2)])


def test_build_graph_rejects_a_negative_node_count():
    with pytest.raises(ValueError, match="^node count must be nonnegative, got -1$"):
        build_graph(-1, [])


@pytest.mark.parametrize(
    "sizes, p_within, p_between, message",
    [
        ((3, 0), 0.5, 0.1, "every block needs at least one node"),
        ((3, 3), 1.5, 0.1, "edge probabilities must lie in [0, 1]"),
        ((3, 3), 0.5, -0.1, "edge probabilities must lie in [0, 1]"),
        ((3, 3), float("nan"), 0.1, "edge probabilities must lie in [0, 1]"),
    ],
    ids=["empty-block", "p-within-above-1", "p-between-below-0", "p-within-nan"],
)
def test_sbm_graph_rejects_an_empty_block_and_a_probability_outside_0_1(
    sizes, p_within, p_between, message
):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sbm_graph(sizes, p_within, p_between)


def test_row_operator_row_stochastic():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 30)))
        P = row_operator(g).toarray()
        sums = P.sum(axis=1)
        isolated = g.degree == 0
        assert np.allclose(sums[~isolated], 1.0, atol=1e-12)
        assert np.all(sums[isolated] == 0.0)


def test_sym_operator_symmetric_and_isolated_rows_zero():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 30)))
        S = sym_operator(g).toarray()
        assert np.allclose(S, S.T, atol=1e-15)
        for i in np.flatnonzero(g.degree == 0):
            assert np.all(S[i] == 0.0)
            assert np.all(S[:, i] == 0.0)


def test_sym_operator_entries():
    g = build_graph(3, [(0, 1), (1, 2)])
    S = sym_operator(g).toarray()
    assert S[0, 1] == pytest.approx(1 / np.sqrt(2))
    assert S[1, 2] == pytest.approx(1 / np.sqrt(2))
    assert S[0, 2] == 0.0


def test_propagate_matches_dense():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        g = random_graph(rng, n)
        X = rng.standard_normal((n, 5))
        for op in (row_operator(g), sym_operator(g)):
            dense = op.toarray() @ X
            assert np.allclose(propagate(op, X), dense, atol=1e-12)


def eager_adjacency(g):
    """The adjacency and degrees as build_graph once built them, eagerly:
    a CSR matrix straight from the clean edges, degrees as its row sums."""
    rows = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    cols = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
    data = np.ones(2 * g.n_edges, dtype=np.float64)
    adj = sp.csr_matrix((data, (rows, cols)), shape=(g.n, g.n))
    return adj, np.asarray(adj.sum(axis=1)).ravel().astype(np.int64)


def same_csr(a, b):
    return all(np.array_equal(getattr(a, part), getattr(b, part)) for part in ("indptr", "indices", "data"))


@st.composite
def valid_edge_lists(draw):
    """Edge lists over [0, n) with duplicates, self-loops, both orientations
    and, through the extra ids no edge names, isolated nodes."""
    used = draw(st.integers(1, 25))
    n = used + draw(st.integers(0, 3))
    ids = st.integers(0, used - 1)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=60))
    return n, edges + [(v, u) for u, v in edges[: draw(st.integers(0, len(edges)))]]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(valid_edge_lists(), st.integers(0, 2**32 - 1))
def test_graph_on_demand_equals_the_eager_csr_build(case, seed):
    n, edge_list = case
    g = build_graph(n, edge_list)
    adj, degree = eager_adjacency(g)
    assert g.degree.dtype == np.int64
    assert np.array_equal(g.degree, degree)
    assert np.array_equal(g.degree, np.asarray(g.adj.sum(axis=1)).ravel())
    assert same_csr(g.adj, adj)
    inv = np.zeros(n)
    inv[degree > 0] = 1.0 / degree[degree > 0]
    d = sp.diags(np.sqrt(inv))
    X = np.random.default_rng(seed).standard_normal((n, 3))
    for op, want in (
        (row_operator(g), sp.diags(inv).dot(adj).tocsr()),
        (sym_operator(g), d.dot(adj).dot(d).tocsr()),
    ):
        assert same_csr(op, want)
        assert np.array_equal(propagate(op, X), np.asarray(want.dot(X)))


def test_propagate_shape_check():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        propagate(row_operator(g), np.zeros((4, 2)))


def test_edge_list_round_trip(tmp_path):
    g = build_graph(5, [(0, 1), (2, 4), (1, 3)])
    path = tmp_path / "edges.csv"
    save_edge_list(path, g.edges)
    pairs = load_edge_list(path)
    assert build_graph(5, pairs).edges.tolist() == g.edges.tolist()
    for edges, text in (([], b"src,dst\n"), (np.array([[3, 4]]), b"src,dst\n3,4\n")):
        save_edge_list(path, edges)
        assert path.read_bytes() == text
        assert load_edge_list(path) == [tuple(e) for e in np.asarray(edges).tolist()]


def test_edge_list_header_optional(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("0,1\n1,2\n")
    assert load_edge_list(path) == [(0, 1), (1, 2)]


def test_edge_list_header_after_comments(tmp_path):
    path = tmp_path / "commented.csv"
    path.write_text("# comment\n\nsrc,dst\n0,1\n# trailing\n1,2\n")
    assert load_edge_list(path) == [(0, 1), (1, 2)]
    path.write_text("# comment\n0,1\nsrc,dst\n")  # only the first line may be a header
    with pytest.raises(ValueError, match=":3: non-integer"):
        load_edge_list(path)


def test_edge_list_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("src,dst\n0,1\n2;3\n")
    with pytest.raises(ValueError, match=":3"):
        load_edge_list(path)
    path.write_text("src,dst\n0,1\n7,0\n")
    with pytest.raises(ValueError, match=":3"):
        load_edge_list(path, n_nodes=5)
