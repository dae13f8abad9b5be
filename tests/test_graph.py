import numpy as np
import pytest
import scipy.sparse as sp

from graphsig.graph import (
    build_graph,
    load_edge_list,
    propagate,
    row_operator,
    save_edge_list,
    sym_operator,
)


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


def test_row_operator_row_stochastic():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 30)))
        P = row_operator(g).matrix.toarray()
        sums = P.sum(axis=1)
        isolated = g.degree == 0
        assert np.allclose(sums[~isolated], 1.0, atol=1e-12)
        assert np.all(sums[isolated] == 0.0)


def test_sym_operator_symmetric_and_isolated_rows_zero():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 30)))
        S = sym_operator(g).matrix.toarray()
        assert np.allclose(S, S.T, atol=1e-15)
        for i in np.flatnonzero(g.degree == 0):
            assert np.all(S[i] == 0.0)
            assert np.all(S[:, i] == 0.0)


def test_sym_operator_entries():
    g = build_graph(3, [(0, 1), (1, 2)])
    S = sym_operator(g).matrix.toarray()
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
            dense = op.matrix.toarray() @ X
            assert np.allclose(propagate(op, X), dense, atol=1e-12)


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
