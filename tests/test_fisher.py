import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsig.dictionary import build_dictionary
from graphsig.fisher import fisher_scores, restrict, select_top_k
from graphsig.graph import build_graph
from graphsig.synth import make_sbm_dataset


def naive_fisher(F, train_idx, y, epsilon):
    # literal double loop over coordinates and classes
    F_tr = F[train_idx]
    y_tr = y[train_idx]
    p = F.shape[1]
    out = np.zeros(p)
    for j in range(p):
        col = F_tr[:, j]
        mu = col.mean()
        num = 0.0
        den = 0.0
        for c in np.unique(y_tr):
            vals = col[y_tr == c]
            num += vals.size * (vals.mean() - mu) ** 2
            den += ((vals - vals.mean()) ** 2).sum()
        out[j] = num / (den + epsilon)
    return out


def test_scores_match_naive_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(6, 30))
        p = int(rng.integers(1, 20))
        F = rng.standard_normal((n, p))
        y = rng.integers(0, 3, size=n)
        train = rng.choice(n, size=max(3, n // 2), replace=False)
        y[train[:3]] = [0, 1, 2][: min(3, len(train))]  # keep classes populated
        got = fisher_scores(F[train], y[train])
        want = naive_fisher(F, train, y, 1e-12)
        assert np.allclose(got, want, atol=1e-10, rtol=0)


def test_hand_example_score_four():
    # one coordinate; class a holds {0, 2}, class b holds {4, 6}
    F = np.array([[0.0], [2.0], [4.0], [6.0]])
    y = np.array([0, 0, 1, 1])
    q = fisher_scores(F, y, epsilon=0.0)
    # between = 2*(1-3)^2 + 2*(5-3)^2 = 16; within = 1+1+1+1 = 4
    assert q[0] == pytest.approx(4.0, abs=1e-12)


def test_constant_coordinate_guarded_by_epsilon():
    F = np.array([[1.0], [1.0], [1.0], [1.0]])
    y = np.array([0, 0, 1, 1])
    q = fisher_scores(F, y)
    assert q[0] == 0.0


def test_scores_use_selected_nodes_only():
    rng = np.random.default_rng(1)
    F = rng.standard_normal((10, 4))
    y = rng.integers(0, 2, size=10)
    y[:4] = [0, 0, 1, 1]
    sub = np.arange(4)
    assert np.allclose(
        fisher_scores(F[sub], y[sub]), naive_fisher(F, sub, y, 1e-12), atol=1e-12
    )


def test_empty_train_rejected():
    with pytest.raises(ValueError):
        fisher_scores(np.zeros((0, 2)), np.zeros(0))


def test_top_k_ties_by_ascending_index():
    scores = np.array([0.5, 0.9, 0.5, 0.9, 0.1])
    sel = select_top_k(scores, 3)
    # two 0.9s first (indices 1, 3), then the first 0.5 (index 0)
    assert sel.selected.tolist() == [0, 1, 3]
    assert sel.k_eff == 3


def test_top_k_clips_to_dimension():
    sel = select_top_k(np.array([1.0, 2.0]), 50)
    assert sel.k_eff == 2
    assert sel.selected.tolist() == [0, 1]
    with pytest.raises(ValueError):
        select_top_k(np.array([1.0]), 0)


def test_selected_indices_sorted():
    rng = np.random.default_rng(2)
    for _ in range(20):
        scores = rng.random(int(rng.integers(1, 40)))
        sel = select_top_k(scores, int(rng.integers(1, 50)))
        assert np.all(np.diff(sel.selected) > 0)
        top_scores = np.sort(scores)[::-1][: sel.k_eff]
        assert np.allclose(np.sort(scores[sel.selected])[::-1], top_scores)


def test_restrict_gathers_columns_and_blocks():
    rng = np.random.default_rng(3)
    g = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    X = rng.standard_normal((6, 3))
    D = build_dictionary(g, X)
    selected = np.array([0, 4, 10, 26])
    F, blocks = restrict(D, selected, np.arange(D.n))
    assert F.shape == (6, 4)
    assert np.allclose(F, D.F0[:, selected])
    assert [b.index for b in blocks] == [0, 1, 3, 8]


def _restrict_dictionary():
    rng = np.random.default_rng(5)
    g = build_graph(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)])
    return build_dictionary(g, rng.standard_normal((7, 2)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    rows=st.lists(st.integers(0, 6), max_size=12),  # unsorted, repeated or empty
    selected=st.lists(st.integers(0, 17), min_size=1, max_size=18, unique=True),
)
def test_restrict_is_the_c_ordered_row_and_column_gather(rows, selected):
    D = _restrict_dictionary()
    selected = np.sort(np.array(selected, dtype=np.int64))
    F, blocks = restrict(D, selected, rows)
    assert F.flags.c_contiguous
    assert F.shape == (len(rows), selected.size)
    assert np.array_equal(F, D.F0[:, selected][np.array(rows, dtype=np.int64)])
    assert [b.index for b in blocks] == D.coord_block[selected].tolist()


def test_restrict_rejects_node_ids_outside_the_graph():
    D = _restrict_dictionary()
    for bad in (-1, D.n):
        with pytest.raises(ValueError, match=rf"^node id {bad} outside \[0, {D.n}\)$"):
            restrict(D, [0, 3], [0, bad])


@pytest.mark.parametrize(
    "cols, match",
    [
        ([-1], r"^coordinate -1 outside \[0, 180\)$"),
        ([180], r"^coordinate 180 outside \[0, 180\)$"),
        ([True, False], r"^coordinates must be integers, got dtype bool$"),
        ([0.7, 3.2], r"^coordinates must be integers, got dtype float64$"),
    ],
    ids=["negative", "past-the-end", "boolean-mask", "float"],
)
def test_restrict_rejects_coordinates_outside_the_dictionary(cols, match):
    g, X, _ = make_sbm_dataset()
    D = build_dictionary(g, X)
    assert D.p == 180
    with pytest.raises(ValueError, match=match):
        restrict(D, cols, [0, 1])
