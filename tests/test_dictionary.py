import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphsig.dictionary import (
    _ROW_BLOCK_BYTES,
    BLOCK_NAMES,
    BLOCKS,
    BlockId,
    SignalDictionary,
    block_by_name,
    build_dictionary,
    family_blocks,
)
from graphsig.fisher import fisher_scores, restrict
from graphsig.graph import build_graph, propagate, row_operator, sym_operator


# the layout oracle: where a block's columns must sit in F0
def block_slice(dictionary: SignalDictionary, b) -> np.ndarray:
    """Contiguous column slice of one active block (KeyError if inactive)."""
    if not isinstance(b, BlockId):
        b = block_by_name(b)
    for pos, active in enumerate(dictionary.active):
        if active.index == b.index:
            d = dictionary.d
            return dictionary.F0[:, pos * d : (pos + 1) * d]
    raise KeyError(f"block {b.name!r} is not active in this dictionary")


def small_instance(seed=0, n=12, d=4):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    g = build_graph(n, edges)
    X = rng.standard_normal((n, d))
    return g, X


def row_norms(M):
    return np.sqrt((M**2).sum(axis=1))


def test_block_table_layout():
    assert len(BLOCKS) == 9
    assert [b.index for b in BLOCKS] == list(range(9))
    assert BLOCK_NAMES == (
        "X",
        "ProwX",
        "Prow2X",
        "Prow3X",
        "X-ProwX",
        "ProwX-Prow2X",
        "PsymX",
        "Psym2X",
        "X-PsymX",
    )
    assert len(family_blocks("raw")) == 1
    assert len(family_blocks("low")) == 5
    assert len(family_blocks("high")) == 3
    with pytest.raises(KeyError):
        block_by_name("PX")


def test_full_dictionary_shape_and_block_order():
    g, X = small_instance()
    D = build_dictionary(g, X)
    n, d = X.shape
    assert D.F0.shape == (n, 9 * d)
    assert D.p == 9 * d
    assert D.d == d
    # columns of block b live at [b*d, (b+1)*d)
    for b in BLOCKS:
        assert np.all(D.coord_block[b.index * d : (b.index + 1) * d] == b.index)


def test_blocks_are_row_normalized():
    g, X = small_instance(seed=3)
    D = build_dictionary(g, X)
    d = X.shape[1]
    for b in BLOCKS:
        norms = row_norms(D.F0[:, b.index * d : (b.index + 1) * d])
        assert np.all((np.abs(norms - 1.0) < 1e-9) | (norms == 0.0))


def test_block_contents_match_hand_computation():
    g, X = small_instance(seed=4)
    P = row_operator(g)
    S = sym_operator(g)
    PX = propagate(P, X)
    P2X = propagate(P, PX)
    P3X = propagate(P, P2X)
    SX = propagate(S, X)
    S2X = propagate(S, SX)

    def normalize(M):
        norms = row_norms(M)
        out = M.copy()
        nz = norms > 0
        out[nz] = out[nz] / norms[nz, None]
        return out

    expected = {
        "X": X,
        "ProwX": PX,
        "Prow2X": P2X,
        "Prow3X": P3X,
        "X-ProwX": X - PX,  # differences taken before normalization
        "ProwX-Prow2X": PX - P2X,
        "PsymX": SX,
        "Psym2X": S2X,
        "X-PsymX": X - SX,
    }
    D = build_dictionary(g, X)
    for name, M in expected.items():
        got = block_slice(D, name)
        assert np.allclose(got, normalize(M), atol=1e-12), name


def test_active_subset_canonical_order_and_slices():
    g, X = small_instance(seed=5)
    D = build_dictionary(g, X, active_blocks=("PsymX", "X", "Prow2X"))
    d = X.shape[1]
    assert D.p == 3 * d
    assert tuple(b.name for b in D.active) == ("X", "Prow2X", "PsymX")
    full = build_dictionary(g, X)
    assert np.allclose(block_slice(D, "Prow2X"), block_slice(full, "Prow2X"))
    with pytest.raises(KeyError, match="not active"):
        block_slice(D, "ProwX")


def test_every_block_subset_is_bitwise_the_full_dictionarys_columns():
    n, d = 10, 3
    rng = np.random.default_rng(11)
    edges = [(i, j) for i in range(n - 1) for j in range(i + 1, n - 1) if rng.random() < 0.35]
    g = build_graph(n, edges)  # node n - 1 is isolated
    X = rng.standard_normal((n, d))
    X[2] = 0.0
    full = build_dictionary(g, X)
    for r in range(1, len(BLOCKS) + 1):
        for subset in itertools.combinations(BLOCKS, r):
            D = build_dictionary(g, X, [b.name for b in subset])
            cols = np.concatenate([np.arange(b.index * d, (b.index + 1) * d) for b in subset])
            assert D.F0.tobytes() == np.ascontiguousarray(full.F0[:, cols]).tobytes()
            assert np.array_equal(D.coord_block, full.coord_block[cols])
            assert D.coord_block.dtype == full.coord_block.dtype
            # the view of the same blocks reads the full dictionary's own powers
            names = [b.name for b in reversed(subset)]
            view = full.subset(names)
            assert view.active == D.active
            assert view.F0.tobytes() == D.F0.tobytes()
            assert np.array_equal(view.coord_block, D.coord_block)
            assert view.scale.tobytes() == D.scale.tobytes()
            for view_terms, b in zip(view.terms, subset, strict=True):
                for a, own in zip(view_terms, full.terms[b.index], strict=True):
                    assert a is own
    with pytest.raises(ValueError, match=r"\['X'\] are not active"):
        build_dictionary(g, X, ["ProwX"]).subset(["X", "ProwX"])


def test_zero_feature_rows_stay_zero():
    g = build_graph(3, [(0, 1)])
    X = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    D = build_dictionary(g, X)
    # node 2 is isolated with zero features: every block row is zero
    assert np.all(D.F0[2] == 0.0)


def test_nonfinite_features_rejected_with_position():
    g, X = small_instance(seed=6)
    X[3, 1] = np.nan
    with pytest.raises(ValueError, match="row 3, column 1"):
        build_dictionary(g, X)


@pytest.mark.parametrize(
    "X, blocks, message",
    [
        (np.ones((2, 2)), None, "features must be (n=3, d), got (2, 2)"),
        (np.ones(3), None, "features must be (n=3, d), got (3,)"),
        (np.ones((3, 2)), (), "active_blocks must be nonempty"),
        (np.ones((3, 0)), None, "features must have at least one column"),
    ],
    ids=["too-few-rows", "one-dimensional", "no-block", "no-column"],
)
def test_build_rejects_features_of_another_shape_and_an_empty_block_set(X, blocks, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_dictionary(build_graph(3, [(0, 1)]), X, blocks)


def test_duplicate_active_blocks_collapse():
    g, X = small_instance(seed=7)
    D = build_dictionary(g, X, active_blocks=("X", "X", "ProwX"))
    assert D.p == 2 * X.shape[1]


# the eager build the dictionary replaced: every block written whole into
# one n x p matrix; each gather must read bitwise what this holds
def eager_F0(g, X, active_blocks=None) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    names = BLOCK_NAMES if active_blocks is None else active_blocks
    active = sorted({block_by_name(name) for name in names}, key=lambda b: b.index)
    power = {}
    for op, make in (("row", row_operator), ("sym", sym_operator)):
        power[op, 0] = X
        P = make(g)
        for k in range(1, 4):
            power[op, k] = propagate(P, power[op, k - 1])
    d = X.shape[1]
    F0 = np.empty((g.n, len(active) * d))
    for pos, b in enumerate(active):
        terms = [power[b.operator, k] for k in b.powers]
        block = terms[0] - terms[1] if len(terms) == 2 else terms[0]
        norms = np.linalg.norm(block, axis=1)
        scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
        np.multiply(block, scale[:, None], out=F0[:, pos * d : (pos + 1) * d])
    return F0


DIFFERENCE_BLOCKS = tuple(b.name for b in BLOCKS if len(b.powers) == 2)


def check_gathers(n, d, names, seed, binary, zero, rows, cols):
    rng = np.random.default_rng(seed)
    # node n - 1 is isolated; edges may repeat or be self-loops
    pairs = rng.integers(0, max(n - 1, 1), size=(2 * n, 2))
    g = build_graph(n, pairs if n > 1 else [])
    X = (rng.random((n, d)) < 0.4).astype(float) if binary else rng.standard_normal((n, d))
    X[zero] = 0.0
    D = build_dictionary(g, X, names)
    oracle = eager_F0(g, X, names)
    for cols in (cols, np.arange(D.p)):  # the drawn columns, then whole blocks
        F = restrict(D, cols, rows)[0]
        assert F.flags.c_contiguous
        assert np.array_equal(F, oracle[np.ix_(rows, cols)])
    y = rng.integers(0, 3, size=n)
    idx = rows or [0]
    F_idx = restrict(D, np.arange(D.p), idx)[0]
    assert np.array_equal(fisher_scores(F_idx, y[idx]), fisher_scores(oracle[idx], y[idx]))
    assert D.F0.tobytes() == oracle.tobytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_gathers_read_the_eager_matrix_bit_for_bit(data):
    n = data.draw(st.integers(1, 10), label="n")
    d = data.draw(st.integers(1, 4), label="d")
    names = data.draw(st.sets(st.sampled_from(BLOCK_NAMES), min_size=1), label="blocks")
    p = len(names) * d
    check_gathers(
        n,
        d,
        tuple(names),
        seed=data.draw(st.integers(0, 2**16), label="seed"),
        binary=data.draw(st.booleans(), label="binary features"),
        zero=data.draw(st.lists(st.integers(0, n - 1), max_size=n), label="zero rows"),
        # unsorted, repeated or empty
        rows=data.draw(st.lists(st.integers(0, n - 1), max_size=12), label="rows"),
        cols=data.draw(st.lists(st.integers(0, p - 1), max_size=12), label="cols"),
    )


@pytest.mark.parametrize(
    "names",
    [("Prow3X",), DIFFERENCE_BLOCKS, *((name,) for name in DIFFERENCE_BLOCKS)],
    ids=["Prow3X", "differences", *DIFFERENCE_BLOCKS],
)
def test_recipe_subsets_gather_the_eager_matrix(names):
    p = 3 * len(names)
    cols = [p - 1, 0, 2, 2, *range(p)]
    check_gathers(9, 3, names, seed=1, binary=False, zero=[4], rows=[8, 1, 1, 3], cols=cols)


@pytest.mark.parametrize(
    "names, hopped",
    [
        (BLOCK_NAMES, ["Prow3X", "Psym2X"]),
        (tuple(n for n in BLOCK_NAMES if n != "Prow3X"), ["Prow2X", "ProwX-Prow2X", "Psym2X"]),
    ],
    ids=["all", "no-p3x"],
)
def test_row_blocked_scales_and_hop_reads_are_the_eager_matrix(names, hopped):
    d = 24
    n = 3 * (_ROW_BLOCK_BYTES // (8 * d)) + 5  # the scale pass takes 4 row blocks
    rng = np.random.default_rng(17)
    g = build_graph(n, rng.integers(0, n - 1, size=(3 * n, 2)))  # node n - 1 is isolated
    X = rng.standard_normal((n, d))
    X[rng.choice(n, size=40, replace=False)] = 0.0
    D = build_dictionary(g, X, names)
    # each operator's top power is read through a hop
    assert [b.name for b, hop in zip(D.active, D.hops, strict=True) if hop] == hopped
    oracle = eager_F0(g, X, names)
    assert D.F0.tobytes() == oracle.tobytes()
    cols = rng.permutation(D.p)[: D.p // 3]
    # few rows pick their columns from whole hop rows; many take them first
    for rows in (rng.integers(0, n, size=200), rng.integers(0, n, size=2 * n)):
        rows[:2] = n - 1
        assert np.array_equal(D.gather(rows, cols), oracle[np.ix_(rows, cols)])
    for op in D.hops:
        assert not any(a.flags.writeable for a in op)


def test_build_makes_no_top_power_and_no_n_by_d_temporary():
    n, d = 8 * (_ROW_BLOCK_BYTES // (8 * 64)), 64  # a power is 8 row blocks
    rng = np.random.default_rng(4)
    g = build_graph(n, rng.integers(0, n, size=(2 * n, 2)))
    X = rng.standard_normal((n, d))
    build_dictionary(*small_instance())  # imports and caches outside the trace
    tracemalloc.start()
    try:
        D = build_dictionary(g, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    power = n * d * 8
    operators = sum(
        P.indptr.nbytes + P.indices.nbytes + P.data.nbytes
        for P in (row_operator(g), sym_operator(g))
    )
    assert held_powers(D) == 4  # X, P_row X, P_row^2 X, P_sym X
    held = held_powers(D) * power + operators + D.scale.nbytes + D.coord_block.nbytes
    assert peak <= held + 4 * _ROW_BLOCK_BYTES < held + power


def named_powers(D) -> int:
    """The distinct powers P^k X the active recipes name, X counted once."""
    return len({(b.operator if k else "", k) for b in D.active for k in b.powers})


def held_powers(D) -> int:
    """The named powers, minus each operator's top power, plus the power
    below it where no block names that power."""
    held = {(b.operator if k else "", k) for b in D.active for k in b.powers}
    for op in ("row", "sym"):
        top = max((k for o, k in held if o == op), default=0)
        if top:
            held.remove((op, top))
            held.add((op if top > 1 else "", top - 1))
    return len(held)


def held_arrays(D) -> list:
    distinct = {id(a): a for t in D.terms for a in t}
    return [*distinct.values(), D.scale, D.coord_block]


def test_dictionary_owns_its_arrays_and_they_are_read_only():
    g, X = small_instance(seed=8)
    D = build_dictionary(g, X)
    before = D.F0
    X[:] = 7.0
    assert D.F0.tobytes() == before.tobytes()
    for a in held_arrays(D):
        assert a.flags.owndata
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


def test_dictionary_holds_only_the_powers_its_recipes_name():
    g, X = small_instance(seed=9, n=10, d=3)
    n, d = X.shape
    for r in range(1, len(BLOCKS) + 1):
        for subset in itertools.combinations(BLOCK_NAMES, r):
            D = build_dictionary(g, X, subset)
            *powers, scale, _ = held_arrays(D)
            assert sum(a.nbytes for a in powers) == held_powers(D) * n * d * 8
            assert scale.nbytes == n * len(D.active) * 8
    assert len(held_arrays(build_dictionary(g, X, ("Prow3X",)))) == 3


def test_build_never_allocates_an_n_by_p_array():
    n, d = 1000, 64
    rng = np.random.default_rng(3)
    g = build_graph(n, rng.integers(0, n - 50, size=(1500, 2)))  # 50 isolated nodes
    X = rng.standard_normal((n, d))
    build_dictionary(*small_instance())  # imports and caches outside the trace
    tracemalloc.start()
    try:
        D = build_dictionary(g, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = named_powers(D) * n * d * 8 + n * len(D.active) * 8
    assert named_powers(D) == 6
    assert peak <= held + 2 * n * d * 8 < n * D.p * 8 + held
