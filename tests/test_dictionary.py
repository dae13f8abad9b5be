import itertools

import numpy as np
import pytest

from graphsig.dictionary import (
    BLOCK_NAMES,
    BLOCKS,
    BlockId,
    SignalDictionary,
    block_by_name,
    build_dictionary,
    family_blocks,
)
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


def test_duplicate_active_blocks_collapse():
    g, X = small_instance(seed=7)
    D = build_dictionary(g, X, active_blocks=("X", "X", "ProwX"))
    assert D.p == 2 * X.shape[1]
