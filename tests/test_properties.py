"""The model's symmetries, pinned as hypothesis properties."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsig.dictionary import BLOCK_NAMES, build_dictionary
from graphsig.graph import build_graph


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_an_appended_isolated_node_leaves_every_other_dictionary_row_unchanged(data):
    # the new node has no edges and no label: its operator rows are zero,
    # so no other node's powers, hop reads or row scales can see it
    n = data.draw(st.integers(1, 12), label="n")
    d = data.draw(st.integers(1, 4), label="d")
    names = tuple(data.draw(st.sets(st.sampled_from(BLOCK_NAMES), min_size=1), label="blocks"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    # edges may repeat or be self-loops
    pairs = rng.integers(0, n, size=(data.draw(st.integers(0, 3 * n), label="edges"), 2))
    X = rng.standard_normal((n, d))
    X[data.draw(st.lists(st.integers(0, n - 1), max_size=n), label="zero rows")] = 0.0
    new = np.zeros((1, d)) if data.draw(st.booleans(), label="zero new row") else rng.random((1, d))

    D = build_dictionary(build_graph(n, pairs), X, names)
    grown = build_dictionary(build_graph(n + 1, pairs), np.vstack([X, new]), names)
    assert grown.F0[:n].tobytes() == D.F0.tobytes()
    assert grown.scale[:n].tobytes() == D.scale.tobytes()
    rows = np.arange(n)[::-1]
    assert grown.gather(rows, np.arange(D.p)).tobytes() == D.F0[rows].tobytes()
