"""Seeded sparse planted-partition inputs for the benchmark workloads.

``graphsig.synth.sbm_graph`` draws a dense n x n matrix, which needs
about 3.2 GB per array at n = 20k, so the benchmark draws its own
graphs: for every block pair a binomial edge count, then that many
uniform endpoint pairs, with self-loops and duplicates removed.
Features are standard normal plus ``shift`` along axis (class mod d), the
same class signal model as ``graphsig.synth.gaussian_features``.
Homophilic inputs take p_in > p_out, heterophilic ones p_in < p_out.

Everything derives from one ``numpy.random.default_rng(seed)`` stream,
so the same (shape, seed) always gives the same arrays and file bytes.
"""

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    """One planted-partition input: sizes, edge densities, class signal."""

    n: int
    d: int
    classes: int
    p_in: float
    p_out: float
    shift: float


def planted_partition(shape: Shape, seed: int):
    """Return (edges (m, 2) int64 with u < v, sorted; X (n, d); y (n,))."""
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.arange(shape.n) % shape.classes).astype(np.int64)
    members = [np.flatnonzero(y == c) for c in range(shape.classes)]
    parts = []
    for a in range(shape.classes):
        for b in range(a, shape.classes):
            na, nb = members[a].size, members[b].size
            if a == b:
                pairs, prob = na * (na - 1) // 2, shape.p_in
            else:
                pairs, prob = na * nb, shape.p_out
            m = int(rng.binomial(pairs, prob))
            u = members[a][rng.integers(0, na, m)]
            v = members[b][rng.integers(0, nb, m)]
            parts.append(np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1))
    edges = np.concatenate(parts)
    edges = np.unique(edges[edges[:, 0] != edges[:, 1]], axis=0)
    X = rng.standard_normal((shape.n, shape.d))
    X[np.arange(shape.n), y % shape.d] += shape.shift
    return edges, X, y


def write_dataset(directory, edges, X, y, features: str):
    """Write a generated dataset triple with graphsig's own writers.

    ``features`` is 'binary' (the GSF1 container) or 'csv' (with a header
    row: a headerless feature CSV loses node 0 on load).  Returns the
    (edges, features, labels) paths.
    """
    from graphsig.graph import save_edge_list
    from graphsig.io import save_features_binary, save_features_csv, save_labels

    paths = (
        os.path.join(directory, "edges.csv"),
        os.path.join(directory, "features.bin" if features == "binary" else "features.csv"),
        os.path.join(directory, "labels.csv"),
    )
    save_edge_list(paths[0], edges)
    if features == "binary":
        save_features_binary(paths[1], X)
    else:
        save_features_csv(paths[1], X)
    save_labels(paths[2], y)
    return paths
