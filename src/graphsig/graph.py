"""Sparse undirected graphs and normalized propagation operators.

A graph is its clean edge array together with its degree vector; both
are numpy arrays.  The symmetric 0/1 CSR adjacency is derived from the
edges when an operator asks for it, so building, loading and editing a
graph never import scipy.  Two propagation operators are derived from
it: the row-normalized transition matrix (each row of a non-isolated
node sums to one) and the symmetric-normalized matrix with entries
1/sqrt(d_i d_j) on edges.  Isolated nodes get all-zero rows in both, so
every propagated signal stays finite.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SparseGraph:
    """Undirected graph: node count, sorted edge array, degrees.

    ``edges`` is an (m, 2) int array with u < v per row, lexicographically
    sorted, no duplicates, no self-loops.  ``degree[i]`` is the neighbor
    count of node i.
    """

    n: int
    edges: np.ndarray
    degree: np.ndarray

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def adj(self):
        """The symmetric 0/1 adjacency as a scipy CSR matrix, built on
        each access (the operators read it once each)."""
        import scipy.sparse as sp

        rows = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        cols = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        data = np.ones(2 * self.n_edges, dtype=np.float64)
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))


def build_graph(n: int, edge_list) -> SparseGraph:
    """Build a SparseGraph from a raw edge list.

    The input may contain duplicates, self-loops, or both orientations of
    an edge; all are collapsed to a clean undirected edge set.  Endpoints
    outside [0, n) raise ValueError naming the offending edge.
    """
    if n < 0:
        raise ValueError(f"node count must be nonnegative, got {n}")
    pairs = np.asarray(edge_list, dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edge list must hold (u, v) pairs, got shape {pairs.shape}")
    outside = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if outside.size:
        u, v = pairs[outside[0]].tolist()
        raise ValueError(f"edge ({u},{v}) has endpoint outside [0,{n})")
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    keep = lo != hi
    # u * n + v orders pairs as (u, v) does, since v < n
    keys = np.unique(lo[keep] * n + hi[keep])
    edges = np.stack([keys // n, keys % n], axis=1)
    degree = np.bincount(edges.ravel(), minlength=n).astype(np.int64, copy=False)
    return SparseGraph(n=n, edges=edges, degree=degree)


def checked_ids(idx, n: int, noun: str) -> np.ndarray:
    """``idx`` as int64 ids in [0, n): ``idx`` must be one-dimensional
    (a scalar or a nested list is no list of ids), a nonempty ``idx``
    integer-typed (a boolean mask or float ids would read other entries),
    and -1 may not wrap to n - 1.  ``noun`` names one id in messages."""
    idx = np.asarray(idx)
    if idx.ndim != 1:
        raise ValueError(f"{noun}s must be one-dimensional, got shape {idx.shape}")
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"{noun}s must be integers, got dtype {idx.dtype}")
    outside = idx[(idx < 0) | (idx >= n)]
    if outside.size:
        raise ValueError(f"{noun} {outside[0]} outside [0, {n})")
    return idx.astype(np.int64, copy=False)


def node_ids(idx, n: int, role: str = "", labels=None) -> np.ndarray:
    """``idx`` as int64 node ids of an n-node graph: the one node-id check.

    ``idx`` must be one-dimensional, and a nonempty ``idx`` integer-typed
    (a boolean mask or float ids would read other nodes) with every id in
    [0, n) (-1 would wrap to node n - 1).  Given ``labels`` (a class id
    per node, -1 where unknown), each id must be labeled.  ``role``
    ("train", "eval", ...) prefixes messages.
    """
    where = f"{role} " if role else ""
    idx = checked_ids(idx, n, f"{where}node id")
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape[0] != n:
            whose = f"{role}: " if role else ""
            raise ValueError(f"{whose}{labels.shape[0]} labels for a graph of {n} nodes")
        unlabeled = idx[labels[idx] < 0]
        if unlabeled.size:
            raise ValueError(f"{where}node {unlabeled[0]} has no label")
    return idx


def _inv_degree(degree: np.ndarray) -> np.ndarray:
    # isolated nodes: 1/d := 0, giving zero operator rows
    return np.divide(1.0, degree, out=np.zeros(degree.shape[0]), where=degree > 0)


def row_operator(g: SparseGraph):
    """Row-normalized transition matrix D^-1 A as CSR (isolated nodes: zero rows)."""
    import scipy.sparse as sp

    return sp.diags(_inv_degree(g.degree)).dot(g.adj).tocsr()


def sym_operator(g: SparseGraph):
    """Symmetric-normalized matrix D^-1/2 A D^-1/2, as a scipy CSR matrix."""
    import scipy.sparse as sp

    d = sp.diags(np.sqrt(_inv_degree(g.degree)))
    return d.dot(g.adj).dot(d).tocsr()


def propagate(P, X: np.ndarray) -> np.ndarray:
    """Sparse-dense product P @ X; apply repeatedly for operator powers."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != P.shape[1]:
        raise ValueError(f"shape mismatch: operator is {P.shape}, signal is {X.shape}")
    return np.asarray(P.dot(X))


def load_edge_list(path, n_nodes=None) -> list:
    """Read a 'src,dst' per line edge file.  Blank and '#' lines are
    skipped; the first other line may be a 'src,dst' header.

    Returns raw integer pairs; full validation happens in build_graph,
    but when ``n_nodes`` is given, out-of-range ids fail here so the
    error can carry a line number.  Malformed lines raise ValueError
    with the line number.
    """
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        header_allowed = True
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header_allowed and line.replace(" ", "") == "src,dst":
                header_allowed = False
                continue
            header_allowed = False
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'src,dst', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-integer node id in {line!r}"
                ) from None
            if n_nodes is not None and not (0 <= u < n_nodes and 0 <= v < n_nodes):
                raise ValueError(
                    f"{path}:{lineno}: node id outside [0, {n_nodes}) in {line!r}"
                )
            pairs.append((u, v))
    return pairs


def save_edge_list(path, edges) -> None:
    """Write edges in the standard 'src,dst' text format with header."""
    from .io import write_csv  # here, not at the top: io imports this module

    write_csv(path, ["src", "dst"], edges)
