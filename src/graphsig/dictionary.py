"""The nine-block graph-signal dictionary.

Blocks, in fixed order: the raw features X; the low-pass propagations
P_row X, P_row^2 X, P_row^3 X, P_sym X, P_sym^2 X; and the high-pass
differences X - P_row X, P_row X - P_row^2 X, X - P_sym X.  Each block's
recipe in ``BLOCKS`` names a power P^a X of one operator, or a
difference P^a X - P^b X formed from the un-normalized powers; every
block is then row-L2 normalized independently and the active blocks are
placed side by side.  Each output coordinate remembers which block
it came from, which is what the downstream evidence decomposition runs
on.

The dictionary is held as its recipe: the powers the active blocks name,
except each operator's highest one, and one row scale per block.  That
top power (P_row^3 X and P_sym^2 X for all nine blocks) is read through
a hop instead: the dictionary holds the power just below it, whether or
not a block names that one, plus the operator's CSR arrays, and a read
of the top power's entries at some rows multiplies just those operator
rows by the held power: one multiply-add per stored entry of those rows
and per column multiplied (all d, or only the columns read when the rows
are many), about mean-degree times the cost of reading a held power.
The n x p matrix is never formed, nor is a top power; a gather computes
just the entries it returns, each by the same floating-point operations
the whole matrix would have taken.
"""

from dataclasses import dataclass

import numpy as np

from .graph import SparseGraph, checked_ids, node_ids, propagate, row_operator, sym_operator


@dataclass(frozen=True)
class BlockId:
    index: int
    name: str
    family: str  # raw | low | high
    operator: str  # row | sym: the P of the recipe
    powers: tuple  # (a,): the block is P^a X; (a, b): P^a X - P^b X; P^0 X = X


BLOCKS = (
    BlockId(0, "X", "raw", "row", (0,)),
    BlockId(1, "ProwX", "low", "row", (1,)),
    BlockId(2, "Prow2X", "low", "row", (2,)),
    BlockId(3, "Prow3X", "low", "row", (3,)),
    BlockId(4, "X-ProwX", "high", "row", (0, 1)),
    BlockId(5, "ProwX-Prow2X", "high", "row", (1, 2)),
    BlockId(6, "PsymX", "low", "sym", (1,)),
    BlockId(7, "Psym2X", "low", "sym", (2,)),
    BlockId(8, "X-PsymX", "high", "sym", (0, 1)),
)

_OPERATORS = {"row": row_operator, "sym": sym_operator}

# the row scales are computed over row blocks of about this many bytes,
# so no n x d temporary (a block, its squares, a top power) is made
_ROW_BLOCK_BYTES = 1 << 20

BLOCK_NAMES = tuple(b.name for b in BLOCKS)
FAMILIES = ("raw", "low", "high")

_BY_NAME = {b.name: b for b in BLOCKS}


def block_by_name(name: str) -> BlockId:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown block {name!r}; known: {', '.join(BLOCK_NAMES)}") from None


def family_blocks(family: str, active=BLOCKS) -> tuple:
    return tuple(b for b in active if b.family == family)


@dataclass(frozen=True)
class SignalDictionary:
    """The block-normalized signal matrix F0, held as its recipe.

    F0 is n x p with p = len(active) * d; its columns [k*d, (k+1)*d) are
    block ``active[k]``, entry (i, j) being ``(a[i, j'] - b[i, j']) *
    scale[i, k]`` with j' = j - k*d, where ``terms[k]`` is ``(a, b)`` for a
    difference block and ``(a,)`` (no subtraction) for a power.  When
    ``hops[k]`` is an operator's CSR arrays ``(indptr, indices, data)``
    rather than ``()``, the block's last term is read as P @ that term:
    the operator's top power, of which only the power below is held.  The
    n x d power arrays are shared between blocks and with ``subset``
    views, and like ``scale`` and the operator arrays they are read-only
    and owned by the dictionary that built them.  coord_block[j] is the
    block index (0..8) owning column j; columns of one block are
    contiguous and ordered by block index.
    """

    terms: tuple
    hops: tuple  # per active block: () or P's CSR arrays, applied to its last term
    scale: np.ndarray  # (n, len(active)): 1 / row norm of each block, 0 for zero rows
    coord_block: np.ndarray
    d: int
    active: tuple

    @property
    def n(self) -> int:
        return self.scale.shape[0]

    @property
    def p(self) -> int:
        return len(self.active) * self.d

    def gather(self, rows, cols) -> np.ndarray:
        """F0[np.ix_(rows, cols)], C-ordered, computing only those entries.

        ``rows`` pass ``graph.node_ids``; ``cols`` must be integer
        coordinates in [0, p).  Each block's columns are written straight
        into the output, so no block-sized temporary outlives its block.
        """
        rows = node_ids(rows, self.n)
        cols = checked_ids(cols, self.p, "coordinate")
        out = np.empty((rows.size, cols.size))
        pos = cols // self.d
        for k in np.unique(pos).tolist():
            at = np.flatnonzero(pos == k)
            c = cols[at] - k * self.d
            # a whole block reads whole rows: several times cheaper than np.ix_
            whole = c.size == self.d and bool(np.all(np.diff(c) == 1))
            v = _entries(self.terms[k], self.hops[k], rows, None if whole else c)
            s = self.scale[rows, k][:, None]
            if at[-1] - at[0] + 1 == at.size:  # a column run: sorted selections
                np.multiply(v, s, out=out[:, at[0] : at[-1] + 1])
            else:
                out[:, at] = np.multiply(v, s, out=v)
        return out

    def subset(self, names) -> "SignalDictionary":
        """The blocks ``names`` (all active here) as a view of this dictionary's
        powers: bitwise what ``build_dictionary`` returns for them."""
        active = canonical_blocks(names)
        if missing := [b.name for b in active if b not in self.active]:
            raise ValueError(f"blocks {missing} are not active in this dictionary")
        at = [self.active.index(b) for b in active]
        terms, hops = (tuple(held[k] for k in at) for held in (self.terms, self.hops))
        return _assemble(terms, hops, self.scale[:, at], self.d, active)

    @property
    def F0(self) -> np.ndarray:
        """The whole n x p matrix, computed on each access.  The pipeline
        gathers only what it reads; this is for tests and measurement."""
        return self.gather(np.arange(self.n), np.arange(self.p))


def _entries(terms, hop, rows, cols=None) -> np.ndarray:
    """The un-normalized entries of one block at ``rows`` x ``cols`` (None:
    all d columns), as a new array: ``terms[0] - terms[1]`` or ``terms[0]``,
    the last term read through ``hop`` when there is one."""

    def read(power):
        return power[rows] if cols is None else power[np.ix_(rows, cols)]

    *first, last = terms
    v = _hop(hop, last, rows, cols) if hop else read(last)
    if first:
        np.subtract(read(first[0]), v, out=v)
    return v


def _hop(op, below, rows, cols=None) -> np.ndarray:
    """Rows ``rows`` and columns ``cols`` (None: all) of P @ ``below``, P
    given by its CSR arrays ``op``: scipy's slice of just those operator
    rows, over the held arrays uncopied, times ``below``.  Each entry sums
    its row's stored entries in their CSR order, as the whole sparse
    product does, so it is bitwise the same."""
    import scipy.sparse as sp

    indptr, indices, data = op
    n, d = below.shape
    P_rows = sp.csr_matrix((data, indices, indptr), shape=(n, n))[rows]
    if cols is None:
        return propagate(P_rows, below)
    if P_rows.nnz * d > n * cols.size:
        # the rows' multiply-adds over all d columns cost more than
        # copying the columns out of ``below`` first
        return propagate(P_rows, np.take(below, cols, axis=1))
    return propagate(P_rows, below)[:, cols]


def _recipes(g: SparseGraph, X: np.ndarray, active: tuple) -> tuple:
    """Each active block's ``terms`` and ``hops`` entry (see
    SignalDictionary).  Per operator, the powers below the top one its
    recipes name are computed once and shared, P^0 X being X itself
    under both operators; each is read-only."""
    terms, hops = {}, {}
    for op, make in _OPERATORS.items():
        blocks = [b for b in active if b.operator == op]
        top = max((k for b in blocks for k in b.powers), default=0)
        power, hop = {0: X}, ()
        if top:
            P = make(g)
            hop = (P.indptr, P.indices, P.data)
            for k in range(1, top):
                power[k] = propagate(P, power[k - 1])
            for a in (*hop, *power.values()):
                a.flags.writeable = False
        for b in blocks:
            terms[b] = tuple(power[k] if k in power else power[k - 1] for k in b.powers)
            hops[b] = hop if top in b.powers else ()
    return tuple(terms[b] for b in active), tuple(hops[b] for b in active)


def build_dictionary(g: SparseGraph, X: np.ndarray, active_blocks=None) -> SignalDictionary:
    """Build the dictionary for the given active block subset (default: all nine).

    Copies X once and, by iterated sparse products, each operator power
    below the top one the active blocks' recipes name; the top power is
    read through one hop.  Each block's row scale comes from its whole
    un-normalized block (a difference is formed from the un-normalized
    powers), in canonical block order, computed over row blocks of about
    ``_ROW_BLOCK_BYTES``: per-row arithmetic, so bitwise the same as over
    the whole block.  No n x p array, top power or other n x d temporary
    is allocated.
    """
    X = np.array(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != g.n:
        raise ValueError(f"features must be (n={g.n}, d), got {X.shape}")
    if X.shape[1] == 0:
        raise ValueError("features must have at least one column")
    if not np.all(np.isfinite(X)):
        bad = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"non-finite feature entry at row {bad[0]}, column {bad[1]}")
    X.flags.writeable = False

    active = canonical_blocks(BLOCKS if active_blocks is None else active_blocks)
    terms, hops = _recipes(g, X, active)
    step = max(1, _ROW_BLOCK_BYTES // (8 * X.shape[1]))
    scale = np.zeros((g.n, len(active)))
    for k in range(len(active)):
        for start in range(0, g.n, step):
            stop = min(start + step, g.n)
            # row-L2 normalize; zero rows stay zero: no epsilon inflation of
            # no-evidence rows.  The squares are np.linalg.norm(block, axis=1)'s
            # own operations, made row block by row block.
            sq = _entries(terms[k], hops[k], np.arange(start, stop))
            sq *= sq
            norms = np.sqrt(np.add.reduce(sq, axis=1))
            np.divide(1.0, norms, out=scale[start:stop, k], where=norms > 0)
    return _assemble(terms, hops, scale, X.shape[1], active)


def canonical_blocks(active_blocks) -> tuple:
    """The distinct blocks named (by name or BlockId), in block order;
    an unknown name or an empty set fails."""
    active = {b if isinstance(b, BlockId) else block_by_name(b) for b in active_blocks}
    if not active:
        raise ValueError("active_blocks must be nonempty")
    return tuple(sorted(active, key=lambda b: b.index))


def _assemble(terms, hops, scale, d, active) -> SignalDictionary:
    scale.flags.writeable = False
    coord_block = np.repeat(np.array([b.index for b in active], dtype=np.int64), d)
    coord_block.flags.writeable = False
    return SignalDictionary(terms, hops, scale, coord_block, d, active)
