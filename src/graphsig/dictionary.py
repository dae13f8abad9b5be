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
"""

from dataclasses import dataclass

import numpy as np

from .graph import SparseGraph, propagate, row_operator, sym_operator


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

BLOCK_NAMES = tuple(b.name for b in BLOCKS)
FAMILIES = ("raw", "low", "high")

_BY_NAME = {b.name: b for b in BLOCKS}


def block_by_name(name: str) -> BlockId:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown block {name!r}; valid: {', '.join(BLOCK_NAMES)}") from None


def family_blocks(family: str, active=BLOCKS) -> tuple:
    return tuple(b for b in active if b.family == family)


@dataclass(frozen=True)
class SignalDictionary:
    """Concatenated, block-normalized signal matrix with coordinate metadata.

    F0 is n x p with p = len(active) * d.  coord_block[j] is the block
    index (0..8) owning column j; columns of one block are contiguous and
    ordered by block index.
    """

    F0: np.ndarray
    coord_block: np.ndarray
    d: int
    active: tuple

    @property
    def n(self) -> int:
        return self.F0.shape[0]

    @property
    def p(self) -> int:
        return self.F0.shape[1]


def build_dictionary(g: SparseGraph, X: np.ndarray, active_blocks=None) -> SignalDictionary:
    """Build the dictionary for the given active block subset (default: all nine).

    Computes each operator power the active blocks' recipes need once, by
    iterated sparse products, forms difference blocks from the
    un-normalized powers, and writes each row-normalized block into its
    column range of F0, in canonical block order.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != g.n:
        raise ValueError(f"features must be (n={g.n}, d), got {X.shape}")
    if not np.all(np.isfinite(X)):
        bad = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"non-finite feature entry at row {bad[0]}, column {bad[1]}")

    if active_blocks is None:
        active = BLOCKS
    else:
        active = tuple(
            b if isinstance(b, BlockId) else block_by_name(b) for b in active_blocks
        )
        active = tuple(sorted(set(active), key=lambda b: b.index))
    if not active:
        raise ValueError("active_blocks must be nonempty")

    # each operator power the active recipes name, computed once
    power = {}
    for op, make in _OPERATORS.items():
        power[op, 0] = X
        top = max((max(b.powers) for b in active if b.operator == op), default=0)
        if top:
            P = make(g)
            for k in range(1, top + 1):
                power[op, k] = propagate(P, power[op, k - 1])

    d = X.shape[1]
    F0 = np.empty((g.n, len(active) * d))
    for pos, b in enumerate(active):
        terms = [power[b.operator, k] for k in b.powers]
        block = terms[0] - terms[1] if len(terms) == 2 else terms[0]
        # row-L2 normalize; zero rows stay zero: no epsilon inflation of
        # no-evidence rows
        norms = np.linalg.norm(block, axis=1)
        scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
        np.multiply(block, scale[:, None], out=F0[:, pos * d : (pos + 1) * d])
    coord_block = np.repeat(np.array([b.index for b in active], dtype=np.int64), d)
    return SignalDictionary(F0=F0, coord_block=coord_block, d=d, active=active)
