"""Supervised Fisher scoring and top-K coordinate selection.

Per coordinate j the score is the ratio of between-class separation to
within-class scatter over the training nodes,

    q_j = sum_c n_c (mu_cj - mu_j)^2
          / (sum_c sum_{i in c} (F0_ij - mu_cj)^2 + eps),

with class means mu_cj and the overall training mean mu_j.  Classes with
no training members simply drop out of both sums.  Selection keeps the
K_eff = min(K, p) largest scores, ties broken by ascending coordinate
index so results are deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .conventions import EPSILON
from .dictionary import BLOCKS, SignalDictionary


@dataclass(frozen=True)
class FisherSelection:
    scores: np.ndarray
    selected: np.ndarray  # sorted coordinate indices, len K_eff
    k_requested: int
    k_eff: int


def fisher_scores(dictionary, train_idx, y, epsilon: float = EPSILON) -> np.ndarray:
    """Fisher score per dictionary coordinate, from training nodes only."""
    F0 = dictionary.F0 if isinstance(dictionary, SignalDictionary) else np.asarray(dictionary)
    train_idx = np.asarray(train_idx, dtype=np.int64)
    if train_idx.size == 0:
        raise ValueError("train_idx must be nonempty")
    y = np.asarray(y)
    F_tr = F0[train_idx]
    y_tr = y[train_idx]

    mu = F_tr.mean(axis=0)
    between = np.zeros(F0.shape[1])
    within = np.zeros(F0.shape[1])
    for c in np.unique(y_tr):
        rows = F_tr[y_tr == c]
        mu_c = rows.mean(axis=0)
        between += rows.shape[0] * (mu_c - mu) ** 2
        within += ((rows - mu_c) ** 2).sum(axis=0)
    return between / (within + epsilon)


def select_top_k(scores: np.ndarray, k: int) -> FisherSelection:
    """Deterministic top-K selection: score descending, index ascending on ties."""
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    scores = np.asarray(scores, dtype=np.float64)
    p = scores.shape[0]
    k_eff = min(k, p)
    # stable sort on -score keeps ascending-index order within ties
    order = np.argsort(-scores, kind="stable")
    selected = np.sort(order[:k_eff])
    return FisherSelection(
        scores=scores,
        selected=selected.astype(np.int64),
        k_requested=int(k),
        k_eff=int(k_eff),
    )


def restrict(dictionary: SignalDictionary, selected, rows) -> tuple:
    """Gather of the selected coordinates over the given rows.

    Returns (F, blocks): F is F0[rows][:, selected], C-ordered, and
    blocks[t] is the BlockId of selected coordinate t, in selection order.
    """
    selected = np.asarray(selected, dtype=np.int64)
    F = dictionary.F0[np.ix_(np.asarray(rows, dtype=np.int64), selected)]
    blocks = tuple(BLOCKS[b] for b in dictionary.coord_block[selected].tolist())
    return F, blocks
