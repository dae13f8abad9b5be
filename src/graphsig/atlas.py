"""Node-level interpretation atlas and dataset-level fingerprint.

Every selected coordinate belongs to a named dictionary block, so each
node carries a per-block evidence profile

    E_b(i) = mean_{j in S_b} |F_ij| * q_j,

the mean running over selected coordinates of block b (0 when the block
kept no coordinates, and 0 for blocks outside the active set).
Evidence is normalized into block shares and family-size-adjusted
family shares, joined with branch-level predictions, margins against
the nearest wrong class, and an agreement quadrant, then aggregated
into a compact dataset fingerprint.

Correctness-dependent aggregates (ridge-only fraction, both-wrong
fraction, the error signal shift) live behind the explicit
``dataset_fingerprint`` call that takes labels; nothing in the fit or
selection path can reach them.
"""

import os
from collections import Counter
from dataclasses import dataclass, field, fields, make_dataclass
from itertools import combinations
from operator import attrgetter

import numpy as np

from .conventions import conventions
from .dictionary import BLOCK_NAMES, BLOCKS, FAMILIES, family_blocks
from .io import write_csv, write_json
from .scaffold import predict

QUADRANTS = ("both-correct", "pca-only", "ridge-only", "both-wrong")

@dataclass(frozen=True, eq=False)
class NodeAtlas:
    """The atlas of one eval set as columns, one row per eval node in
    eval order.  ``atlas[i]`` is row i as a ``NodeAtlasRecord``, and
    iterating gives the rows in order."""

    node: np.ndarray  # int64 ids, as are label, degree and the three preds
    label: np.ndarray
    degree: np.ndarray
    pred: np.ndarray
    pred_pca: np.ndarray
    pred_ridge: np.ndarray
    correct: np.ndarray  # bool
    quadrant: np.ndarray  # QUADRANTS names
    zero_evidence: np.ndarray  # bool
    # (n, k) columns in BLOCK_NAMES or FAMILIES order; share rows sum to 1 (or are all 0)
    block_energy: np.ndarray = field(metadata={"keys": BLOCK_NAMES})  # E_b, inactive blocks 0
    block_share: np.ndarray = field(metadata={"keys": BLOCK_NAMES})  # pi_b
    family_share: np.ndarray = field(metadata={"keys": FAMILIES})
    margin_pca: np.ndarray  # min_{c != y} score_c - score_y; NaN when missing
    margin_ridge: np.ndarray

    def __len__(self):
        return self.node.shape[0]

    def __getitem__(self, i):
        """Row i: Python scalars, and the (n, k) columns as dicts keyed by
        block or family name."""
        row = {}
        for f in fields(self):
            value, keys = getattr(self, f.name)[i], f.metadata.get("keys")
            row[f.name] = value.item() if keys is None else dict(zip(keys, value.tolist()))
        return NodeAtlasRecord(**row)


NodeAtlasRecord = make_dataclass(
    "NodeAtlasRecord", [f.name for f in fields(NodeAtlas)], frozen=True,
    namespace={"__module__": __name__, "__doc__": "One NodeAtlas row."},
)


def _row_means(M, cols):
    """Per-row mean over the given columns.  The gather is made
    C-contiguous so each row reduces exactly as the 1-D mean of its
    values does (a column gather alone is Fortran-ordered, which sums in
    another order)."""
    return np.mean(np.ascontiguousarray(M[:, cols]), axis=1)


def _row_sums(M):
    """Per-row total as a left fold over the columns, from 0."""
    total = np.zeros(M.shape[0])
    for col in M.T:
        total = total + col
    return total


def _shares(M):
    """Each row over its total; rows without a positive total stay zero."""
    total = _row_sums(M)[:, None]
    return np.divide(M, total, out=np.zeros_like(M), where=total > 0)


def _family_shares(energy, active):
    """Family-size-adjusted shares of (n, 9) block evidence: average
    evidence over the ``active`` blocks (in index order) per family, then
    normalize across the three families.  Averaging over present blocks
    is what makes an exact duplicate block (equal evidence) leave the
    shares unchanged."""
    means = np.zeros((energy.shape[0], len(FAMILIES)))
    for f, fam in enumerate(FAMILIES):
        cols = [b.index for b in family_blocks(fam, active)]
        if cols:
            means[:, f] = _row_means(energy, cols)
    return _shares(means)


def block_shares(energy: dict) -> dict:
    """Normalize block evidence to shares; all-zero evidence stays zero."""
    shares = _shares(np.array([list(energy.values())], dtype=np.float64))
    return dict(zip(energy, shares[0].tolist()))


def family_shares(energy: dict, active_names) -> dict:
    """One row of ``_family_shares``: block name -> evidence in, family
    name -> share out; blocks outside ``active_names`` are ignored."""
    row = np.array([[energy.get(n, 0.0) for n in BLOCK_NAMES]], dtype=np.float64)
    active = [b for b in BLOCKS if b.name in active_names]
    return dict(zip(FAMILIES, _family_shares(row, active)[0].tolist()))


def _margins(R, y_pos):
    """Per-row margin of the true class against the nearest wrong one;
    NaN where the true class is unseen (y_pos -1) or there is no other."""
    n, n_classes = R.shape
    out = np.full(n, np.nan)
    if n_classes < 2:
        return out
    rows = np.flatnonzero(y_pos >= 0)
    at_true = (np.arange(rows.size), y_pos[rows])
    others = R[rows]  # fancy indexing copies
    true = others[at_true]
    others[at_true] = np.inf
    out[rows] = others.min(axis=1) - true
    return out


def node_atlas(scaffold, eval_idx, y, degree=None, scores=None) -> NodeAtlas:
    """The atlas of the eval nodes, one row per entry of eval_idx.

    ``degree`` is the full-graph per-node degree vector (pass g.degree);
    omitted degrees are recorded as 0.  ``scores`` is what
    ``predict(scaffold, scaffold.rows(eval_idx))`` returned, when the caller
    has already scored those rows; without it they are scored here.
    Every column is computed for all eval nodes at once, one block or
    family at a time.
    """
    eval_idx = np.asarray(eval_idx, dtype=np.int64)
    labels = np.asarray(y)[eval_idx].astype(np.int64)
    F_rows = scaffold.rows(eval_idx)
    yhat, _, Rp, Rr = scores if scores is not None else predict(scaffold, F_rows)
    pred = yhat.astype(np.int64)
    pred_pca = scaffold.classes[np.argmin(Rp, axis=1)]
    pred_ridge = scaffold.classes[np.argmin(Rr, axis=1)]
    # QUADRANTS is ordered by (pca wrong, ridge wrong) read as two bits
    quadrant = 2 * (pred_pca != labels) + (pred_ridge != labels)

    class_pos = {int(c): k for k, c in enumerate(scaffold.classes)}
    y_pos = np.array([class_pos.get(int(c), -1) for c in labels], dtype=np.int64)

    sel = scaffold.selection
    contrib = np.abs(F_rows) * sel.scores[sel.selected][None, :]
    block_index = np.array([b.index for b in scaffold.selected_blocks])
    active = sorted(set(scaffold.selected_blocks), key=attrgetter("index"))
    energy = np.zeros((eval_idx.size, len(BLOCKS)))
    for b in active:
        energy[:, b.index] = _row_means(contrib, np.flatnonzero(block_index == b.index))

    return NodeAtlas(
        node=eval_idx,
        label=labels,
        degree=np.zeros_like(eval_idx) if degree is None else np.asarray(degree, np.int64)[eval_idx],
        pred=pred,
        pred_pca=pred_pca.astype(np.int64),
        pred_ridge=pred_ridge.astype(np.int64),
        correct=pred == labels,
        quadrant=np.asarray(QUADRANTS)[quadrant],
        zero_evidence=_row_sums(energy) == 0.0,
        block_energy=energy,
        block_share=_shares(energy),
        family_share=_family_shares(energy, active),
        margin_pca=_margins(Rp, y_pos),
        margin_ridge=_margins(Rr, y_pos),
    )


@dataclass(frozen=True)
class DatasetFingerprint:
    """Eval-set aggregate; every share-like field is a fraction in [0,1]."""

    n_eval: int
    accuracy: float
    raw_share: float  # eval means of the family shares
    low_share: float
    high_share: float
    mean_subspace_dim: float
    ridge_only_frac: float  # ridge branch right where the other is wrong
    both_wrong_frac: float
    quadrant_fractions: dict  # all four quadrants, sums to 1
    high_share_correct: float  # None when the subset is empty
    high_share_wrong: float
    high_share_shift: float  # wrong minus correct; None when either is
    per_block_means: dict  # block name -> eval mean of pi_b


def dataset_fingerprint(atlas: NodeAtlas, subspaces) -> DatasetFingerprint:
    n = len(atlas)
    if n == 0:
        raise ValueError("fingerprint needs at least one eval node")
    # each mean reads one contiguous 1-D column, which np.mean sums
    # pairwise as it does a list of the values; an axis-0 mean of the
    # table adds row after row and differs in the last bits
    fam = dict(zip(FAMILIES, np.ascontiguousarray(atlas.family_share.T)))
    block = dict(zip(BLOCK_NAMES, np.ascontiguousarray(atlas.block_share.T)))
    quad = {qd: float(np.mean(atlas.quadrant == qd)) for qd in QUADRANTS}
    correct_high = fam["high"][atlas.correct]
    wrong_high = fam["high"][~atlas.correct]
    h_c = float(np.mean(correct_high)) if correct_high.size else None
    h_w = float(np.mean(wrong_high)) if wrong_high.size else None
    shift = h_w - h_c if (h_c is not None and h_w is not None) else None
    return DatasetFingerprint(
        n_eval=n,
        accuracy=float(np.mean(atlas.correct)),
        raw_share=float(np.mean(fam["raw"])),
        low_share=float(np.mean(fam["low"])),
        high_share=float(np.mean(fam["high"])),
        mean_subspace_dim=float(np.mean([s.r for s in subspaces])),
        ridge_only_frac=quad["ridge-only"],
        both_wrong_frac=quad["both-wrong"],
        quadrant_fractions=quad,
        high_share_correct=h_c,
        high_share_wrong=h_w,
        high_share_shift=shift,
        per_block_means={name: float(np.mean(col)) for name, col in block.items()},
    )


def subspace_overlap(a, b) -> float:
    """Basis alignment ||B_b^T B_a||_F^2 / min(r_a, r_b), in [0, 1]."""
    if a.r == 0 or b.r == 0:
        return 0.0
    m = b.basis.T @ a.basis
    return float(np.sum(m * m) / min(a.r, b.r))


def _pct(v):
    return None if v is None else 100.0 * v


def fingerprint_payload(fp: DatasetFingerprint, dataset_name, split_mode, meta=None):
    """fingerprint.json contents; shares in percent, conventions embedded."""
    payload = {
        "dataset": dataset_name,
        "R_D": _pct(fp.raw_share),
        "L_D": _pct(fp.low_share),
        "H_D": _pct(fp.high_share),
        "C_D": fp.mean_subspace_dim,
        "Q_ridge": _pct(fp.ridge_only_frac),
        "Q_hard": _pct(fp.both_wrong_frac),
        "delta_H": _pct(fp.high_share_shift),
        "H_correct": _pct(fp.high_share_correct),
        "H_wrong": _pct(fp.high_share_wrong),
        "quadrants": {qd: _pct(fp.quadrant_fractions[qd]) for qd in QUADRANTS},
        "n_eval": fp.n_eval,
        "accuracy": _pct(fp.accuracy),
        "per_block_means": {k: _pct(v) for k, v in fp.per_block_means.items()},
        "conventions": conventions(split_mode),
        "overlap_metric": "tr(Ba^T Bb Bb^T Ba) / min(ra, rb)",
    }
    if meta:
        payload["meta"] = dict(meta)
    return payload


# Every atlas.csv column once: (header, its values as a function of the
# NodeAtlas).  atlas.csv writes them all; the phase files pick theirs by
# header.  Flags are written as 0/1.
ATLAS_COLUMNS = (
    *((n, attrgetter(n)) for n in ("node", "label", "degree", "pred", "pred_pca", "pred_ridge")),
    ("correct", lambda a: a.correct.astype(np.int64)),
    ("quadrant", attrgetter("quadrant")),
    ("zero_evidence", lambda a: a.zero_evidence.astype(np.int64)),
    *((f"{f}_share_pct", lambda a, j=j: 100.0 * a.family_share[:, j])
      for j, f in enumerate(FAMILIES)),
    ("margin_pca", attrgetter("margin_pca")),
    ("margin_ridge", attrgetter("margin_ridge")),
    *((f"energy[{n}]", lambda a, j=j: a.block_energy[:, j]) for j, n in enumerate(BLOCK_NAMES)),
    *((f"share_pct[{n}]", lambda a, j=j: 100.0 * a.block_share[:, j])
      for j, n in enumerate(BLOCK_NAMES)),
)

PHASE_FILES = (
    ("signal_phase.csv", ("node", "low_share_pct", "high_share_pct", "correct")),
    ("decision_phase.csv", ("node", "margin_pca", "margin_ridge", "quadrant")),
)


def emit_figure_data(
    atlas: NodeAtlas,
    fingerprint: DatasetFingerprint,
    out_dir,
    subspaces,
    dataset_name="dataset",
    split_mode="unspecified",
    meta=None,
):
    """Emit the plot-data bundle for one evaluated split.

    atlas.csv carries every atlas column; the phase files carry the node
    rows figures are drawn from; simplex.csv and error_shift.csv carry
    one dataset-level row each.  Share-like values are percentages.
    Missing values (margins of unseen classes, shift without errors)
    are empty fields in CSV and null in JSON.  Output is deterministic
    for fixed inputs.
    """
    os.makedirs(out_dir, exist_ok=True)

    def write(name, header, rows):
        write_csv(os.path.join(out_dir, name), header, rows, meta)

    columns = {header: value(atlas).tolist() for header, value in ATLAS_COLUMNS}
    write("atlas.csv", list(columns), zip(*columns.values()))
    for name, picked in PHASE_FILES:
        write(name, picked, zip(*(columns[h] for h in picked)))

    payload = fingerprint_payload(fingerprint, dataset_name, split_mode, meta)
    write_json(os.path.join(out_dir, "fingerprint.json"), payload)
    write(
        "simplex.csv",
        ["dataset", *(f"{f}_share_pct" for f in FAMILIES)],
        [[dataset_name, payload["R_D"], payload["L_D"], payload["H_D"]]],
    )
    write(
        "error_shift.csv",
        ["dataset", "high_share_correct_pct", "high_share_wrong_pct", "delta_H_pct"],
        [[dataset_name, payload["H_correct"], payload["H_wrong"], payload["delta_H"]]],
    )
    write(
        "class_complexity.csv",
        ["class", "subspace_dim", "n_members", "energy_fraction"],
        [[s.label, s.r, s.n_members, s.energy_fraction] for s in subspaces],
    )
    wrong = ~atlas.correct
    confusion = Counter(zip(atlas.label[wrong].tolist(), atlas.pred[wrong].tolist()))
    write(
        "subspace_confusion.csv",
        ["class_a", "class_b", "overlap", "confused_a_as_b", "confused_b_as_a"],
        [
            [a.label, b.label, subspace_overlap(a, b),
             confusion[a.label, b.label], confusion[b.label, a.label]]
            for a, b in combinations(subspaces, 2)
        ],
    )
