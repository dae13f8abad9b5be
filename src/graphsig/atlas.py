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
from dataclasses import dataclass
from itertools import combinations
from operator import attrgetter

import numpy as np

from .conventions import conventions
from .dictionary import BLOCK_NAMES, BLOCKS, FAMILIES
from .io import write_csv, write_json
from .scaffold import predict

QUADRANTS = ("both-correct", "pca-only", "ridge-only", "both-wrong")

FAMILY_BLOCKS = {fam: tuple(b.name for b in BLOCKS if b.family == fam) for fam in FAMILIES}


@dataclass(frozen=True)
class NodeAtlasRecord:
    node: int
    label: int
    degree: int
    pred: int
    pred_pca: int
    pred_ridge: int
    correct: bool
    quadrant: str
    zero_evidence: bool
    block_energy: dict  # all 9 block names -> E_b, inactive blocks 0
    block_share: dict  # all 9 block names -> pi_b, sums to 1 (or all 0)
    family_share: dict  # raw/low/high -> share, sums to 1 (or all 0)
    margin_pca: float  # min_{c != y} score_c - score_y; NaN when missing
    margin_ridge: float


def block_shares(energy: dict) -> dict:
    """Normalize block evidence to shares; all-zero evidence stays zero."""
    total = float(sum(energy.values()))
    if total > 0:
        return {name: e / total for name, e in energy.items()}
    return {name: 0.0 for name in energy}


def family_shares(energy: dict, active_names) -> dict:
    """Family-size-adjusted shares: average evidence over the blocks the
    dictionary actually holds per family, then normalize across the
    three families.  Averaging over present blocks is what makes an
    exact duplicate block (equal evidence) leave the shares unchanged."""
    fam_mean = {}
    for fam in FAMILIES:
        present = [energy[n] for n in FAMILY_BLOCKS[fam] if n in active_names]
        fam_mean[fam] = float(np.mean(present)) if present else 0.0
    fam_total = float(sum(fam_mean.values()))
    if fam_total > 0:
        return {f: v / fam_total for f, v in fam_mean.items()}
    return {f: 0.0 for f in fam_mean}


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


def node_atlas(scaffold, eval_idx, y, degree=None):
    """One NodeAtlasRecord per eval node, in eval_idx order.

    ``degree`` is the full-graph per-node degree vector (pass g.degree);
    omitted degrees are recorded as 0.
    """
    eval_idx = np.asarray(eval_idx, dtype=np.int64)
    labels = np.asarray(y)[eval_idx]
    sel = scaffold.selection
    q_sel = sel.scores[sel.selected]
    block_index = np.array([b.index for b in scaffold.selected_blocks])
    active = sorted(set(scaffold.selected_blocks), key=lambda b: b.index)
    active_names = [b.name for b in active]
    block_cols = [(b.name, np.flatnonzero(block_index == b.index)) for b in active]

    F_rows = scaffold.F[eval_idx]
    yhat, _, Rp, Rr = predict(scaffold, F_rows)
    pred_pca = scaffold.classes[np.argmin(Rp, axis=1)]
    pred_ridge = scaffold.classes[np.argmin(Rr, axis=1)]
    # QUADRANTS is ordered by (pca wrong, ridge wrong) read as two bits
    quadrant = 2 * (pred_pca != labels) + (pred_ridge != labels)

    class_pos = {int(c): k for k, c in enumerate(scaffold.classes)}
    y_pos = np.array([class_pos.get(int(c), -1) for c in labels], dtype=np.int64)
    m_pca = _margins(Rp, y_pos)
    m_ridge = _margins(Rr, y_pos)

    contrib = np.abs(F_rows) * q_sel[None, :]
    records = []
    for r, node in enumerate(eval_idx):
        energy = dict.fromkeys(BLOCK_NAMES, 0.0)
        for name, cols in block_cols:
            energy[name] = float(np.mean(contrib[r, cols]))
        records.append(
            NodeAtlasRecord(
                node=int(node),
                label=int(labels[r]),
                degree=int(degree[node]) if degree is not None else 0,
                pred=int(yhat[r]),
                pred_pca=int(pred_pca[r]),
                pred_ridge=int(pred_ridge[r]),
                correct=int(yhat[r]) == int(labels[r]),
                quadrant=QUADRANTS[quadrant[r]],
                zero_evidence=sum(energy.values()) == 0.0,
                block_energy=energy,
                block_share=block_shares(energy),
                family_share=family_shares(energy, active_names),
                margin_pca=float(m_pca[r]),
                margin_ridge=float(m_ridge[r]),
            )
        )
    return records


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


def dataset_fingerprint(records, subspaces) -> DatasetFingerprint:
    n = len(records)
    if n == 0:
        raise ValueError("fingerprint needs at least one eval node")
    fam = {f: float(np.mean([r.family_share[f] for r in records])) for f in FAMILIES}
    quad = {
        qd: float(np.mean([r.quadrant == qd for r in records])) for qd in QUADRANTS
    }
    correct_high = [r.family_share["high"] for r in records if r.correct]
    wrong_high = [r.family_share["high"] for r in records if not r.correct]
    h_c = float(np.mean(correct_high)) if correct_high else None
    h_w = float(np.mean(wrong_high)) if wrong_high else None
    shift = h_w - h_c if (h_c is not None and h_w is not None) else None
    return DatasetFingerprint(
        n_eval=n,
        accuracy=float(np.mean([r.correct for r in records])),
        raw_share=fam["raw"],
        low_share=fam["low"],
        high_share=fam["high"],
        mean_subspace_dim=float(np.mean([s.r for s in subspaces])),
        ridge_only_frac=quad["ridge-only"],
        both_wrong_frac=quad["both-wrong"],
        quadrant_fractions=quad,
        high_share_correct=h_c,
        high_share_wrong=h_w,
        high_share_shift=shift,
        per_block_means={
            name: float(np.mean([r.block_share[name] for r in records]))
            for name in BLOCK_NAMES
        },
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


# Every per-node column once: (header, its value for one NodeAtlasRecord).
# atlas.csv writes them all; the phase files pick theirs by header.
ATLAS_COLUMNS = (
    *((n, attrgetter(n)) for n in ("node", "label", "degree", "pred", "pred_pca", "pred_ridge")),
    ("correct", lambda r: int(r.correct)),
    ("quadrant", lambda r: r.quadrant),
    ("zero_evidence", lambda r: int(r.zero_evidence)),
    *((f"{f}_share_pct", lambda r, f=f: 100.0 * r.family_share[f]) for f in FAMILIES),
    ("margin_pca", lambda r: r.margin_pca),
    ("margin_ridge", lambda r: r.margin_ridge),
    *((f"energy[{n}]", lambda r, n=n: r.block_energy[n]) for n in BLOCK_NAMES),
    *((f"share_pct[{n}]", lambda r, n=n: 100.0 * r.block_share[n]) for n in BLOCK_NAMES),
)

PHASE_FILES = (
    ("signal_phase.csv", ("node", "low_share_pct", "high_share_pct", "correct")),
    ("decision_phase.csv", ("node", "margin_pca", "margin_ridge", "quadrant")),
)


def emit_figure_data(
    records,
    fingerprint: DatasetFingerprint,
    out_dir,
    subspaces,
    dataset_name="dataset",
    split_mode="unspecified",
    meta=None,
):
    """Emit the plot-data bundle for one evaluated split.

    atlas.csv carries every record field; the phase files carry the node
    rows figures are drawn from; simplex.csv and error_shift.csv carry
    one dataset-level row each.  Share-like values are percentages.
    Missing values (margins of unseen classes, shift without errors)
    are empty fields in CSV and null in JSON.  Output is deterministic
    for fixed inputs.
    """
    os.makedirs(out_dir, exist_ok=True)

    def write(name, header, rows):
        write_csv(os.path.join(out_dir, name), header, rows, meta)

    header = [h for h, _ in ATLAS_COLUMNS]
    rows = [[value(r) for _, value in ATLAS_COLUMNS] for r in records]
    write("atlas.csv", header, rows)
    for name, picked in PHASE_FILES:
        idx = [header.index(h) for h in picked]
        write(name, picked, [[row[i] for i in idx] for row in rows])

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
    confusion = Counter((r.label, r.pred) for r in records if not r.correct)
    write(
        "subspace_confusion.csv",
        ["class_a", "class_b", "overlap", "confused_a_as_b", "confused_b_as_a"],
        [
            [a.label, b.label, subspace_overlap(a, b),
             confusion[a.label, b.label], confusion[b.label, a.label]]
            for a, b in combinations(subspaces, 2)
        ],
    )
