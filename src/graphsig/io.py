"""Dataset ingestion, fitted-scaffold snapshots, and report plumbing.

Input formats are deliberately plain: an edge list ('src,dst' per
line), a feature CSV with an optional header row, and a label file with one
entry per node where empty lines or '-' mark unlabeled nodes.  Large
feature matrices may instead use a packed binary container (magic
header, row/column counts, row-major little-endian float32 payload).
Labels of any integer or string alphabet are remapped to contiguous
class ids with the map kept alongside.

A snapshot file captures everything a fitted scaffold needs to predict
again without refitting, except the dataset itself: the dictionary is
rebuilt deterministically from (graph, features) at load time.
"""

import dataclasses
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .conventions import FORMAT_VERSION, PACKAGE_VERSION, STD_MODE, conventions
from .dictionary import BLOCK_NAMES, build_dictionary
from .fisher import FisherSelection, restrict
from .graph import build_graph, load_edge_list
from .ridge import RidgeModel
from .scaffold import FittedScaffold, HyperConfig, SearchGrids, SplitSpec
from .subspace import ClassSubspace

FEATURE_MAGIC = b"GSF1"


# ------------------------------------------------------------------ features


def save_features_binary(path, X) -> None:
    """Write the packed float32 matrix container."""
    X = np.asarray(X, dtype=np.float32)
    if X.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<QQ", X.shape[0], X.shape[1]))
        fh.write(X.astype("<f4", copy=False).tobytes(order="C"))


def save_features_csv(path, X, names=None) -> None:
    X = np.asarray(X)
    d = X.shape[1]
    names = names if names is not None else [f"f{j}" for j in range(d)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for row in X:
            fh.write(",".join(f"{v:.10g}" for v in row) + "\n")


def _load_features_csv(path) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
        if not first:
            raise ValueError(
                f"{path}:1: empty first line, expected a header or a feature row"
            )
        fields = first.split(",")
        d = len(fields)
        # the header is optional: a first line of numbers is the first node's row
        try:
            rows.append([float(p) for p in fields])
        except ValueError:
            pass
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != d:
                raise ValueError(
                    f"{path}:{lineno}: expected {d} columns, got {len(parts)}"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-numeric feature value in {line!r}"
                ) from None
    if not rows:
        raise ValueError(f"{path}: no feature rows")
    return np.asarray(rows, dtype=np.float64)


def _load_features_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FEATURE_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        n, d = struct.unpack("<QQ", fh.read(16))
        payload = fh.read()
    expected = n * d * 4
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload holds {len(payload)} bytes, header implies {expected}"
        )
    return (
        np.frombuffer(payload, dtype="<f4").reshape(n, d).astype(np.float64)
    )


def load_features(path) -> np.ndarray:
    """Load features from CSV or the packed binary container (sniffed)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == FEATURE_MAGIC:
        return _load_features_binary(path)
    return _load_features_csv(path)


# -------------------------------------------------------------------- labels


def load_labels(path, n: int):
    """Read one label token per node line; '' and '-' mean unlabeled.

    Tokens are remapped to contiguous ids 0..C-1 (numeric sort when every
    token parses as an integer, lexicographic otherwise).  Returns
    (labels int array with -1 for unlabeled, token -> id map).
    """
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if lines and lines[0].strip().lower() == "label":
        lines = lines[1:]
    for line in lines:
        tokens.append(line.strip())
    if len(tokens) != n:
        raise ValueError(f"label rows {len(tokens)} != feature rows {n}")
    seen = sorted({t for t in tokens if t not in ("", "-")})
    if seen and all(_is_int(t) for t in seen):
        seen.sort(key=int)
    label_map = {t: i for i, t in enumerate(seen)}
    y = np.array([label_map.get(t, -1) for t in tokens], dtype=np.int64)
    return y, label_map


def _is_int(token: str) -> bool:
    try:
        int(token)
        return True
    except ValueError:
        return False


def save_labels(path, y) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label\n")
        for v in np.asarray(y):
            fh.write(("-" if v < 0 else str(int(v))) + "\n")


# ------------------------------------------------------------------- bundles


@dataclass(frozen=True)
class DatasetBundle:
    graph: object
    X: np.ndarray
    y: np.ndarray
    name: str
    label_map: dict


def load_dataset(edges_path, features_path, labels_path=None, name=None, quiet=False) -> DatasetBundle:
    """Validated bundle from the three on-disk pieces.

    The feature matrix defines the node count; edge endpoints and label
    rows are checked against it with line-numbered errors.
    """
    X = load_features(features_path)
    n = X.shape[0]
    pairs = load_edge_list(edges_path, n_nodes=n)
    g = build_graph(n, pairs)
    if labels_path is not None:
        y, label_map = load_labels(labels_path, n)
    else:
        y, label_map = np.full(n, -1, dtype=np.int64), {}
    name = name or os.path.splitext(os.path.basename(features_path))[0]
    n_classes = len(label_map)
    if not quiet:
        print(
            f"{name}: n={n} d={X.shape[1]} edges={g.n_edges} "
            f"classes={n_classes} labeled={int(np.sum(y >= 0))}"
        )
    return DatasetBundle(graph=g, X=X, y=y, name=name, label_map=label_map)


# ---------------------------------------------------------------- run config


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run besides the input files."""

    name: str = "dataset"
    split: SplitSpec = field(default_factory=SplitSpec)
    repeats: int = 10
    grids: SearchGrids = field(default_factory=SearchGrids)
    active_blocks: tuple = BLOCK_NAMES
    fisher_mode: str = "train"
    snapshots: str = "first"  # none | first | all

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "split": dataclasses.asdict(self.split),
            "repeats": self.repeats,
            "grids": dataclasses.asdict(self.grids),
            "active_blocks": list(self.active_blocks),
            "fisher_mode": self.fisher_mode,
            "snapshots": self.snapshots,
            "conventions": conventions(),
        }


def config_hash(config: RunConfig) -> str:
    """The run-configuration hash every report's provenance stamp carries."""
    blob = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def report_meta(config_hash: str, split_mode: str) -> dict:
    """The audit fields every emitted file carries; ``config_hash`` is
    ``config_hash(RunConfig)`` of the run that produced the report."""
    return dict(
        conventions(split_mode), config_hash=config_hash, code_version=PACKAGE_VERSION
    )


def meta_line(meta: dict) -> str:
    """The '# k=v ...' first line of every report CSV."""
    return "# " + " ".join(f"{k}={meta[k]}" for k in sorted(meta))


def jsonable(obj):
    """Recursively convert to JSON-safe values; non-finite floats become
    strings so files stay strictly parseable."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(dataclasses.asdict(obj))
    return obj


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_edge_provenance(path, info: dict) -> None:
    """Sidecar for a processed edge list: method, parameters, counts."""
    write_json(path, dict(info, format_version=FORMAT_VERSION))


# ----------------------------------------------------------------- snapshots


def save_snapshot(path, scaffold: FittedScaffold, extra=None) -> None:
    """Persist a fitted scaffold as self-describing JSON.

    Holds the selected coordinates with their scores, per-class centers
    and bases, dual ridge weights, the standardizers, and the training
    indices the dual form needs; rebuilding the dictionary from the
    dataset at load time supplies the rest.
    """
    sel = scaffold.selection
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "fitted-scaffold",
        "code_version": PACKAGE_VERSION,
        "config": scaffold.config.to_dict(),
        "selected": scaffold.selection.selected.tolist(),
        "q_selected": sel.scores[sel.selected].tolist(),
        "n_coordinates": int(sel.scores.shape[0]),
        "classes": scaffold.classes.tolist(),
        "subspaces": [
            {
                "label": int(s.label),
                "center": s.center.tolist(),
                "basis": s.basis.tolist(),
                "r": int(s.r),
                "energy_fraction": float(s.energy_fraction),
                "n_members": int(s.n_members),
            }
            for s in scaffold.subspaces
        ],
        "ridge": {
            "alphas": list(scaffold.ridge.alphas),
            "sigmas": list(scaffold.ridge.sigmas),
            "betas": [b.tolist() for b in scaffold.ridge.betas],
        },
        "sigma_pca": scaffold.sigma_pca,
        "sigma_ridge": scaffold.sigma_ridge,
        "train_idx": scaffold.train_idx.tolist(),
        "epsilon": scaffold.epsilon,
        "std_mode": STD_MODE,
    }
    if extra:
        payload["extra"] = extra
    write_json(path, payload)


def load_snapshot(path, g, X) -> FittedScaffold:
    """Rebuild a predict-ready scaffold from a snapshot plus its dataset."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("kind") != "fitted-scaffold":
        raise ValueError(f"{path}: not a scaffold snapshot")
    if payload["format_version"] > FORMAT_VERSION:
        raise ValueError(
            f"{path}: format version {payload['format_version']} is newer "
            f"than supported {FORMAT_VERSION}"
        )
    config = HyperConfig.from_dict(payload["config"])
    dictionary = build_dictionary(g, X, config.active_blocks)
    if dictionary.p != payload["n_coordinates"]:
        raise ValueError(
            f"{path}: dictionary has {dictionary.p} coordinates, snapshot "
            f"was built over {payload['n_coordinates']}"
        )
    selected = np.asarray(payload["selected"], dtype=np.int64)
    scores = np.zeros(dictionary.p)
    scores[selected] = np.asarray(payload["q_selected"])
    selection = FisherSelection(
        scores=scores,
        selected=selected,
        k_requested=config.k,
        k_eff=int(selected.shape[0]),
        epsilon=float(payload["epsilon"]),
    )
    F, blocks = restrict(dictionary, selected)
    train_idx = np.asarray(payload["train_idx"], dtype=np.int64)
    subspaces = [
        ClassSubspace(
            label=int(s["label"]),
            center=np.asarray(s["center"]),
            basis=np.asarray(s["basis"]).reshape(len(s["center"]), int(s["r"])),
            r=int(s["r"]),
            energy_fraction=float(s["energy_fraction"]),
            n_members=int(s["n_members"]),
        )
        for s in payload["subspaces"]
    ]
    ridge = RidgeModel(
        alphas=tuple(payload["ridge"]["alphas"]),
        betas=tuple(np.asarray(b) for b in payload["ridge"]["betas"]),
        sigmas=tuple(payload["ridge"]["sigmas"]),
        F_tr=F[train_idx],
        epsilon=float(payload["epsilon"]),
    )
    return FittedScaffold(
        config=config,
        selection=selection,
        selected_blocks=blocks,
        subspaces=subspaces,
        ridge=ridge,
        sigma_pca=float(payload["sigma_pca"]),
        sigma_ridge=float(payload["sigma_ridge"]),
        classes=np.asarray(payload["classes"], dtype=np.int64),
        train_idx=train_idx,
        F=F,
        epsilon=float(payload["epsilon"]),
    )
