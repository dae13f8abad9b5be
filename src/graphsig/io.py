"""Dataset ingestion, fitted-scaffold snapshots, and report plumbing.

Input formats are deliberately plain: an edge list ('src,dst' per
line), a feature CSV with an optional header row, and a label file with one
entry per node where empty lines or '-' mark unlabeled nodes.  Large
feature matrices may instead use a packed binary container (magic
header, row/column counts, row-major little-endian float32 payload).
Labels of any integer or string alphabet are remapped to contiguous
class ids with the map kept alongside.

A snapshot file records what a fit read besides the dataset itself: the
configuration, the train and Fisher rows and their labels.  Loading it
refits the scaffold on (graph, features), which on the same build gives
the saved scaffold bit for bit.
"""

import csv
import dataclasses
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .conventions import PACKAGE_VERSION, conventions
from .dictionary import BLOCK_NAMES, block_by_name
from .graph import build_graph, load_edge_list, node_ids
from .scaffold import FittedScaffold, HyperConfig, SearchGrids, SplitSpec, fit

FEATURE_MAGIC = b"GSF1"
SNAPSHOT_VERSION = 2


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


def save_features_csv(path, X) -> None:
    X = np.asarray(X, dtype=np.float64)
    write_csv(path, [f"f{j}" for j in range(X.shape[1])], X)


def _load_features_csv(path) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
        if not first:
            raise ValueError(
                f"{path}:1: empty first line, expected a header or a feature row"
            )
        d = len(first.split(","))
        for lineno, line in enumerate(chain([first], fh), start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != d:
                raise ValueError(
                    f"{path}:{lineno}: expected {d} columns, got {len(parts)}"
                )
            try:
                row = [float(p) for p in parts]
            except ValueError:
                if lineno == 1:  # the optional header: a line of numbers is a row
                    continue
                raise ValueError(
                    f"{path}:{lineno}: non-numeric feature value in {line!r}"
                ) from None
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}:{lineno}: non-finite feature value in {line!r}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no feature rows")
    return np.asarray(rows, dtype=np.float64)


def load_features(path) -> np.ndarray:
    """Load features from CSV or the packed binary container (sniffed);
    every entry must be finite."""
    with open(path, "rb") as fh:
        binary = fh.read(4) == FEATURE_MAGIC
        if binary:
            n, d = struct.unpack("<QQ", fh.read(16))
            if d == 0:
                raise ValueError(f"{path}: header declares 0 feature columns")
            payload = fh.read()
    if not binary:
        return _load_features_csv(path)
    expected = n * d * 4
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload holds {len(payload)} bytes, header implies {expected}"
        )
    X = np.frombuffer(payload, dtype="<f4").reshape(n, d).astype(np.float64)
    # a float64 sum of float32 values cannot overflow, so it is finite
    # exactly when every entry is, and it needs no n x d temporary
    if not np.isfinite(X.sum()):
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"{path}: non-finite feature value at row {row}, column {col}")
    return X


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
        """Every field, nested ones as dicts and tuples as lists, and the
        conventions block: what ``config_hash`` hashes."""
        return dict(jsonable(dataclasses.asdict(self)), conventions=conventions())


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


def _cell(v):
    if isinstance(v, float):
        return f"{v:.10g}" if math.isfinite(v) else ""
    return v  # csv writes None as an empty field


def _format_column(cells):
    """One column's fields as ``_cell`` gives them, in one pass over a
    column of floats and Nones."""
    kinds = set(map(type, cells))
    floats = {k for k in kinds if issubclass(k, float)}
    if not floats:
        return cells  # nothing to format; csv writes None as an empty field
    if kinds - floats - {type(None)}:
        return [_cell(v) for v in cells]  # floats mixed with ints or strings
    values = np.array(cells, dtype=np.float64)  # None reads as nan
    fields = list(map("{:.10g}".format, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        fields[i] = ""
    return fields


def write_csv(path, header, rows, meta=None) -> None:
    """The one CSV writer: the '# k=v' meta line (when given), the header,
    then the rows.  Floats print as %.10g; None and non-finite floats are
    empty fields; every line ends in LF.  Each row must have one field
    per header name, since the fields are formatted column by column."""
    rows = list(rows)
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {i} has {len(row)} fields, the header {len(header)}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if meta:
            fh.write("# " + " ".join(f"{k}={meta[k]}" for k in sorted(meta)) + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(zip(*map(_format_column, zip(*rows))))


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
    return obj


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------- snapshots


def save_snapshot(path, scaffold: FittedScaffold, extra=None) -> None:
    """Persist what a fitted scaffold read, as self-describing JSON.

    Holds the configuration, the train and Fisher rows, their labels
    (every other node's label is -1, so no test label is stored) and the
    dictionary width; no fitted value is written, because the fit is a
    deterministic function of these and the dataset.
    """
    payload = {
        "format_version": SNAPSHOT_VERSION,
        "kind": "fitted-scaffold",
        "code_version": PACKAGE_VERSION,
        "config": scaffold.config.to_dict(),
        "train_idx": scaffold.train_idx.tolist(),
        "fisher_idx": scaffold.fisher_idx.tolist(),
        "labels": scaffold.labels.tolist(),
        "n_coordinates": scaffold.dictionary.p,
        "conventions": conventions(),
    }
    if extra:
        payload["extra"] = extra
    write_json(path, payload)


# each config field's JSON type, in HyperConfig order; a bool's type is bool, not int
_CONFIG_TYPES = (
    ("k", "an integer", lambda v: type(v) is int),
    ("r_max", "an integer", lambda v: type(v) is int),
    ("eta", "a number", lambda v: type(v) in (int, float)),
    ("alphas", "a list of numbers",
     lambda v: type(v) is list and all(type(a) in (int, float) for a in v)),
    ("w", "a number", lambda v: type(v) in (int, float)),
    ("active_blocks", "a list of strings",
     lambda v: type(v) is list and all(type(b) is str for b in v)),
)


def load_snapshot(path, g, X) -> tuple:
    """Refit the scaffold a snapshot records on its dataset (g, X).

    Returns (scaffold, extra).  The scaffold is ``fit`` on the recorded
    inputs, so on the same build it equals the scaffold that was saved,
    bit for bit; ``extra`` is the snapshot's ``extra`` dict (empty when
    absent), so callers need not parse the file again.  A file that is
    not a snapshot object, lacks a key or config field, holds a config
    that is not an object, a config field of another JSON type or an
    unknown block, or labels that are not integers, or whose train or
    Fisher rows fail ``graph.node_ids`` with its labels fails, naming
    ``path``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("kind") != "fitted-scaffold":
        raise ValueError(f"{path}: not a scaffold snapshot")
    version = payload.get("format_version", 0)
    if version > SNAPSHOT_VERSION:
        raise ValueError(
            f"{path}: format version {version} is newer than supported {SNAPSHOT_VERSION}"
        )
    if version < SNAPSHOT_VERSION:
        raise ValueError(
            f"{path}: format version {version} is older than supported "
            f"{SNAPSHOT_VERSION}: re-run `graphsig run`"
        )
    try:
        config = payload["config"]
        if not isinstance(config, dict):
            raise ValueError(f"{path}: config must be an object, got {type(config).__name__}")
        for key, kind, fits in _CONFIG_TYPES:
            if not fits(value := config[key]):
                raise ValueError(f"{path}: config {key} must be {kind}, got {json.dumps(value)}")
        config = HyperConfig.from_dict(config)
        keys = ("labels", "train_idx", "fisher_idx", "n_coordinates")
        labels, train_idx, fisher_idx, width = (payload[key] for key in keys)
    except KeyError as err:
        raise ValueError(f"{path}: snapshot lacks {err}") from None
    try:
        for name in config.active_blocks:
            block_by_name(name)
    except KeyError as err:
        raise ValueError(f"{path}: {err.args[0]}") from None
    labels = np.asarray(labels)
    if labels.size and labels.dtype.kind not in "iu":
        raise ValueError(f"{path}: labels must be integers, got dtype {labels.dtype}")
    labels = labels.astype(np.int64, copy=False)
    train_idx = node_ids(train_idx, g.n, f"{path}: train_idx", labels)
    fisher_idx = node_ids(fisher_idx, g.n, f"{path}: fisher_idx", labels)
    scaffold = fit(g, X, labels, train_idx, config, fisher_idx=fisher_idx)
    if scaffold.dictionary.p != width:
        raise ValueError(
            f"{path}: dictionary has {scaffold.dictionary.p} coordinates, snapshot "
            f"was built over {width}"
        )
    return scaffold, payload.get("extra", {})
