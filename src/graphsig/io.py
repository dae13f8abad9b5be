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
from operator import itemgetter

import numpy as np

from .conventions import PACKAGE_VERSION, conventions
from .dictionary import BLOCK_NAMES, canonical_blocks
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
                if lineno == 1 and not any(_parses(float, p) for p in parts):  # the header
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
            header = fh.read(16)
            if len(header) < 16:
                raise ValueError(f"{path}: GSF1 header holds {4 + len(header)} of its 20 bytes")
            n, d = struct.unpack("<QQ", header)
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
        raise ValueError(f"{path}: label rows {len(tokens)} != feature rows {n}")
    seen = sorted({t for t in tokens if t not in ("", "-")})
    if seen and all(_parses(int, t) for t in seen):
        seen.sort(key=int)
    label_map = {t: i for i, t in enumerate(seen)}
    y = np.array([label_map.get(t, -1) for t in tokens], dtype=np.int64)
    return y, label_map


def _parses(cast, token: str) -> bool:
    try:
        cast(token)
        return True
    except ValueError:
        return False


def save_labels(path, y) -> None:
    column = ["-" if v < 0 else v for v in np.asarray(y, dtype=np.int64).tolist()]
    write_csv(path, ["label"], zip(column))


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
    if set(map(len, rows)) - {len(header)}:
        i, row = next((i, row) for i, row in enumerate(rows) if len(row) != len(header))
        raise ValueError(f"{path}: row {i} has {len(row)} fields, the header {len(header)}")
    columns = [list(map(itemgetter(j), rows)) for j in range(len(header))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if meta:
            fh.write("# " + " ".join(f"{k}={meta[k]}" for k in sorted(meta)) + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(zip(*map(_format_column, columns)))


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


def load_snapshot(path, g, X) -> tuple:
    """Refit the scaffold a snapshot records on its dataset (g, X).

    Returns (scaffold, extra).  The scaffold is ``fit`` on the recorded
    inputs, so on the same build it equals the scaffold that was saved,
    bit for bit; ``extra`` is the snapshot's ``extra`` object (empty when
    absent), so callers need not parse the file again.  A file that does
    not fit fails with a ValueError naming ``path``: not JSON, not a
    snapshot object, another format version, a missing key, a config that
    ``HyperConfig.from_dict`` rejects, labels that are not a flat list of
    integers, train or Fisher rows that fail ``graph.node_ids`` with them,
    a width or ``extra`` of another JSON kind, a width that the config's
    blocks over X's columns do not give (checked before the refit), or
    what the refit rejects.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or payload.get("kind") != "fitted-scaffold":
            raise ValueError("not a scaffold snapshot")
        version = payload.get("format_version", 0)
        if type(version) is not int:  # a bool's type is bool, not int
            raise ValueError(f"format_version must be an integer, got {json.dumps(version)}")
        if version > SNAPSHOT_VERSION:
            raise ValueError(f"format version {version} is newer than supported {SNAPSHOT_VERSION}")
        if version < SNAPSHOT_VERSION:
            raise ValueError(
                f"format version {version} is older than supported "
                f"{SNAPSHOT_VERSION}: re-run `graphsig run`"
            )
        try:
            config = HyperConfig.from_dict(payload["config"])
            keys = ("labels", "train_idx", "fisher_idx", "n_coordinates")
            labels, train_idx, fisher_idx, width = (payload[key] for key in keys)
        except KeyError as err:
            raise ValueError(f"snapshot lacks {err}") from None
        if type(labels) is not list or any(type(v) is list for v in labels):
            raise ValueError("labels must be a flat list, one class id per node")
        labels = np.asarray(labels)
        if labels.size and labels.dtype.kind not in "iu":
            raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
        labels = labels.astype(np.int64, copy=False)
        train_idx = node_ids(train_idx, g.n, "train_idx", labels)
        fisher_idx = node_ids(fisher_idx, g.n, "fisher_idx", labels)
        if type(width) is not int:
            raise ValueError(f"n_coordinates must be an integer, got {json.dumps(width)}")
        p = len(canonical_blocks(config.active_blocks)) * X.shape[1]
        if p != width:
            raise ValueError(f"dictionary has {p} coordinates, snapshot was built over {width}")
        extra = payload.get("extra", {})
        if not isinstance(extra, dict):
            raise ValueError(f"extra must be an object, got {type(extra).__name__}")
        scaffold = fit(g, X, labels, train_idx, config, fisher_idx=fisher_idx)
    except ValueError as err:  # a malformed JSON text raises a ValueError too
        raise ValueError(f"{path}: {err}") from None
    return scaffold, extra
