"""The model's symmetries, pinned as hypothesis properties."""

import json
import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsig
from graphsig.cli import main
from graphsig.dictionary import BLOCK_NAMES, build_dictionary
from graphsig.graph import build_graph, save_edge_list
from graphsig.io import save_features_csv, save_labels
from graphsig.scaffold import SearchGrids, SplitSpec, evaluate_repeats
from graphsig.synth import make_sbm_dataset

# 3 K levels x 2 rank caps x 2 energy thresholds x 2 alpha sets x 2 weights
GRID = SearchGrids(
    ks=(12, 48, 96), r_maxs=(2, 6), etas=(0.9, 0.99),
    alpha_sets=((0.1, 1.0), (1.0, 10.0)), ws=(0.3, 0.7),
)
SPLIT = SplitSpec(train_per_class=10, val_per_class=10)
RUN_FLAGS = [
    "--grid-k", "12,48,96", "--grid-rmax", "2,6", "--grid-eta", "0.9,0.99",
    "--grid-alphas", "0.1,1;1,10", "--grid-w", "0.3,0.7",
    "--train-per-class", "10", "--val-per-class", "10",
]


@st.composite
def sbm_fixtures(draw):
    """A homophilic or heterophilic SBM graph of 2-4 classes of 30 nodes."""
    homophilic = draw(st.booleans(), label="homophilic")
    return make_sbm_dataset(
        n_per_class=30,
        n_classes=draw(st.integers(2, 4), label="classes"),
        p_within=0.12 if homophilic else 0.02,
        p_between=0.02 if homophilic else 0.12,
        d=draw(st.integers(4, 12), label="d"),
        shift=1.0,
        seed=draw(st.integers(0, 2**16), label="seed"),
    )


def outcomes(g, X, y):
    return evaluate_repeats(g, X, y, SPLIT, n_repeats=2, grids=GRID)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_an_appended_isolated_node_leaves_every_other_dictionary_row_unchanged(data):
    # the new node has no edges and no label: its operator rows are zero,
    # so no other node's powers, hop reads or row scales can see it
    n = data.draw(st.integers(1, 12), label="n")
    d = data.draw(st.integers(1, 4), label="d")
    names = tuple(data.draw(st.sets(st.sampled_from(BLOCK_NAMES), min_size=1), label="blocks"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    # edges may repeat or be self-loops
    pairs = rng.integers(0, n, size=(data.draw(st.integers(0, 3 * n), label="edges"), 2))
    X = rng.standard_normal((n, d))
    X[data.draw(st.lists(st.integers(0, n - 1), max_size=n), label="zero rows")] = 0.0
    new = np.zeros((1, d)) if data.draw(st.booleans(), label="zero new row") else rng.random((1, d))

    D = build_dictionary(build_graph(n, pairs), X, names)
    grown = build_dictionary(build_graph(n + 1, pairs), np.vstack([X, new]), names)
    assert grown.F0[:n].tobytes() == D.F0.tobytes()
    assert grown.scale[:n].tobytes() == D.scale.tobytes()
    rows = np.arange(n)[::-1]
    assert grown.gather(rows, np.arange(D.p)).tobytes() == D.F0[rows].tobytes()


@settings(max_examples=50, deadline=None, derandomize=True)
@given(fixture=sbm_fixtures(), k=st.integers(-6, 6))
def test_scaling_features_by_a_power_of_two_keeps_every_byte(fixture, k):
    # 2^k scales every power, difference and row norm exactly, so the
    # row-normalized dictionary is the same matrix
    g, X, y = fixture
    for o, scaled in zip(outcomes(g, X, y), outcomes(g, 2.0**k * X, y), strict=True):
        assert scaled.scaffold.dictionary.F0.tobytes() == o.scaffold.dictionary.F0.tobytes()
        assert scaled.config == o.config
        assert scaled.val_accuracy == o.val_accuracy
        assert np.array_equal(scaled.test, o.test)
        for a, b in zip(scaled.test_scores, o.test_scores, strict=True):
            assert a.tobytes() == b.tobytes()


@settings(max_examples=50, deadline=None, derandomize=True)
@given(fixture=sbm_fixtures(), c=st.floats(0.1, 10.0))
def test_scaling_features_by_a_positive_constant_keeps_the_decisions(fixture, c):
    # off a power of 2 the row norms round differently, so the scores
    # agree to rounding: 1.3e-13 at most over these examples
    g, X, y = fixture
    for o, scaled in zip(outcomes(g, X, y), outcomes(g, c * X, y), strict=True):
        assert scaled.config == o.config
        assert np.array_equal(scaled.test_scores[0], o.test_scores[0])
        for a, b in zip(scaled.test_scores[1:], o.test_scores[1:], strict=True):
            assert np.max(np.abs(a - b)) <= 1e-9


@settings(max_examples=50, deadline=None, derandomize=True)
@given(fixture=sbm_fixtures(), zero=st.booleans())
def test_an_appended_isolated_unlabeled_node_leaves_every_outcome_unchanged(fixture, zero):
    # no split draws the unlabeled node and no operator row reaches it,
    # so the search and the test scores never see it
    g, X, y = fixture
    new = np.zeros((1, X.shape[1])) if zero else np.ones((1, X.shape[1]))
    grown = outcomes(build_graph(g.n + 1, g.edges), np.vstack([X, new]), np.append(y, -1))
    for o, o_grown in zip(outcomes(g, X, y), grown, strict=True):
        assert o_grown.config == o.config
        assert o_grown.val_accuracy == o.val_accuracy
        assert np.array_equal(o_grown.test, o.test)
        for a, b in zip(o_grown.test_scores, o.test_scores, strict=True):
            assert a.tobytes() == b.tobytes()


def edge_file_text(edges, n, rng, flips, duplicates, loops, comments, header):
    """``edges`` in another form: shuffled, some pairs reversed, some
    repeated, self-loops, '#' comments and blank lines, and maybe a
    header after them."""
    pairs = [(v, u) if rng.random() < flips else (u, v) for u, v in edges.tolist()]
    pairs += [pairs[i][::-1] for i in rng.integers(0, len(pairs), size=duplicates)]
    pairs += [(i, i) for i in rng.integers(0, n, size=loops)]
    lines = [f"{u},{v}" for u, v in (pairs[i] for i in rng.permutation(len(pairs)))]
    for at in rng.integers(0, len(lines) + 1, size=comments):
        lines.insert(int(at), "# a comment" if rng.random() < 0.5 else "")
    return "\n".join((["# edges", "src,dst"] if header else []) + lines) + "\n"


def output_files(out):
    return {
        os.path.relpath(os.path.join(root, name), out): os.path.join(root, name)
        for root, _, names in os.walk(out)
        for name in names
        if name != "timing.json"  # wall-clock seconds
    }


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    flips=st.floats(0.0, 1.0),
    duplicates=st.integers(0, 40),
    loops=st.integers(0, 10),
    comments=st.integers(0, 10),
    header=st.booleans(),
)
def test_the_edge_list_form_leaves_every_run_output_byte_unchanged(
    tmp_path_factory, seed, flips, duplicates, loops, comments, header
):
    root = tmp_path_factory.mktemp("form")
    g, X, y = make_sbm_dataset(n_per_class=30, n_classes=3, p_within=0.12, p_between=0.02, d=6, seed=5)
    save_features_csv(root / "features.csv", X)
    save_labels(root / "labels.csv", y)
    save_edge_list(root / "edges.csv", g.edges)
    rng = np.random.default_rng(seed)
    text = edge_file_text(g.edges, g.n, rng, flips, duplicates, loops, comments, header)
    (root / "other.csv").write_text(text)
    outs = []
    for edges in ("edges.csv", "other.csv"):
        out = root / f"out-{edges}"
        argv = ["run", "--edges", str(root / edges), "--features", str(root / "features.csv"),
                "--labels", str(root / "labels.csv"), "--out", str(out), "--repeats", "2",
                *RUN_FLAGS]
        assert main(argv) == 0
        outs.append(output_files(out))
    assert sorted(outs[0]) == sorted(outs[1])
    assert len(outs[0]) >= 10
    for rel, path in outs[0].items():
        with open(path, "rb") as a, open(outs[1][rel], "rb") as b:
            assert a.read() == b.read(), rel


THREADS_SCRIPT = """
import os, sys
import graphsig.cli
# graphsig maps GRAPHSIG_NUM_THREADS onto the BLAS settings before numpy loads
assert os.environ["OPENBLAS_NUM_THREADS"] == os.environ["GRAPHSIG_NUM_THREADS"]
sys.exit(graphsig.cli.main(sys.argv[1:]))
"""


def test_blas_threads_leave_the_configs_and_accuracies_unchanged(tmp_path):
    g, X, y = make_sbm_dataset(n_per_class=60, n_classes=3, p_within=0.08, p_between=0.02, d=16, seed=9)
    save_features_csv(tmp_path / "features.csv", X)
    save_labels(tmp_path / "labels.csv", y)
    save_edge_list(tmp_path / "edges.csv", g.edges)
    src = os.path.dirname(os.path.dirname(os.path.abspath(graphsig.__file__)))
    # no inherited BLAS setting: only GRAPHSIG_NUM_THREADS differs between the runs
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    picked = []
    for threads in ("1", "2"):
        out = tmp_path / f"out-{threads}"
        argv = ["run", "--edges", str(tmp_path / "edges.csv"),
                "--features", str(tmp_path / "features.csv"), "--labels", str(tmp_path / "labels.csv"),
                "--out", str(out), "--repeats", "3", "--snapshots", "none", *RUN_FLAGS]
        subprocess.run(
            [sys.executable, "-c", THREADS_SCRIPT, *argv],
            env=dict(env, GRAPHSIG_NUM_THREADS=threads), capture_output=True, check=True,
        )
        with open(out / "results.json") as fh:
            picked.append([
                (r["selected_config"], r["val_accuracy"], r["test_accuracy"])
                for r in json.load(fh)["repeats"]
            ])
    assert picked[0] == picked[1]


def test_graphsig_num_threads_overrides_a_blas_setting_already_set():
    src = os.path.dirname(os.path.dirname(os.path.abspath(graphsig.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = "2"
    code = "import os, graphsig; print(os.environ['OPENBLAS_NUM_THREADS'])"
    for graphsig_threads, want in (("1", "1"), (None, "2")):  # unset: nothing is touched
        run_env = env if graphsig_threads is None else dict(env, GRAPHSIG_NUM_THREADS=graphsig_threads)
        out = subprocess.run(
            [sys.executable, "-c", code], env=run_env, capture_output=True, text=True, check=True
        ).stdout
        assert out.split() == [want]
