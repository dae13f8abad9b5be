import re
import shlex
from pathlib import Path

from graphsig.cli import main
from graphsig.graph import save_edge_list
from graphsig.io import save_features_csv, save_labels
from graphsig.synth import make_sbm_dataset

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md quick start", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("{'accuracies': [")
    assert out[-1].startswith("{'raw': ")


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    (block,) = [b for b in blocks if "graphsig run " in b]
    lines = re.sub(r"\\\n\s*", " ", block).splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("graphsig ")]
    assert len(commands) == 8

    g, X, y = make_sbm_dataset(n_per_class=60, n_classes=2, d=6, seed=0)
    save_edge_list(str(tmp_path / "edges.csv"), g.edges)
    save_features_csv(str(tmp_path / "X.csv"), X)
    save_labels(str(tmp_path / "y.csv"), y)
    monkeypatch.chdir(tmp_path)
    data = ["--edges", "edges.csv", "--features", "X.csv", "--labels", "y.csv"]
    # the two runs the `paired --a/--b` line compares
    assert main(["run", *data, "--repeats", "2", "--out", "runs/a"]) == 0
    assert main(["run", *data, "--repeats", "2", "--blocks", "X", "--out", "runs/b"]) == 0
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    assert capsys.readouterr().err == ""
