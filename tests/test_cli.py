from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import hermspec
from hermspec.catalog import load_builtin, serialize_catalog
from hermspec.cli import main
from hermspec.graphs import build, coalescence, complete_graph, make_knst, path_graph
from hermspec.mgfile import serialize_mgfile
from hermspec.switching import random_switch


def _write(tmp_path: Path, name: str, m) -> str:
    p = tmp_path / name
    p.write_text(serialize_mgfile(m), encoding="utf-8")
    return str(p)


def test_spectrum_output(tmp_path, capsys):
    f = _write(tmp_path, "p4.mg", path_graph(4))
    assert main(["spectrum", f]) == 0
    out = capsys.readouterr().out
    assert "n: 4" in out
    assert "char poly: x^4 - 3x^2 + 1" in out
    assert "lambda_min: -1.6180339887" in out
    assert "vs -(1+sqrt5)/2: Equal" in out
    assert "vs -sqrt(2): Less" in out


def test_spectrum_output_is_pinned(tmp_path, capsys):
    two = _write(tmp_path, "two.mg", coalescence(make_knst(2, 4), 1, make_knst(3, 1), 2))
    assert main(["spectrum", two]) == 0
    assert capsys.readouterr().out == (
        "n: 9\nedges: 21\neigenvalues: 5.1801400330 2.5111277438 -1.0000000000"
        " -1.0000000000 -1.0000000000 -1.0000000000 -1.0000000000 -1.0000000000"
        " -1.6912677768\nchar poly: x^9 - 21x^7 - 48x^6 + 27x^5 + 246x^4 + 405x^3"
        " + 324x^2 + 132x + 22\nlambda_min: -1.6912677768\nvs -sqrt(2): Less\n"
        "vs -sqrt(3): Greater\nvs -(1+sqrt5)/2: Less\n"
    )
    edges = [(0, 1, "arc"), (1, 2, "undirected"), (2, 3, "arc"), (3, 4, "arc"),
             (4, 0, "undirected"), (0, 2, "arc")]
    mixed = _write(tmp_path, "mixed.mg", build(5, edges))
    assert main(["spectrum", mixed]) == 0
    assert capsys.readouterr().out == (
        "n: 5\nedges: 6\neigenvalues: 2.3721301336 1.0846405619 -0.3325709475"
        " -1.2414458453 -1.8827539028\nchar poly: x^5 - 6x^3 - 2x^2 + 6x + 2\n"
        "lambda_min: -1.8827539028\nvs -sqrt(2): Less\nvs -sqrt(3): Less\n"
        "vs -(1+sqrt5)/2: Less\n"
    )


#: Run in a fresh interpreter, since sys.modules is shared by the whole process.
_WITHOUT_NUMPY = """\
import sys
import hermspec
from hermspec.cli import main

hermspec.load_builtin()
*graphs, a, b = sys.argv[1:]
for f in graphs:
    print(main(["classify", f]))
print(main(["equiv", a, b]))
print("numpy" in sys.modules)
"""


def test_accepts_threshold_rejects_and_equiv_never_import_numpy(tmp_path):
    rng = random.Random(23)
    record = load_builtin().records[0]
    h1, _ = random_switch(record.graph(), rng, steps=record.graph().n)
    graphs = {
        "h1": h1,
        "h2": coalescence(make_knst(1, 2), 0, make_knst(2, 1), 1),
        "h3": make_knst(4, 3),
        "h4": coalescence(make_knst(2, 3), 0, complete_graph(2), 0),
        "threshold": coalescence(make_knst(2, 4), 1, make_knst(3, 1), 2),
        "k23": make_knst(2, 3),
        "k5": complete_graph(5),
    }
    files = [_write(tmp_path, f"{name}.mg", g) for name, g in graphs.items()]
    src = str(Path(hermspec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, *files],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.splitlines() == [
        f"accept H1 catalog={record.rec_id}", "0",
        "accept H2 cut=0 s=2 t=2", "0",
        "accept H3 s=4 t=3", "0",
        "accept H4 cut=0 s=4 t=1", "0",
        "reject: induced two-cliques at (0,1,2,3,4,5,6,7,8), exact Less,"
        " lambda_min -1.6912677768", "1",
        "diagonal: 1 1 i i i", "0",
        "False",
    ]


def test_spectrum_of_empty_graph_is_an_input_error(tmp_path, capsys):
    empty = tmp_path / "empty.mg"
    empty.write_text("mixedgraph 0\n", encoding="utf-8")
    assert main(["spectrum", str(empty)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: empty graph has no smallest eigenvalue\n"


def test_classify_exit_codes(tmp_path, capsys):
    accept = _write(tmp_path, "k43.mg", make_knst(4, 3))
    assert main(["classify", accept]) == 0
    assert capsys.readouterr().out.strip() == "accept H3 s=4 t=3"
    reject = _write(tmp_path, "p4.mg", path_graph(4))
    assert main(["classify", reject]) == 1
    out = capsys.readouterr().out
    assert out.startswith("reject: induced P_4")


def test_equiv(tmp_path, capsys):
    a = _write(tmp_path, "k53.mg", make_knst(2, 3))
    b = _write(tmp_path, "k5.mg", complete_graph(5))
    assert main(["equiv", a, b]) == 0
    assert capsys.readouterr().out.strip() == "diagonal: 1 1 i i i"
    c = _write(tmp_path, "p4.mg", path_graph(4))
    assert main(["equiv", a, c]) == 1
    assert "different vertex counts" in capsys.readouterr().out
    # Same underlying triangle but holonomy i: inequivalent at equal size.
    k3 = _write(tmp_path, "k3.mg", complete_graph(3))
    spun = tmp_path / "spun.mg"
    spun.write_text("mixedgraph 3\n0 -> 1\n1 -- 2\n0 -- 2\n", encoding="utf-8")
    assert main(["equiv", k3, str(spun)]) == 1
    assert capsys.readouterr().out.strip() == "not equivalent"


def test_cli_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.mg"
    bad.write_text("", encoding="utf-8")
    assert main(["classify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1:")
    assert main(["classify", str(tmp_path / "missing.mg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_disconnected(tmp_path, capsys):
    f = tmp_path / "two.mg"
    f.write_text("mixedgraph 4\n0 -- 1\n2 -- 3\n", encoding="utf-8")
    assert main(["classify", str(f)]) == 2
    assert "connected" in capsys.readouterr().err


def test_verify_command(tmp_path, capsys):
    report_file = tmp_path / "report.txt"
    assert main(["verify", "--nmax", "3", "--out", str(report_file)]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "result: PASS" in report_file.read_text(encoding="utf-8")


def test_verify_rejects_negative_sample(capsys):
    assert main(["verify", "--nmax", "6", "--sample", "-5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: sample must be nonnegative\n"


def test_catalog_command(tmp_path, capsys):
    out_file = tmp_path / "cat.txt"
    assert main(["catalog", "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert out_file.read_text(encoding="utf-8") == serialize_catalog(load_builtin())
