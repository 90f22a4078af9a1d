from __future__ import annotations

from pathlib import Path

from hermspec.catalog import load_builtin, serialize_catalog
from hermspec.cli import main
from hermspec.graphs import complete_graph, make_knst, path_graph
from hermspec.mgfile import serialize_mgfile


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
