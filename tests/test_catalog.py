from __future__ import annotations

import pytest

from hermspec.catalog import (
    SPORADIC_LABELS,
    load_builtin,
    parse_catalog,
    serialize_catalog,
    sporadic_underlying,
)
from hermspec.graphs import decode, underlying_graph
from hermspec.polynomials import IntPolynomial
from hermspec.spectra import char_poly, eigenvalues


def test_labels_and_underlying_shapes():
    assert SPORADIC_LABELS == ("c4", "diamond", "k23-plus-edge", "k24-plus-2edges")
    shapes = sporadic_underlying()
    assert shapes["c4"].n == 4 and shapes["c4"].edge_count() == 4
    assert shapes["diamond"].n == 4 and shapes["diamond"].edge_count() == 5
    assert shapes["k23-plus-edge"].n == 5 and shapes["k23-plus-edge"].edge_count() == 7
    assert (
        shapes["k24-plus-2edges"].n == 6
        and shapes["k24-plus-2edges"].edge_count() == 10
    )


def test_builtin_catalog_contents():
    cat = load_builtin()
    assert cat.version == 1
    assert len(cat.records) == 37
    by_label = {label: cat.by_underlying(label) for label in SPORADIC_LABELS}
    assert [len(by_label[label]) for label in SPORADIC_LABELS] == [3, 9, 14, 11]
    ids = [r.rec_id for r in cat.records]
    assert len(set(ids)) == 37
    assert cat.by_id("c4-01") is not None
    assert cat.by_id("nope") is None
    for row in cat.reconciliation:
        recs = by_label[row.underlying]
        assert row.iso_classes == len(recs)
        assert row.switch_iso_classes == 1
    assert [
        (row.labeled, row.iso_classes, row.converse_classes)
        for row in cat.reconciliation
    ] == [(20, 3, 3), (17, 9, 6), (36, 14, 8), (60, 11, 7)]


def test_records_are_self_consistent():
    cat = load_builtin()
    for record in cat.records:
        m = record.graph()
        assert m.n == record.n
        assert underlying_graph(m) == sporadic_underlying()[record.underlying]
        assert char_poly(m).coeffs == record.char_coeffs
        assert abs(eigenvalues(m).lambda_min - record.lambda_min) < 1e-9


def test_survivor_eigenvalues_take_two_values():
    # Exactly: char polys of the c4 records are divisible by x^2 - 2, all
    # others by x^2 - x - 4, pinning lambda_min to -sqrt2 or (1-sqrt17)/2.
    cat = load_builtin()
    for record in cat.records:
        p = IntPolynomial(record.char_coeffs)
        if record.underlying == "c4":
            p.exact_div(IntPolynomial([-2, 0, 1]))
        else:
            p.exact_div(IntPolynomial([-4, -1, 1]))


def test_round_trip():
    cat = load_builtin()
    text = serialize_catalog(cat)
    assert parse_catalog(text) == cat


def test_parse_rejects_malformed_input():
    with pytest.raises(ValueError, match="missing version"):
        parse_catalog("")
    with pytest.raises(ValueError, match="unknown catalog line"):
        parse_catalog("version 1\nbogus line\n")
    with pytest.raises(ValueError, match="malformed field"):
        parse_catalog("version 1\nrecord r1 underlying\n")
    # A missing token or field names the line instead of leaking an
    # IndexError or KeyError.
    for text, line in [
        ("version\n", "version"),
        ("version 1\nrecord\n", "record"),
        ("version 1\nrecord c4-01 n=4\n", "record c4-01 n=4"),
        ("version 1\ncount c4 labeled=1 iso=1\n", "count c4 labeled=1 iso=1"),
        ("version 1\ntotal records=0\n", "total records=0"),
    ]:
        with pytest.raises(ValueError, match=f"malformed catalog line '{line}'"):
            parse_catalog(text)
    good = serialize_catalog(load_builtin())
    tampered = good.replace("total records=37", "total records=36")
    with pytest.raises(ValueError):
        parse_catalog(tampered)


def test_record_graph_is_decoded_once():
    for record in load_builtin().records:
        g = record.graph()
        assert record.graph() is g
        assert g == decode(record.n, record.encoded)
    # The cached graph is not a field: equality and hashing see only fields.
    fresh = parse_catalog(serialize_catalog(load_builtin())).records[0]
    assert fresh == load_builtin().records[0]
    assert hash(fresh) == hash(load_builtin().records[0])
