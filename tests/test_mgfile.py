from __future__ import annotations

import random

import pytest

from hermspec.graphs import EdgeKind, build, make_knst
from hermspec.mgfile import MgParseError, parse_mgfile, serialize_mgfile


def test_parse_basic():
    text = """\
# a triangle with one arc
mixedgraph 3
0 -- 1
1 -> 2   # trailing comment
0 -- 2
"""
    m = parse_mgfile(text)
    assert m.n == 3
    assert m.kind(0, 1) == EdgeKind.UNDIRECTED
    assert m.kind(1, 2) == EdgeKind.ARC_OUT
    assert m.kind(2, 0) == EdgeKind.UNDIRECTED


def test_parse_arc_direction_is_tail_to_head():
    m = parse_mgfile("mixedgraph 2\n1 -> 0\n")
    assert m.kind(1, 0) == EdgeKind.ARC_OUT
    assert m.kind(0, 1) == EdgeKind.ARC_IN


def test_serialize_canonical_form():
    m = build(4, [(2, 0, "arc"), (0, 1, "undirected"), (3, 1, "arc")])
    assert serialize_mgfile(m) == "mixedgraph 4\n0 -- 1\n2 -> 0\n3 -> 1\n"


def test_round_trip_random():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randrange(0, 8)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                k = rng.choice([None, "undirected", "arc"])
                if k:
                    edges.append((u, v, k))
        m = build(n, edges)
        assert parse_mgfile(serialize_mgfile(m)) == m
    assert parse_mgfile(serialize_mgfile(make_knst(3, 4))) == make_knst(3, 4)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(MgParseError) as err:
        parse_mgfile("")
    assert err.value.line == 1 and "missing" in str(err.value)

    with pytest.raises(MgParseError) as err:
        parse_mgfile("graph 3\n")
    assert err.value.line == 1

    with pytest.raises(MgParseError) as err:
        parse_mgfile("mixedgraph x\n")
    assert "bad vertex count" in str(err.value)

    with pytest.raises(MgParseError) as err:
        parse_mgfile("mixedgraph 3\n\n0 -- 1\n0 => 2\n")
    assert err.value.line == 4

    with pytest.raises(MgParseError) as err:
        parse_mgfile("mixedgraph 2\n0 -- 5\n")
    assert "out of range" in str(err.value) and err.value.line == 2

    with pytest.raises(MgParseError) as err:
        parse_mgfile("mixedgraph 2\n1 -- 1\n")
    assert "self-loop" in str(err.value)

    with pytest.raises(MgParseError) as err:
        parse_mgfile("mixedgraph 2\n0 -- 1\n1 -> 0\n")
    assert "duplicate edge" in str(err.value) and "line 2" in str(err.value)

    with pytest.raises(MgParseError):
        parse_mgfile("mixedgraph -1\n")


def test_parse_error_is_a_value_error():
    with pytest.raises(ValueError):
        parse_mgfile("nope\n")


def test_numbers_are_ascii_decimal_digits():
    # int() alone would read each of these as a valid number.
    for count in ("1_2", "+3", "١", "３"):
        with pytest.raises(MgParseError) as err:
            parse_mgfile(f"mixedgraph {count}\n")
        assert "bad vertex count" in str(err.value) and err.value.line == 1
    for edge in ("0 -- +1", "0 -- 1_1", "٠ -- 1", "0 -> १", "0 -- --1", "0 -- " + "1" * 5000):
        with pytest.raises(MgParseError) as err:
            parse_mgfile(f"mixedgraph 12\n{edge}\n")
        assert "bad vertex in" in str(err.value) and err.value.line == 2
    # Negative numbers still reach the range checks.
    with pytest.raises(MgParseError, match="must be nonnegative"):
        parse_mgfile("mixedgraph -1\n")
    with pytest.raises(MgParseError, match="out of range"):
        parse_mgfile("mixedgraph 2\n-1 -- 0\n")
    assert parse_mgfile("mixedgraph 12\n0 -- 11\n").kind(0, 11) == EdgeKind.UNDIRECTED
