from __future__ import annotations

import random

import pytest

from hermspec import mgfile
from hermspec.graphs import EdgeKind, MixedGraph, build, complete_graph, make_knst
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


# -- the edge-line memo ------------------------------------------------------


def _error(text: str) -> tuple[int, str]:
    with pytest.raises(MgParseError) as err:
        parse_mgfile(text)
    return err.value.line, str(err.value)


def test_repeated_malformed_line_raises_the_same_error_each_time():
    for line in ("0 => 1", "0 -- x", "0 -- 1 2", "0 -- +1", "0 --", "mixedgraph 3"):
        text = f"mixedgraph 3\n{line}\n"
        line_no, message = _error(text)
        assert line_no == 2 and message.startswith("line 2: ")
        assert all(_error(text) == (2, message) for _ in range(3)), line
        # The same line later in a file names its own line number.
        later = _error(f"mixedgraph 3\n0 -- 1\n\n{line}\n")
        assert later == (4, "line 4: " + message.removeprefix("line 2: "))


def test_cached_edge_line_still_meets_the_range_check():
    assert parse_mgfile("mixedgraph 10\n0 -- 7\n7 -> 9\n").kind(7, 9) == EdgeKind.ARC_OUT
    assert _error("mixedgraph 3\n0 -- 7\n") == (2, "line 2: vertex out of range 0..2 in '0 -- 7'")
    assert _error("mixedgraph 3\n0 -- 1\n7 -> 9\n") == (3, "line 3: vertex out of range 0..2 in '7 -> 9'")
    # A line that is a self-loop in one file is out of range in a smaller one.
    assert _error("mixedgraph 10\n4 -- 4\n") == (2, "line 2: self-loop at vertex 4")
    assert _error("mixedgraph 3\n4 -- 4\n") == (2, "line 2: vertex out of range 0..2 in '4 -- 4'")
    for line in ("0 -- 7", "7 -> 9", "4 -- 4"):
        assert mgfile._edge_line(line) == mgfile._edge_line.__wrapped__(line)


def test_duplicate_edge_names_the_first_line():
    text = "# c\nmixedgraph 4\n0 -- 1\n\n2 -> 3   # arc\n1 -> 0\n"
    assert _error(text) == (6, "line 6: duplicate edge 0,1 (first on line 3)")
    text = "mixedgraph 4\n0 -- 1\n3 -> 2\n0 -- 2\n# 2 -- 3\n2  --  3\n"
    assert _error(text) == (6, "line 6: duplicate edge 2,3 (first on line 3)")
    # A pair repeated twice over names its first line each time.
    text = "mixedgraph 3\n0 -- 1\n1 -- 2\n0 -- 1\n0 -- 1\n"
    assert _error(text) == (4, "line 4: duplicate edge 0,1 (first on line 2)")


def test_edge_line_memo_is_bounded():
    maxsize = mgfile._edge_line.cache_info().maxsize
    assert maxsize == 1024
    big = complete_graph(60)  # 1,770 distinct edge lines
    assert parse_mgfile(serialize_mgfile(big)) == big
    assert mgfile._edge_line.cache_info().currsize == maxsize
    assert parse_mgfile(serialize_mgfile(big)) == big


# -- differential check against the token-by-token parser -----------------

# parse_mgfile as it stood before it split each line only once, kept verbatim
# as the reference: every text must give the same graph or the same error.


def _ref_strip(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def _ref_number(token: str) -> int | None:
    if not (token.isascii() and token.removeprefix("-").isdecimal()):
        return None
    try:
        return int(token)
    except ValueError:  # more digits than int converts
        return None


def _reference_parse(text: str) -> MixedGraph:
    lines = text.splitlines()
    n: int | None = None
    table: list[list[int]] = []
    seen: dict[tuple[int, int], int] = {}
    for i, raw in enumerate(lines, start=1):
        content = _ref_strip(raw)
        if not content:
            continue
        if n is None:
            parts = content.split()
            if len(parts) != 2 or parts[0] != "mixedgraph":
                raise MgParseError(i, "expected header 'mixedgraph <n>'")
            n = _ref_number(parts[1])
            if n is None:
                raise MgParseError(i, f"bad vertex count {parts[1]!r}")
            if n < 0:
                raise MgParseError(i, "vertex count must be nonnegative")
            table = [[0] * n for _ in range(n)]
            continue
        parts = content.split()
        if len(parts) != 3 or parts[1] not in ("--", "->"):
            raise MgParseError(i, f"expected 'u -- v' or 'u -> v', got {content!r}")
        u, v = _ref_number(parts[0]), _ref_number(parts[2])
        if u is None or v is None:
            raise MgParseError(i, f"bad vertex in {content!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise MgParseError(i, f"vertex out of range 0..{n - 1} in {content!r}")
        if u == v:
            raise MgParseError(i, f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise MgParseError(
                i, f"duplicate edge {key[0]},{key[1]} (first on line {seen[key]})"
            )
        seen[key] = i
        if parts[1] == "--":
            table[u][v] = table[v][u] = int(EdgeKind.UNDIRECTED)
        else:
            table[u][v], table[v][u] = int(EdgeKind.ARC_OUT), int(EdgeKind.ARC_IN)
    if n is None:
        raise MgParseError(max(len(lines), 1), "missing 'mixedgraph <n>' header")
    return MixedGraph._trusted(n, tuple(tuple(row) for row in table))


#: Fragments a mutation inserts: whitespace that str.split or splitlines
#: treats specially, non-ASCII digits, signs, malformed operators and numbers.
_FRAGMENTS = (
    " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", " ", "\n", "\r\n", "#", "# note",
    "0", "1", "7", "11", "12", "99", "-", "-0", "-1", "+", "+3", "1_2", "00",
    "３", "٣", "१", "--", "->", "=>", "-->", "<-", "mixedgraph", "mixedgraph 3",
    "1" * 5000,
)


def _mutate(text: str, n: int, rng: random.Random) -> str:
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        op = rng.randrange(6)
        if op == 0:  # insert a fragment
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice(_FRAGMENTS) + text[at:]
        elif op == 1 and text:  # delete a span
            at = rng.randrange(len(text))
            text = text[:at] + text[at + rng.randint(1, 4):]
        elif op == 2 and text:  # duplicate a span
            at = rng.randrange(len(text))
            end = at + rng.randint(1, 12)
            text = text[:end] + text[at:end] + text[end:]
        elif op == 3:  # duplicate a line, or add it reversed
            lines = text.splitlines(keepends=True)
            line = rng.choice(lines)
            if rng.random() < 0.5:
                line = " ".join(reversed(line.split())) + "\n"
            lines.insert(rng.randrange(len(lines) + 1), line)
            text = "".join(lines)
        elif op == 4:  # an edge line with a vertex at or past n, or negative
            u = rng.choice((n, n + 1, -1, rng.randrange(max(n, 1))))
            v = rng.randrange(max(n, 1))
            text += f"{u} {rng.choice(('--', '->'))} {v}\n"
        else:  # swap a character for a look-alike
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice("0123456789 \t-->#") + text[at + 1:]
    return text


def _outcome(parse, text: str):
    try:
        return "graph", parse(text)
    except MgParseError as exc:
        return "error", exc.line, str(exc)


def test_parser_matches_reference_on_mutated_texts():
    rng = random.Random(2323)
    errors = 0
    for _ in range(20_000):
        n = rng.randrange(0, 10)
        edges = [
            (u, v, kind)
            for u in range(n)
            for v in range(u + 1, n)
            if (kind := rng.choice([None, None, "undirected", "arc"]))
        ]
        text = serialize_mgfile(build(n, edges))
        if rng.random() < 0.3:
            text = "# header comment\n\n" + text.replace("\n", "  # c\n", 1)
        text = _mutate(text, n, rng)
        expected = _outcome(_reference_parse, text)
        assert _outcome(parse_mgfile, text) == expected, repr(text)
        errors += expected[0] == "error"
    # Both outcomes are well represented.
    assert 10_000 < errors < 17_000, errors
