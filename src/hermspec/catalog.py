"""Pinned catalog of scattered orientations above the golden-ratio threshold.

Four small underlying graphs admit orientations whose smallest Hermitian
eigenvalue stays strictly above -(1+sqrt5)/2 without belonging to the
clique-based families: the 4-cycle, the diamond, K_{2,3} plus an edge, and
K_{2,4} plus two disjoint edges.  The catalog stores one representative per
isomorphism class of such orientations together with its characteristic
polynomial and smallest eigenvalue, plus reconciliation counts: labeled
orientations and their orbits under the shape's automorphisms keyed by
encoding (iso), by the smaller encoding of an orientation and its converse
(converse) or by switching class (switch-iso).

The shipped file ``data/scattered_catalog.txt`` is generated by
``hermspec.census.derive_scattered_catalog`` and regeneration must
reproduce it byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources

from .graphs import (
    MixedGraph,
    build,
    complete_graph,
    decode,
    disjoint_union,
    join,
    star_graph,
)

__all__ = [
    "SPORADIC_LABELS",
    "CatalogRecord",
    "ReconciliationRow",
    "Catalog",
    "sporadic_underlying",
    "serialize_catalog",
    "parse_catalog",
    "load_builtin",
]

#: Labels of the four underlying shapes, in catalog order.
SPORADIC_LABELS = ("c4", "diamond", "k23-plus-edge", "k24-plus-2edges")


@lru_cache(maxsize=1)
def sporadic_underlying() -> dict[str, MixedGraph]:
    """Canonical labelings of the four sporadic underlying graphs."""
    two_k1 = build(2, [])
    k2_plus_k1 = disjoint_union(complete_graph(2), build(1, []))
    two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
    return {
        "c4": join(two_k1, two_k1),
        "diamond": join(build(1, []), star_graph(2)),
        "k23-plus-edge": join(k2_plus_k1, two_k1),
        "k24-plus-2edges": join(two_k2, two_k1),
    }


@dataclass(frozen=True)
class CatalogRecord:
    """One isomorphism-class representative of a scattered orientation."""

    rec_id: str
    underlying: str
    n: int
    encoded: str
    char_coeffs: tuple[int, ...]  # constant term first
    lambda_min: float

    def graph(self) -> MixedGraph:
        return self._graph

    @cached_property
    def _graph(self) -> MixedGraph:
        """Decoded once per record; the cache sits outside the fields, so
        ``==`` and ``hash`` ignore it."""
        return decode(self.n, self.encoded)


@dataclass(frozen=True)
class ReconciliationRow:
    """Class counts for the survivors on one underlying shape.

    labeled: orientations surviving the exact threshold test;
    iso_classes: classes under vertex relabeling (= catalog records);
    converse_classes: classes when arc reversal is also allowed (mirror
    pairs merge; reversal preserves the spectrum);
    switch_iso_classes: classes under relabeling combined with switching.
    """

    underlying: str
    labeled: int
    iso_classes: int
    converse_classes: int
    switch_iso_classes: int


@dataclass(frozen=True)
class Catalog:
    version: int
    records: tuple[CatalogRecord, ...]
    reconciliation: tuple[ReconciliationRow, ...]

    def by_underlying(self, label: str) -> tuple[CatalogRecord, ...]:
        return tuple(r for r in self.records if r.underlying == label)

    def by_id(self, rec_id: str) -> CatalogRecord | None:
        for r in self.records:
            if r.rec_id == rec_id:
                return r
        return None


_HEADER = """\
# Scattered orientations: connected mixed graphs on four small underlying
# shapes whose smallest Hermitian eigenvalue is strictly above -(1+sqrt5)/2
# yet which are not oriented complete graphs or clique coalescences.
# One record per isomorphism class.  Fields:
#   record <id> underlying=<label> n=<n> kinds=<row-major digits>
#          charpoly=<int coeffs, constant first> lambda=<10 decimals>
# Kind digits: 0 none, 1 undirected, 2 arc out of the row vertex, 3 arc in.
# The count lines report, per underlying shape, how many labeled
# orientations survive the exact threshold test and how they group under
# three equivalences: vertex relabeling (iso), relabeling plus arc reversal
# (converse; spectrum-preserving, merges mirror pairs), and relabeling plus
# four-way switching (switch-iso).  Survivor eigenvalues take only two
# values: -sqrt(2) on the 4-cycle, (1-sqrt(17))/2 on the other three shapes.
"""


def serialize_catalog(catalog: Catalog) -> str:
    lines = [_HEADER, f"version {catalog.version}", ""]
    for rec in catalog.records:
        coeffs = ",".join(str(c) for c in rec.char_coeffs)
        lines.append(
            f"record {rec.rec_id} underlying={rec.underlying} n={rec.n}"
            f" kinds={rec.encoded} charpoly={coeffs}"
            f" lambda={rec.lambda_min:.10f}"
        )
    lines.append("")
    for row in catalog.reconciliation:
        lines.append(
            f"count {row.underlying} labeled={row.labeled}"
            f" iso={row.iso_classes} converse={row.converse_classes}"
            f" switch-iso={row.switch_iso_classes}"
        )
    total_iso = sum(r.iso_classes for r in catalog.reconciliation)
    total_conv = sum(r.converse_classes for r in catalog.reconciliation)
    lines.append(
        f"total records={len(catalog.records)} iso={total_iso}"
        f" converse={total_conv}"
    )
    return "\n".join(lines) + "\n"


def _fields(tokens: list[str]) -> dict[str, str]:
    out = {}
    for tok in tokens:
        key, _, value = tok.partition("=")
        if not value:
            raise ValueError(f"malformed field {tok!r}")
        out[key] = value
    return out


def parse_catalog(text: str) -> Catalog:
    version: int | None = None
    records: list[CatalogRecord] = []
    rows: list[ReconciliationRow] = []
    total_line: tuple[int, int] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        tag = tokens[0]
        try:
            if tag == "version":
                version = int(tokens[1])
            elif tag == "record":
                f = _fields(tokens[2:])
                records.append(
                    CatalogRecord(
                        rec_id=tokens[1],
                        underlying=f["underlying"],
                        n=int(f["n"]),
                        encoded=f["kinds"],
                        char_coeffs=tuple(int(c) for c in f["charpoly"].split(",")),
                        lambda_min=float(f["lambda"]),
                    )
                )
            elif tag == "count":
                f = _fields(tokens[2:])
                rows.append(
                    ReconciliationRow(
                        underlying=tokens[1],
                        labeled=int(f["labeled"]),
                        iso_classes=int(f["iso"]),
                        converse_classes=int(f["converse"]),
                        switch_iso_classes=int(f["switch-iso"]),
                    )
                )
            elif tag == "total":
                f = _fields(tokens[1:])
                total_line = (int(f["records"]), int(f["iso"]))
            else:
                raise ValueError(f"unknown catalog line {line!r}")
        except (IndexError, KeyError):  # a token or field is missing
            raise ValueError(f"malformed catalog line {line!r}") from None
    if version is None:
        raise ValueError("catalog file missing version line")
    catalog = Catalog(version, tuple(records), tuple(rows))
    if total_line is not None:
        expect = (len(records), sum(r.iso_classes for r in rows))
        if total_line != expect:
            raise ValueError(
                f"catalog totals {total_line} disagree with contents {expect}"
            )
    return catalog


@lru_cache(maxsize=1)
def load_builtin() -> Catalog:
    """The catalog shipped with the package."""
    text = (
        resources.files("hermspec").joinpath("data/scattered_catalog.txt")
        .read_text(encoding="utf-8")
    )
    return parse_catalog(text)
