"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each criterion is one test function, so ``pytest -v`` reports exactly one
pass/fail line per criterion.  Runtime budgets are asserted inside the
tests; the heavy sweeps (criteria 6 and 7) are the same calls a user would
make through ``hermspec verify``.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from fractions import Fraction
from importlib import resources

from prop_suites import ALL_SUITES

from hermspec.catalog import load_builtin, serialize_catalog
from hermspec.census import (
    derive_scattered_catalog,
    enumerate_orientations,
    verify_main_theorem,
)
from hermspec.classify import (
    QuadTag,
    SAFE_QUADS,
    SAFE_TRIANGLES,
    TriangleType,
    quad_class,
    triangle_type,
)
from hermspec.graphs import (
    coalescence,
    complete_graph,
    cycle_graph,
    make_knst,
)
from hermspec.polynomials import IntPolynomial, Trichotomy, compare_min_root, count_roots_at_most
from hermspec.quadratic import NEG_GOLDEN
from hermspec.spectra import eigenvalues, f_cubic, phi_cubic
from hermspec.switching import apply_switch, switching_equivalent

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)
GOLDEN = (1 + math.sqrt(5)) / 2


def test_criterion_1_triangle_spectra():
    t0 = time.monotonic()
    expected_lambda = {
        TriangleType.K3: -1.0,
        TriangleType.K3_1: -SQRT3,
        TriangleType.K3_21: -2.0,
        TriangleType.K3_22: -1.0,
        TriangleType.K3_23: -1.0,
        TriangleType.K3_31: -SQRT3,
        TriangleType.K3_32: -SQRT3,
    }
    counts = Counter()
    for m in enumerate_orientations(complete_graph(3)):
        tt = triangle_type(m)
        counts[tt] += 1
        lam = eigenvalues(m).lambda_min
        assert abs(lam - expected_lambda[tt]) < 1e-9, tt
        assert (tt in SAFE_TRIANGLES) == (lam > -GOLDEN + 1e-9)
    assert sum(counts.values()) == 27 and len(counts) == 7
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 1: PASS ({elapsed:.2f}s) triangle spectra over all 27 orientations")


def test_criterion_2_quadrangle_spectra():
    t0 = time.monotonic()
    minus_sqrt_2_plus_sqrt2 = -math.sqrt(2 + SQRT2)
    # -1.84776...: agrees with the pinned -1.8477 to one unit in the fourth
    # decimal place.
    assert abs(minus_sqrt_2_plus_sqrt2 + 1.8477) < 1e-4
    counts = Counter()
    for m in enumerate_orientations(cycle_graph(4)):
        qc = quad_class(m)
        counts[qc.tag] += 1
        lam = eigenvalues(m).lambda_min
        if qc.tag is QuadTag.PLUS_ONE:
            assert abs(lam + 2.0) < 1e-9
        elif qc.tag in SAFE_QUADS:
            assert abs(lam + SQRT2) < 1e-9
        else:
            assert abs(lam - minus_sqrt_2_plus_sqrt2) < 1e-9
        # -sqrt(2) occurs exactly on the holonomy -1 orientations.
        assert (abs(lam + SQRT2) < 1e-9) == (qc.holonomy == -1)
    assert sum(counts.values()) == 81
    assert counts[QuadTag.PLUS_ONE] == 21
    assert counts[QuadTag.IMAGINARY] == 40
    assert counts[QuadTag.C4_1] + counts[QuadTag.C4_2] + counts[QuadTag.C4_3] == 20
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 2: PASS ({elapsed:.2f}s) quadrangle spectra over all 81 orientations")


def test_criterion_3_oriented_complete_spectra():
    t0 = time.monotonic()
    cases = 0
    for n in range(2, 9):
        for s in range(0, n + 1):
            t = n - s
            m = make_knst(s, t)
            lam = eigenvalues(m).eigenvalues
            assert abs(lam[0] - (n - 1)) < 1e-9
            assert all(abs(x + 1.0) < 1e-9 for x in lam[1:])
            d = switching_equivalent(m, complete_graph(n))
            assert d is not None
            assert apply_switch(m, d) == complete_graph(n)
            cases += 1
    assert cases == sum(n + 1 for n in range(2, 9))
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"criterion 3: PASS ({elapsed:.2f}s) K_n[s,t] spectra and switching witnesses, n=2..8")


def test_criterion_4_clique_coalescence_spectra():
    t0 = time.monotonic()
    k33 = coalescence(complete_graph(3), 0, complete_graph(3), 0)
    got = eigenvalues(k33).eigenvalues
    want = (2.56, 1.0, -1.0, -1.0, -1.56)
    assert all(abs(a - b) < 5e-3 for a, b in zip(got, want)), got
    k34 = coalescence(complete_graph(3), 0, complete_graph(4), 0)
    got2 = eigenvalues(k34).eigenvalues
    want2 = (3.26, 1.34, -1.0, -1.0, -1.0, -1.60)
    assert all(abs(a - b) < 5e-3 for a, b in zip(got2, want2)), got2
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 4: PASS ({elapsed:.2f}s) clique-coalescence spectra pinned to 5e-3")


def test_criterion_5_threshold_cubics_exact():
    t0 = time.monotonic()
    for n in range(2, 51):
        phi = phi_cubic(n)
        assert phi(-1) == 0
        # The smallest root lies in (-(1+sqrt5)/2, -1]: strictly above the
        # golden threshold, and -1 itself is always a root.
        assert compare_min_root(phi, NEG_GOLDEN) is Trichotomy.GREATER
        assert count_roots_at_most(phi, Fraction(-1)) >= 1
    for s in range(2, 31):
        sign = f_cubic(s, 2)(NEG_GOLDEN).sign()
        if s in (2, 3):
            assert sign < 0, s
        else:
            assert sign >= 0, s
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 5: PASS ({elapsed:.2f}s) exact Sturm/sign facts for the threshold cubics")


def test_criterion_6_exhaustive_census_n5():
    t0 = time.monotonic()
    report = verify_main_theorem(n_max=5)
    assert report.ok, report.text()
    assert [lv.orientations for lv in report.levels] == [1, 3, 36, 1188, 105705]
    assert [lv.boundary_equal for lv in report.levels] == [0, 0, 0, 27, 165]
    assert report.levels[3].accepts == {"H1": 37, "H3": 15, "H4": 21}
    assert report.levels[4].accepts == {"H1": 36, "H2": 49, "H3": 31, "H4": 45}
    assert all(not lv.mismatches for lv in report.levels)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"criterion 6: PASS ({elapsed:.2f}s) 106,933 orientations, zero mismatches")


def test_criterion_7_deep_six_vertex_sweep():
    t0 = time.monotonic()
    report = verify_main_theorem(n_max=6, sample=10000, seed=0, jobs=4)
    assert report.ok, report.text()
    deep = {dl.label: dl for dl in report.deep_levels}
    assert deep["K_2.K_5"].accepted == 93 and deep["K_2.K_5"].orientations == 3 ** 11
    assert deep["K_3.K_4"].accepted == 105 and deep["K_3.K_4"].orientations == 3 ** 9
    assert deep["k24-plus-2edges"].accepted == 60
    # Switching classes decided: 4^(cotree edges), except that no mixed
    # graph reaches the class of -A(K_5), every triangle with holonomy -1.
    assert [dl.classes for dl in report.deep_levels] == [4 ** 6 - 1, 4 ** 4, 4 ** 5]
    assert not any(dl.mismatches for dl in report.deep_levels)
    assert report.k6 is not None
    assert report.k6.total == 3 ** 15 == 14348907
    assert report.k6.accepted == 63  # the 2^6 - 1 labeled K_6[s,t] forms
    assert report.k6.mismatches == 0
    assert report.k6.subsample >= 10000
    assert not report.k6.subsample_mismatches
    assert report.sample is not None and report.sample.orientations == 10000
    assert not report.sample.mismatches
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print(f"criterion 7: PASS ({elapsed:.2f}s) six-vertex families + K_6 + 10k samples clean")


def test_criterion_8_catalog_regeneration():
    t0 = time.monotonic()
    derived = derive_scattered_catalog()
    shipped_text = (
        resources.files("hermspec")
        .joinpath("data/scattered_catalog.txt")
        .read_text(encoding="utf-8")
    )
    assert serialize_catalog(derived) == shipped_text
    assert derived == load_builtin()
    assert len(derived.records) == 37
    rows = {r.underlying: r for r in derived.reconciliation}
    assert (rows["c4"].labeled, rows["c4"].iso_classes, rows["c4"].converse_classes,
            rows["c4"].switch_iso_classes) == (20, 3, 3, 1)
    assert (rows["diamond"].labeled, rows["diamond"].iso_classes,
            rows["diamond"].converse_classes, rows["diamond"].switch_iso_classes) == (17, 9, 6, 1)
    assert (rows["k23-plus-edge"].labeled, rows["k23-plus-edge"].iso_classes,
            rows["k23-plus-edge"].converse_classes,
            rows["k23-plus-edge"].switch_iso_classes) == (36, 14, 8, 1)
    assert (rows["k24-plus-2edges"].labeled, rows["k24-plus-2edges"].iso_classes,
            rows["k24-plus-2edges"].converse_classes,
            rows["k24-plus-2edges"].switch_iso_classes) == (60, 11, 7, 1)
    # Exact eigenvalue pinning: x^2 - 2 divides the c4 records' char polys,
    # x^2 - x - 4 divides all others, so lambda_min is -sqrt2 or (1-sqrt17)/2.
    for record in derived.records:
        p = IntPolynomial(record.char_coeffs)
        if record.underlying == "c4":
            p.exact_div(IntPolynomial([-2, 0, 1]))
            assert abs(record.lambda_min + SQRT2) < 1e-6
        else:
            p.exact_div(IntPolynomial([-4, -1, 1]))
            assert abs(record.lambda_min - (1 - math.sqrt(17)) / 2) < 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"criterion 8: PASS ({elapsed:.2f}s) catalog regenerated byte-identical, counts pinned")


def test_criterion_9_property_suites():
    t0 = time.monotonic()
    for name, suite in ALL_SUITES:
        ran = suite(cases=1000)
        assert ran >= 1000, name
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"criterion 9: PASS ({elapsed:.2f}s) five property suites, 1000 cases each")
