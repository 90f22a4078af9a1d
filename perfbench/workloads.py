"""Workload bodies of the hermspec benchmark.

The timed functions run inside a worker interpreter that has already
imported ``hermspec`` and loaded the built-in catalog.  Each timed region
makes the same calls a user of the package makes:

* ``census5``: ``verify_main_theorem(n_max=5)``, the exhaustive oracle run
  by ``hermspec verify``;
* ``classify_mix``: one ``hermspec classify`` call per graph text: parse,
  classify, summarize, and re-verify an accepting certificate.

Each workload checks its output against a reference that does not come from
the timed code path.  ``generate_mix`` builds the classify_mix stream from
public constructors only; it runs in its own interpreter, so the worker
receives nothing but the texts.
"""

from __future__ import annotations

import random
import time

import numpy as np

# Calls into the package go through module attributes, so that a traced run
# sees them: a name imported from hermspec would bypass the wrappers.
from hermspec import catalog, census, classify, graphs, mgfile, polynomials, spectra, switching
from hermspec.quadratic import NEG_GOLDEN

from tracer import EXIT_PATHS, exit_path

# -- census5 ----------------------------------------------------------------

#: Pinned results of the n <= 5 census (acceptance criterion 6).
CENSUS5_ORIENTATIONS = [1, 3, 36, 1188, 105705]
CENSUS5_BOUNDARY = [0, 0, 0, 27, 165]
CENSUS5_ACCEPTS = {4: {"H1": 37, "H3": 15, "H4": 21},
                   5: {"H1": 36, "H2": 49, "H3": 31, "H4": 45}}


def run_census(n_max: int = 5) -> dict:
    """Time one census; ``n_max`` below 5 is a smoke configuration.

    Failed items are the census mismatches, or every orientation when a
    pinned count differs.
    """
    t0 = time.perf_counter()
    report = census.verify_main_theorem(n_max=n_max)
    wall = time.perf_counter() - t0
    items = sum(lv.orientations for lv in report.levels)
    pinned = (
        [lv.orientations for lv in report.levels] == CENSUS5_ORIENTATIONS[:n_max]
        and [lv.boundary_equal for lv in report.levels] == CENSUS5_BOUNDARY[:n_max]
        and all(lv.accepts == CENSUS5_ACCEPTS.get(lv.n, lv.accepts) for lv in report.levels)
    )
    mismatches = sum(len(lv.mismatches) for lv in report.levels)
    return {"wall_s": wall, "items": items, "failed": mismatches if pinned else items}


# -- classify_mix: input stream -----------------------------------------------

#: Two-clique coalescences (s, t) whose block bound passes with t >= 2 (H2);
#: every t = 1 coalescence passes (H4).
_H2_SIZES = ((2, 2), (3, 2))
#: Two-clique coalescences (s >= t >= 2, n <= 12) failing the block bound.
_THRESHOLD_SIZES = tuple(
    (s, t) for s in range(2, 10) for t in range(2, s + 1)
    if s + t + 1 <= 12 and (s, t) not in _H2_SIZES
)


def _oriented_clique(rng: random.Random, size: int) -> graphs.MixedGraph:
    s = rng.randint(0, size)
    return graphs.make_knst(s, size - s)


def _two_cliques(rng: random.Random, s: int, t: int) -> graphs.MixedGraph:
    a = _oriented_clique(rng, s + 1)
    b = _oriented_clique(rng, t + 1)
    return graphs.coalescence(a, rng.randrange(s + 1), b, rng.randrange(t + 1))


def _random_connected(rng: random.Random, directed: bool) -> graphs.MixedGraph:
    """Random spanning tree plus random extra edges; arcs only if ``directed``."""
    n = rng.randint(4, 12)
    density = rng.uniform(0.1, 0.6)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    pairs |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density}
    edges = []
    for u, v in sorted(pairs):
        roll = rng.randrange(3) if directed else 0
        if roll == 0:
            edges.append((u, v, "undirected"))
        else:
            edges.append((u, v, "arc") if roll == 1 else (v, u, "arc"))
    return graphs.build(n, edges)


#: (name, weight, maker(rng, catalog records)); the first four give family
#: members, the last three reject graphs.
MIX = (
    ("knst", 6, lambda rng, recs: _oriented_clique(rng, rng.randint(4, 12))),
    ("h2", 3, lambda rng, recs: _two_cliques(rng, *rng.choice(_H2_SIZES))),
    ("h4", 3, lambda rng, recs: _two_cliques(rng, rng.randint(2, 10), 1)),
    ("catalog", 6, lambda rng, recs: rng.choice(recs).graph()),
    ("mixed", 8, lambda rng, recs: _random_connected(rng, directed=True)),
    ("undirected", 8, lambda rng, recs: _random_connected(rng, directed=False)),
    ("threshold", 2, lambda rng, recs: _two_cliques(rng, *rng.choice(_THRESHOLD_SIZES))),
)


def generate_mix(seed: int, count: int) -> list[str]:
    """``count`` .mg texts, each randomly switched and relabelled."""
    rng = random.Random(seed)
    records = catalog.load_builtin().records
    makers = [maker for _, _, maker in MIX]
    weights = [weight for _, weight, _ in MIX]
    texts = []
    for maker in rng.choices(makers, weights, k=count):
        g = maker(rng, records)
        g, _ = switching.random_switch(g, rng, steps=g.n)
        perm = list(range(g.n))
        rng.shuffle(perm)
        texts.append(mgfile.serialize_mgfile(g.relabel(perm)))
    return texts


# -- classify_mix: timed loop and oracle -------------------------------------


def classify_text(text: str) -> tuple[bool, str]:
    """What ``hermspec classify`` does; returns (accepted, exit path).

    An accepting certificate that fails re-verification raises, as the
    command reports it as an error.
    """
    m = mgfile.parse_mgfile(text)
    cert = classify.classify_threshold(m)
    cert.summary()
    if cert.accepted and not cert.verify(m):
        raise RuntimeError("certificate failed re-verification")
    return cert.accepted, exit_path(cert)


def run_classify(texts: list[str], seconds: float | None) -> dict:
    """Classify texts in order until ``seconds`` pass (None: all of them).

    ``latencies`` holds each call's duration and ``ends`` its end, counted
    from the start of the run.
    """
    latencies: list[float] = []
    ends: list[float] = []
    verdicts: list[bool | None] = []
    paths = dict.fromkeys(EXIT_PATHS, 0)
    clock = time.perf_counter
    t0 = clock()
    deadline = None if seconds is None else t0 + seconds
    for text in texts:
        start = clock()
        try:
            accepted, path = classify_text(text)
        except Exception:  # a raising item counts as failed; the run goes on
            accepted, path = None, None
        end = clock()
        latencies.append(end - start)
        ends.append(end - t0)
        verdicts.append(accepted)
        if path is not None:
            paths[path] += 1
        if deadline is not None and end >= deadline:
            break
    return {"wall_s": clock() - t0, "items": len(verdicts), "latencies": latencies,
            "ends": ends, "verdicts": verdicts, "paths": paths}


#: Float decisions need this distance from the threshold.  For a Hermitian
#: matrix LAPACK's eigvalsh is backward stable: each computed eigenvalue is
#: within c * n * eps * ||H||_2 of the exact one, about 1e-13 for n <= 12
#: and ||H||_2 <= 11, far inside this margin.
_ORACLE_MARGIN = 1e-6
_GOLDEN_F = (1 + 5 ** 0.5) / 2
#: Hermitian entry of each kind code, kept apart from hermspec.graphs.
_ENTRY = np.array([0, 1, 1j, -1j], dtype=np.complex128)


def oracle(texts: list[str]) -> list[bool]:
    """Reference verdicts: is the smallest eigenvalue above -(1+sqrt5)/2?

    Decided by LAPACK eigenvalues where they clear the threshold by the
    margin, else by an uncached Sturm comparison of the characteristic
    polynomial.  It reads none of the classifier's caches.
    """
    out = []
    for text in texts:
        m = mgfile.parse_mgfile(text)
        lam = np.linalg.eigvalsh(_ENTRY[np.array(m.kinds)])[0]
        if abs(lam + _GOLDEN_F) > _ORACLE_MARGIN:
            out.append(bool(lam > -_GOLDEN_F))
        else:
            exact = polynomials.compare_min_root(spectra.char_poly(m), NEG_GOLDEN)
            out.append(exact is polynomials.Trichotomy.GREATER)
    return out


def count_failures(texts: list[str], verdicts: list[bool | None]) -> int:
    """Items whose verdict differs from the oracle's; raising items count."""
    expected = oracle(texts[: len(verdicts)])
    return sum(1 for got, want in zip(verdicts, expected) if got is not want)
