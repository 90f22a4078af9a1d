"""Command-line interface.

Commands
--------
spectrum FILE   eigenvalues, characteristic polynomial and exact threshold
                comparisons for a mixed graph file
classify FILE   structural verdict against the -(1+sqrt5)/2 threshold
                (exit 0 accept, 1 reject, 2 error)
equiv A B       switching equivalence witness between two mixed graphs
verify          exhaustive classifier-vs-exact census; --nmax 6 adds the
                six-vertex deep sweep
catalog         regenerate the scattered-orientation catalog

All output is deterministic; randomized census sampling is controlled by
--seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .classify import classify_threshold
from .graphs import MixedGraph
from .mgfile import MgParseError, parse_mgfile
from .quadratic import NEG_GOLDEN, NEG_SQRT2, NEG_SQRT3
from .spectra import compare_lambda_min, eigenvalues
from .switching import switching_equivalent

__all__ = ["main"]

#: Name of the unit i^e, indexed by e.
_UNIT_NAMES = ("1", "i", "-1", "-i")


def _load(path: str) -> MixedGraph:
    text = Path(path).read_text(encoding="utf-8")
    return parse_mgfile(text)


def _cmd_spectrum(args: argparse.Namespace) -> int:
    m = _load(args.file)
    summary = eigenvalues(m)
    # Every verdict first: an empty graph raises before anything is printed.
    verdicts = [
        (name, compare_lambda_min(summary.char_poly, bound))
        for name, bound in (
            ("-sqrt(2)", NEG_SQRT2),
            ("-sqrt(3)", NEG_SQRT3),
            ("-(1+sqrt5)/2", NEG_GOLDEN),
        )
    ]
    print(f"n: {m.n}")
    print(f"edges: {m.edge_count()}")
    print("eigenvalues:", " ".join(f"{x:.10f}" for x in summary.eigenvalues))
    print(f"char poly: {summary.char_poly}")
    print(f"lambda_min: {summary.lambda_min:.10f}")
    for name, verdict in verdicts:
        print(f"vs {name}: {verdict.value}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    m = _load(args.file)
    cert = classify_threshold(m)
    print(cert.summary())
    if cert.accepted and not cert.verify(m):
        print("certificate failed re-verification", file=sys.stderr)
        return 2
    return 0 if cert.accepted else 1


def _cmd_equiv(args: argparse.Namespace) -> int:
    a = _load(args.a)
    b = _load(args.b)
    if a.n != b.n:
        print("not equivalent (different vertex counts)")
        return 1
    d = switching_equivalent(a, b)
    if d is None:
        print("not equivalent")
        return 1
    print("diagonal:", " ".join(_UNIT_NAMES[e] for e in d.exps))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .census import verify_main_theorem

    report = verify_main_theorem(
        n_max=args.nmax,
        sample=args.sample,
        seed=args.seed,
        jobs=args.jobs,
    )
    text = report.text()
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if report.ok else 1


def _cmd_catalog(args: argparse.Namespace) -> int:
    from .catalog import serialize_catalog
    from .census import derive_scattered_catalog

    text = serialize_catalog(derive_scattered_catalog())
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermspec",
        description="Hermitian spectra of mixed graphs: exact threshold "
        "classification and exhaustive verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="print spectrum and exact comparisons")
    p.add_argument("file", help="mixed graph file")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("classify", help="classify against -(1+sqrt5)/2")
    p.add_argument("file", help="mixed graph file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("equiv", help="switching equivalence witness")
    p.add_argument("a", help="first mixed graph file")
    p.add_argument("b", help="second mixed graph file")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("verify", help="exhaustive classifier census")
    p.add_argument("--nmax", type=int, default=5, help="exhaust up to n vertices (<= 6)")
    p.add_argument("--sample", type=int, default=10000, help="six-vertex random samples")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("catalog", help="regenerate the scattered catalog")
    p.add_argument("--out", help="write to this file instead of stdout")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MgParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
