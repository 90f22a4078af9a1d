"""Outside-in layer tracing for the hermspec benchmark.

The tracer wraps public functions of the ``hermspec`` modules in every
``hermspec.*`` namespace that binds them, so calls between modules (which
go through each module's own imported name) are seen as well as calls from
outside.  Each call is a span with a parent: the innermost traced call that
was open when it started.  Spans are folded into per-name aggregates as they
close, because a census run makes millions of them:

* ``calls``   number of spans,
* ``self_s``  summed duration minus the part covered by child spans.

A few targets carry a hook that reads arguments or results to split or
classify the span (characteristic polynomial size, exit path of a
certificate, whether a switching witness was found).  ``uninstall`` puts
every original object back; ``leaked_wrappers`` lists any binding that is
still a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

#: Traced targets as (module, qualified name).  The module is where the
#: object is defined; a dotted name is a method looked up on its class.
TARGETS: tuple[tuple[str, str], ...] = (
    ("graphs", "induced"),
    ("graphs", "hermitian_matrix"),
    ("graphs", "MixedGraph.relabel"),
    ("polynomials", "compare_min_root"),
    ("spectra", "char_poly"),
    ("spectra", "eigenvalues"),
    ("spectra", "compare_lambda_min"),
    ("switching", "switching_equivalent"),
    ("classify", "classify_threshold"),
    ("classify", "find_induced"),
    ("classify", "underlying_family"),
    ("classify", "recognize_knst"),
    ("classify", "Certificate.verify"),
    ("catalog", "load_builtin"),
    ("census", "orientation"),
    ("census", "verify_main_theorem"),
    ("mgfile", "parse_mgfile"),
)

#: Exit paths of ``classify_threshold``, read from the returned certificate.
EXIT_PATHS = (
    "triangle",
    "quadrangle",
    "forbidden-subgraph",
    "threshold",
    "H1",
    "H2",
    "H3",
    "H4",
)

#: Largest vertex count with its own characteristic-polynomial bucket.
CHAR_POLY_MAX_N = 12

#: Metrics that hooks count, beyond each target's calls and self time.
COUNTED = (
    *(f"spectra.char_poly.n{k}.{x}" for k in range(1, CHAR_POLY_MAX_N + 1)
      for x in ("calls", "self_s")),
    "classify.witness.calls",
    "classify.witness.total_s",
    *(f"classify.exit.{path}.{x}" for path in EXIT_PATHS for x in ("calls", "total_s")),
    "switching.switching_equivalent.found",
)

#: Each ratio metric as (counted outcomes, base count).
RATIOS = {
    "spectra.compare_lambda_min.miss_ratio": (
        "spectra.compare_lambda_min.misses", "spectra.compare_lambda_min.calls",
    ),
    "switching.switching_equivalent.found_ratio": (
        "switching.switching_equivalent.found", "switching.switching_equivalent.calls",
    ),
}

_MARK = "__perfbench_wrapped__"
_PACKAGE = "hermspec"


def exit_path(cert) -> str:
    """Exit path of a ``classify_threshold`` certificate."""
    if cert.accepted:
        return cert.family.value
    return cert.witness.kind


@dataclass(slots=True)
class _Span:
    name: str
    start: float
    child_s: float = 0.0    # time covered by direct children
    spectra_s: float = 0.0  # time covered by direct children in spectra


@dataclass
class Tracer:
    """Span stack plus per-name aggregates; ``clock`` is injectable for tests."""

    clock: Callable[[], float] = time.perf_counter
    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    #: (parent name or None, child name) -> number of child spans
    edges: dict[tuple[str | None, str], int] = field(default_factory=dict)
    #: free-form counters filled by hooks
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[_Span] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> _Span:
        span = _Span(name, self.clock())
        self._stack.append(span)
        return span

    def close(self, span: _Span) -> float:
        """Close the innermost span; returns its duration."""
        end = self.clock()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        dur = end - span.start
        name = span.name
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += dur
            if name.startswith("spectra."):
                parent.spectra_s += dur
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - span.child_s
        key = (parent.name if parent is not None else None, name)
        self.edges[key] = self.edges.get(key, 0) + 1
        return dur

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.close(span)
            if hook is not None:
                hook(tracer, span, dur, args, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded ``hermspec`` namespace."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        importlib.import_module(_PACKAGE)
        for module, qualname in TARGETS:
            importlib.import_module(f"{_PACKAGE}.{module}")
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == _PACKAGE or key.startswith(_PACKAGE + "."))
        ]
        for module, qualname in TARGETS:
            name = f"{module}.{qualname}"
            home = sys.modules[f"{_PACKAGE}.{module}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._bind(cls, attr, original, self._wrap(name, original))
                continue
            original = getattr(home, qualname)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._bind(ns, attr, original, wrapper)

    def _bind(self, owner, attr: str, original, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every binding that ``install`` replaced."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    # -- reporting -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics by name; every name is present even when zero."""
        out: dict[str, float] = {}
        for module, qualname in TARGETS:
            name = f"{module}.{qualname}"
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for key in COUNTED:
            out[key] = self.counts.get(key, 0)
        # A lookup missed the compare cache when it ran compare_min_root.
        out["spectra.compare_lambda_min.misses"] = self.edges.get(
            ("spectra.compare_lambda_min", "polynomials.compare_min_root"), 0
        )
        for ratio, (hits, base) in RATIOS.items():
            out[ratio] = out[hits] / out[base] if out[base] else 0.0
        return out


def leaked_wrappers() -> list[str]:
    """Bindings in loaded ``hermspec`` namespaces that are still wrappers."""
    leaks = []
    for key, mod in sorted(sys.modules.items()):
        if mod is None or not (key == _PACKAGE or key.startswith(_PACKAGE + ".")):
            continue
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, False):
                leaks.append(f"{key}.{attr}")
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, _MARK, False):
                        leaks.append(f"{key}.{attr}.{cattr}")
    return leaks


# -- hooks: read arguments or results of one closed span ----------------------


def _char_poly_hook(tracer: Tracer, span: _Span, dur: float, args, result) -> None:
    n = args[0].n
    if 1 <= n <= CHAR_POLY_MAX_N:
        tracer.add(f"spectra.char_poly.n{n}.calls", 1)
        tracer.add(f"spectra.char_poly.n{n}.self_s", dur - span.child_s)


def _switching_hook(tracer: Tracer, span: _Span, dur: float, args, result) -> None:
    if result is not None:
        tracer.add("switching.switching_equivalent.found", 1)


def _classify_hook(tracer: Tracer, span: _Span, dur: float, args, result) -> None:
    path = exit_path(result)
    tracer.add(f"classify.exit.{path}.calls", 1)
    tracer.add(f"classify.exit.{path}.total_s", dur)
    if not result.accepted:
        # Every spectra call made directly by a rejecting classify_threshold
        # builds its reject witness.
        tracer.add("classify.witness.calls", 1)
        tracer.add("classify.witness.total_s", span.spectra_s)


_HOOKS = {
    "spectra.char_poly": _char_poly_hook,
    "switching.switching_equivalent": _switching_hook,
    "classify.classify_threshold": _classify_hook,
}
