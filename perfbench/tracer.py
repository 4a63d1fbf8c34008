"""Spans around the calls between confinder's layers, recorded in memory.

The program itself carries no instrumentation, so the traced run replaces
module attributes with timing wrappers for the length of one search and
puts the originals back afterwards. Only the names the caller resolves are
patched: ``search.run_vbem`` times the fits the search makes, while calls
made inside ``vbem`` itself stay untouched.

Spans nest by a stack, so one thread's spans form a tree; a span's self
time is its duration minus the durations of its direct children, and the
self times of one tree sum to the root's duration.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

Describe = Callable[[tuple, object], Dict[str, object]]
Target = Tuple[object, str, str, Optional[Describe]]  # module, attribute, span name, describe


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    rep: int
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, rep: int = 0):
        self.rep = rep
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), float("nan"), parent, self.rep)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, describe: Optional[Describe] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if describe is not None:
                    span.attrs.update(describe(args, result))
                return result

        return traced

    @contextmanager
    def installed(self, targets: Iterable[Target]) -> Iterator["Tracer"]:
        """Patch every target with a wrapper; restore the originals on exit."""
        originals = []
        try:
            for module, attr, name, describe in targets:
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, describe))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def records(self) -> List[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time covered by its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.seconds
    return [s.seconds - c for s, c in zip(spans, covered)]


def confinder_targets() -> List[Target]:
    """The layer boundaries of a search, as (module, attribute, span, describe)."""
    from confinder import latentize, magspace, search

    def enumerated(args, strata):
        return {
            "candidates": 2 ** len(magspace.circle_slots(args[0])),
            "mags": sum(len(s.mags) for s in strata),
            "strata": {str(s.bidirected_count): len(s.mags) for s in strata},
        }

    def latentized(_args, model):
        return {"latents": len(model.spec)}

    def fitted(_args, result):
        report = result[1]
        return {"iterations": report.iterations, "converged": report.converged}

    return [
        (search, "enumerate_mags", "magspace.enumerate_mags", enumerated),
        (search, "orientation_neighbors", "magspace.orientation_neighbors", None),
        (search, "reference_mag", "magspace.reference_mag", None),
        (magspace, "reference_mag", "magspace.reference_mag", None),
        (search, "latentize_min", "latentize.latentize_min", latentized),
        (search, "run_vbem", "vbem.run_vbem", fitted),
        (magspace, "markov_equivalent", "graphs.markov_equivalent", None),
        (magspace, "validate", "graphs.validate", None),
        (latentize, "verify_ci_equivalence", "latentize.verify_ci_equivalence", None),
        (latentize, "ci_signature", "graphs.ci_signature", None),
    ]


ROOT = "search.run_search"


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer counts and seconds of one traced search (root span ROOT)."""
    own = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(*names):
        return sum(spans[i].seconds for n in names for i in by_name.get(n, ()))

    def self_total(prefix):
        return sum(t for s, t in zip(spans, own) if s.name.split(".")[0] == prefix)

    def attr_sum(name, key):
        return sum(spans[i].attrs[key] for i in by_name.get(name, ()))

    walk = ("magspace.enumerate_mags", "magspace.orientation_neighbors")
    candidates = attr_sum("magspace.enumerate_mags", "candidates")
    mags = attr_sum("magspace.enumerate_mags", "mags")
    fits = calls("vbem.run_vbem")
    fit_s = total("vbem.run_vbem")
    verify = calls("latentize.verify_ci_equivalence")
    latentized = calls("latentize.latentize_min")
    (root,) = by_name[ROOT]
    return {
        "search.traced_s": spans[root].seconds,
        "search.self_s": own[root],
        "magspace.walk_s": total(*walk),
        "magspace.self_s": self_total("magspace"),
        "magspace.enumerate_calls": calls("magspace.enumerate_mags"),
        "magspace.candidates": candidates,
        "magspace.mags": mags,
        "magspace.keep_ratio": mags / candidates if candidates else 0.0,
        "magspace.neighbor_calls": calls("magspace.orientation_neighbors"),
        "magspace.reference_s": total("magspace.reference_mag"),
        "graphs.s": self_total("graphs"),
        "graphs.markov_equivalent_calls": calls("graphs.markov_equivalent"),
        "graphs.validate_calls": calls("graphs.validate"),
        "graphs.validate_s": total("graphs.validate"),
        "graphs.ci_signature_calls": calls("graphs.ci_signature"),
        "graphs.ci_signature_s": total("graphs.ci_signature"),
        "latentize.calls": latentized,
        "latentize.s": total("latentize.latentize_min"),
        "latentize.self_s": self_total("latentize"),
        "latentize.verify_calls": verify,
        "latentize.first_try_ratio": latentized / verify if verify else 0.0,
        "latentize.latents": attr_sum("latentize.latentize_min", "latents"),
        "vbem.fits": fits,
        "vbem.fit_s": fit_s,
        "vbem.per_fit_s": fit_s / fits if fits else 0.0,
        "vbem.iterations": attr_sum("vbem.run_vbem", "iterations"),
        "vbem.converged_ratio": (
            attr_sum("vbem.run_vbem", "converged") / fits if fits else 0.0
        ),
    }

