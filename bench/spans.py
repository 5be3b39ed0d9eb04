"""A stdlib-only span recorder for the benchmark's traced runs.

The recorder wraps fltzlab's layer entry points from outside the
library: every module attribute (in fltzlab or in the benchmark's own
workload module) that is bound to an entry point is replaced by a
wrapper that records a span with its name, start, end and parent, plus
a few size counters.  Untraced runs install nothing.

A span's self time is its duration minus the durations of its child
spans.  Counting sizes after a call is the benchmark's own work, so it
is recorded as a ``bench`` span under the caller.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from time import perf_counter


def _rank_counts(args, kwargs, result):
    rows = args[0]
    return (len(rows) * (len(rows[0]) if rows else 0),)


def _dd_counts(args, kwargs, result):
    return (len(result[0]),)


def _enum_counts(args, kwargs, result):
    return (sum(len(points) for points in result.values()),)


def _enum_request(args, kwargs):
    monoid = args[0]
    bound = args[1] if len(args) > 1 else kwargs["bound"]
    weight = args[2] if len(args) > 2 else kwargs.get("weight")
    weight = tuple(weight) if weight is not None else monoid.default_weight()
    return (monoid.rank, monoid.inequalities, monoid.denominator,
            bound, weight)


def _cech_counts(args, kwargs, result):
    n, d = args[0], args[1]
    box = args[2] if len(args) > 2 else kwargs.get("box_bound")
    if box is None:
        box = abs(d) + 1
    return ((2 * box + 1) ** n,)


def _complex_counts(args, kwargs, result):
    term_dims, dense_diffs = result
    return (sum(term_dims),
            sum(1 for dense in dense_diffs for row in dense for x in row if x))


@dataclass(frozen=True)
class EntryPoint:
    """A library function or method traced under one span name.

    ``target`` is ``module.attr`` or ``module.Class.method`` inside
    fltzlab; ``sites`` names the other fltzlab modules expected to call
    it through their own binding, so a binding that disappears is
    reported rather than silently untraced.  ``counts`` returns one value
    per name in ``counters``; ``request`` returns a hashable key per call,
    from which the span's ``distinct_ratio`` is computed.
    """

    span: str
    target: str
    sites: tuple = ()
    counters: tuple = ()
    counts: object = None
    request: object = None


ENTRY_POINTS = (
    EntryPoint("zlin.rank", "zlin.rational_rank",
               ("fans", "cohside", "conside"), ("entries",), _rank_counts),
    EntryPoint("zlin.inverse", "zlin.rational_inverse", ("conside",)),
    EntryPoint("zlin.snf", "zlin.smith_normal_form",
               ("fans", "skeleton", "cohside")),
    EntryPoint("zlin.character_of", "zlin.LatticeQuotient.character_of"),
    EntryPoint("fans.dd", "fans.dd_generators", ("cohside",), ("rays_out",),
               _dd_counts),
    EntryPoint("fans.faces", "fans.faces"),
    EntryPoint("fans.intersect", "fans.intersect_cones"),
    EntryPoint("skeleton.chambers", "skeleton.enumerate_chambers",
               ("conside",)),
    EntryPoint("skeleton.quiver", "skeleton.chamber_quiver", ("conside",)),
    EntryPoint("skeleton.components", "skeleton.fltz_components"),
    EntryPoint("cohside.enum", "cohside.AffineMonoid.elements_by_degree",
               counters=("points",), counts=_enum_counts,
               request=_enum_request),
    EntryPoint("cohside.cech", "cohside.pn_line_bundle_cohomology",
               counters=("characters",), counts=_cech_counts),
    EntryPoint("cohside.costandard", "cohside.costandard_stalk"),
    EntryPoint("conside.complex", "conside.hom_complex",
               counters=("cells", "nnz"), counts=_complex_counts),
    EntryPoint("conside.rep_hom", "conside.rep_hom"),
    EntryPoint("conside.corep", "conside.corepresentable"),
    EntryPoint("conside.generators", "conside.beilinson_generators"),
    EntryPoint("conside.euler", "conside.euler_form"),
)

# Which end-to-end metric each per-layer metric should move, and on which
# workload; ``picsym`` runs only inside chamber_quiver, so its time stays
# in skeleton.quiver.self_s.
LAYER_TARGETS = {
    "zlin.rank.calls": "verdict_s, peak_rss_mb on two_sided",
    "zlin.rank.self_s": "verdict_s on two_sided and fan_geometry",
    "zlin.rank.entries": "verdict_s, peak_rss_mb on two_sided",
    "zlin.inverse.calls": "verdict_s on two_sided and lattice_hom",
    "zlin.inverse.self_s": "verdict_s on two_sided and lattice_hom",
    "zlin.snf.self_s": "verdict_s on fan_geometry",
    "zlin.character_of.calls": "verdict_s on lattice_hom",
    "zlin.character_of.self_s": "verdict_s on lattice_hom",
    "fans.dd.calls": "verdict_s, cold_verdict_s on fan_geometry",
    "fans.dd.self_s": "verdict_s, cold_verdict_s on fan_geometry",
    "fans.dd.rays_out": "verdict_s, cold_verdict_s on fan_geometry",
    "fans.faces.self_s": "verdict_s on fan_geometry",
    "fans.intersect.calls": "verdict_s on fan_geometry",
    "skeleton.chambers.calls": "verdict_s on two_sided and fan_geometry",
    "skeleton.chambers.self_s": "verdict_s on two_sided and fan_geometry",
    "skeleton.quiver.self_s": "verdict_s on fan_geometry",
    "skeleton.components.self_s": "verdict_s on fan_geometry",
    "cohside.enum.calls": "verdict_s on lattice_hom",
    "cohside.enum.self_s": "verdict_s on lattice_hom",
    "cohside.enum.points": "verdict_s on lattice_hom",
    "cohside.enum.distinct_ratio": "verdict_s on lattice_hom",
    "cohside.cech.calls": "verdict_s on lattice_hom, a little two_sided",
    "cohside.cech.self_s": "verdict_s on lattice_hom, a little two_sided",
    "cohside.cech.characters": "verdict_s on lattice_hom",
    "cohside.costandard.self_s": "verdict_s on lattice_hom",
    "conside.complex.calls": "verdict_s, peak_rss_mb on two_sided",
    "conside.complex.self_s": "verdict_s, peak_rss_mb on two_sided",
    "conside.complex.cells": "verdict_s, peak_rss_mb on two_sided",
    "conside.complex.nnz": "verdict_s, peak_rss_mb on two_sided",
    "conside.rep_hom.self_s": "verdict_s on two_sided",
    "conside.corep.self_s": "verdict_s on two_sided",
    "conside.generators.calls": "verdict_s on two_sided",
    "conside.euler.self_s": "verdict_s on two_sided",
    "bench.self_s": "none: the benchmark's own oracle code",
    "trace_overhead": "none: traced verdict_s / untraced verdict_s - 1",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: tuple = ()
    request: object = None


class Recorder:
    """Keeps the spans of one traced pass in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, entry, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(entry.span, perf_counter(), parent=parent)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if entry.counts is not None or entry.request is not None:
                start = perf_counter()
                if entry.counts is not None:
                    span.counts = entry.counts(args, kwargs, result)
                if entry.request is not None:
                    span.request = entry.request(args, kwargs)
                spans.append(Span("bench", start, perf_counter(), parent))
            return result

        return traced

    def layer_metrics(self, pass_seconds):
        """Per-layer calls, self time and counters for the recorded pass."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out = {}
        requests = {}
        counters = {}
        for entry in ENTRY_POINTS:
            out[f"{entry.span}.calls"] = 0
            out[f"{entry.span}.self_s"] = 0.0
            counters[entry.span] = [f"{entry.span}.{c}" for c in entry.counters]
            for name in counters[entry.span]:
                out[name] = 0
        library_self = 0.0
        for span, child_time in zip(self.spans, child):
            if span.name == "bench":
                continue
            own = span.end - span.start - child_time
            library_self += own
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.self_s"] += own
            for name, value in zip(counters[span.name], span.counts):
                out[name] += value
            if span.request is not None:
                requests.setdefault(span.name, set()).add(span.request)
        for entry in ENTRY_POINTS:
            if entry.request is not None:
                calls = out[f"{entry.span}.calls"]
                distinct = len(requests.get(entry.span, ()))
                out[f"{entry.span}.distinct_ratio"] = (
                    distinct / calls if calls else 0.0)
        out["bench.self_s"] = pass_seconds - library_self
        return out


def _module(name):
    try:
        return importlib.import_module(f"fltzlab.{name}")
    except ImportError:
        return None


def _resolve(target):
    """The object owning ``module.attr`` or ``module.Class.attr``, or None."""
    parts = target.split(".")
    owner = _module(parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
    return owner, parts[-1]


class Installation:
    """Wrappers installed for one traced pass; ``remove`` restores them."""

    def __init__(self, recorder, namespaces):
        self.missing = []
        self._undo = []
        for entry in ENTRY_POINTS:
            owner, attr = _resolve(entry.target)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"fltzlab.{entry.target}")
                continue
            for site in entry.sites:
                if getattr(_module(site), attr, None) is not original:
                    self.missing.append(f"fltzlab.{site}.{attr}")
            traced = recorder.wrap(entry, original)
            if isinstance(owner, type):
                self._patch(owner, attr, traced)
                continue
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, name, traced)

    def _patch(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def remove(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()
