"""Span recording for the traced run.

The tracer wraps library entry points at the name each caller looks up
(for example `rref` as `ebcache.delivery.rref`, because `delivery` binds
it at import) and records one span per call: name, start, end and the
index of the enclosing span.  Spans stay in memory and are written out
when the run ends.  A layer's self time is its span's duration minus the
durations of its direct children.

Targets are resolved at install time.  One that no longer exists, such
as a private engine method a later change removed or renamed, is
reported as absent and left unwrapped; the run goes on without it.
Nothing is patched outside `Tracer.installed()`, so an untraced run never
touches a private name.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


def _count_rref(counts, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    counts["gf256.rref_calls"] += 1
    # rows x (unknown columns + payload width); rref works in place, so the
    # shape after the call is the shape it eliminated
    counts["gf256.rref_cells"] += int(matrix.shape[0]) * int(matrix.shape[1])


def _count_calls(metric: str) -> Callable:
    def count(counts, args, kwargs, result):
        counts[metric] += 1
    return count


def _count_delivery(counts, args, kwargs, result):
    counts["delivery.slots"] += result.slots_total - result.cleanup_slots
    counts["delivery.cleanup_slots"] += result.cleanup_slots


def _count_fastsim(counts, args, kwargs, result):
    counts["fastsim.slots"] += result.slots_total
    counts["fastsim.subphases"] += len(result.slots_per_subphase)


@dataclass(frozen=True)
class Target:
    """`path` is "module:attribute[.attribute]"; `span` names the layer."""

    path: str
    span: str
    count: Callable | None = None


TARGETS = (
    Target("ebcache.delivery:run_delivery", "delivery.run_delivery",
           _count_delivery),
    Target("ebcache.delivery:_Engine.run", "delivery.run"),
    Target("ebcache.delivery:_Engine.decode_user", "delivery.decode_user"),
    Target("ebcache.delivery:_Engine.cleanup", "delivery.cleanup"),
    Target("ebcache.delivery:rref", "gf256.rref", _count_rref),
    Target("ebcache.delivery:gf_dot", "gf256.gf_dot",
           _count_calls("gf256.gf_dot_calls")),
    Target("ebcache.delivery:append_reduced", "gf256.append_reduced"),
    Target("ebcache.placement:decentralized_placement", "placement",
           _count_calls("placement.calls")),
    Target("ebcache.placement:centralized_placement", "placement",
           _count_calls("placement.calls")),
    Target("ebcache.experiments:decentralized_placement", "placement",
           _count_calls("placement.calls")),
    Target("ebcache.experiments:centralized_placement", "placement",
           _count_calls("placement.calls")),
    Target("ebcache.fastsim:initial_needs", "fastsim.initial_needs"),
    Target("ebcache.fastsim:simulate_lengths", "fastsim.simulate_lengths",
           _count_fastsim),
    Target("ebcache.experiments:sweep", "experiments.sweep"),
    Target("ebcache.experiments:monte_carlo", "experiments.monte_carlo"),
    Target("ebcache.experiments:optimize_memory", "experiments.optimize_memory"),
    Target("ebcache.analysis:phase_plan", "analysis.phase_plan",
           _count_calls("analysis.phase_plan_calls")),
    Target("ebcache.analysis:ttot_closed_form", "analysis.ttot_closed_form",
           _count_calls("analysis.ttot_closed_form_calls")),
    Target("ebcache.analysis:feasibility", "analysis.feasibility"),
    Target("ebcache.analysis:identity_suite", "analysis.identity_suite"),
    Target("ebcache.cli:main", "cli.main"),
)

# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "gf256.rref_s": "gf256.rref",
    "delivery.decode_user_s": "delivery.decode_user",
    "delivery.run_s": "delivery.run",
    "gf256.gf_dot_s": "gf256.gf_dot",
    "delivery.cleanup_s": "delivery.cleanup",
    "gf256.append_reduced_s": "gf256.append_reduced",
    "delivery.run_delivery_s": "delivery.run_delivery",
    "fastsim.simulate_lengths_s": "fastsim.simulate_lengths",
    "fastsim.initial_needs_s": "fastsim.initial_needs",
    "placement.self_s": "placement",
    "experiments.sweep_s": "experiments.sweep",
    "experiments.monte_carlo_s": "experiments.monte_carlo",
    "analysis.phase_plan_s": "analysis.phase_plan",
    "analysis.ttot_closed_form_s": "analysis.ttot_closed_form",
    "analysis.feasibility_s": "analysis.feasibility",
    "analysis.identity_suite_s": "analysis.identity_suite",
    "experiments.optimize_memory_s": "experiments.optimize_memory",
    "cli.main_s": "cli.main",
}

COUNTS = (
    "gf256.rref_calls", "gf256.rref_cells", "delivery.slots",
    "gf256.gf_dot_calls", "delivery.cleanup_slots", "fastsim.slots",
    "fastsim.subphases", "placement.calls", "analysis.phase_plan_calls",
    "analysis.ttot_closed_form_calls",
)


def _resolve(path: str):
    """(owner object, attribute name) for a target path, or None when the
    module or any attribute along the path is gone."""
    module_name, attrs = path.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, last = attrs.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, last, None)):
        return None
    return owner, last


class Tracer:
    """Records spans and counts around the targets while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.absent: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        saved = []
        self.absent = []
        try:
            for target in self.targets:
                found = _resolve(target.path)
                if found is None:
                    self.absent.append(target.path)
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, target))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, fn, target: Target):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (target.span, start, clock(), parent)
                stack.pop()
            if target.count is not None:
                target.count(counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one operation."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = (name, start, time.perf_counter(), parent)
            self._stack.pop()

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Summed self time per span name over spans[first:], which must
        hold whole subtrees (every child's parent inside the range)."""
        window = self.spans[first:]
        child = [0.0] * len(window)
        for name, start, end, parent in window:
            if parent >= first:
                child[parent - first] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(window):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def write(self, path, meta: dict) -> None:
        """Write every span as [name, start, end, parent] with the run's
        metadata and the absent targets."""
        doc = dict(meta, absent=self.absent, counts=self.counts,
                   fields=["name", "start_s", "end_s", "parent"],
                   spans=[list(s) for s in self.spans])
        with open(path, "w") as fh:
            json.dump(doc, fh)
