"""Per-layer spans and counters, recorded from outside the program.

``Tracer.installed()`` replaces public functions and methods of each bsgkit
layer with wrappers, in every bsgkit module namespace that holds them, and
restores the originals on exit. No program file is changed.

A span records inclusive time and self time (its duration minus the time of
the spans it directly contains). ``leg_count`` is wrapped as a counter only:
it runs millions of times on larger instances. ``GroupSpec.add``/``canon``
and ``Bipartite.left_neighbors`` are counters too.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
from collections import Counter, defaultdict

from bsgkit import extraction, groups, hypergraph, instances, octopus, sumsets

# Layer of each span, for the self-time shares.
LAYERS = ("hypergraph", "octopus", "extraction", "sumsets", "instances")


class Tracer:
    """Spans and counters of the traced ops; create one per traced pass."""

    def __init__(self):
        # Frames are [span name, seconds spent in direct child spans].
        self.stack: list[list] = []
        self.time: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.count: Counter = Counter()
        self._in_leg = [False]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _close(self, name: str, frame: list, duration: float) -> None:
        self.stack.pop()
        self.time[name] += duration
        self.self_time[name] += duration - frame[1]
        if self.stack:
            self.stack[-1][1] += duration

    @contextlib.contextmanager
    def phase(self, name: str):
        """A span opened by the benchmark itself, around part of an op."""
        frame = [name, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, time.perf_counter() - start)

    def _span(self, name: str, fn, after=None):
        """Wrap fn as a span; after(parent_span, args, result) adds counts."""
        stack = self.stack
        close = self._close
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                close(name, frame, clock() - start)
            if after is not None:
                after(stack[-1][0], args, out)
            return out

        return wrapped

    # -- installation --------------------------------------------------

    def _replace_function(self, module, name: str, make_wrapper) -> None:
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "bsgkit" and getattr(mod, name, None) is original:
                self._patches.append((mod, name, original))
                setattr(mod, name, wrapper)

    def _replace_method(self, cls, name: str, make_wrapper) -> None:
        original = cls.__dict__[name]
        if isinstance(original, classmethod):
            wrapper = classmethod(make_wrapper(original.__func__))
        else:
            wrapper = make_wrapper(original)
        self._patches.append((cls, name, original))
        setattr(cls, name, wrapper)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layers' public calls for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            for owner, name, original in reversed(self._patches):
                setattr(owner, name, original)
            self._patches.clear()

    def _install(self) -> None:
        count = self.count
        stack = self.stack
        in_leg = self._in_leg
        in_leg[0] = False
        span = self._span

        # hypergraph
        self._replace_method(
            hypergraph.Instance, "from_json", lambda f: span("hypergraph.load", f)
        )

        def flatten(f):
            inner = span("hypergraph.flatten", f)

            def wrapped(h, i):
                count["hypergraph.flatten_calls"] += 1
                if in_leg[0]:
                    count["octopus.leg_flatten_calls"] += 1
                return inner(h, i)

            return wrapped

        self._replace_method(hypergraph.PartiteHypergraph, "flatten", flatten)
        self._replace_method(
            hypergraph.PartiteHypergraph, "induce", lambda f: span("hypergraph.induce", f)
        )

        def left_neighbors(f):
            def wrapped(g, z):
                if stack[-1][0] == "extraction.drc":
                    count["extraction.drc_pivots_scanned"] += 1
                return f(g, z)

            return wrapped

        self._replace_method(hypergraph.Bipartite, "left_neighbors", left_neighbors)

        # octopus
        def leg(f):
            def wrapped(h, part, v, w):
                count["octopus.leg_count_calls"] += 1
                if stack[-1][0] == "extraction.select":
                    count["extraction.partner_leg_calls"] += 1
                in_leg[0] = True
                out = f(h, part, v, w)
                in_leg[0] = False
                return out

            return wrapped

        self._replace_function(octopus, "leg_count", leg)

        def after_relaxed(parent, args, out):
            count["octopus.relaxed_count_calls"] += 1
            if parent == "instances.check_bounds":
                count["instances.verify_supports"] += 1

        self._replace_function(
            octopus,
            "octopus_count_relaxed",
            lambda f: span("octopus.relaxed_count", f, after_relaxed),
        )

        def after_table(parent, args, out):
            count["octopus.count_table_supports"] += len(out)

        self._replace_function(
            octopus,
            "relaxed_count_table",
            lambda f: span("octopus.count_table", f, after_table),
        )

        # extraction
        def after_drc(parent, args, out):
            count["extraction.drc_deletions"] += out.deletions

        self._replace_function(
            extraction, "drc_extract", lambda f: span("extraction.drc", f, after_drc)
        )
        self._replace_function(
            extraction, "iterate_extract", lambda f: span("extraction.iterate", f)
        )

        def after_select(parent, args, out):
            count["extraction.repair_rounds"] += sum(
                1 for entry in out.trace if entry.get("kind") == "count-repair"
            )

        for name in ("octopus_extract", "dense_extract"):
            self._replace_function(
                extraction, name, lambda f: span("extraction.select", f, after_select)
            )

        def after_sweep(parent, args, out):
            count["extraction.sweeps"] += 1
            count["extraction.sweep_supports"] += out.checked
            count["extraction.sweeps_sampled"] += 0 if out.exhaustive else 1

        self._replace_function(
            extraction,
            "verify_relaxed_counts",
            lambda f: span("extraction.sweep", f, after_sweep),
        )
        for name in ("bsg_extract", "almost_all_extract"):
            self._replace_function(
                extraction, name, lambda f: span("extraction.pipeline", f)
            )

        # sumsets and groups
        def after_restricted(parent, args, out):
            count["sumsets.restricted_sumset_edges"] += args[0].hypergraph.edge_count

        self._replace_function(
            sumsets,
            "restricted_sumset",
            lambda f: span("sumsets.restricted_sumset", f, after_restricted),
        )

        def after_sumset(parent, args, out):
            count["sumsets.sumset_calls"] += 1
            count["sumsets.sumset_pair_ops"] += len(args[0]) * len(args[1])

        self._replace_function(
            sumsets, "sumset", lambda f: span("sumsets.sumset", f, after_sumset)
        )
        self._replace_method(
            sumsets.ElemSet, "from_iterable", lambda f: span("sumsets.elemset_build", f)
        )

        def counted(key):
            def make(f):
                def wrapped(*args):
                    count[key] += 1
                    return f(*args)

                return wrapped

            return make

        self._replace_method(groups.GroupSpec, "add", counted("groups.add_calls"))
        self._replace_method(groups.GroupSpec, "canon", counted("groups.canon_calls"))

        # instances
        self._replace_function(
            instances, "check_bounds", lambda f: span("instances.check_bounds", f)
        )

        def after_brute(parent, args, out):
            inst, floors = args
            count["instances.brute_force_combos"] += math.prod(
                math.comb(size, floor) for size, floor in zip(inst.part_sizes, floors)
            )

        self._replace_function(
            instances,
            "brute_force_best_subsets",
            lambda f: span("instances.brute_force", f, after_brute),
        )


# Counters emitted as exact integers, under the names they are recorded by.
COUNTERS = (
    "hypergraph.flatten_calls",
    "octopus.relaxed_count_calls",
    "octopus.leg_count_calls",
    "octopus.count_table_supports",
    "extraction.drc_pivots_scanned",
    "extraction.drc_deletions",
    "extraction.partner_leg_calls",
    "extraction.sweeps",
    "extraction.sweep_supports",
    "extraction.repair_rounds",
    "sumsets.restricted_sumset_edges",
    "sumsets.sumset_calls",
    "sumsets.sumset_pair_ops",
    "groups.add_calls",
    "groups.canon_calls",
    "instances.verify_supports",
    "instances.brute_force_combos",
    # bases of the ratios in counter_ratios
    "octopus.leg_flatten_calls",
    "extraction.sweeps_sampled",
)

# Metric name -> (span name, inclusive "time" or "self" time).
SPAN_TIMES = {
    "hypergraph.load_s": ("hypergraph.load", "time"),
    "hypergraph.flatten_s": ("hypergraph.flatten", "time"),
    "hypergraph.induce_s": ("hypergraph.induce", "time"),
    "octopus.relaxed_count_s": ("octopus.relaxed_count", "time"),
    "octopus.count_table_s": ("octopus.count_table", "time"),
    "extraction.drc_s": ("extraction.drc", "time"),
    "extraction.iterate_self_s": ("extraction.iterate", "self"),
    "extraction.select_self_s": ("extraction.select", "self"),
    "extraction.sweep_s": ("extraction.sweep", "time"),
    "sumsets.restricted_sumset_s": ("sumsets.restricted_sumset", "time"),
    "sumsets.sumset_s": ("sumsets.sumset", "time"),
    "sumsets.elemset_build_s": ("sumsets.elemset_build", "time"),
    "instances.check_bounds_self_s": ("instances.check_bounds", "self"),
    "instances.brute_force_s": ("instances.brute_force", "time"),
}


def pass_counters(tracer: Tracer) -> dict[str, int]:
    """Exact integer counters of one traced pass."""
    return {name: tracer.count[name] for name in COUNTERS}


def counter_ratios(counts: dict[str, int]) -> dict[str, float]:
    """leg_cache_hit_ratio is 1 - (flatten calls made inside leg_count) over
    leg_count calls; sweep_sampled_share is sampled sweeps over sweeps."""
    legs = counts["octopus.leg_count_calls"]
    sweeps = counts["extraction.sweeps"]
    return {
        "octopus.leg_cache_hit_ratio": (
            1 - counts["octopus.leg_flatten_calls"] / legs if legs else 0.0
        ),
        "extraction.sweep_sampled_share": (
            counts["extraction.sweeps_sampled"] / sweeps if sweeps else 0.0
        ),
    }


def pass_times(tracer: Tracer) -> dict[str, float]:
    """Per-layer seconds of one traced pass, plus each layer's self-time share."""
    out = {}
    for metric, (span_name, kind) in SPAN_TIMES.items():
        table = tracer.time if kind == "time" else tracer.self_time
        out[metric] = table[span_name]
    op_time = tracer.time["op.extract"] + tracer.time["op.verify"]
    out["trace.op_s"] = op_time
    uncovered = tracer.self_time["op.extract"] + tracer.self_time["op.verify"]
    out["trace.span_coverage"] = (op_time - uncovered) / op_time
    out["trace.extract_share"] = tracer.time["op.extract"] / op_time
    for layer in LAYERS:
        own = sum(t for name, t in tracer.self_time.items() if name.split(".")[0] == layer)
        out[f"trace.{layer}_self_share"] = own / op_time
    return out
