"""Constructive extraction pipelines.

The pipelines select large index subsets of each part so that every support
tuple across the chosen subsets carries many octopuses, then bound the
sumset of the chosen subsets through exact inequality reports. All
thresholds are exact rationals compared exactly; nothing is rounded.

The neighborhood selection step is deterministic: pivots are scanned in
descending degree (ties by index) and repaired by greedy deletion, then the
claimed conditions are verified before returning. Identical inputs always
produce identical traces and subsets.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import lt
from typing import Callable, Sequence

from .errors import (
    ConfigInvalidError,
    DensityTooLowError,
    EmptyPartError,
    EpsilonTooLargeError,
    HypothesisViolatedError,
    NoWitnessError,
    UnequalPartsError,
)
from .hypergraph import Bipartite, Instance, PartiteHypergraph
from .jsonio import exact_param, frac_str, parse_fraction
from .octopus import relaxed_count_table
from .report import BoundReport, Inequality, check_eq, check_ge, check_le
from .sumsets import iterated_sumset, restricted_sumset


@dataclass(frozen=True)
class DrcOutcome:
    """A verified neighborhood: the pivot, the left subset, and the exact
    thresholds it was checked against."""

    pivot: int
    repaired: bool
    deletions: int
    u: tuple[int, ...]
    bad_pair_fraction: Fraction
    codegree_threshold: Fraction


@dataclass(frozen=True)
class IterateOutcome:
    """Result of one prune-then-select round on a single part."""

    u: tuple[int, ...]
    survivors: tuple[int, ...]
    k_prime: Fraction
    degree_floor: Fraction
    leg_threshold: Fraction
    good_fraction: Fraction
    drc: DrcOutcome


@dataclass(frozen=True)
class ExtractionResult:
    """Chosen index subsets plus the ordered trace of every stage.

    However it is built, it has a known mode; trace[0] is the ambient entry,
    whose run parameters (k, or epsilon and delta, and any claimed c) pass
    its mode's pipeline checks at r = len(subsets); and every subset is
    non-empty, strictly increasing int indices. Else ConfigInvalidError.
    """

    mode: str
    subsets: tuple[tuple[int, ...], ...]
    epsilon: Fraction | None
    trace: tuple[dict, ...]

    def __post_init__(self):
        ambient = self.trace[0] if self.trace else None
        if not isinstance(ambient, dict) or ambient.get("kind") != "ambient":
            raise ConfigInvalidError("result trace does not start with an ambient entry")
        if self.mode == "general":
            _check_general_run(parse_fraction(ambient.get("k")))
        elif self.mode in ("dense", "almost-all"):
            delta = parse_fraction(ambient.get("delta"))
            if self.epsilon is None:
                raise ConfigInvalidError(f"{self.mode} result carries no epsilon")
            _check_dense_run(len(self.subsets), self.epsilon, delta)
        else:
            raise ConfigInvalidError(f"unknown mode {self.mode!r}")
        if "c" in ambient:
            _claimed_cap(self.mode, len(self.subsets), parse_fraction(ambient["c"]))
        for i, sub in enumerate(self.subsets):
            if not sub:
                raise ConfigInvalidError(f"chosen subset for part {i} is empty")
            if set(map(type, sub)) != {int} or not all(map(lt, sub, sub[1:])):
                raise ConfigInvalidError(
                    f"chosen subset for part {i} is not strictly increasing int indices"
                )

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.subsets)

    def trace_entry(self, kind: str) -> dict:
        for entry in self.trace:
            if entry.get("kind") == kind:
                return entry
        raise KeyError(f"no trace entry of kind {kind!r}")

    def to_json(self) -> dict:
        return {
            "epsilon": None if self.epsilon is None else frac_str(self.epsilon),
            "mode": self.mode,
            "subsets": [list(s) for s in self.subsets],
            "trace": list(self.trace),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExtractionResult":
        eps = data.get("epsilon")
        return cls(
            mode=data["mode"],
            subsets=tuple(tuple(s) for s in data["subsets"]),
            epsilon=None if eps is None else parse_fraction(eps),
            trace=tuple(data.get("trace", [])),
        )


@dataclass(frozen=True)
class SweepOutcome:
    """Minimum relaxed count over every support of a box and the floor used.

    exhaustive is always true, since the whole box is counted; the
    count-verify trace entry keeps the field so that extract reports keep
    their bytes.
    """

    threshold: Fraction
    exhaustive: bool
    checked: int
    min_count: int
    min_support: tuple[int, ...]
    failing_supports: tuple[tuple[int, ...], ...]

    @property
    def failures(self) -> int:
        return len(self.failing_supports)

    def to_trace(self) -> dict:
        return {
            "kind": "count-verify",
            "threshold": frac_str(self.threshold),
            "exhaustive": self.exhaustive,
            "checked": self.checked,
            "min_count": frac_str(self.min_count),
            "min_support": list(self.min_support),
            "failures": self.failures,
        }


def verify_relaxed_counts(
    h: PartiteHypergraph,
    subsets: Sequence[Sequence[int]],
    threshold: Fraction,
) -> SweepOutcome:
    """Check the relaxed count floor over every support of the subsets' box.

    One relaxed_count_table call counts the whole box. Per last-part vertex
    its fields give their minimum, the index of the first field at it and,
    only where that minimum is below ceil(threshold), the fields below. The
    minimum's support is the lexicographically first one at the minimum;
    the failing supports are sorted.
    """
    if any(not sub for sub in subsets):
        raise EmptyPartError("cannot verify over an empty subset")
    limit = math.ceil(threshold)  # an integer count is below t iff below ceil(t)
    lows = []  # (minimum, index of its first field, v_last) per last-part vertex
    failing = []  # (field index, v_last) of each support below the limit
    for v_last, fields in relaxed_count_table(h, subsets):
        low = min(fields)
        lows.append((low, fields.index(low), v_last))
        if low < limit:
            failing += [(j, v_last) for j, c in enumerate(fields) if c < limit]
    min_count, j, v_last = min(lows)
    # fields[j] belongs to the j-th head, so (j, v_last) pairs sort as supports
    head_parts = [sorted(set(sub)) for sub in subsets[:-1]]
    return SweepOutcome(
        threshold=threshold,
        exhaustive=True,
        checked=math.prod(map(len, head_parts)) * len(lows),
        min_count=min_count,
        min_support=(*_head(head_parts, j), v_last),
        failing_supports=tuple((*_head(head_parts, j), v) for j, v in sorted(failing)),
    )


def _head(head_parts: Sequence[Sequence[int]], j: int) -> tuple[int, ...]:
    """The j-th tuple of itertools.product(*head_parts), decoded in mixed
    radix with the last part least significant."""
    out = []
    for part in reversed(head_parts):
        j, digit = divmod(j, len(part))
        out.append(part[digit])
    return tuple(reversed(out))


def _low_partners(adj: Sequence[int], u: Sequence[int], threshold: Fraction) -> list[int]:
    """For each v in u, how many w in u, v itself included, have codegree
    |N(v) & N(w)| below threshold; adj holds the neighborhood bitmasks."""
    limit = math.ceil(threshold)  # an integer count is below t iff below ceil(t)
    masks = [adj[v] for v in u]
    return [sum((a & b).bit_count() < limit for b in masks) for a in masks]


def drc_extract(g: Bipartite, k: Fraction, eps: Fraction) -> DrcOutcome:
    """Find a left subset in which almost all ordered pairs have high codegree.

    Requires edge count >= left*right/k. Scans right pivots in descending
    degree (ties by index), starts from the pivot's neighborhood, and while
    the subset is at or above its size floor deletes the vertex
    participating in the most bad ordered pairs. Both claimed conditions are
    verified before returning; ordered pairs include (v, v), whose codegree
    is the degree of v. Any pivot that passes is a valid witness; the first one in
    scan order is returned, so identical inputs give identical outcomes.
    """
    k, eps = _drc_params(k, eps)
    a_size = g.left_size
    b_size = g.right_size
    if g.edge_count < _density_floor(a_size * b_size, k):
        raise DensityTooLowError(f"{g.edge_count} edges is below {a_size}*{b_size}/{k}")
    size_floor = Fraction(a_size) / (2 * k)
    cothreshold = _codegree_floor(eps, b_size, k)

    if a_size == 0:
        return DrcOutcome(-1, False, 0, (), Fraction(0), cothreshold)

    degrees = g.right_degrees
    # a stable sort, so pivots of equal degree keep index order
    for pivot in sorted(range(b_size), key=lambda z: -degrees[z]):
        u = g.left_neighbors(pivot)
        deletions = 0
        while Fraction(len(u)) >= size_floor:
            row_bad = _low_partners(g.adj, u, cothreshold)
            bad = sum(row_bad)
            pairs = len(u) * len(u)
            if Fraction(bad) <= eps * pairs:
                fraction = Fraction(bad, pairs) if pairs else Fraction(0)
                return DrcOutcome(
                    pivot=pivot,
                    repaired=deletions > 0,
                    deletions=deletions,
                    u=tuple(u),
                    bad_pair_fraction=fraction,
                    codegree_threshold=cothreshold,
                )
            worst = None
            worst_score = -1
            for idx, v in enumerate(u):
                diag = 1 if g.adj[v].bit_count() < cothreshold else 0
                score = 2 * row_bad[idx] - diag
                if score > worst_score:
                    worst_score = score
                    worst = v
            u.remove(worst)
            deletions += 1
    raise NoWitnessError(
        "no pivot produced a verified subset; the density precondition was "
        "violated or the density parameter was understated"
    )


def iterate_extract(flat: Bipartite, k: Fraction, eps: Fraction) -> IterateOutcome:
    """Prune low-degree left vertices of a flattening, then select a verified
    subset.

    flat is the flattening of the current stage's hypergraph against the
    part being selected; octopus_extract passes a cut of the ambient
    flattening (Bipartite.restrict_leading), never an induced copy. k and
    eps must meet drc_extract's rules, k > 0 and 0 < eps < 1. Keeps
    left vertices of degree at least |Z|/(2k), reading each degree once from
    one popcount per row, reruns the density parameter exactly on the pruned
    graph, and applies drc_extract. The returned subset satisfies, and is
    checked against: size at least left_size/(4k), at least a (1 - eps)
    fraction of ordered pairs with leg count at least eps|Z|/(2k^2), and
    minimum degree at least |Z|/(2k).
    """
    k, eps = _drc_params(k, eps)
    left_size = flat.left_size
    right_size = flat.right_size
    if left_size == 0 or right_size == 0:
        raise EmptyPartError("all parts must be non-empty")
    degrees = [mask.bit_count() for mask in flat.adj]
    edge_count = sum(degrees)
    total = left_size * right_size
    if edge_count < _density_floor(total, k):
        raise DensityTooLowError(f"{edge_count} edges is below {total}/{k}")
    degree_floor = Fraction(right_size) / (2 * k)
    survivors = [v for v, d in enumerate(degrees) if d >= degree_floor]
    e_prime = sum(degrees[v] for v in survivors)
    if not survivors or e_prime == 0:
        raise NoWitnessError("pruning removed every vertex; precondition violated")
    k_prime = Fraction(len(survivors) * right_size, e_prime)
    g_prime = Bipartite(
        len(survivors), flat.right_shape, tuple(flat.adj[v] for v in survivors)
    )
    drc = drc_extract(g_prime, k_prime, eps)
    u = tuple(sorted(survivors[i] for i in drc.u))

    if Fraction(len(u)) < Fraction(left_size) / (4 * k):
        raise NoWitnessError("selected subset is below its size floor")
    leg_threshold = _codegree_floor(eps, right_size, k)
    pairs = len(u) * len(u)
    good = pairs - sum(_low_partners(flat.adj, u, leg_threshold))
    if Fraction(good) < (1 - eps) * pairs:
        raise NoWitnessError("good ordered-pair fraction fell below 1 - eps")
    if any(degrees[v] < degree_floor for v in u):
        raise NoWitnessError("a selected vertex is below the degree floor")
    return IterateOutcome(
        u=u,
        survivors=tuple(survivors),
        k_prime=k_prime,
        degree_floor=degree_floor,
        leg_threshold=leg_threshold,
        good_fraction=Fraction(good, pairs),
        drc=drc,
    )


def octopus_extract(inst: Instance, k: Fraction) -> ExtractionResult:
    """Select per-part subsets so that every support carries many octopuses.

    The pair-quality parameter is eps = 1/((r-1) 2^(r+3) k); since k >= 1 is
    required, eps <= 1/32; the first round's iterate_extract checks on
    h.flatten(0) that no part is empty and that there are total/k edges.
    Runs one prune-and-select round per part below the last (drc_extract,
    pivots in descending degree), each followed by a partner filter that
    keeps vertices forming good pairs with all but a 2*eps fraction of the
    selected set, then keeps last-part vertices of high degree in the
    filtered hypergraph. Partner counting treats the vertex itself as a
    good partner, so the kept set is exactly the set whose bad partner
    count is at most 2*eps times the selected size.

    No stage induces a hypergraph. The parts stage s has already restricted
    are the leading right digits of h.flatten(s), so each stage reads that
    flattening cut to the kept lists (Bipartite.restrict_leading). The
    stage-density count sums the kept rows' popcounts, and the last part's
    degrees come from the right degrees of the last stage's kept rows. The
    partner filter reads the same h.flatten(p) and the count sweep its
    cached copy, so each part below the last is flattened once per run.

    After selection, the relaxed count of every support of the chosen
    subsets is verified against the derived floor and recorded in the
    trace.
    """
    h = inst.hypergraph
    r = inst.r
    k = exact_param("k", k, None)
    _check_general_run(k)
    ambient = h.part_sizes
    eps = Fraction(1) / ((r - 1) * 2 ** (r + 3) * k)

    trace: list[dict] = [
        {
            "kind": "ambient",
            "sizes": list(ambient),
            "k": frac_str(k),
        }
    ]
    subsets: list[tuple[int, ...] | None] = [None] * r

    for stage in range(r - 1):
        p = stage
        k_param = (2**stage) * k
        # parts 0..p-1 are the leading right digits of h.flatten(p); cutting
        # them to their kept lists gives the restricted hypergraph's flattening
        flat = h.flatten(p)
        cut = flat.restrict_leading(subsets[:p])
        it = iterate_extract(cut, k_param, eps)
        a_tilde = it.u
        trace.append(
            {
                "kind": "prune",
                "part": p,
                "degree_floor": frac_str(it.degree_floor),
                "survivors": list(it.survivors),
            }
        )
        trace.append(
            {
                "kind": "drc",
                "part": p,
                "k_param": frac_str(k_param),
                "k_prime": frac_str(it.k_prime),
                "pivot": it.drc.pivot,
                "repaired": it.drc.repaired,
                "deletions": it.drc.deletions,
                "codegree_threshold": frac_str(it.drc.codegree_threshold),
                "bad_pair_fraction": frac_str(it.drc.bad_pair_fraction),
                "leg_threshold": frac_str(it.leg_threshold),
                "good_fraction": frac_str(it.good_fraction),
                "selected": list(a_tilde),
            }
        )

        leg_floor = eps_good_threshold(r, p, eps, k, ambient)
        partner_cap = 2 * eps * len(a_tilde)
        adj = flat.adj
        low = _low_partners(adj, a_tilde, leg_floor)
        # v is its own good partner: discount the (v, v) pair when it is low
        kept = [
            v
            for v, n_low in zip(a_tilde, low)
            if n_low - (adj[v].bit_count() < leg_floor) <= partner_cap
        ]
        if not kept:
            raise NoWitnessError(f"partner filter emptied part {p}")
        trace.append(
            {
                "kind": "markov",
                "part": p,
                "leg_floor": frac_str(leg_floor),
                "partner_cap": frac_str(partner_cap),
                "candidates": list(a_tilde),
                "kept": list(kept),
            }
        )
        subsets[p] = tuple(kept)

        # the kept rows of the cut flatten the hypergraph restricted on parts
        # 0..p, against part p
        restricted = Bipartite(len(kept), cut.right_shape, tuple(cut.adj[v] for v in kept))
        stage_edges = restricted.edge_count
        stage_floor = _density_floor(
            restricted.left_size * restricted.right_size, 2 ** (stage + 1) * k
        )
        trace.append(
            {
                "kind": "stage-density",
                "stage": stage + 1,
                "edges": stage_edges,
                "floor": frac_str(stage_floor),
                "pass": Fraction(stage_edges) >= stage_floor,
            }
        )

    last = r - 1
    tail_floor = Fraction(
        math.prod(len(subsets[i]) for i in range(r - 1))
    ) / (2**r * k)
    # the last part is the least significant right digit of the last cut
    rd = restricted.right_degrees
    n_last = ambient[last]
    kept_r = [v for v in range(n_last) if sum(rd[v::n_last]) >= tail_floor]
    if not kept_r:
        raise NoWitnessError("degree filter emptied the last part")
    subsets[last] = tuple(kept_r)
    trace.append(
        {
            "kind": "tail-degree",
            "part": last,
            "threshold": frac_str(tail_floor),
            "kept": list(kept_r),
        }
    )

    count_floor = _general_count_floor(r, k, h.total_tuples)
    size_floors = [_size_floor(p, ambient[p], k) for p in range(r)]

    # The degree and partner filters cannot rule out a support vertex whose
    # few edges all point back at the support itself; such a support carries
    # no octopus at all. When that happens, the subsets are shrunk minimally.
    sweep = verify_relaxed_counts(h, subsets, count_floor)
    if sweep.failures:
        sweep = _repair_counts(h, subsets, size_floors, sweep, trace)

    for p in range(r):
        trace.append(
            {
                "kind": "size-floor",
                "part": p,
                "size": len(subsets[p]),
                "floor": frac_str(size_floors[p]),
                "pass": Fraction(len(subsets[p])) >= size_floors[p],
            }
        )
    trace.append(sweep.to_trace())
    return ExtractionResult(
        mode="general",
        subsets=tuple(subsets),
        epsilon=eps,
        trace=tuple(trace),
    )


def _repair_counts(
    h: PartiteHypergraph,
    subsets: list[tuple[int, ...]],
    size_floors: Sequence[Fraction],
    sweep: SweepOutcome,
    trace: list[dict],
) -> SweepOutcome:
    """Shrink the subsets of a failed sweep, in place, and return the sweep
    of the repaired box.

    Repeatedly drops the vertex participating in the most failing supports
    (ties by part, then vertex), as long as its part stays at or above its
    size floor, and appends a count-repair entry to trace for each. A
    support's relaxed count reads only the ambient hypergraph, so dropping
    a vertex fails no new support: the failing supports are the first
    sweep's less those through a dropped vertex, and each vertex's
    participation count follows them. The queue holds (count, -part,
    -vertex) in ascending order, so its last entry is the next candidate.
    Counts only fall, so an entry whose count has fallen goes back in with
    its new count; parts only shrink, so a vertex of a part at its floor
    leaves for good. One final sweep over the repaired box follows.
    """
    failing = set(sweep.failing_supports)
    through = defaultdict(list)  # the failing supports through each (part, vertex)
    for sup in failing:
        for key in enumerate(sup):
            through[key].append(sup)
    participation = {key: len(sups) for key, sups in through.items()}
    queue = sorted((n, -p, -v) for (p, v), n in participation.items())
    while failing and queue:
        n, p, v = queue.pop()
        p, v = -p, -v
        if n != participation[p, v]:
            if participation[p, v]:
                bisect.insort(queue, (participation[p, v], -p, -v))
            continue
        new_size = len(subsets[p]) - 1
        if new_size < 1 or Fraction(new_size) < size_floors[p]:
            continue  # cannot shrink part p further without breaching its floor
        at = bisect.bisect_left(subsets[p], v)
        subsets[p] = subsets[p][:at] + subsets[p][at + 1 :]
        trace.append(
            {
                "kind": "count-repair",
                "part": p,
                "vertex": v,
                "failures_before": len(failing),
            }
        )
        for sup in through.pop((p, v)):
            if sup in failing:
                failing.remove(sup)
                for other in enumerate(sup):
                    participation[other] -= 1
    if len(failing) == sweep.failures:
        return sweep
    return verify_relaxed_counts(h, subsets, sweep.threshold)


def dense_extract(
    inst: Instance,
    eps: Fraction,
    delta: Fraction | str = "auto",
) -> ExtractionResult:
    """Almost-spanning extraction for nearly complete hypergraphs.

    Keeps vertices of degree at least (1 - delta/eps) n^(r-1) per part and
    trims each part to exactly ceil((1 - eps) n) vertices by dropping the
    highest indices. delta="auto" resolves to eps/(10r). Every support is
    verified against the n^(r(r-1))/2 count floor.
    eps and the resolved delta must pass _check_dense_run, as a result does.
    """
    h = inst.hypergraph
    r = inst.r
    if len(set(h.part_sizes)) != 1:
        raise UnequalPartsError(f"part sizes {h.part_sizes} are not all equal")
    n = h.part_sizes[0]
    if n == 0:
        raise EmptyPartError("parts are empty")
    eps = exact_param("eps", eps, None)
    delta = exact_param("delta", delta, "auto")
    delta_auto = delta == "auto"
    delta_val = eps / (10 * r) if delta_auto else delta
    _check_dense_run(r, eps, delta_val)
    total = h.total_tuples
    if h.edge_count < _near_complete_floor(delta_val, total):
        raise DensityTooLowError(
            f"{h.edge_count} edges is below (1 - {delta_val}) * {total}"
        )

    trace: list[dict] = [
        {
            "kind": "ambient",
            "sizes": list(h.part_sizes),
            "delta": frac_str(delta_val),
            "delta_auto": delta_auto,
        }
    ]
    degree_floor = (1 - delta_val / eps) * n ** (r - 1)
    target = _trimmed_target(eps, n)
    subsets = []
    for i in range(r):
        qualifying = [
            v for v in range(n) if h.degree(i, v) >= degree_floor
        ]
        if len(qualifying) < target:
            raise NoWitnessError(
                f"part {i}: only {len(qualifying)} vertices reach the degree floor, "
                f"need {target}"
            )
        kept = qualifying[:target]
        subsets.append(tuple(kept))
        trace.append(
            {
                "kind": "degree-filter",
                "part": i,
                "threshold": frac_str(degree_floor),
                "qualifying": list(qualifying),
                "kept": list(kept),
                "target": target,
            }
        )

    sweep = verify_relaxed_counts(h, subsets, _dense_count_floor(r, n))
    trace.append(sweep.to_trace())
    return ExtractionResult(
        mode="dense",
        subsets=tuple(subsets),
        epsilon=eps,
        trace=tuple(trace),
    )


def _density_floor(total: int, k: Fraction) -> Fraction:
    """Edge-count floor at density parameter k over total tuples: total / k."""
    return Fraction(total) / k


def _near_complete_floor(delta: Fraction, total: int) -> Fraction:
    """Edge-count floor of the dense modes: (1 - delta) total."""
    return (1 - delta) * total


def _codegree_floor(eps: Fraction, right_size: int, k: Fraction) -> Fraction:
    """Codegree floor of a good pair at density parameter k: eps |Z| / (2 k^2)."""
    return eps * right_size / (2 * k * k)


def eps_good_threshold(
    r: int, part: int, eps: Fraction, k: Fraction, ambient_sizes: Sequence[int]
) -> Fraction:
    """Leg-count floor for a good pair in `part` (0-based) at quality eps.

    The floor is eps / (2^(r^2) * k^(part+2)) times the product of the
    ambient sizes of the other parts; ambient sizes are the original part
    sizes of the run, not the current filtered sizes.
    """
    if len(ambient_sizes) != r:
        raise ConfigInvalidError(f"{len(ambient_sizes)} ambient sizes for arity {r}")
    prod = 1
    for j, s in enumerate(ambient_sizes):
        if j != part:
            prod *= s
    return Fraction(eps) * prod / (2 ** (r * r) * Fraction(k) ** (part + 2))


def _bsg_constant(r: int, k: Fraction) -> Fraction:
    """8^(r^3) (r-1)^(r-1) k^((r^2+5r-4)/2), shared by the general count
    floor and the growth cap; r^2+5r-4 is always even."""
    return 8 ** (r**3) * (r - 1) ** (r - 1) * Fraction(k) ** ((r * r + 5 * r - 4) // 2)


def _general_count_floor(r: int, k: Fraction, total: int) -> Fraction:
    """Relaxed count floor of the general pipeline: total^(r-1) / constant."""
    return Fraction(total ** (r - 1)) / _bsg_constant(r, k)


def _size_floor(part: int, part_size: int, k: Fraction) -> Fraction:
    """Size floor of the chosen subset of `part` (0-based): size / (2^(part+3) k)."""
    return Fraction(part_size) / (2 ** (part + 3) * k)


def _dense_count_floor(r: int, n: int) -> Fraction:
    """Relaxed count floor of the dense pipeline: n^(r(r-1)) / 2."""
    return Fraction(n ** (r * (r - 1)), 2)


def _trimmed_target(eps: Fraction, n: int) -> int:
    """Exact size of every dense-pipeline subset: ceil((1 - eps) n)."""
    return math.ceil((1 - Fraction(eps)) * n)


def sumset_growth_cap_pow_r(r: int, k: Fraction, c_pow_r: Fraction, total: int) -> Fraction:
    """r-th power of the sumset growth cap, as an exact rational.

    The cap itself is 8^(r^3) (r-1)^(r-1) k^((r^2+5r-4)/2) C^(2r-1) times the
    r-th root of the part size product; raising to the r-th power removes
    the roots so everything stays rational.
    """
    return _bsg_constant(r, k) ** r * Fraction(c_pow_r) ** (2 * r - 1) * total


def _restricted_cap_row(
    mode: str, size: int, cap: Fraction, part_sizes: Sequence[int]
) -> Inequality:
    """The restricted sumset size against its cap: size^r <= cap * total in
    general mode (cap = C^r), size <= cap * n in the dense modes (cap = C)."""
    if mode == "general":
        return check_le(
            "restricted-sumset-cap",
            Fraction(size ** len(part_sizes)),
            cap * math.prod(part_sizes),
            "restricted sumset size against the cap, r-th powers",
        )
    return check_le(
        "restricted-sumset-cap-linear",
        Fraction(size),
        cap * part_sizes[0],
        "restricted sumset size against the linear cap",
    )


def _drc_params(k: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """k and eps of drc_extract and iterate_extract as exact values, with
    k > 0 and 0 < eps < 1; else ConfigInvalidError."""
    k = exact_param("k", k, None)
    eps = exact_param("eps", eps, None)
    if not 0 < eps < 1:
        raise ConfigInvalidError(f"eps must lie in (0, 1), got {eps}")
    if k <= 0:
        raise ConfigInvalidError(f"density parameter must be positive, got {k}")
    return k, eps


def _check_general_run(k: Fraction) -> None:
    """The general run parameter: a density parameter k >= 1."""
    if k < 1:
        raise ConfigInvalidError(f"density parameter k must be >= 1, got {k}")


def _check_dense_run(r: int, eps: Fraction, delta: Fraction) -> None:
    """The dense modes' run parameters at arity r: 0 < eps < 1/(10r), 0 <= delta < 1."""
    if eps <= 0:
        raise ConfigInvalidError(f"eps must be positive, got {eps}")
    if 10 * r * eps >= 1:
        raise EpsilonTooLargeError(f"eps {eps} is not below 1/(10*{r})")
    _check_delta(delta)


def _check_delta(delta: Fraction) -> None:
    """The near-complete parameter of the dense modes and generator: 0 <= delta < 1."""
    if not 0 <= delta < 1:
        raise ConfigInvalidError(f"delta must lie in [0, 1), got {delta}")


def _claimed_cap(mode: str, r: int, c: Fraction | str) -> Fraction | None:
    """The sumset cap a claimed C stands for: C^r in general mode, C in the
    dense modes; None when c is "measured". A C <= 0 raises
    ConfigInvalidError."""
    if c == "measured":
        return None
    _check_cap(c)
    return c**r if mode == "general" else c


def _check_cap(c: Fraction) -> None:
    """A sumset cap C, claimed for a run or planted by the generator: C > 0."""
    if c <= 0:
        raise ConfigInvalidError(f"sumset cap C must be positive, got {c}")


def ledger(
    inst: Instance, result: ExtractionResult, restricted_size: int | None, min_count: int
) -> BoundReport:
    """Every inequality row of the result's mode, in report order.

    The two routes differ only in the count they pass: the minimum relaxed
    count over every support of the chosen subsets, as a pipeline recorded
    it or as check_bounds recounted it. Each route computes the restricted
    sumset once and passes its size (None in dense mode, which has no sumset
    rows); the sumset of the chosen subsets is computed here. The run
    parameters come from the ambient trace entry: k, or eps and delta, and
    the claimed C if the run recorded one; else the measured C, which the
    restricted sumset meets with equality.

    general: edge-density-floor, restricted-sumset-cap, one
    subset-size-floor-p per part, octopus-count-floor, sumset-growth-bound.
    almost-all: edge-density-floor, restricted-sumset-cap-linear, one
    trimmed-size-p per part, octopus-count-floor, almost-all-sumset-bound.
    dense: the almost-all rows without the two sumset rows.
    """
    mode = result.mode
    ambient = result.trace[0]
    part_sizes = inst.part_sizes
    subset_sizes = result.sizes()
    r = inst.r
    total = math.prod(part_sizes)
    edge_count = Fraction(inst.hypergraph.edge_count)
    claimed = ambient.get("c")
    cap = _claimed_cap(mode, r, "measured" if claimed is None else parse_fraction(claimed))
    if mode != "dense":
        sumset_size = len(iterated_sumset(inst.subset_elemsets(result.subsets)))

    def count_row(floor: Fraction, floor_name: str) -> Inequality:
        anchor = f"minimum verified relaxed count against the {floor_name} floor"
        return check_ge("octopus-count-floor", Fraction(min_count), floor, anchor)

    if mode == "general":
        k = parse_fraction(ambient["k"])
        c_pow_r = Fraction(restricted_size**r, total) if cap is None else cap
        rows = [
            check_ge(
                "edge-density-floor",
                edge_count,
                _density_floor(total, k),
                "edge count against the density parameter",
            ),
            _restricted_cap_row(mode, restricted_size, c_pow_r, part_sizes),
        ]
        for p, size in enumerate(subset_sizes):
            rows.append(
                check_ge(
                    f"subset-size-floor-{p}",
                    Fraction(size),
                    _size_floor(p, part_sizes[p], k),
                    "chosen subset size against its floor",
                )
            )
        rows.append(count_row(_general_count_floor(r, k, total), "derived"))
        rows.append(
            check_le(
                "sumset-growth-bound",
                Fraction(sumset_size**r),
                sumset_growth_cap_pow_r(r, k, c_pow_r, total),
                "sumset of chosen subsets against the growth cap, r-th powers",
            )
        )
    else:
        n = part_sizes[0]
        delta = parse_fraction(ambient["delta"])
        rows = [
            check_ge(
                "edge-density-floor",
                edge_count,
                _near_complete_floor(delta, total),
                "edge count against the near-complete floor",
            )
        ]
        if mode == "almost-all":
            c = Fraction(restricted_size, n) if cap is None else cap
            rows.append(_restricted_cap_row(mode, restricted_size, c, part_sizes))
        target = _trimmed_target(result.epsilon, n)
        for p, size in enumerate(subset_sizes):
            rows.append(check_eq(f"trimmed-size-{p}", size, target, "trimmed subset size"))
        rows.append(count_row(_dense_count_floor(r, n), "dense"))
        if mode == "almost-all":
            rows.append(
                check_le(
                    "almost-all-sumset-bound",
                    Fraction(sumset_size),
                    2 * c ** (2 * r - 1) * n,
                    "sumset of chosen subsets against the linear growth cap",
                )
            )
    return BoundReport(tuple(rows))


def recorded_report(
    inst: Instance, result: ExtractionResult, restricted_size: int | None
) -> BoundReport:
    """The ledger of a pipeline result, from the count its trace recorded and
    the restricted sumset size the pipeline computed."""
    count = int(result.trace_entry("count-verify")["min_count"])
    return ledger(inst, result, restricted_size, count)


def _as_claimed(result: ExtractionResult, mode: str, c: Fraction | str) -> ExtractionResult:
    """The result under `mode`, with a claimed C recorded in its ambient
    entry so that check_bounds rechecks the same cap; the result itself
    when neither changes, so it is not validated again."""
    if c == "measured" and mode == result.mode:
        return result
    trace = result.trace
    if c != "measured":
        trace = (dict(trace[0], c=frac_str(c)),) + trace[1:]
    return dataclasses.replace(result, mode=mode, trace=trace)


def _reported_run(
    inst: Instance, mode: str, c: Fraction | str, pipeline: Callable[[], ExtractionResult]
) -> tuple[ExtractionResult, BoundReport]:
    """Check a claimed c, and its cap against the restricted sumset (computed
    once), before pipeline() does any work; then report its result in mode."""
    part_sizes = inst.part_sizes
    r = inst.r
    cap = _claimed_cap(mode, r, c)
    osize = len(restricted_sumset(inst))
    if cap is not None and not _restricted_cap_row(mode, osize, cap, part_sizes).passed:
        raise HypothesisViolatedError(
            "restricted-sumset-cap",
            f"|restricted sumset|^{r} = {osize**r} exceeds c^{r} * {math.prod(part_sizes)}"
            if mode == "general"
            else f"|restricted sumset| = {osize} exceeds {cap} * {part_sizes[0]}",
        )
    result = _as_claimed(pipeline(), mode, c)
    return result, recorded_report(inst, result, osize)


def bsg_extract(
    inst: Instance,
    k: Fraction | str = "measured",
    c: Fraction | str = "measured",
) -> tuple[ExtractionResult, BoundReport]:
    """Full pipeline: subset extraction plus the exact sumset growth report.

    k and c may be ints or Fractions, or "measured" to derive them from the
    instance; anything else raises ConfigInvalidError. c is carried as the
    exact rational c^r throughout, and the growth bound is compared after
    raising both sides to the r-th power so no irrational arithmetic occurs.
    A claimed c is recorded in the ambient trace entry.

    Checks, in order: the types of k and c and a C <= 0, before any work; a
    claimed C^r against the restricted sumset (HypothesisViolatedError);
    then octopus_extract's own (k >= 1, non-empty parts, density floor).
    """
    k = exact_param("k", k, "measured")
    c = exact_param("c", c, "measured")

    def pipeline() -> ExtractionResult:
        return octopus_extract(inst, inst.hypergraph.measured_k() if k == "measured" else k)

    return _reported_run(inst, "general", c, pipeline)


def almost_all_extract(
    inst: Instance,
    c: Fraction | str = "measured",
    eps: Fraction = Fraction(1, 25),
    delta: Fraction | str = "auto",
) -> tuple[ExtractionResult, BoundReport]:
    """Dense pipeline plus the linear sumset bound 2 c^(2r-1) n. A claimed c
    is recorded in the ambient trace entry.

    Checks, in order: the type of c and a C <= 0, before any work; a claimed
    C against the restricted sumset (HypothesisViolatedError); then
    dense_extract's own (equal non-empty parts, eps, delta, density floor).
    """
    c = exact_param("c", c, "measured")
    return _reported_run(inst, "almost-all", c, lambda: dense_extract(inst, eps, delta))
