"""Leg and octopus counting against independent brute-force oracles.

The oracle here shares no code with the production counters: legs are
recounted by scanning full index grids, and octopuses by enumerating every
candidate (mates, interiors) tuple and checking edge membership and
disjointness on explicit (part, vertex) sets.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from bsgkit import octopus
from bsgkit.errors import (
    BudgetExceededError,
    ConfigInvalidError,
    IndexOutOfRangeError,
    SameVertexError,
)
from bsgkit.extraction import eps_good_threshold
from bsgkit.groups import make_group
from bsgkit.hypergraph import PartiteHypergraph
from bsgkit.instances import GenConfig, gen_instance
from bsgkit.octopus import (
    enumerate_octopus_witnesses,
    leg_count,
    octopus_count_exact,
    octopus_count_relaxed,
    relaxed_count_table,
)

from kernel_tables import pipeline_table
from oracles import oracle_exact, oracle_leg_count, oracle_relaxed, oracle_sum_fold

Z = make_group([0])


# ---------------------------------------------------------------- fixtures


def k33():
    return PartiteHypergraph.complete((3, 3))


def suite_instances():
    """Small mixed-family instances for oracle comparisons."""
    out = []
    for seed in range(4):
        out.append(
            gen_instance(
                GenConfig.make(r=2, n=6, family="random-density", seed=seed, k=Fraction(2))
            )
        )
    out.append(gen_instance(GenConfig.make(r=2, n=5, family="complete", seed=0)))
    out.append(
        gen_instance(
            GenConfig.make(
                r=2, n=6, family="planted", seed=1,
                ap_fraction=Fraction(1, 2), target_c=Fraction(2),
            )
        )
    )
    for seed in range(2):
        out.append(
            gen_instance(
                GenConfig.make(r=3, n=4, family="random-density", seed=seed, k=Fraction(2))
            )
        )
    out.append(gen_instance(GenConfig.make(r=3, n=3, family="complete", seed=0)))
    return out


# ------------------------------------------------------------------ tests


@pytest.mark.parametrize(
    "call",
    [
        lambda h: relaxed_count_table(h, [[1.5], [True]]),
        lambda h: relaxed_count_table(h, [[0, 1], [False]]),
        lambda h: octopus_count_relaxed(h, (1.0, 0)),
        lambda h: octopus_count_relaxed(h, (0, True)),
        lambda h: octopus_count_exact(h, (True, 0)),
        lambda h: leg_count(h, 0, True, 0),
        lambda h: leg_count(h, 0, 0, 2.0),
    ],
)
def test_counters_reject_non_int_indices(call):
    # a truncating int() would count [[1.5], [True]] as the support (1, 1)
    with pytest.raises(ConfigInvalidError, match="not an int"):
        call(k33())


def test_leg_count_examples():
    comp = PartiteHypergraph.complete((3, 4, 5))
    assert leg_count(comp, 0, 0, 1) == 20
    single = PartiteHypergraph.build(2, (3, 3), [(0, 0)])
    assert leg_count(single, 0, 0, 1) == 0
    k33_minus = [(i, j) for i in range(3) for j in range(3)]
    k33_minus.remove((0, 2))
    h = PartiteHypergraph.build(2, (3, 3), k33_minus)
    assert leg_count(h, 0, 0, 1) == 2
    with pytest.raises(SameVertexError):
        leg_count(h, 0, 1, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda h: leg_count(h, 3, 0, 1),
        lambda h: leg_count(h, -1, 0, 1),
        lambda h: leg_count(h, 0, -1, 1),
        lambda h: leg_count(h, 0, 0, 3),
        lambda h: octopus_count_relaxed(h, (0, 0)),
        lambda h: octopus_count_relaxed(h, (0, 0, 0, 0)),
        lambda h: octopus_count_relaxed(h, (-1, 0, 0)),
        lambda h: octopus_count_relaxed(h, (0, 0, 5)),
        lambda h: relaxed_count_table(h, [[0], [-1], [0]]),
    ],
    ids=[
        "leg-part-too-large", "leg-part-negative", "leg-vertex-negative",
        "leg-vertex-too-large", "support-too-short", "support-too-long",
        "support-vertex-negative", "support-vertex-too-large", "table-vertex-negative",
    ],
)
def test_indices_are_validated_at_the_api_boundary(call):
    # a negative vertex would silently wrap in the counting loops' list indexing
    with pytest.raises(IndexOutOfRangeError):
        call(PartiteHypergraph.complete((3, 4, 5)))


def test_leg_count_symmetry_and_oracle():
    rnd = random.Random(2)
    for inst in suite_instances()[:5]:
        h = inst.hypergraph
        for _ in range(6):
            part = rnd.randrange(h.r)
            size = h.part_sizes[part]
            v, w = rnd.sample(range(size), 2)
            assert leg_count(h, part, v, w) == leg_count(h, part, w, v)
            assert leg_count(h, part, v, w) == oracle_leg_count(h, part, v, w)


def test_relaxed_examples():
    assert octopus_count_relaxed(k33(), (0, 0)) == 6
    isolated = PartiteHypergraph.build(2, (3, 3), [(0, 0)])
    assert octopus_count_relaxed(isolated, (0, 1)) == 0
    tiny = PartiteHypergraph.complete((1, 1))
    assert octopus_count_relaxed(tiny, (0, 0)) == 0


def test_exact_examples():
    h = k33()
    assert octopus_count_exact(h, (0, 0), mode="full") == 4
    assert octopus_count_exact(h, (0, 0), mode="named-only") == 6
    single = PartiteHypergraph.build(2, (3, 3), [(0, 0)])
    assert octopus_count_exact(single, (0, 0), mode="full") == 0
    assert octopus_count_exact(single, (0, 0), mode="named-only") == 0
    with pytest.raises(ConfigInvalidError):
        octopus_count_exact(h, (0, 0), mode="bogus")


def test_exact_budget(monkeypatch):
    comp = PartiteHypergraph.complete((4, 4, 4))
    monkeypatch.setattr(octopus, "DEFAULT_ENUM_BUDGET", 5)
    with pytest.raises(BudgetExceededError):
        octopus_count_exact(comp, (0, 0, 0))


def test_counts_against_oracles():
    rnd = random.Random(7)
    for inst in suite_instances():
        h = inst.hypergraph
        supports = list(product(*(range(s) for s in h.part_sizes)))
        rnd.shuffle(supports)
        for sup in supports[:3]:
            relaxed = octopus_count_relaxed(h, sup)
            assert relaxed == oracle_relaxed(h, sup)
            named = octopus_count_exact(h, sup, mode="named-only")
            full = octopus_count_exact(h, sup, mode="full")
            assert named == oracle_exact(h, sup, "named-only")
            assert full == oracle_exact(h, sup, "full")
            assert full <= named <= relaxed


def test_relaxed_table_matches_per_support():
    for inst in suite_instances()[:6]:
        h = inst.hypergraph
        subsets = [list(range(s)) for s in h.part_sizes]
        table = pipeline_table(h, subsets)
        assert len(table) == h.total_tuples
        for sup, count in table.items():
            assert count == oracle_relaxed(h, sup)


def test_witness_edges_and_validity():
    for inst in suite_instances()[:4]:
        h = inst.hypergraph
        edges = frozenset(h.edges)
        sup = tuple(0 for _ in range(h.r))
        for wit in enumerate_octopus_witnesses(h, sup, mode="named-only"):
            legs = [edge for i in range(h.r - 1) for edge in wit.leg_edges(i)]
            for edge in legs + [wit.closing_edge()]:
                assert edge in edges
            for i in range(h.r - 1):
                assert wit.support[i] != wit.mates[i]


def test_representation_identity_on_witnesses():
    # sum of anchors = sum(xs) - sum(ys) + z for every enumerated witness
    for inst in suite_instances():
        h = inst.hypergraph
        spec = inst.spec
        checked = 0
        for sup in product(*(range(min(s, 2)) for s in h.part_sizes)):
            target = oracle_sum_fold(
                spec, [inst.parts[i].elems[v] for i, v in enumerate(sup)]
            )
            for wit in enumerate_octopus_witnesses(h, sup, mode="named-only"):
                xs, ys, z = wit.representation_sums(inst)
                acc = spec.identity()
                for x in xs:
                    acc = spec.add(acc, x)
                for y in ys:
                    acc = spec.add(acc, spec.neg(y))
                acc = spec.add(acc, z)
                assert acc == target
                checked += 1
        # complete instances always produce witnesses; randoms usually do
    assert checked > 0


def test_eps_good_threshold_planted():
    inst = gen_instance(
        GenConfig.make(r=2, n=4, family="random-density", seed=9, k=Fraction(2))
    )
    h = inst.hypergraph
    eps, k = Fraction(1, 64), Fraction(2)
    ambient = h.part_sizes
    threshold = eps_good_threshold(2, 0, eps, k, ambient)
    assert threshold == eps / (2**4 * k**2) * ambient[1]
    for v in range(4):
        for w in range(4):
            if v == w:
                continue
            expect = oracle_leg_count(h, 0, v, w) >= threshold
            assert (leg_count(h, 0, v, w) >= threshold) == expect

