"""Generators, measurement, the independent bound checker, representation
checks, and the brute-force subset oracle."""

import dataclasses
import math
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from bsgkit import octopus
from bsgkit.errors import (
    ConfigInvalidError,
    ModeMismatchError,
    NoEdgesError,
    TooLargeError,
)
from bsgkit.extraction import (
    ExtractionResult,
    almost_all_extract,
    bsg_extract,
    dense_extract,
)
from bsgkit.groups import make_group
from bsgkit.hypergraph import Instance, PartiteHypergraph
from bsgkit.instances import (
    BRUTE_FORCE_SIZE_GUARD,
    GenConfig,
    brute_force_best_subsets,
    check_bounds,
    check_representations,
    gen_instance,
    measure_instance,
    root_decimal,
)
from bsgkit.jsonio import canonical_dumps
from bsgkit.octopus import octopus_count_relaxed
from bsgkit.rng import SplitMix64
from bsgkit.sumsets import ElemSet, iterated_sumset
from oracles import oracle_best_subsets


def test_gen_complete_example():
    inst = gen_instance(GenConfig.make(r=2, n=4, family="complete", seed=1))
    assert inst.hypergraph.edge_count == 16
    assert [e[0] for e in inst.parts[0].elems] == [0, 1, 2, 3]
    assert inst.parts[0] == inst.parts[1]


def test_gen_determinism():
    cfg = GenConfig.make(
        r=3, n=6, family="random-density", seed=77, k=Fraction(3, 2)
    )
    a = canonical_dumps(gen_instance(cfg).to_json())
    b = canonical_dumps(gen_instance(cfg).to_json())
    assert a == b
    other = GenConfig.make(
        r=3, n=6, family="random-density", seed=78, k=Fraction(3, 2)
    )
    assert canonical_dumps(gen_instance(other).to_json()) != a


def test_gen_random_density_guarantee():
    for seed in range(5):
        for k in (Fraction(3, 2), Fraction(2), Fraction(4)):
            cfg = GenConfig.make(r=2, n=9, family="random-density", seed=seed, k=k)
            inst = gen_instance(cfg)
            target = math.ceil(Fraction(81) / k)
            assert inst.hypergraph.edge_count == target
            assert inst.hypergraph.measured_k() <= k


def test_gen_dense_guarantee():
    delta = Fraction(1, 50)
    for seed in range(4):
        cfg = GenConfig.make(r=2, n=10, family="dense", seed=seed, delta=delta)
        inst = gen_instance(cfg)
        assert inst.hypergraph.edge_count == math.ceil((1 - delta) * 100)


def test_gen_planted_full_ap_measured_c():
    cfg = GenConfig.make(
        r=2, n=16, family="planted", seed=3,
        ap_fraction=Fraction(1), target_c=Fraction(2),
    )
    inst = gen_instance(cfg)
    m = measure_instance(inst)
    assert m.k == 1
    assert m.c_pow_r == Fraction(31, 16) ** 2
    assert m.restricted_sumset_size == 31


def test_gen_planted_floor():
    cfg = GenConfig.make(
        r=2, n=12, family="planted", seed=8,
        ap_fraction=Fraction(1, 2), target_c=Fraction(2),
    )
    inst = gen_instance(cfg)
    floor = math.ceil(144 * Fraction(1, 2) ** 2)
    assert inst.hypergraph.edge_count >= floor


def test_gen_config_validation():
    with pytest.raises(ConfigInvalidError):
        GenConfig.make(r=1, n=4, family="complete", seed=0).validate()
    with pytest.raises(ConfigInvalidError):
        GenConfig.make(r=2, n=4, family="bogus", seed=0).validate()
    with pytest.raises(ConfigInvalidError):
        GenConfig.make(r=2, n=4, family="random-density", seed=0).validate()
    with pytest.raises(ConfigInvalidError):
        gen_instance(GenConfig.make(r=2, n=9, family="complete", seed=0, moduli=(5,)))


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(n=[Fraction(9, 2), 3.7], seed=True, moduli=[7.9]), "sizes"),
        (dict(n=[4, 3], seed=1, moduli=[7.9]), "moduli"),
        (dict(n=[4, 3], seed=True), "seed"),
        (dict(n=4, seed=1, r=2.0), "r"),
        (dict(n=4, seed=1, family="random-density", k=0.1), "k"),
    ],
)
def test_gen_config_rejects_non_exact_fields(kwargs, field):
    # each must be rejected, not rounded to an int or a binary fraction
    cfg = GenConfig.make(**{"r": 2, "family": "complete", **kwargs})
    with pytest.raises(ConfigInvalidError, match=f"^{field} must be"):
        gen_instance(cfg)


def test_measure_examples():
    inst = gen_instance(GenConfig.make(r=2, n=10, family="complete", seed=0))
    m = measure_instance(inst)
    assert m.k == 1
    assert m.restricted_sumset_size == 19
    assert m.c_pow_r == Fraction(361, 100)
    assert m.c_decimal.startswith("1.9")

    spec = make_group([0])
    parts = tuple(
        ElemSet.from_iterable(spec, [(v,) for v in vals])
        for vals in ([0, 1, 2], [0, 5])
    )
    single = Instance(
        spec, parts, PartiteHypergraph.build(2, (3, 2), [(1, 0)])
    )
    ms = measure_instance(single)
    assert ms.k == 6
    assert ms.restricted_sumset_size == 1

    empty = Instance(spec, parts, PartiteHypergraph.build(2, (3, 2), []))
    with pytest.raises(NoEdgesError):
        measure_instance(empty)


def test_root_decimal():
    assert root_decimal(Fraction(4), 2) == "2.000000"
    assert root_decimal(Fraction(2), 2).startswith("1.41421")
    assert root_decimal(Fraction(961, 256), 2) == "1.937500"


def test_check_bounds_complete_pass():
    inst = gen_instance(GenConfig.make(r=2, n=8, family="complete", seed=0))
    res, _ = bsg_extract(inst, Fraction(1), "measured")
    report = check_bounds(res, inst, "general")
    assert report.overall


def test_check_bounds_forced_failure():
    # subset-size floor for part 0 is 16/8 = 2, so a singleton must fail
    inst = gen_instance(GenConfig.make(r=2, n=16, family="complete", seed=0))
    res, _ = bsg_extract(inst, Fraction(1), "measured")
    # hand-built result with an undersized first subset
    tampered = ExtractionResult(
        mode="general",
        subsets=((0,),) + res.subsets[1:],
        epsilon=res.epsilon,
        trace=res.trace,
    )
    report = check_bounds(tampered, inst, "general")
    by_name = {q.name: q for q in report.inequalities}
    assert not by_name["subset-size-floor-0"].passed
    assert not report.overall


def test_check_bounds_recounts_instead_of_trusting_the_trace():
    # Last-part vertex 7 has no edges, so every support through it has
    # relaxed count 0. Adding it leaves the recorded count-verify entry as
    # it was; only a verifier that recounts sees the failure.
    n = 8
    spec = make_group([0])
    parts = tuple(
        ElemSet.from_iterable(spec, [(v,) for v in range(n)]) for _ in range(2)
    )
    edges = [(i, j) for i in range(n) for j in range(n - 1)]
    inst = Instance(spec, parts, PartiteHypergraph.build(2, (n, n), edges))
    res, report = bsg_extract(inst, "measured", "measured")
    assert report.overall and n - 1 not in res.subsets[1]
    tampered = ExtractionResult(
        mode="general",
        subsets=(res.subsets[0], res.subsets[1] + (n - 1,)),
        epsilon=res.epsilon,
        trace=res.trace,
    )
    rows = check_bounds(tampered, inst, "general").inequalities
    assert [q.name for q in rows if not q.passed] == ["octopus-count-floor"]


def test_check_bounds_counts_without_the_pipeline_counters(monkeypatch):
    # check_bounds builds its own leg rows and packed counts from the edge
    # list, so it still gives the same passing report when flatten, both
    # octopus counters and octopus.py's packing code raise; the second
    # instance (the complete-r2-n128 golden instance) has 16,384 supports
    insts = (
        gen_instance(GenConfig.make(r=3, n=8, family="random-density", seed=3, k=Fraction(2))),
        gen_instance(GenConfig.make(r=2, n=128, family="complete", seed=1)),
    )
    runs = []
    for inst in insts:
        res, _ = bsg_extract(inst, "measured", "measured")
        runs.append((inst, res, check_bounds(res, inst, "general")))
    _, res, _ = runs[1]
    assert res.trace_entry("count-verify")["checked"] == math.prod(res.sizes()) == 128 * 128

    def refuse(*args, **kwargs):
        raise AssertionError("check_bounds used a pipeline counter")

    for name in (
        "octopus_count_relaxed", "relaxed_count_table", "_pack_columns", "_unpack_fields"
    ):
        original = getattr(octopus, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "bsgkit" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, refuse)
    monkeypatch.setattr(PartiteHypergraph, "flatten", refuse)
    for inst, res, expected in runs:
        report = check_bounds(res, inst, "general")
        assert report.overall and report == expected


def _row_keys(report):
    return [(q.name, q.relation, q.lhs, q.rhs, q.passed) for q in report.inequalities]


def test_pipeline_and_check_bounds_agree_row_by_row():
    # instances from the criterion 4 (general) and 5 (dense) suites
    for r, n, k, seed in ((2, 12, Fraction(3, 2), 1), (3, 8, Fraction(2), 0)):
        inst = gen_instance(
            GenConfig.make(r=r, n=n, family="random-density", seed=seed, k=k)
        )
        # a claimed C is recorded in the trace and rechecked as claimed
        for c in ("measured", Fraction(64)):
            res, report = bsg_extract(inst, k, c)
            assert _row_keys(check_bounds(res, inst, "general")) == _row_keys(report)
    for r, n, eps, seed in ((2, 10, Fraction(1, 25), 0), (3, 12, Fraction(1, 40), 1)):
        inst = gen_instance(
            GenConfig.make(r=r, n=n, family="dense", seed=seed, delta=eps / (10 * r))
        )
        for c in ("measured", Fraction(8)):
            res, report = almost_all_extract(inst, c, eps, "auto")
            assert _row_keys(check_bounds(res, inst, "almost-all")) == _row_keys(report)


def test_check_bounds_rechecks_the_claimed_cap():
    inst = gen_instance(
        GenConfig.make(r=2, n=12, family="random-density", seed=1, k=Fraction(3, 2))
    )
    assert "c" not in bsg_extract(inst, Fraction(3, 2), "measured")[0].trace[0]
    res, report = bsg_extract(inst, Fraction(3, 2), Fraction(64))
    assert report.overall and res.trace[0]["c"] == "64"
    # a claimed C below the measured one fails its rows instead of raising
    ambient = dict(res.trace[0], c="1/2")
    tampered = dataclasses.replace(res, trace=(ambient,) + res.trace[1:])
    rows = check_bounds(tampered, inst, "general").inequalities
    failed = [q.name for q in rows if not q.passed]
    assert "restricted-sumset-cap" in failed


def test_check_bounds_mode_mismatch():
    inst = gen_instance(GenConfig.make(r=2, n=8, family="complete", seed=0))
    res, _ = bsg_extract(inst, Fraction(1), "measured")
    with pytest.raises(ModeMismatchError):
        check_bounds(res, inst, "dense")


def test_check_bounds_dense():
    eps = Fraction(1, 25)
    inst = gen_instance(
        GenConfig.make(r=2, n=10, family="dense", seed=1, delta=eps / 20)
    )
    res = dense_extract(inst, eps, eps / 20)
    report = check_bounds(res, inst, "dense")
    assert report.overall


def test_check_representations_complete_zm():
    spec_m = 11
    inst = gen_instance(
        GenConfig.make(r=2, n=5, family="complete", seed=0, moduli=(spec_m,))
    )
    res, _ = bsg_extract(inst, Fraction(1), "measured")
    # L from the verification: min relaxed count / total^(r-1)
    h = inst.hypergraph
    total = h.total_tuples
    min_count = min(
        octopus_count_relaxed(h, sup) for sup in product(*res.subsets)
    )
    l_param = Fraction(min_count, total)
    report = check_representations(res, inst, l_param)
    assert report.overall


def test_check_representations_matches_sumsets_module():
    # r=2 over Z_5 with a 2-element restricted sumset ties back to the
    # representation counter: count(0) = 3 for the set {0, 1}
    from bsgkit.sumsets import representation_count

    z5 = make_group([5])
    s_set = ElemSet.from_iterable(z5, [(0,), (1,)])
    assert representation_count(z5, s_set, (0,), 2) == 3


def test_brute_force_examples():
    inst = gen_instance(GenConfig.make(r=2, n=6, family="complete", seed=0))
    subsets, size = brute_force_best_subsets(inst, [6, 6])
    assert subsets == (tuple(range(6)), tuple(range(6)))
    assert size == 11

    spec = make_group([0])
    parts = tuple(
        ElemSet.from_iterable(spec, [(v,) for v in vals])
        for vals in ([0, 1, 5], [0, 1, 7])
    )
    inst2 = Instance(spec, parts, PartiteHypergraph.complete((3, 3)))
    subsets, size = brute_force_best_subsets(inst2, [2, 2])
    # independent oracle: enumerate all 9 subset pairs right here
    best = None
    for combo_a in combinations(range(3), 2):
        for combo_b in combinations(range(3), 2):
            sums = {
                spec.add(parts[0].elems[a], parts[1].elems[b])
                for a in combo_a
                for b in combo_b
            }
            key = (len(sums), (combo_a, combo_b))
            if best is None or key < best:
                best = key
    assert size == best[0]
    assert (subsets[0], subsets[1]) == best[1]


_PLANTED = dict(family="planted", ap_fraction=Fraction(1, 2), target_c=Fraction(2))
_ORACLE_CASES = {
    "Z-r2": dict(r=2, n=7, moduli=(0,), **_PLANTED),
    "Z11-r2": dict(r=2, n=7, moduli=(11,), **_PLANTED),
    "ZxZ5-r2": dict(r=2, n=7, moduli=(0, 5), **_PLANTED),
    "Z-r3": dict(r=3, n=5, moduli=(0,), **_PLANTED),
    "Z7xZ-r3": dict(r=3, n=5, moduli=(7, 0), **_PLANTED),
    # every pair of same-difference progressions in Z_7 ties at the optimum
    "complete-Z7-r2": dict(r=2, n=7, moduli=(7,), family="complete"),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_brute_force_matches_independent_oracle(case):
    for seed in range(3):
        inst = gen_instance(GenConfig.make(seed=seed, **_ORACLE_CASES[case]))
        rng = SplitMix64(seed)
        floors = [2 + rng.next_below(n - 2) for n in inst.part_sizes]
        parts = [list(p.elems) for p in inst.parts]
        expected = oracle_best_subsets(inst.spec.moduli, parts, floors)
        assert brute_force_best_subsets(inst, floors) == expected


def test_brute_force_at_the_guard():
    # total part size 24, the most the guard admits: C(12, 6)^2 = 853,776
    # combinations take oracle_best_subsets minutes, so the answer it gave
    # in a one-off run is pinned
    inst = gen_instance(GenConfig.make(
        r=2, n=12, seed=3, family="planted", ap_fraction=Fraction(1, 4), target_c=Fraction(2)
    ))
    assert sum(inst.part_sizes) == BRUTE_FORCE_SIZE_GUARD
    assert brute_force_best_subsets(inst, [6, 6]) == (
        ((0, 1, 2, 3, 4, 9), (0, 1, 2, 6, 10, 11)), 30
    )


def _instance(moduli, parts):
    spec = make_group(moduli)
    elemsets = tuple(ElemSet.from_iterable(spec, p) for p in parts)
    return Instance(spec, elemsets, PartiteHypergraph.complete(tuple(map(len, parts))))


# (moduli, parts, floors, expected); each is also checked against the oracle
_PRUNE_CASES = {
    # every pair from B has 2 sums with A's 0, and so does every later
    # combination; none may replace ((0,), (0, 1)), found first
    "tie-at-last-part": ((0,), [[(0,), (10,)], [(0,), (1,), (5,)]], [1, 2],
                         (((0,), (0, 1)), 2)),
    # the prefixes {0, 3} and {1, 3} of part 0 reach the best size 2 exactly
    # and are skipped; with B = {0} they complete to ties
    "pruned-prefix-ties": ((0,), [[(0,), (1,), (3,)], [(0,)]], [2, 1],
                           (((0, 1), (0,)), 2)),
    # the first combination has 4 sums; the last, {3, 4} + {0, 1} = {3, 4, 5},
    # has 3, and its prefix {3, 4} + {0} is one below the best found before it
    "one-below-best": ((0,), [[(0,), (3,), (4,)], [(0,), (1,)]], [2, 2],
                       (((1, 2), (0, 1)), 3)),
    # Z_3 has torsion: the optimum 3 is below the free bound 1 + 1 + 2 of
    # the first prefix, which would prune everything and return ((), 4)
    "torsion-bound-off": ((3,), [[(0,), (1,), (2,)], [(0,), (1,), (2,)]], [2, 3],
                          (((0, 1), (0, 1, 2)), 3)),
    # Z x Z_2 has a free coordinate but torsion too, so the bound stays off
    "mixed-bound-off": ((0, 2), [[(0, 0), (0, 1)], [(0, 0), (0, 1)]], [2, 2],
                        (((0, 1), (0, 1)), 2)),
    # in Z the bound is on; the progressions, found first, reach it exactly
    "free-progression": ((0,), [[(0,), (1,), (2,), (3,), (10,)],
                                [(0,), (1,), (2,), (3,), (20,)]], [4, 4],
                         (((0, 1, 2, 3), (0, 1, 2, 3)), 7)),
}


@pytest.mark.parametrize("case", sorted(_PRUNE_CASES))
def test_brute_force_prune_keeps_the_first_minimizer(case):
    moduli, parts, floors, expected = _PRUNE_CASES[case]
    inst = _instance(moduli, parts)
    assert oracle_best_subsets(moduli, [list(p.elems) for p in inst.parts], floors) == expected
    assert brute_force_best_subsets(inst, floors) == expected


# the oracle sums every chosen tuple of every combination; past this many
# tuple sums one example takes it over a tenth of a second
_ORACLE_BUDGET = 20_000


@st.composite
def subset_cases(draw):
    """(moduli, parts, floors): r from 2 to 4, parts of 1 to 5 distinct
    elements, floors from 1 to the full part size."""
    moduli = draw(st.sampled_from([(0,), (5,), (7,), (0, 3), (5, 0), (0, 0)]))
    universe = list(product(*[range(m) if m else range(-6, 7) for m in moduli]))
    r = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 5), min_size=r, max_size=r))
    parts = [
        draw(st.lists(st.sampled_from(universe), min_size=n, max_size=n, unique=True))
        for n in sizes
    ]
    floors = [draw(st.integers(1, n)) for n in sizes]
    assume(math.prod(math.comb(n, m) * m for n, m in zip(sizes, floors)) <= _ORACLE_BUDGET)
    return moduli, parts, floors


@settings(
    max_examples=120,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=subset_cases())
@example(case=((5,), [[(0,), (1,), (2,), (3,), (4,)], [(0,), (2,)], [(1,), (3,), (4,)], [(0,)]],
               [3, 1, 2, 1]))
def test_brute_force_matches_oracle_on_drawn_instances(case):
    moduli, parts, floors = case
    inst = _instance(moduli, parts)
    expected = oracle_best_subsets(moduli, [list(p.elems) for p in inst.parts], floors)
    assert brute_force_best_subsets(inst, floors) == expected


@pytest.mark.parametrize(
    "floor", [Fraction(5, 2), 2.9, True, "x"], ids=["fraction", "float", "bool", "str"]
)
def test_brute_force_rejects_non_integer_floor(floor):
    inst = gen_instance(GenConfig.make(r=2, n=4, family="complete", seed=0))
    with pytest.raises(ConfigInvalidError):
        brute_force_best_subsets(inst, [2, floor])


@pytest.mark.parametrize("floors", [5, None, iter([2, 2])], ids=["int", "none", "iterator"])
def test_brute_force_rejects_floors_that_are_not_a_sequence(floors):
    inst = gen_instance(GenConfig.make(r=2, n=4, family="complete", seed=0))
    with pytest.raises(ConfigInvalidError, match="^floors .* are not a sequence of ints$"):
        brute_force_best_subsets(inst, floors)


def test_brute_force_too_large():
    inst = gen_instance(GenConfig.make(r=2, n=16, family="complete", seed=0))
    with pytest.raises(TooLargeError):
        brute_force_best_subsets(inst, [2, 2])


def test_pipeline_never_beats_brute_force():
    for seed in range(4):
        inst = gen_instance(
            GenConfig.make(r=2, n=10, family="random-density", seed=seed, k=Fraction(2))
        )
        res, _ = bsg_extract(inst, Fraction(2), "measured")
        floors = [len(s) for s in res.subsets]
        _, best = brute_force_best_subsets(inst, floors)
        pipeline_size = len(iterated_sumset(inst.subset_elemsets(res.subsets)))
        assert pipeline_size >= best


def test_pipeline_never_beats_brute_force_r3():
    # the planted floors come out as (4, 4, 4): 70^3 combinations
    for seed in range(3):
        for variant in (dict(family="random-density", k=Fraction(2)), _PLANTED):
            inst = gen_instance(GenConfig.make(r=3, n=8, seed=seed, **variant))
            res, _ = bsg_extract(inst, "measured", "measured")
            _, best = brute_force_best_subsets(inst, res.sizes())
            pipeline_size = len(iterated_sumset(inst.subset_elemsets(res.subsets)))
            assert pipeline_size >= best
