"""Extraction pipelines: neighborhood selection, per-part rounds, the full
general and dense pipelines, and their exact verification reports."""

import math
from fractions import Fraction
from itertools import product

import pytest

from bsgkit import extraction
from bsgkit.errors import (
    ConfigInvalidError,
    DensityTooLowError,
    EmptyPartError,
    EpsilonTooLargeError,
    HypothesisViolatedError,
    NoWitnessError,
    UnequalPartsError,
)
from bsgkit.extraction import (
    ExtractionResult,
    almost_all_extract,
    bsg_extract,
    dense_extract,
    drc_extract,
    eps_good_threshold,
    iterate_extract,
    octopus_extract,
    verify_relaxed_counts,
)
from bsgkit.hypergraph import Instance, PartiteHypergraph
from bsgkit.instances import GenConfig, check_bounds, gen_instance
from bsgkit.jsonio import parse_fraction
from bsgkit.sumsets import ElemSet
from kernel_tables import verifier_table
from oracles import brute_codegree, oracle_leg_count, oracle_relaxed


_COMPLETE_12 = GenConfig.make(r=2, n=12, family="complete", seed=0)
_EPS = Fraction(1, 25)


def test_drc_complete():
    g = PartiteHypergraph.complete((5, 5)).flatten(0)
    out = drc_extract(g, Fraction(1), Fraction(1, 3))
    assert out.u == (0, 1, 2, 3, 4)
    assert out.bad_pair_fraction == 0
    assert not out.repaired


def test_drc_density_too_low():
    g = PartiteHypergraph.build(2, (4, 4), [(0, 0)]).flatten(0)
    with pytest.raises(DensityTooLowError):
        drc_extract(g, Fraction(2), Fraction(1, 4))


def test_drc_k66_minus_matching():
    edges = [(i, j) for i in range(6) for j in range(6) if i != j]
    g = PartiteHypergraph.build(2, (6, 6), edges).flatten(0)
    out = drc_extract(g, Fraction(6, 5), Fraction(1, 4))
    assert len(out.u) >= 3
    # independent verification of both conditions
    thr = Fraction(1, 4) * 6 / (2 * Fraction(6, 5) ** 2)
    bad = sum(
        1
        for v in out.u
        for w in out.u
        if brute_codegree(g_to_h(edges), 0, v, w) < thr
    )
    assert Fraction(bad) <= Fraction(1, 4) * len(out.u) ** 2
    assert Fraction(len(out.u)) >= Fraction(6) / (2 * Fraction(6, 5))


def test_drc_returns_highest_degree_pivot():
    # right vertex 2 meets every left vertex; pivot 0 would also pass, so
    # only the descending-degree scan returns pivot 2
    edges = [(0, 0), (1, 0), (2, 1)] + [(v, 2) for v in range(4)]
    g = PartiteHypergraph.build(2, (4, 3), edges).flatten(0)
    out = drc_extract(g, Fraction(2), Fraction(1, 4))
    assert out.pivot == 2
    assert out.u == (0, 1, 2, 3)


def test_drc_degree_tie_lower_index_wins():
    # right vertices 1 and 2 both have degree 3 and both pass
    edges = [(0, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]
    g = PartiteHypergraph.build(2, (4, 3), edges).flatten(0)
    out = drc_extract(g, Fraction(2), Fraction(1, 4))
    assert out.pivot == 1
    assert out.u == (0, 1, 2)


def g_to_h(edges):
    return PartiteHypergraph.build(2, (6, 6), edges)


def test_iterate_complete():
    h = PartiteHypergraph.complete((6, 5))
    out = iterate_extract(h.flatten(0), Fraction(1), Fraction(1, 4))
    assert out.u == tuple(range(6))
    assert out.good_fraction == 1


def test_iterate_density_too_low():
    h = PartiteHypergraph.build(3, (3, 3, 3), [(0, 0, 0)])
    with pytest.raises(DensityTooLowError):
        iterate_extract(h.flatten(0), Fraction(2), Fraction(1, 4))


@pytest.mark.parametrize(
    "k, eps, message",
    [
        (Fraction(0), Fraction(1, 4), "density parameter must be positive, got 0"),
        (Fraction(-1), Fraction(1, 4), "density parameter must be positive, got -1"),
        (Fraction(1), Fraction(0), "eps must lie in (0, 1), got 0"),
    ],
    ids=["k-zero", "k-negative", "eps-zero"],
)
def test_iterate_refuses_drc_extract_parameters(k, eps, message):
    # k = 0 escaped as a ZeroDivisionError, and k = -1 turned every floor
    # negative and returned all four vertices as a verified subset
    flat = PartiteHypergraph.complete((4, 4)).flatten(0)
    for extract in (iterate_extract, drc_extract):
        with pytest.raises(ConfigInvalidError) as info:
            extract(flat, k, eps)
        assert type(info.value) is ConfigInvalidError
        assert str(info.value) == message


def test_iterate_verified_by_independent_pass():
    k = Fraction(2)
    eps = Fraction(1, 64)
    for seed in range(4):
        inst = gen_instance(
            GenConfig.make(r=3, n=8, family="random-density", seed=seed, k=k)
        )
        h = inst.hypergraph
        out = iterate_extract(h.flatten(0), k, eps)
        z_size = h.part_sizes[1] * h.part_sizes[2]
        # (a) size floor
        assert Fraction(len(out.u)) >= Fraction(h.part_sizes[0]) / (4 * k)
        # (b) good ordered-pair fraction at the final threshold, brute force
        thr = eps * z_size / (2 * k * k)
        good = sum(
            1
            for v in out.u
            for w in out.u
            if brute_codegree(h, 0, v, w) >= thr
        )
        assert Fraction(good) >= (1 - eps) * len(out.u) ** 2
        # (c) min degree
        for v in out.u:
            assert h.degree(0, v) >= Fraction(z_size) / (2 * k)


def test_octopus_extract_complete_r2():
    inst = gen_instance(GenConfig.make(r=2, n=16, family="complete", seed=0))
    res = octopus_extract(inst, Fraction(1))
    assert len(res.subsets[0]) >= 16 / 8
    assert len(res.subsets[1]) >= 16 / 16
    entry = res.trace_entry("count-verify")
    assert entry["failures"] == 0
    # complete case keeps everything
    assert res.sizes() == (16, 16)


def _sparse_4x4():
    # 2 of the 16 index tuples of a complete 4x4 instance
    inst = gen_instance(GenConfig.make(r=2, n=4, family="complete", seed=0))
    return Instance(inst.spec, inst.parts, PartiteHypergraph.build(2, (4, 4), [(0, 0), (1, 1)]))


def _empty_first_part():
    inst = gen_instance(GenConfig.make(r=2, n=4, family="complete", seed=0))
    empty = ElemSet.from_iterable(inst.spec, [])
    return Instance(inst.spec, (empty, inst.parts[1]), PartiteHypergraph.build(2, (0, 4), []))


def test_octopus_extract_density_too_low():
    with pytest.raises(DensityTooLowError):
        octopus_extract(_sparse_4x4(), Fraction(2))


def test_octopus_extract_planted_posthoc_recount():
    inst = gen_instance(
        GenConfig.make(
            r=2, n=16, family="planted", seed=5,
            ap_fraction=Fraction(1, 2), target_c=Fraction(2),
        )
    )
    k = inst.hypergraph.measured_k()
    res = octopus_extract(inst, k)
    h = inst.hypergraph
    r = inst.r
    total = h.total_tuples
    floor = Fraction(total ** (r - 1)) / (
        8 ** (r**3) * (r - 1) ** (r - 1) * k ** ((r * r + 5 * r - 4) // 2)
    )
    for p in range(r):
        assert Fraction(len(res.subsets[p])) >= Fraction(h.part_sizes[p]) / (
            2 ** (p + 3) * k
        )
    for sup in product(*res.subsets):
        assert Fraction(oracle_relaxed(h, sup)) >= floor


@pytest.mark.parametrize("raised", [False, True], ids=["derived-floor", "raised-floor"])
def test_partner_filter_against_oracle(monkeypatch, raised):
    """Each markov entry's kept set equals the candidates with at most
    partner_cap other candidates below leg_floor, by brute-force leg counts."""
    if raised:
        # The derived floor is below 1 at these sizes, so nothing is dropped;
        # |Z|/8 makes the filter drop vertices.
        monkeypatch.setattr(
            extraction,
            "eps_good_threshold",
            lambda r, part, eps, k, ambient: Fraction(math.prod(ambient), 8 * ambient[part]),
        )
    dropped = 0
    for seed in range(24):
        inst = gen_instance(
            GenConfig.make(r=3, n=6, family="random-density", seed=seed, k=Fraction(2))
        )
        h = inst.hypergraph
        for entry in octopus_extract(inst, Fraction(2)).trace:
            if entry["kind"] != "markov":
                continue
            floor = parse_fraction(entry["leg_floor"])
            cap = parse_fraction(entry["partner_cap"])
            cands = entry["candidates"]
            expect = [
                v
                for v in cands
                if sum(
                    1 for w in cands
                    if w != v and oracle_leg_count(h, entry["part"], v, w) < floor
                ) <= cap
            ]
            assert entry["kept"] == expect
            dropped += len(cands) - len(expect)
    assert dropped > 0 or not raised


def test_partner_filter_that_drops_every_candidate_raises(monkeypatch):
    # a floor above every leg count makes every other candidate a bad partner
    monkeypatch.setattr(
        extraction, "eps_good_threshold", lambda r, part, eps, k, ambient: Fraction(10**9)
    )
    inst = gen_instance(
        GenConfig.make(r=3, n=6, family="random-density", seed=0, k=Fraction(2))
    )
    with pytest.raises(NoWitnessError, match="^partner filter emptied part 0$"):
        octopus_extract(inst, Fraction(2))


def test_partner_filter_keeps_a_lone_candidate(monkeypatch):
    """A vertex is its own good partner, so a lone candidate survives even a
    floor above its degree."""
    inst = gen_instance(
        GenConfig.make(r=3, n=5, family="random-density", seed=0, k=Fraction(8))
    )
    monkeypatch.setattr(
        extraction,
        "eps_good_threshold",
        lambda r, part, eps, k, ambient: (
            Fraction(math.prod(ambient)) if part == 1
            else eps_good_threshold(r, part, eps, k, ambient)
        ),
    )
    trace = octopus_extract(inst, Fraction(8)).trace
    entry = [e for e in trace if e["kind"] == "markov" and e["part"] == 1][0]
    assert len(entry["candidates"]) == 1
    assert entry["kept"] == entry["candidates"]


def test_dense_extract_complete():
    inst = gen_instance(GenConfig.make(r=2, n=10, family="complete", seed=0))
    eps = Fraction(1, 25)
    res = dense_extract(inst, eps, Fraction(0))
    target = math.ceil((1 - eps) * 10)
    assert res.sizes() == (target, target)
    for sup in product(*res.subsets):
        assert oracle_relaxed(inst.hypergraph, sup) >= Fraction(100, 2)


def test_dense_extract_eps_too_large():
    inst = gen_instance(GenConfig.make(r=2, n=10, family="complete", seed=0))
    with pytest.raises(EpsilonTooLargeError):
        dense_extract(inst, Fraction(1, 20))


def test_dense_extract_unequal_parts():
    inst = gen_instance(
        GenConfig.make(r=2, n=[6, 8], family="complete", seed=0)
    )
    with pytest.raises(UnequalPartsError):
        dense_extract(inst, Fraction(1, 25))


def test_dense_extract_random_verified():
    eps = Fraction(1, 25)
    delta = eps / 20
    inst = gen_instance(
        GenConfig.make(r=2, n=10, family="dense", seed=3, delta=delta)
    )
    res = dense_extract(inst, eps, delta)
    target = math.ceil((1 - eps) * 10)
    assert all(len(s) == target for s in res.subsets)
    for sup in product(*res.subsets):
        assert oracle_relaxed(inst.hypergraph, sup) >= Fraction(10**2, 2)


def test_bsg_extract_complete_ap():
    inst = gen_instance(GenConfig.make(r=2, n=10, family="complete", seed=0))
    res, report = bsg_extract(inst, Fraction(1), "measured")
    assert report.overall
    names = [q.name for q in report.inequalities]
    assert "sumset-growth-bound" in names


def test_bsg_extract_hypothesis_violated():
    inst = gen_instance(GenConfig.make(r=2, n=10, family="complete", seed=0))
    with pytest.raises(HypothesisViolatedError):
        bsg_extract(inst, Fraction(1), Fraction(1, 2))


@pytest.mark.parametrize(
    "build, call, error, message",
    [
        (_sparse_4x4, lambda inst: bsg_extract(inst, Fraction(2)),
         DensityTooLowError, "2 edges is below 16/2"),
        (_sparse_4x4, lambda inst: bsg_extract(inst, Fraction(2), Fraction(2)),
         DensityTooLowError, "2 edges is below 16/2"),
        (lambda: gen_instance(GenConfig.make(r=2, n=[6, 8], family="complete", seed=0)),
         lambda inst: almost_all_extract(inst, "measured"),
         UnequalPartsError, "part sizes (6, 8) are not all equal"),
        (_empty_first_part, lambda inst: octopus_extract(inst, Fraction(1)),
         EmptyPartError, "all parts must be non-empty"),
        (_empty_first_part, lambda inst: bsg_extract(inst, Fraction(1)),
         EmptyPartError, "all parts must be non-empty"),
    ],
    ids=["bsg-sparse", "bsg-sparse-cap-holds", "almost-all-unequal", "octopus-empty-part",
         "bsg-empty-part"],
)
def test_single_fault_raises_the_pipeline_error(build, call, error, message):
    # the wrappers and octopus_extract leave these checks to the code they
    # call, whose type and message come through unchanged
    with pytest.raises(error) as info:
        call(build())
    assert type(info.value) is error
    assert str(info.value) == message


def _no_extraction(*args):
    raise AssertionError("extraction ran before the cap was checked")


@pytest.mark.parametrize(
    "cfg, call, detail",
    [
        (_COMPLETE_12, lambda inst: bsg_extract(inst, Fraction(1), Fraction(1, 2)),
         "|restricted sumset|^2 = 529 exceeds c^2 * 144"),
        (_COMPLETE_12, lambda inst: almost_all_extract(inst, Fraction(1, 2)),
         "|restricted sumset| = 23 exceeds 1/2 * 12"),
        # also below the density floor at k = 1, which octopus_extract refuses
        (GenConfig.make(r=3, n=6, family="random-density", seed=1, k=Fraction(3)),
         lambda inst: bsg_extract(inst, Fraction(1), Fraction(1, 2)),
         "|restricted sumset|^3 = 1331 exceeds c^3 * 216"),
        # also unequal parts, which dense_extract refuses
        (GenConfig.make(r=2, n=[6, 7], family="complete", seed=0),
         lambda inst: almost_all_extract(inst, Fraction(1, 2)),
         "|restricted sumset| = 12 exceeds 1/2 * 6"),
    ],
    ids=["general", "almost-all", "general-density-too-low", "almost-all-unequal-parts"],
)
def test_violated_cap_fails_before_any_extraction(monkeypatch, cfg, call, detail):
    inst = gen_instance(cfg)
    monkeypatch.setattr(extraction, "octopus_extract", _no_extraction)
    monkeypatch.setattr(extraction, "dense_extract", _no_extraction)
    with pytest.raises(HypothesisViolatedError) as info:
        call(inst)
    assert str(info.value) == f"hypothesis violated: restricted-sumset-cap ({detail})"


@pytest.mark.parametrize(
    "c_general, c_linear",
    [("measured", "measured"), (Fraction(64), Fraction(8))],
    ids=["measured", "claimed"],
)
def test_pipelines_compute_the_restricted_sumset_once(monkeypatch, c_general, c_linear):
    calls = []
    real = extraction.restricted_sumset

    def counted(inst):
        calls.append(inst)
        return real(inst)

    monkeypatch.setattr(extraction, "restricted_sumset", counted)
    inst = gen_instance(GenConfig.make(r=2, n=10, family="complete", seed=0))
    bsg_extract(inst, Fraction(1), c_general)
    assert len(calls) == 1
    calls.clear()
    almost_all_extract(inst, c_linear, Fraction(1, 25))
    assert len(calls) == 1


def test_bsg_extract_planted_margins():
    inst = gen_instance(
        GenConfig.make(
            r=2, n=16, family="planted", seed=2,
            ap_fraction=Fraction(1, 2), target_c=Fraction(2),
        )
    )
    res, report = bsg_extract(inst, "measured", "measured")
    assert report.overall
    # the independent checker recomputes the same outcome
    recheck = check_bounds(res, inst, "general")
    assert recheck.overall
    by_name = {q.name: q for q in recheck.inequalities}
    for q in report.inequalities:
        if q.name in by_name:
            assert by_name[q.name].passed == q.passed


def test_almost_all_extract_complete():
    inst = gen_instance(GenConfig.make(r=2, n=12, family="complete", seed=0))
    eps = Fraction(1, 25)
    res, report = almost_all_extract(inst, "measured", eps, "auto")
    assert report.overall
    target = math.ceil((1 - eps) * 12)
    assert all(len(s) == target for s in res.subsets)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda inst: bsg_extract(inst, "x"), "k"),
        (lambda inst: bsg_extract(inst, 1.1), "k"),
        (lambda inst: bsg_extract(inst, True), "k"),
        (lambda inst: bsg_extract(inst, "measured", "x"), "c"),
        (lambda inst: bsg_extract(inst, "measured", 8.0), "c"),
        (lambda inst: bsg_extract(inst, "auto"), "k"),
        (lambda inst: almost_all_extract(inst, "x", _EPS), "c"),
        (lambda inst: almost_all_extract(inst, "measured", 0.04), "eps"),
        (lambda inst: almost_all_extract(inst, "measured", _EPS, "x"), "delta"),
        (lambda inst: almost_all_extract(inst, "measured", _EPS, "measured"), "delta"),
        (lambda inst: dense_extract(inst, "1/25"), "eps"),
        (lambda inst: dense_extract(inst, _EPS, 0.001), "delta"),
        (lambda inst: octopus_extract(inst, "2"), "k"),
        (lambda inst: iterate_extract(inst.hypergraph.flatten(0), 2.0, Fraction(1, 4)), "k"),
        (lambda inst: iterate_extract(inst.hypergraph.flatten(0), Fraction(2), 0.25), "eps"),
        (lambda inst: drc_extract(inst.hypergraph.flatten(0), Fraction(2), "1/4"), "eps"),
        (lambda inst: drc_extract(inst.hypergraph.flatten(0), None, Fraction(1, 4)), "k"),
    ],
    ids=[
        "bsg-k-text", "bsg-k-float", "bsg-k-bool", "bsg-c-text", "bsg-c-float",
        "bsg-k-auto", "almost-all-c-text", "almost-all-eps-float", "almost-all-delta-text",
        "almost-all-delta-measured", "dense-eps-text", "dense-delta-float",
        "octopus-k-text", "iterate-k-float", "iterate-eps-float", "drc-eps-text",
        "drc-k-none",
    ],
)
def test_pipeline_parameter_must_be_exact(call, name):
    # rejected by name with a typed error, never rounded or parsed from text
    with pytest.raises(ConfigInvalidError, match=f"^{name} must be an int or Fraction"):
        call(gen_instance(_COMPLETE_12))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda inst: dense_extract(inst, _EPS, Fraction(2)), "delta must lie in [0, 1), got 2"),
        (lambda inst: dense_extract(inst, _EPS, Fraction(1)), "delta must lie in [0, 1), got 1"),
        (lambda inst: dense_extract(inst, _EPS, Fraction(-1, 100)),
         "delta must lie in [0, 1), got -1/100"),
        (lambda inst: dense_extract(inst, Fraction(0)), "eps must be positive, got 0"),
        (lambda inst: almost_all_extract(inst, "measured", _EPS, Fraction(1)),
         "delta must lie in [0, 1), got 1"),
        (lambda inst: octopus_extract(inst, Fraction(1, 2)),
         "density parameter k must be >= 1, got 1/2"),
        (lambda inst: bsg_extract(inst, 0), "density parameter k must be >= 1, got 0"),
        (lambda inst: bsg_extract(inst, Fraction(1, 2)),
         "density parameter k must be >= 1, got 1/2"),
    ],
    ids=["dense-delta-two", "dense-delta-one", "dense-delta-negative", "dense-eps-zero",
         "almost-all-delta-one", "octopus-k-half", "bsg-k-zero", "bsg-k-half"],
)
def test_run_parameter_out_of_range_is_refused(call, message):
    # a delta >= 1 made the edge-density floor vacuous, and bsg_extract
    # divided by a k of 0 before any check saw it
    with pytest.raises(ConfigInvalidError) as info:
        call(gen_instance(_COMPLETE_12))
    assert type(info.value) is ConfigInvalidError
    assert str(info.value) == message


def test_ambient_entry_records_each_run_fact_once():
    # the result's own mode and epsilon are the only copies
    inst = gen_instance(GenConfig.make(r=2, n=12, family="complete", seed=0))
    res, _ = almost_all_extract(inst, "measured", Fraction(1, 25), "auto")
    assert res.mode == "almost-all" and res.epsilon == Fraction(1, 25)
    assert "mode" not in res.trace[0] and "epsilon" not in res.trace[0]
    res, _ = bsg_extract(inst, Fraction(1), "measured")
    assert "mode" not in res.trace[0] and "epsilon" not in res.trace[0]


@pytest.mark.parametrize("mode", ["general", "almost-all"])
def test_result_with_old_ambient_fields_still_loads(mode):
    inst = gen_instance(GenConfig.make(r=2, n=12, family="complete", seed=0))
    if mode == "general":
        res, _ = bsg_extract(inst, Fraction(1), "measured")
    else:
        res, _ = almost_all_extract(inst, "measured", Fraction(1, 25), "auto")
    data = res.to_json()
    # files written before the cleanup repeated both facts in the ambient entry
    old_mode = "general" if mode == "general" else "dense"
    data["trace"][0] = dict(data["trace"][0], mode=old_mode, epsilon=data["epsilon"])
    old = ExtractionResult.from_json(data)
    assert (old.mode, old.subsets, old.epsilon) == (res.mode, res.subsets, res.epsilon)
    assert check_bounds(old, inst, mode) == check_bounds(res, inst, mode)


def _repeated_first_vertex(subsets):
    return [[sub[0]] * len(sub) for sub in subsets]


@pytest.mark.parametrize(
    "tamper",
    [
        _repeated_first_vertex,
        lambda subsets: [[1.7] + sub[1:] for sub in subsets],
        lambda subsets: [[True] + sub[1:] for sub in subsets],
        lambda subsets: [sub[::-1] for sub in subsets],
        lambda subsets: [[str(v) for v in sub] for sub in subsets],
    ],
    ids=["repeated", "float", "bool", "decreasing", "string"],
)
def test_result_subsets_must_be_increasing_ints(tamper):
    # a subset repeating its first vertex would pass check_bounds' size
    # floors over one vertex a part
    inst = gen_instance(
        GenConfig.make(r=3, n=10, family="random-density", seed=1, k=Fraction(2))
    )
    res, _ = bsg_extract(inst, Fraction(2))
    data = res.to_json()
    assert ExtractionResult.from_json(data) == res
    data["subsets"] = tamper(data["subsets"])
    with pytest.raises(ConfigInvalidError, match="strictly increasing int indices"):
        ExtractionResult.from_json(data)


def test_almost_all_density_too_low():
    eps = Fraction(1, 25)
    inst = gen_instance(
        GenConfig.make(r=2, n=12, family="random-density", seed=0, k=Fraction(2))
    )
    with pytest.raises(DensityTooLowError):
        almost_all_extract(inst, "measured", eps, "auto")


def test_almost_all_planted_dense():
    eps = Fraction(1, 25)
    delta = eps / 20
    inst = gen_instance(
        GenConfig.make(r=2, n=12, family="dense", seed=9, delta=delta)
    )
    res, report = almost_all_extract(inst, "measured", eps, delta)
    assert report.overall
    # final bound recomputed by hand
    from bsgkit.sumsets import iterated_sumset, restricted_sumset

    s_size = len(iterated_sumset(inst.subset_elemsets(res.subsets)))
    c = Fraction(len(restricted_sumset(inst)), 12)
    assert s_size <= 2 * c**3 * 12


def test_pipeline_determinism():
    cfg = GenConfig.make(
        r=2, n=12, family="random-density", seed=42, k=Fraction(2)
    )
    runs = []
    for _ in range(2):
        inst = gen_instance(cfg)
        res, report = bsg_extract(inst, Fraction(2), "measured")
        runs.append((res.subsets, res.trace, report.to_json()))
    assert runs[0] == runs[1]


def test_sweep_counts_the_whole_box():
    # 10,100 supports: every one is counted, and at the shared minimum the
    # lexicographically first support is reported
    inst = gen_instance(GenConfig.make(r=2, n=[101, 100], family="complete", seed=0))
    h = inst.hypergraph
    subsets = [list(range(101)), list(range(100))]
    full = verify_relaxed_counts(h, subsets, Fraction(1))
    assert full.exhaustive
    assert full.checked == 10100
    assert full.min_count == 100 * 100  # 100 mates w, each with 100 legs
    assert full.min_support == (0, 0)
    again = verify_relaxed_counts(h, subsets, Fraction(1))
    assert full == again
    small = gen_instance(GenConfig.make(r=2, n=12, family="complete", seed=0))
    subsets = [list(range(12)), list(range(12))]
    exh = verify_relaxed_counts(small.hypergraph, subsets, Fraction(1))
    assert exh.exhaustive and exh.checked == 144


@pytest.mark.parametrize(
    "r, n, checked, min_count, min_support",
    [
        (2, 150, 13500, 1666, [126, 144]),
        (3, 28, 12936, 10985023, [21, 3, 26]),
    ],
)
def test_sweep_finds_the_minimum_over_every_support(r, n, checked, min_count, min_support):
    # boxes above 10^4 supports, where a 1,000-support sample recorded a
    # larger minimum (1793 at [31, 144] at r=2, 11544277 at r=3); the
    # verifier's own counter agrees on the minimum
    inst = gen_instance(
        GenConfig.make(r=r, n=n, family="random-density", seed=0, k=Fraction(2))
    )
    res, report = bsg_extract(inst, Fraction(2))
    assert report.overall
    entry = res.trace_entry("count-verify")
    assert entry["exhaustive"]
    assert entry["checked"] == checked == math.prod(res.sizes())
    assert entry["min_count"] == str(min_count)
    assert entry["min_support"] == min_support
    assert min(verifier_table(inst.hypergraph, res.subsets).values()) == min_count
