"""Acceptance suite.

Each criterion below runs at its stated tolerance (everything is exact
arithmetic; tolerances are equalities and exact rational comparisons) and
prints one PASS/FAIL line. Runtime budgets are asserted where stated.
"""

import math
import time
from fractions import Fraction
from itertools import product

from bsgkit.cli import main as cli_main
from bsgkit.extraction import bsg_extract, almost_all_extract, iterate_extract
from bsgkit.groups import make_group
from bsgkit.instances import (
    GenConfig,
    brute_force_best_subsets,
    check_representations,
    gen_instance,
)
from bsgkit.octopus import (
    enumerate_octopus_witnesses,
    octopus_count_exact,
    octopus_count_relaxed,
)
from bsgkit.rng import SplitMix64
from bsgkit.sumsets import (
    ElemSet,
    iterated_sumset,
    representation_table,
    restricted_sumset,
    sum_stats,
)
from kernel_tables import pipeline_table, verifier_table
from oracles import brute_codegree, oracle_exact, oracle_relaxed, oracle_sum_fold

Z = make_group([0])


def _report(criterion: str, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed"


# ---------------------------------------------------------- shared suites


def _counting_suite():
    """200 small instances, every family, part sizes <= 8, r in {2, 3}."""
    instances = []
    for i in range(140):
        seed = 1000 + i
        n = 4 + (i % 5)
        family = ("complete", "random-density", "planted", "dense")[i % 4]
        kwargs = {}
        if family == "random-density":
            kwargs["k"] = Fraction(2) if i % 2 else Fraction(3, 2)
        elif family == "planted":
            kwargs["ap_fraction"] = Fraction(1, 2)
            kwargs["target_c"] = Fraction(2)
        elif family == "dense":
            kwargs["delta"] = Fraction(1, 20)
        instances.append(
            gen_instance(GenConfig.make(r=2, n=n, family=family, seed=seed, **kwargs))
        )
    for i in range(60):
        seed = 5000 + i
        family = ("random-density", "complete", "planted", "dense")[i % 4]
        n = (3, 4, 5, 6, 7, 8)[i % 6] if family == "random-density" else 3 + (i % 3)
        kwargs = {}
        if family == "random-density":
            kwargs["k"] = Fraction(2)
        elif family == "planted":
            kwargs["ap_fraction"] = Fraction(1, 2)
            kwargs["target_c"] = Fraction(3)
        elif family == "dense":
            kwargs["delta"] = Fraction(1, 30)
        instances.append(
            gen_instance(GenConfig.make(r=3, n=n, family=family, seed=seed, **kwargs))
        )
    return instances


_MAIN_SUITE_CACHE = None


def _main_suite():
    """120 instances over K in {1, 3/2, 2, 4}, r in {2, 3}, n <= 16."""
    global _MAIN_SUITE_CACHE
    if _MAIN_SUITE_CACHE is not None:
        return _MAIN_SUITE_CACHE
    suite = []
    for r in (2, 3):
        for k in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(4)):
            for n in (8, 12, 16):
                for seed in range(5):
                    if k == 1:
                        cfg = GenConfig.make(r=r, n=n, family="complete", seed=seed)
                    else:
                        cfg = GenConfig.make(
                            r=r, n=n, family="random-density", seed=seed, k=k
                        )
                    suite.append((k, gen_instance(cfg)))
    _MAIN_SUITE_CACHE = suite
    return suite


# -------------------------------------------------------------- criteria


def test_criterion_1_octopus_oracle_equivalence():
    t0 = time.monotonic()
    instances = _counting_suite()
    assert len(instances) >= 200
    rng = SplitMix64(2024)
    ok = True
    for inst in instances:
        h = inst.hypergraph
        for _ in range(2):
            sup = tuple(rng.next_below(s) for s in h.part_sizes)
            relaxed = octopus_count_relaxed(h, sup)
            named = octopus_count_exact(h, sup, mode="named-only")
            full = octopus_count_exact(h, sup, mode="full")
            ok &= relaxed == oracle_relaxed(h, sup)
            ok &= named == oracle_exact(h, sup, "named-only")
            ok &= full == oracle_exact(h, sup, "full")
            ok &= full <= named <= relaxed
            if not ok:
                break
        if not ok:
            break
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60
    _report("1", f"octopus counter oracle equivalence, {len(instances)} instances, "
                 f"{elapsed:.1f}s", ok)


def test_verifier_counter_oracle_equivalence():
    # check_bounds' own elimination counter on the criterion 1 suite: one
    # small box per instance, where every support must match, plus two
    # singleton boxes, each counted in its own call
    rng = SplitMix64(2025)
    for inst in _counting_suite():
        h = inst.hypergraph
        box = [sorted({rng.next_below(s) for _ in range(2)}) for s in h.part_sizes]
        singles = [tuple(rng.next_below(s) for s in h.part_sizes) for _ in range(2)]
        table = verifier_table(h, box)
        for sup in singles:
            table.update(verifier_table(h, [(v,) for v in sup]))
        assert table.keys() == set(product(*box)) | set(singles)
        for sup, count in table.items():
            assert count == oracle_relaxed(h, sup), (inst.meta, sup)


def test_criterion_2_energy_closed_form():
    t0 = time.monotonic()
    ok = True
    spec = Z
    for n in range(1, 9):
        ap = ElemSet.from_iterable(spec, [(v,) for v in range(n)])
        brute = sum(
            1
            for x, y, xp, yp in product(ap.elems, repeat=4)
            if spec.add(x, y) == spec.add(xp, yp)
        )
        ok &= brute == (2 * n**3 + n) // 3
        ok &= sum_stats(ap).energy == brute
    ok &= sum_stats(ElemSet.from_iterable(spec, [(v,) for v in range(3)])).energy == 19
    for n in range(1, 51):
        ap = ElemSet.from_iterable(spec, [(v,) for v in range(n)])
        ok &= sum_stats(ap).energy == (2 * n**3 + n) // 3
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5
    _report("2", f"additive energy closed form n<=50, {elapsed:.1f}s", ok)


def test_criterion_3_iterate_conclusions():
    t0 = time.monotonic()
    suite = _main_suite()
    assert len(suite) >= 100
    ok = True
    for k, inst in suite:
        h = inst.hypergraph
        r = h.r
        eps = Fraction(1) / ((r - 1) * 2 ** (r + 3) * k)
        out = iterate_extract(h.flatten(0), k, eps)  # NoWitness would propagate
        z_size = math.prod(h.part_sizes[1:])
        ok &= Fraction(len(out.u)) >= Fraction(h.part_sizes[0]) / (4 * k)
        threshold = eps * z_size / (2 * k * k)
        good = sum(
            1
            for v in out.u
            for w in out.u
            if brute_codegree(h, 0, v, w) >= threshold
        )
        ok &= Fraction(good) >= (1 - eps) * len(out.u) ** 2
        ok &= all(
            Fraction(h.degree(0, v)) >= Fraction(z_size) / (2 * k) for v in out.u
        )
        if not ok:
            break
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120
    _report("3", f"prune-and-select conclusions on {len(suite)} instances, "
                 f"{elapsed:.1f}s", ok)


def test_criterion_4_general_pipeline_ledger():
    suite = _main_suite()
    ok = True
    for k, inst in suite:
        h = inst.hypergraph
        r = h.r
        total = h.total_tuples
        result, report = bsg_extract(inst, k, "measured")
        ok &= report.overall
        # subset-size floors re-derived from scratch
        for p in range(r):
            ok &= (
                len(result.subsets[p]) * 2 ** (p + 3) * k.numerator
                >= h.part_sizes[p] * k.denominator
            )
        # relaxed count floor on every verified support, recomputed
        floor = Fraction(total ** (r - 1)) / (
            8 ** (r**3) * (r - 1) ** (r - 1) * k ** ((r * r + 5 * r - 4) // 2)
        )
        table = pipeline_table(h, result.subsets)
        ok &= all(Fraction(c) >= floor for c in table.values())
        # growth bound in exact big integers
        s_size = len(iterated_sumset(inst.subset_elemsets(result.subsets)))
        osize = len(restricted_sumset(inst))
        c_pow_r = Fraction(osize**r, total)
        cap_pow = (
            Fraction(8 ** (r**3) * (r - 1) ** (r - 1)) ** r
            * k ** (r * (r * r + 5 * r - 4) // 2)
            * c_pow_r ** (2 * r - 1)
            * total
        )
        ok &= Fraction(s_size**r) <= cap_pow
        if not ok:
            break
    _report("4", f"general pipeline ledger on {len(suite)} instances", ok)


def test_criterion_5_dense_ledger():
    t0 = time.monotonic()
    ok = True
    runs = 0
    for r in (2, 3):
        for n in (10, 12):
            for eps in (Fraction(1, 25), Fraction(1, 40)):
                if eps >= Fraction(1, 10 * r):
                    continue  # the stated constraint filters this combination
                delta = eps / (10 * r)
                for seed in range(3):
                    inst = gen_instance(
                        GenConfig.make(r=r, n=n, family="dense", seed=seed, delta=delta)
                    )
                    result, report = almost_all_extract(inst, "measured", eps, "auto")
                    runs += 1
                    ok &= report.overall
                    target = math.ceil((1 - eps) * n)
                    ok &= all(len(s) == target for s in result.subsets)
                    floor = Fraction(n ** (r * (r - 1)), 2)
                    table = pipeline_table(inst.hypergraph, result.subsets)
                    ok &= all(Fraction(c) >= floor for c in table.values())
                    s_size = len(
                        iterated_sumset(inst.subset_elemsets(result.subsets))
                    )
                    c = Fraction(len(restricted_sumset(inst)), n)
                    ok &= Fraction(s_size) <= 2 * c ** (2 * r - 1) * n
                    if not ok:
                        break
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120
    _report("5", f"dense ledger, {runs} runs, {elapsed:.1f}s", ok)


def test_criterion_6_representation_identity_and_counts():
    ok = True
    configs = [
        (2, 11, 5, "complete", {}),
        (2, 31, 8, "complete", {}),
        (2, 101, 8, "planted", {"ap_fraction": Fraction(1, 2), "target_c": Fraction(2)}),
        (3, 31, 4, "complete", {}),
        (3, 101, 4, "complete", {}),
    ]
    for r, m, n, family, kwargs in configs:
        inst = gen_instance(
            GenConfig.make(r=r, n=n, family=family, seed=6, moduli=(m,), **kwargs)
        )
        h = inst.hypergraph
        spec = inst.spec
        # every enumerated witness satisfies the signed edge-sum identity
        rng = SplitMix64(77)
        witnesses = 0
        for _ in range(4):
            sup = tuple(rng.next_below(s) for s in h.part_sizes)
            target = oracle_sum_fold(spec, [inst.parts[i].elems[v] for i, v in enumerate(sup)])
            for wit in enumerate_octopus_witnesses(h, sup, mode="named-only"):
                xs, ys, z = wit.representation_sums(inst)
                acc = spec.identity()
                for x in xs:
                    acc = spec.add(acc, x)
                for y in ys:
                    acc = spec.add(acc, spec.neg(y))
                acc = spec.add(acc, z)
                ok &= acc == target
                witnesses += 1
        ok &= witnesses > 0

        # pipeline, then the representation route with L from the verification
        result, report = bsg_extract(inst, "measured", "measured")
        ok &= report.overall
        total = h.total_tuples
        table = pipeline_table(h, result.subsets)
        l_param = min(Fraction(c, total ** (r - 1)) for c in table.values())
        ok &= l_param > 0
        rep_report = check_representations(result, inst, l_param)
        ok &= rep_report.overall

        # convolution counter cross-checked against tuple enumeration
        oset = restricted_sumset(inst)
        if len(oset) ** (2 * r - 1) <= 10**7:
            conv = representation_table(spec, oset, r)
            brute: dict = {}
            for tup in product(oset.elems, repeat=2 * r - 1):
                acc = spec.identity()
                for i in range(r - 1):
                    acc = spec.add(acc, tup[i])
                for i in range(r - 1, 2 * r - 2):
                    acc = spec.add(acc, spec.neg(tup[i]))
                acc = spec.add(acc, tup[2 * r - 2])
                brute[acc] = brute.get(acc, 0) + 1
            ok &= conv == brute
        if not ok:
            break
    _report("6", "representation identity and signed-count route", ok)


def test_criterion_7_determinism(tmp_path):
    ok = True
    scenarios = [
        (
            ["gen", "--family", "planted", "--r", "2", "--n", "12", "--seed", "9",
             "--ap-fraction", "1/2", "--target-C", "2"],
            ["extract", "--mode", "general", "--K", "measured", "--C", "measured"],
        ),
        (
            ["gen", "--family", "random-density", "--r", "3", "--n", "6",
             "--seed", "4", "--K", "2"],
            ["extract", "--mode", "general", "--K", "2", "--C", "measured"],
        ),
    ]
    for idx, (gen_args, extract_args) in enumerate(scenarios):
        outputs = set()
        for workers in (1, 4):
            for attempt in (0, 1):
                inst_path = tmp_path / f"i{idx}-{workers}-{attempt}.json"
                rep_path = tmp_path / f"r{idx}-{workers}-{attempt}.json"
                assert cli_main(gen_args + ["--out", str(inst_path)]) == 0
                assert cli_main(
                    extract_args
                    + ["--instance", str(inst_path), "--workers", str(workers),
                       "--out", str(rep_path)]
                ) == 0
                outputs.add(rep_path.read_bytes())
        ok &= len(outputs) == 1
    _report("7", "byte-identical reports across runs and worker counts", ok)


def test_criterion_8_brute_force_frontier():
    t0 = time.monotonic()
    ok = True
    runs = 0
    for seed in range(10):
        for family, kwargs in (
            ("random-density", {"k": Fraction(2)}),
            ("planted", {"ap_fraction": Fraction(1, 2), "target_c": Fraction(2)}),
        ):
            inst = gen_instance(
                GenConfig.make(r=2, n=10, family=family, seed=seed, **kwargs)
            )
            assert sum(inst.part_sizes) <= 24
            result, _ = bsg_extract(inst, "measured", "measured")
            floors = [len(s) for s in result.subsets]
            _, best = brute_force_best_subsets(inst, floors)
            pipeline_size = len(
                iterated_sumset(inst.subset_elemsets(result.subsets))
            )
            ok &= pipeline_size >= best
            runs += 1
    ok &= runs >= 20
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5
    _report("8", f"pipeline never beats the brute-force optimum, {runs} runs, "
                 f"{elapsed:.1f}s", ok)
