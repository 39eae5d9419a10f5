"""Cross-cutting invariants: trace-level density floors, the path-walk view
of exact counts at arity 2, sumset monotonicity under inducing, and the
repair path on the pinned degenerate instance, and pinned digests of
pipeline results."""

import hashlib
import json
from fractions import Fraction

import pytest

from bsgkit.cli import main as cli_main
from bsgkit.errors import BsgkitError
from bsgkit.extraction import bsg_extract, octopus_extract
from bsgkit.hypergraph import Instance
from bsgkit.instances import GenConfig, gen_instance
from bsgkit.jsonio import canonical_dumps, parse_fraction
from bsgkit.octopus import octopus_count_exact
from bsgkit.sumsets import restricted_sumset


def walk_count_r2(h, v1, v2):
    """Walks v1 - u - w1 - v2 with v1 != w1 and all three edges present."""
    edges = frozenset(h.edges)
    count = 0
    for u in range(h.part_sizes[1]):
        for w1 in range(h.part_sizes[0]):
            if w1 == v1:
                continue
            if (v1, u) in edges and (w1, u) in edges and (w1, v2) in edges:
                count += 1
    return count


def test_exact_named_only_equals_walks_r2():
    for seed in range(5):
        inst = gen_instance(
            GenConfig.make(r=2, n=6, family="random-density", seed=seed, k=Fraction(2))
        )
        h = inst.hypergraph
        for v1 in range(3):
            for v2 in range(3):
                assert octopus_count_exact(h, (v1, v2), mode="named-only") == \
                    walk_count_r2(h, v1, v2)


def test_stage_density_floors_hold_in_trace():
    for seed in range(5):
        inst = gen_instance(
            GenConfig.make(r=3, n=8, family="random-density", seed=seed, k=Fraction(2))
        )
        res = octopus_extract(inst, Fraction(2))
        stage_rows = [t for t in res.trace if t["kind"] == "stage-density"]
        assert len(stage_rows) == inst.r - 1
        for row in stage_rows:
            assert row["pass"]
            assert Fraction(row["edges"]) >= parse_fraction(row["floor"])


def test_restricted_sumset_shrinks_under_induce():
    inst = gen_instance(
        GenConfig.make(r=2, n=8, family="random-density", seed=3, k=Fraction(3, 2))
    )
    sub_h = inst.hypergraph.induce([range(5), range(6)])
    sub_parts = inst.subset_elemsets([range(5), range(6)])
    sub = Instance(inst.spec, sub_parts, sub_h)
    assert set(restricted_sumset(sub).elems) <= set(restricted_sumset(inst).elems)


def test_repair_on_pinned_degenerate_instance():
    # Known degenerate case: a part-2 vertex of original degree 1 whose only
    # neighbor lands in the chosen first subset ends up in the chosen last
    # subset by the degree rule, yet the pair has no valid mate at all. The
    # repair pass must drop an offending vertex and end with zero failures
    # while every size floor still holds.
    inst = gen_instance(
        GenConfig.make(r=2, n=8, family="random-density", seed=2, k=Fraction(2))
    )
    res, report = bsg_extract(inst, Fraction(2), "measured")
    repairs = [t for t in res.trace if t["kind"] == "count-repair"]
    assert repairs, "expected the repair pass to fire on this pinned seed"
    assert res.trace_entry("count-verify")["failures"] == 0
    assert report.overall
    for row in (t for t in res.trace if t["kind"] == "size-floor"):
        assert row["pass"]


# The only random-density K=2 r=2 instances among n in {5, 6, 8, 10} and
# seeds 0-39 on which the repair pass fires; each takes one round. Digests
# are SHA-256 of the canonical result JSON, which records the repair.
REPAIR_DIGESTS = {
    (8, 2): "2a7b6acd0b4dafe68d017d083cfe817d378c5a7ae966619d1ef8f564bcaa23cf",
    (8, 4): "0746a61d2bcd7b08c9bf0b1c9a78365ad19aa99bd29275830bd18831df07561c",
    (10, 24): "ebd6b9d62292efa6eb22751e1c063fef3694941bde2a98abcd967368b456ebeb",
}


@pytest.mark.parametrize("n, seed", sorted(REPAIR_DIGESTS))
def test_repair_results_are_pinned(n, seed):
    inst = gen_instance(
        GenConfig.make(r=2, n=n, family="random-density", seed=seed, k=Fraction(2))
    )
    res, report = bsg_extract(inst)
    assert report.overall
    assert [t["kind"] for t in res.trace].count("count-repair") == 1
    assert res.trace_entry("count-verify")["failures"] == 0
    text = canonical_dumps(res.to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == REPAIR_DIGESTS[n, seed]


# One SHA-256 over the canonical JSON of octopus_extract at the measured k,
# or of the error type name where the run raises, over every instance of
# the matrix below. The digest was computed at the commit before stages
# read cuts of the ambient flattenings, when each stage induced the
# restricted hypergraph and flattened that copy.
MATRIX_SIZES = {2: 16, 3: 9, 4: 6, 5: 5}
MATRIX_FAMILIES = [
    ("random-density", {"k": Fraction(3, 2)}),
    ("random-density", {"k": Fraction(2)}),
    ("random-density", {"k": Fraction(3)}),
    ("complete", {}),
    ("planted", {"ap_fraction": Fraction(1, 2), "target_c": Fraction(2)}),
]
MATRIX_DIGEST = "aa8b2184e8ddc20c44f2e51ead04090636bca07fc8c9c2434544a91effe93889"


def _matrix_outcomes():
    for r, n in MATRIX_SIZES.items():
        for family, params in MATRIX_FAMILIES:
            for seed in range(6):
                inst = gen_instance(GenConfig.make(r=r, n=n, family=family, seed=seed, **params))
                try:
                    yield octopus_extract(inst, inst.hypergraph.measured_k()).to_json()
                except BsgkitError as exc:
                    yield {"error": type(exc).__name__}


def test_octopus_extract_matrix_digest():
    text = canonical_dumps(list(_matrix_outcomes()))
    assert hashlib.sha256(text.encode()).hexdigest() == MATRIX_DIGEST


def test_cli_roundtrip_every_family(tmp_path, capsys):
    family_args = {
        "complete": [],
        "random-density": ["--K", "2"],
        "planted": ["--ap-fraction", "1/2", "--target-C", "2"],
        "dense": ["--delta", "1/100"],
    }
    for family, extra in family_args.items():
        inst = tmp_path / f"{family}.json"
        assert cli_main([
            "gen", "--family", family, "--r", "2", "--n", "10",
            "--seed", "11", "--out", str(inst), *extra,
        ]) == 0
        assert cli_main(["measure", "--instance", str(inst)]) == 0
        capsys.readouterr()
        report = tmp_path / f"{family}-report.json"
        if family == "dense":
            code = cli_main([
                "extract", "--instance", str(inst), "--mode", "almost-all",
                "--eps", "1/25", "--delta", "1/100", "--out", str(report),
            ])
            mode = "almost-all"
        else:
            code = cli_main([
                "extract", "--instance", str(inst), "--mode", "general",
                "--K", "measured", "--C", "measured", "--out", str(report),
            ])
            mode = "general"
        assert code == 0
        assert cli_main([
            "verify", "--instance", str(inst), "--result", str(report),
            "--mode", mode,
        ]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["bounds"]["overall"] is True
