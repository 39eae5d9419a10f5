"""Less-traveled paths: arity 4, a 16,384-support verification sweep inside
a pipeline, deletion-repaired pivot scans, budget wiring, and cross-process
byte stability."""

import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bsgkit
from bsgkit import octopus
from bsgkit.cli import main as cli_main
from bsgkit.errors import BudgetExceededError
from bsgkit.extraction import bsg_extract, drc_extract
from bsgkit.hypergraph import PartiteHypergraph
from bsgkit.instances import GenConfig, check_bounds, gen_instance
from bsgkit.jsonio import canonical_dumps
from kernel_tables import pipeline_table, verifier_table


def test_arity_four_pipeline_end_to_end():
    inst = gen_instance(GenConfig.make(r=4, n=4, family="complete", seed=0))
    res, report = bsg_extract(inst, Fraction(1), "measured")
    assert report.overall
    assert res.trace_entry("count-verify")["exhaustive"]
    assert check_bounds(res, inst, "general").overall


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_table_matches_counter(r):
    # against the verifier's own elimination counter: unequal part sizes,
    # every other vertex of each part, and a last-part vertex with no
    # closing edge at all
    sizes = (3, 5, 4, 6, 5)[:r - 1] + ((7, 5, 5, 3)[r - 2],)
    rng = random.Random(r)
    isolated = sizes[-1] - 1
    edges = [
        e for e in itertools.product(*(range(s) for s in sizes))
        if e[-1] != isolated and rng.random() < 0.6
    ]
    h = PartiteHypergraph.build(r, sizes, edges)
    subsets = [range(0, s, 2) for s in sizes]
    table = pipeline_table(h, subsets)
    assert len(table) == math.prod(len(sub) for sub in subsets)
    assert table == verifier_table(h, subsets)
    assert any(count for count in table.values())
    assert all(table[sup] == 0 for sup in table if sup[-1] == isolated)


def test_pipeline_counts_without_the_per_support_counter(monkeypatch):
    # the pipeline sweep, at r=4 and on the 128 x 128 complete instance,
    # counts the whole box in one relaxed_count_table call, never one
    # support at a time through octopus_count_relaxed
    def refuse(*args):
        raise AssertionError("pipeline called octopus_count_relaxed")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bsgkit" and hasattr(module, "octopus_count_relaxed"):
            monkeypatch.setattr(module, "octopus_count_relaxed", refuse)
    for cfg in (
        GenConfig.make(r=4, n=4, family="complete", seed=0),
        GenConfig.make(r=2, n=128, family="complete", seed=0),
    ):
        _, report = bsg_extract(gen_instance(cfg), Fraction(1), "measured")
        assert report.overall


def test_whole_box_sweep_inside_pipeline():
    # 128 x 128 complete: the pipeline counts all 16,384 supports, and every
    # relaxed count is the closed form 127 * 128 (127 mates w, each with 128
    # legs); the run stays deterministic.
    inst = gen_instance(GenConfig.make(r=2, n=128, family="complete", seed=0))
    res, report = bsg_extract(inst, Fraction(1), "measured")
    assert report.overall
    entry = res.trace_entry("count-verify")
    assert entry["exhaustive"]
    assert entry["checked"] == 128 * 128
    assert entry["min_count"] == str(127 * 128)
    # neither route qualifies the count row: it holds over every support
    recheck = check_bounds(res, inst, "general")
    for rows in (report.inequalities, recheck.inequalities):
        count_row = next(q for q in rows if q.name == "octopus-count-floor")
        assert "sample" not in count_row.anchor
    res2, report2 = bsg_extract(inst, Fraction(1), "measured")
    assert canonical_dumps(res2.to_json()) == canonical_dumps(res.to_json())
    assert canonical_dumps(report2.to_json()) == canonical_dumps(report.to_json())


def _lopsided_bipartite():
    # right vertex 0 sees every left vertex; left 0..5 also share right
    # 1..12; left 6 and 7 see only the hub, so their pairs have codegree 1.
    edges = [(v, 0) for v in range(8)]
    edges += [(v, z) for v in range(6) for z in range(1, 13)]
    return PartiteHypergraph.build(2, (8, 16), edges).flatten(0)


def test_drc_deletion_repair_fires_and_verifies():
    g = _lopsided_bipartite()
    k = Fraction(g.left_size * g.right_size, g.edge_count)  # 8/5
    eps = Fraction(1, 3)
    threshold = eps * g.right_size / (2 * k * k)
    assert threshold > 1  # pairs sharing only the hub are bad
    out = drc_extract(g, k, eps)
    assert out.deletions > 0 and out.repaired
    bad = sum(
        1
        for v in out.u
        for w in out.u
        if g.codegree(v, w) < threshold
    )
    assert Fraction(bad) <= eps * len(out.u) ** 2
    assert Fraction(len(out.u)) >= Fraction(g.left_size) / (2 * k)


def _count_exact_full(inst_path):
    return cli_main([
        "count", "--instance", str(inst_path),
        "--support", "0,0,0", "--exact", "full",
    ])


def test_enum_budget_cli_wiring(tmp_path, capsys, monkeypatch):
    inst_path = tmp_path / "inst.json"
    assert cli_main([
        "gen", "--family", "complete", "--r", "3", "--n", "6",
        "--seed", "1", "--out", str(inst_path),
    ]) == 0
    with monkeypatch.context() as m:
        m.setattr(octopus, "DEFAULT_ENUM_BUDGET", 5)
        assert _count_exact_full(inst_path) == 1
    assert "budget" in capsys.readouterr().err
    assert _count_exact_full(inst_path) == 0


def test_caps_ignore_the_environment(tmp_path, capsys, monkeypatch):
    # the caps are constants: a stray BSGKIT_CAPS changes neither the exit
    # code nor a byte of the output
    inst_path = tmp_path / "inst.json"
    assert cli_main([
        "gen", "--family", "complete", "--r", "3", "--n", "4",
        "--seed", "1", "--out", str(inst_path),
    ]) == 0
    capsys.readouterr()
    assert _count_exact_full(inst_path) == 0
    plain = capsys.readouterr()
    monkeypatch.setenv("BSGKIT_CAPS", "enum=bad")
    assert _count_exact_full(inst_path) == 0
    assert capsys.readouterr() == plain
    assert plain.out


def test_exact_budget_estimate_is_reported(monkeypatch):
    comp = PartiteHypergraph.complete((5, 5, 5))
    monkeypatch.setattr(octopus, "DEFAULT_ENUM_BUDGET", 10)
    with pytest.raises(BudgetExceededError) as err:
        octopus.octopus_count_exact(comp, (0, 0, 0))
    assert err.value.estimate > err.value.budget == 10


def test_cross_process_byte_stability(tmp_path):
    # fresh interpreters use different string-hash seeds; identical output
    # bytes across them rule out any hidden set or dict ordering dependence
    # `-m` searches the working directory first, so the child runs the
    # same bsgkit as this process, installed or not
    package_root = Path(bsgkit.__file__).resolve().parent.parent
    outputs = set()
    for run in range(2):
        inst = tmp_path / f"i{run}.json"
        rep = tmp_path / f"r{run}.json"
        for cmd in (
            ["gen", "--family", "planted", "--r", "2", "--n", "10",
             "--seed", "12", "--ap-fraction", "1/2", "--target-C", "2",
             "--out", str(inst)],
            ["extract", "--instance", str(inst), "--mode", "general",
             "--K", "measured", "--C", "measured", "--out", str(rep)],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "bsgkit", *cmd], capture_output=True, cwd=package_root
            )
            assert proc.returncode == 0, proc.stderr
        outputs.add(inst.read_bytes() + rep.read_bytes())
    assert len(outputs) == 1
