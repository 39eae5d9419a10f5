"""The benchmark tracer (perfbench/tracing.py) wraps bsgkit functions and
methods by name. Installing it here makes a deleted or renamed name fail the
suite, and checks that the tracer changes no result and restores every
original on exit. The tracer file is imported as it is, not copied."""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

from bsgkit import extraction, groups, hypergraph, instances, sumsets
from bsgkit.instances import GenConfig, gen_instance

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name bound in a bsgkit module or in a class the tracer patches."""
    owners = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "bsgkit"]
    owners += [
        hypergraph.Instance,
        hypergraph.PartiteHypergraph,
        hypergraph.Bipartite,
        groups.GroupSpec,
        sumsets.ElemSet,
    ]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def _run():
    inst = gen_instance(
        GenConfig.make(r=3, n=4, family="random-density", seed=2, k=Fraction(2))
    )
    result, report = extraction.bsg_extract(inst)
    check = instances.check_bounds(result, inst, result.mode)
    return result.to_json(), report.to_json(), check.to_json()


def test_tracer_wraps_and_restores():
    tracing = _load_tracing()
    untraced = _run()
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        during = _bindings()
        traced = _run()
    after = _bindings()

    assert traced == untraced
    assert any(during[key] is not value for key, value in before.items())
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.count["extraction.sweeps"] == 1
    # check_bounds counts with its own elimination routine, not through the
    # wrapped octopus_count_relaxed, so the tracer sees no per-support calls
    assert tracer.count["instances.verify_supports"] == 0
    assert tracer.time["instances.check_bounds"] > 0
    assert not tracer.stack
