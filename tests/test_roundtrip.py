"""Round trips of the instance, result and report writers against their
loaders: a file the CLI writes loads back to the value it was written from.

Files are written with the CLI's own writer and read back with its own
loaders, so a field one side renames or re-encodes fails here. Coordinates
and inequality sides at or beyond 2^53 travel as decimal strings.
"""

import contextlib
import io
import json
from fractions import Fraction
from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bsgkit.cli import _load_instance, _parse_file, _report_bounds, _write_output, main  # noqa: E402
from bsgkit.extraction import ExtractionResult  # noqa: E402
from bsgkit.groups import GroupSpec  # noqa: E402
from bsgkit.hypergraph import Instance, PartiteHypergraph  # noqa: E402
from bsgkit.jsonio import frac_str  # noqa: E402
from bsgkit.report import BoundReport, Inequality  # noqa: E402
from bsgkit.sumsets import ElemSet  # noqa: E402

SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

BIG = 1 << 53
# free coordinates: small values and values on both sides of +-2^53
free_coords = st.integers(-3, 3) | st.integers(BIG - 2, BIG + 2) | st.integers(-BIG - 2, -BIG + 2)
big_ints = st.integers(0, 3) | st.integers(BIG - 2, 1 << 80) | st.integers(-(1 << 80), -BIG + 2)
fractions = st.builds(Fraction, big_ints, st.integers(1, 1 << 60))


@st.composite
def instances(draw):
    moduli = tuple(draw(st.lists(st.sampled_from([0, 0, 2, 3, 5]), min_size=1, max_size=2)))
    spec = GroupSpec(moduli)
    coord = [st.integers(0, m - 1) if m else free_coords for m in moduli]
    elems = st.tuples(*coord)
    parts = tuple(
        ElemSet.from_iterable(spec, draw(st.lists(elems, min_size=1, max_size=3, unique=True)))
        for _ in range(draw(st.integers(2, 3)))
    )
    sizes = [len(p) for p in parts]
    every = list(product(*map(range, sizes)))
    if draw(st.booleans()):
        hg = PartiteHypergraph.complete(sizes)
    else:
        hg = PartiteHypergraph.build(len(parts), sizes, draw(st.lists(st.sampled_from(every))))
    meta = draw(st.none() | st.fixed_dictionaries({"family": st.text(max_size=4), "seed": big_ints}))
    return Instance(spec, parts, hg, meta=meta)


@SETTINGS
@given(inst=instances())
def test_instance_roundtrip(tmp_path, inst):
    path = tmp_path / "inst.json"
    _write_output(inst.to_json(), str(path))
    back = _load_instance(str(path))
    assert back == inst
    assert back.meta == inst.meta
    data = json.loads(path.read_text())
    assert (data["edges"] == "complete") == inst.hypergraph.is_complete()
    for part in data["parts"]:
        for elem in part:
            for c in elem:
                assert isinstance(c, str) == (not -BIG < int(c) < BIG)
    _write_output(back.to_json(), str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


@st.composite
def results(draw):
    """Valid results only: k >= 1, c > 0, and in the dense modes
    0 <= delta < 1 and an epsilon in (0, 1/(10r)), r the number of subsets."""
    mode = draw(st.sampled_from(["general", "dense", "almost-all"]))
    unit = fractions.map(abs).map(lambda f: f / (1 + f))  # in [0, 1)
    subsets = draw(
        st.lists(
            st.lists(st.integers(0, 50), min_size=1, max_size=4, unique=True).map(sorted),
            min_size=2,
            max_size=4,
        )
    )
    ambient = {"kind": "ambient", "mode": mode}
    if mode == "general":
        ambient["k"] = frac_str(1 + abs(draw(fractions)))
        epsilon = draw(st.none() | fractions)
    else:
        ambient["delta"] = frac_str(draw(unit))
        epsilon = draw(unit.filter(bool)) / (10 * len(subsets))
    if draw(st.booleans()):
        ambient["c"] = frac_str(draw(fractions.map(abs).filter(bool)))
    sweep = {
        "kind": "count-verify",
        "min_count": str(draw(big_ints)),
        "checked": draw(st.integers(1, 10**4)),
        "exhaustive": draw(st.booleans()),
    }
    return ExtractionResult(
        mode=mode,
        subsets=tuple(tuple(s) for s in subsets),
        epsilon=epsilon,
        trace=(ambient, sweep),
    )


@SETTINGS
@given(result=results())
def test_result_roundtrip(tmp_path, result):
    # the extract payload, loaded the way verify loads it
    path = tmp_path / "report.json"
    _write_output({"bounds": {}, "params": {}, "result": result.to_json()}, str(path))
    back = _parse_file(str(path), lambda data: ExtractionResult.from_json(data["result"]))
    assert back == result


inequalities = st.builds(
    Inequality,
    name=st.text(max_size=8),
    relation=st.sampled_from(["<=", ">=", "=="]),
    lhs=big_ints,
    rhs=big_ints,
    passed=st.booleans(),
    anchor=st.text(max_size=8),
)


@SETTINGS
@given(report=st.builds(BoundReport, st.lists(inequalities, max_size=5).map(tuple)))
def test_report_roundtrip(tmp_path, report):
    path = tmp_path / "report.json"
    _write_output({"bounds": report.to_json(), "params": {}, "result": {}}, str(path))
    bounds = _parse_file(str(path), _report_bounds)
    rows = tuple(
        Inequality(q["name"], q["relation"], int(q["lhs"]), int(q["rhs"]), q["pass"], q["anchor"])
        for q in bounds["inequalities"]
    )
    assert rows == report.inequalities
    assert bounds["overall"] is report.overall
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["report", "--report", str(path)])
    assert code == (0 if report.overall else 2)
