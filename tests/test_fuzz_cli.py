"""Fuzzing of the CLI's file inputs: every malformed file either loads or
fails with a typed error, never with a raw exception.

Inputs are small JSON values and mutations of valid files (one key or item
dropped, one value swapped for a value of another JSON type, or one
rational string swapped for "0", "-1" or "1/2", which keep the type and
break a range).
"""

import contextlib
import copy
import io
import json
from functools import reduce
from operator import getitem

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bsgkit.cli import main  # noqa: E402
from bsgkit.errors import ConfigInvalidError  # noqa: E402
from bsgkit.jsonio import parse_fraction  # noqa: E402

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.sampled_from(["", "x", "1", "1/2", "0.5", "measured", "general", "ambient"])
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text("abcdegiklmnoprstuv_", max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _json_type(value):
    return type(value).__name__ if value is not None else "null"


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """The path of a valid instance, and a valid input file of each command."""
    root = tmp_path_factory.mktemp("valid")
    inst = root / "inst.json"
    report = root / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--family", "planted", "--r", "2", "--n", "6", "--seed", "3",
                     "--ap-fraction", "1/2", "--target-C", "2", "--out", str(inst)]) == 0
        assert main(["extract", "--instance", str(inst), "--out", str(report)]) == 0
    inst_data = json.loads(inst.read_text())
    return {
        "inst_path": str(inst),
        "measure": inst_data,
        "energy": {"group": inst_data["group"], "elems": inst_data["parts"][0]},
        "verify": json.loads(report.read_text())["result"],
        "report": json.loads(report.read_text()),
    }


def _paths(value, prefix=()):
    """Every path of keys and indices into a JSON value, the root included."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, prefix + (i,))


def _is_rational(value):
    try:
        parse_fraction(value)
    except ConfigInvalidError:
        return False
    return True


@st.composite
def mutations(draw, doc):
    """doc with one key or item dropped, one value of another JSON type, or
    one rational string swapped for another."""
    doc = copy.deepcopy(doc)
    paths = [p for p in _paths(doc) if p]
    rationals = [p for p in paths if _is_rational(reduce(getitem, p, doc))]
    swap = bool(rationals) and draw(st.booleans())
    path = draw(st.sampled_from(rationals if swap else paths))
    parent = reduce(getitem, path[:-1], doc)
    old = parent[path[-1]]
    if swap:
        parent[path[-1]] = draw(st.sampled_from(["0", "-1", "1/2"]))
    elif draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(
            json_values.filter(lambda v: _json_type(v) != _json_type(old))
        )
    return doc


def _run(tmp, command, payload, inst_path):
    bad = tmp / "fuzz.json"
    bad.write_text(json.dumps(payload))
    argv = {
        "measure": ["measure", "--instance", str(bad)],
        "energy": ["energy", "--set", str(bad)],
        "verify": ["verify", "--instance", inst_path, "--result", str(bad),
                   "--mode", "general"],
        "report": ["report", "--report", str(bad)],
    }[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("bsgkit: error:")


COMMANDS = ["measure", "energy", "verify", "report"]


@SETTINGS
@given(data=st.data())
def test_fuzz_small_json_values(tmp_path_factory, valid_files, data):
    command = data.draw(st.sampled_from(COMMANDS))
    payload = data.draw(json_values)
    _run(tmp_path_factory.getbasetemp(), command, payload, valid_files["inst_path"])


@SETTINGS
@given(data=st.data())
def test_fuzz_mutated_valid_files(tmp_path_factory, valid_files, data):
    command = data.draw(st.sampled_from(COMMANDS))
    payload = data.draw(mutations(valid_files[command]))
    _run(tmp_path_factory.getbasetemp(), command, payload, valid_files["inst_path"])
