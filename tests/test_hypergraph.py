"""Hypergraph storage and queries: build, density, degree, flattening,
codegree, inducing, the tuple cap, and the instance JSON format."""

import enum
import itertools
import json
import random
from fractions import Fraction

import pytest

from bsgkit.cli import main
from bsgkit.config import TUPLE_CAP
from bsgkit.errors import (
    ArityMismatchError,
    ConfigInvalidError,
    EmptyPartError,
    IndexOutOfRangeError,
    NoEdgesError,
    ShapeMismatchError,
    TooLargeError,
)
from bsgkit.groups import make_group
from bsgkit.hypergraph import Instance, PartiteHypergraph, tuple_total
from bsgkit.instances import GenConfig, gen_instance
from bsgkit.jsonio import canonical_dumps
from bsgkit.octopus import leg_count
from bsgkit.sumsets import ElemSet

Z = make_group([0])


def k22():
    return PartiteHypergraph.build(2, (2, 2), [(0, 0), (0, 1), (1, 0), (1, 1)])


def test_build_examples():
    h = k22()
    assert h.edge_count == 4
    dup = PartiteHypergraph.build(2, (2, 2), [(0, 0), (0, 0)])
    assert dup.edge_count == 1
    with pytest.raises(IndexOutOfRangeError):
        PartiteHypergraph.build(2, (2, 2), [(0, 5)])
    with pytest.raises(ArityMismatchError):
        PartiteHypergraph.build(2, (2, 2), [(0, 0, 0)])
    with pytest.raises(ArityMismatchError):
        PartiteHypergraph.build(1, (2,), [])
    # built directly, r = 1 was once accepted and then counted to a raw IndexError
    with pytest.raises(ArityMismatchError, match=r"^arity must be >= 2, got 1$"):
        PartiteHypergraph(1, (3,), ((0,), (2,)))


@pytest.mark.parametrize(
    "r, sizes, edges, named",
    [
        (2, (3, 3), [[1.7, True]], "1.7"),
        (2, (3, 3), [[True, 1]], "True"),
        (2, (3, 3), [(0, "1")], "'1'"),
        (2, (3, 3.0), [(0, 1)], "3.0"),
        (2, (3, False), [], "False"),
        (2.0, (3, 3), [(0, 1)], "2.0"),
        (True, (3,), [], "True"),
    ],
)
def test_build_rejects_non_int_values(r, sizes, edges, named):
    # int() used to truncate 1.7 to 1 and take True for 1
    with pytest.raises(ConfigInvalidError, match=named):
        PartiteHypergraph.build(r, sizes, edges)


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: PartiteHypergraph.complete((2.7, True)), "2.7"),
        (lambda: PartiteHypergraph.complete((3, True)), "True"),
        (lambda: PartiteHypergraph.complete((3, 3)).induce([[1.9, 0], [True]]), "1.9"),
        (lambda: PartiteHypergraph.complete((3, 3)).induce([[0], [True]]), "True"),
        (lambda: PartiteHypergraph.complete((3, 3)).degree(0, True), "True"),
        (lambda: PartiteHypergraph.complete((3, 3)).degree(1, 1.0), "1.0"),
    ],
)
def test_queries_reject_non_int_indices(call, named):
    # a truncating int() would give complete((2.7, True)) sizes (2, 1) and
    # induce [[1.9, 0], [True]] as [[0, 1], [1]]
    with pytest.raises(ConfigInvalidError, match=named):
        call()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda g: g.left_neighbors(-1), IndexOutOfRangeError,
         "right vertex -1 out of range [0, 3)"),
        (lambda g: g.left_neighbors(99), IndexOutOfRangeError,
         "right vertex 99 out of range [0, 3)"),
        (lambda g: g.left_neighbors(False), ConfigInvalidError, "right vertex False is not an int"),
        (lambda g: g.right_label(99), IndexOutOfRangeError, "right vertex 99 out of range [0, 3)"),
        (lambda g: g.right_label(-1), IndexOutOfRangeError, "right vertex -1 out of range [0, 3)"),
        (lambda g: g.right_label(True), ConfigInvalidError, "right vertex True is not an int"),
        (lambda g: g.right_label("1"), ConfigInvalidError, "right vertex '1' is not an int"),
    ],
    ids=["neighbors-negative", "neighbors-range", "neighbors-bool", "label-range",
         "label-negative", "label-bool", "label-string"],
)
def test_bipartite_queries_check_indices(call, error, message):
    # at one time left_neighbors(-1) ended in a raw TypeError, left_neighbors(99)
    # returned [], and right_label(99) and right_label(True) returned (99,) and (1,)
    flat = PartiteHypergraph.complete((3, 3)).flatten(0)
    with pytest.raises(error) as info:
        call(flat)
    assert str(info.value) == message
    assert flat.left_neighbors(2) == [0, 1, 2]
    assert flat.right_degrees == (3, 3, 3)
    assert flat.right_label(2) == (2,)


def test_complete_checks_sizes_as_build_does():
    with pytest.raises(ArityMismatchError):
        PartiteHypergraph.complete((4,))
    with pytest.raises(TooLargeError):
        PartiteHypergraph.complete((TUPLE_CAP, 2))


def test_density_and_measured_k():
    h = k22()
    assert h.density() == 1
    assert h.measured_k() == 1
    minus = PartiteHypergraph.build(2, (2, 2), [(0, 0), (0, 1), (1, 0)])
    assert minus.density() == Fraction(3, 4)
    assert minus.measured_k() == Fraction(4, 3)
    empty = PartiteHypergraph.build(2, (2, 2), [])
    with pytest.raises(NoEdgesError):
        empty.measured_k()
    degenerate = PartiteHypergraph(2, (0, 2), ())
    with pytest.raises(EmptyPartError):
        degenerate.density()


def test_degree_examples():
    comp = PartiteHypergraph.complete((3, 4, 5))
    assert comp.degree(0, 1) == 20
    assert comp.degree(2, 0) == 12
    single = PartiteHypergraph.build(3, (3, 4, 5), [(1, 2, 3)])
    assert single.degree(0, 1) == 1
    assert single.degree(0, 0) == 0
    with pytest.raises(IndexOutOfRangeError):
        single.degree(0, 9)


def test_degree_sum_invariant():
    inst = gen_instance(
        GenConfig.make(r=3, n=5, family="random-density", seed=4, k=Fraction(2))
    )
    h = inst.hypergraph
    for i in range(h.r):
        assert sum(h.degree(i, v) for v in range(h.part_sizes[i])) == h.edge_count


def test_flatten_examples():
    h = PartiteHypergraph.build(2, (2, 3), [(0, 1), (1, 2)])
    flat = h.flatten(1)
    assert flat.left_size == 3
    assert flat.right_shape == (2,)
    assert flat.edge_count == 2
    comp = PartiteHypergraph.complete((2, 2, 2))
    f0 = comp.flatten(0)
    assert f0.right_size == 4
    assert [mask.bit_count() for mask in f0.adj] == [4, 4]
    single = PartiteHypergraph.build(3, (2, 2, 2), [(1, 0, 1)])
    fs = single.flatten(0)
    assert fs.edge_count == 1
    assert [mask.bit_count() for mask in fs.adj] == [0, 1]


def test_flatten_preserves_edge_count_random():
    inst = gen_instance(
        GenConfig.make(r=3, n=4, family="random-density", seed=11, k=Fraction(3, 2))
    )
    h = inst.hypergraph
    for i in range(h.r):
        assert h.flatten(i).edge_count == h.edge_count


def test_flatten_label_roundtrip():
    comp = PartiteHypergraph.complete((2, 3, 4))
    flat = comp.flatten(1)
    labels = list(itertools.product(range(2), range(4)))
    assert [flat.right_label(idx) for idx in range(flat.right_size)] == labels
    # flatten sets the bit whose label is the edge without its part-1 vertex
    h = PartiteHypergraph.build(3, (2, 3, 4), [(1, 0, 2), (0, 2, 3)])
    flat = h.flatten(1)
    for e in h.edges:
        mask = flat.adj[e[1]]
        bits = [flat.right_label(i) for i in range(flat.right_size) if mask >> i & 1]
        assert bits == [(e[0], e[2])]

def test_codegree_examples():
    # the codegree of a distinct pair of part-0 vertices is its leg count
    knm = PartiteHypergraph.complete((4, 3))
    assert leg_count(knm, 0, 0, 2) == 3
    matching = PartiteHypergraph.build(2, (3, 3), [(i, i) for i in range(3)])
    assert leg_count(matching, 0, 0, 1) == 0
    k23 = [(i, j) for i in range(2) for j in range(3)]
    k23.remove((0, 2))
    g = PartiteHypergraph.build(2, (2, 3), k23)
    assert leg_count(g, 0, 0, 1) == 2
    assert leg_count(g, 0, 1, 0) == 2  # symmetry
    with pytest.raises(IndexOutOfRangeError):
        leg_count(g, 0, 0, 5)


def test_codegree_symmetry_random():
    inst = gen_instance(
        GenConfig.make(r=2, n=8, family="random-density", seed=21, k=Fraction(2))
    )
    h = inst.hypergraph
    for v, w in itertools.permutations(range(8), 2):
        assert leg_count(h, 0, v, w) == leg_count(h, 0, w, v)


def test_induce_examples():
    comp = PartiteHypergraph.complete((3, 3))
    iso = comp.induce([range(3), range(3)])
    assert iso.edges == comp.edges
    empty = comp.induce([[], range(3)])
    assert empty.edge_count == 0
    smaller = comp.induce([[0, 2], [1, 2]])
    assert smaller.part_sizes == (2, 2)
    assert smaller.edges == ((0, 0), (0, 1), (1, 0), (1, 1))
    with pytest.raises(IndexOutOfRangeError):
        comp.induce([[5], [0]])
    with pytest.raises(IndexOutOfRangeError, match="vertex -1 out of range"):
        comp.induce([[0], [2, -1]])


def test_induce_matches_brute_force_reindex():
    rnd = random.Random(11)
    for seed in range(6):
        inst = gen_instance(
            GenConfig.make(r=3, n=6, family="random-density", seed=seed, k=Fraction(2))
        )
        h = inst.hypergraph
        # unsorted subsets with repeats; induce sorts and deduplicates them
        subsets = [
            [rnd.randrange(s) for _ in range(s)] for s in h.part_sizes
        ]
        ranks = [{v: i for i, v in enumerate(sorted(set(sub)))} for sub in subsets]
        expected = sorted(
            tuple(ranks[i][v] for i, v in enumerate(e))
            for e in h.edges
            if all(v in ranks[i] for i, v in enumerate(e))
        )
        smaller = h.induce(subsets)
        assert smaller.part_sizes == tuple(len(m) for m in ranks)
        assert list(smaller.edges) == expected


def _small_instance():
    parts = tuple(
        ElemSet.from_iterable(Z, [(v,) for v in vals])
        for vals in ([0, 1, 3], [0, 2])
    )
    hg = PartiteHypergraph.build(2, (3, 2), [(0, 0), (2, 1)])
    return Instance(Z, parts, hg)


def test_tuple_cap_is_checked_before_allocation():
    assert tuple_total((TUPLE_CAP,)) == TUPLE_CAP
    over = (1001, 1000)  # just above the 10^6 cap
    with pytest.raises(TooLargeError):
        tuple_total(over)
    with pytest.raises(TooLargeError):
        PartiteHypergraph.complete(over)
    with pytest.raises(TooLargeError):
        PartiteHypergraph.build(2, over, [])  # the declared product counts
    for family, params in [
        ("complete", {}),
        ("random-density", {"k": Fraction(2)}),
        ("planted", {"ap_fraction": Fraction(1, 2), "target_c": Fraction(2)}),
        ("dense", {"delta": Fraction(1, 100)}),
    ]:
        with pytest.raises(TooLargeError):
            gen_instance(GenConfig.make(r=2, n=over, family=family, seed=1, **params))


def test_instance_validation():
    parts = (
        ElemSet.from_iterable(Z, [(0,), (1,)]),
        ElemSet.from_iterable(Z, [(0,)]),
    )
    with pytest.raises(ArityMismatchError):
        Instance(Z, parts, PartiteHypergraph.complete((2, 2)))
    with pytest.raises(ArityMismatchError):
        Instance(Z, parts[:1] * 3, PartiteHypergraph.complete((2, 2)))


def test_instance_json_roundtrip():
    inst = _small_instance()
    data = json.loads(canonical_dumps(inst.to_json()))
    again = Instance.from_json(data)
    assert again.parts == inst.parts
    assert again.hypergraph == inst.hypergraph


def test_instance_json_complete_shorthand():
    parts = tuple(
        ElemSet.from_iterable(Z, [(v,) for v in vals]) for vals in ([0, 1], [5, 9])
    )
    inst = Instance(Z, parts, PartiteHypergraph.complete((2, 2)))
    payload = inst.to_json()
    assert payload["edges"] == "complete"
    again = Instance.from_json(payload)
    assert again.hypergraph.edge_count == 4
    # explicit edge lists are accepted too
    payload["edges"] = [[0, 0], [1, 1]]
    partial = Instance.from_json(payload)
    assert partial.hypergraph.edge_count == 2


_PART_ORDER = "part elements must be distinct and in canonical sorted order"


def test_instance_json_rejects_unsorted_parts():
    inst = _small_instance()
    payload = inst.to_json()
    payload["parts"][0] = list(reversed(payload["parts"][0]))
    with pytest.raises(ConfigInvalidError, match=f"^{_PART_ORDER}$"):
        Instance.from_json(payload)


@pytest.mark.parametrize(
    "elems",
    [((0,), (1,), (4,), (2,)), ((0,), (0,), (1,))],
    ids=["unsorted", "repeated"],
)
def test_instance_rejects_parts_out_of_order(elems):
    # ElemSet stores what it is given; the instance checks the order, which
    # the brute-force oracle's torsion-free bound and its indices rely on
    parts = (ElemSet(Z, ((0,), (2,))), ElemSet(Z, elems))
    with pytest.raises(ConfigInvalidError, match=f"^{_PART_ORDER}$"):
        Instance(Z, parts, PartiteHypergraph.complete((2, len(elems))))


def test_instance_rejects_non_canonical_elements():
    # two representatives of one element of Z_5: the brute-force oracle
    # would otherwise report a 2-element A with |A + B| = 1
    z5 = make_group([5])
    pair = PartiteHypergraph.complete((2, 2))
    message = "^coordinate 0 of an element is not canonical mod 5$"
    parts = (ElemSet(z5, ((2,), (7,))), ElemSet(z5, ((0,), (1,))))
    with pytest.raises(ConfigInvalidError, match=message):
        Instance(z5, parts, pair)
    for bad in ((-1,), (True,), (1.0,)):
        with pytest.raises(ConfigInvalidError, match=message):
            Instance(z5, (ElemSet(z5, ((0,), (1,))), ElemSet(z5, ((0,), bad))), pair)
    # a free coordinate takes any int, negative ones included
    z_z5 = make_group([0, 5])
    Instance(z_z5, (ElemSet(z_z5, ((-3, 4), (5, 0))),) * 2, pair)


def test_instance_rejects_elements_of_the_wrong_width():
    parts = (ElemSet(Z, ((0, 1),)), ElemSet(Z, ((0,),)))
    with pytest.raises(ShapeMismatchError, match="^an element's width is not 1$"):
        Instance(Z, parts, PartiteHypergraph.complete((1, 1)))


def test_canonical_edge_order():
    h = PartiteHypergraph.build(2, (3, 3), [(2, 1), (0, 2), (0, 1)])
    assert h.edges == ((0, 1), (0, 2), (2, 1))


class _Idx(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize(
    "r, sizes, edges, error, message",
    [
        (2, (3, 3), [(0, 1, 2)], ArityMismatchError, "edge (0, 1, 2) has arity 3, expected 2"),
        (2, (3, 3), [(0, True)], ConfigInvalidError, "edge (0, True): coordinate True is not an int"),
        (2, (3, 3), [(0, 1.0)], ConfigInvalidError, "edge (0, 1.0): coordinate 1.0 is not an int"),
        (2, (3, 3), [(0, "1")], ConfigInvalidError, "edge (0, '1'): coordinate '1' is not an int"),
        (3, (3, 3, 3), [(0, 1, 3)], IndexOutOfRangeError,
         "edge (0, 1, 3): index 3 out of range [0, 3) in part 2"),
        (2, (3, 3), [(0, -1)], IndexOutOfRangeError,
         "edge (0, -1): index -1 out of range [0, 3) in part 1"),
        (2, (3, 3), [(0, 1), 5], TypeError, "'int' object is not iterable"),
        (2, (3, 3), [(0, None)], ConfigInvalidError, "edge (0, None): coordinate None is not an int"),
        # mixed faults: the first faulty edge in input order is named, and
        # inside it the first faulty coordinate, type before range
        (2, (3, 3), [(0, 1), (0,), (True, 0)], ArityMismatchError,
         "edge (0,) has arity 1, expected 2"),
        (2, (3, 3), [(True, 0), (0,)], ConfigInvalidError,
         "edge (True, 0): coordinate True is not an int"),
        (2, (3, 3), [(0, 5), (1.5, 0)], IndexOutOfRangeError,
         "edge (0, 5): index 5 out of range [0, 3) in part 1"),
        (2, (3, 3), [(1.5, 0), (0, 5)], ConfigInvalidError,
         "edge (1.5, 0): coordinate 1.5 is not an int"),
        (2, (3, 3), [(5, 1.5)], IndexOutOfRangeError,
         "edge (5, 1.5): index 5 out of range [0, 3) in part 0"),
        (2, (3, 3), [(0, 5), 7], IndexOutOfRangeError,
         "edge (0, 5): index 5 out of range [0, 3) in part 1"),
        (2, (3, 3), [(0, 1), (2, 2, 2), (0, 9)], ArityMismatchError,
         "edge (2, 2, 2) has arity 3, expected 2"),
    ],
    ids=["arity", "bool", "float", "string", "range-last-part", "negative", "non-iterable",
         "none", "arity-then-bool", "bool-then-arity", "range-then-float", "float-then-range",
         "range-before-type-in-one-edge", "range-then-non-iterable", "arity-then-range"],
)
def test_malformed_edges_fail_with_pinned_errors(r, sizes, edges, error, message):
    with pytest.raises(error) as info:
        PartiteHypergraph.build(r, sizes, edges)
    assert type(info.value) is error
    assert str(info.value) == message


def test_build_accepts_int_enum_coordinates():
    h = PartiteHypergraph.build(2, (3, 3), [(0, _Idx.ONE), (2, 0)])
    assert h.edges == ((0, 1), (2, 0))
    assert h.degree(1, 1) == 1


_JSON_BASE = {"group": {"moduli": [0]}, "parts": [[[0], [1], [2], [3]], [[0], [1], [2], [3]]]}


@pytest.mark.parametrize(
    "edges, error, message",
    [
        ([[0, "3"], [1, 2]], None, ((0, 3), (1, 2))),
        ([[0, True]], ConfigInvalidError, "boolean is not a valid coordinate"),
        ([[0, 1], 3], TypeError, "'int' object is not iterable"),
        ([[0, 1.0]], ConfigInvalidError, "coordinate must be an integer or decimal string, got float"),
        ([[0, "x"]], ConfigInvalidError, "coordinate string 'x' is not an integer"),
        # every coordinate is decoded before any edge is checked
        ([[0, 1, 2], [0, True]], ConfigInvalidError, "boolean is not a valid coordinate"),
        ([[0, 1, 2], [0, "3"]], ArityMismatchError, "edge (0, 1, 2) has arity 3, expected 2"),
        ([[0, 4]], IndexOutOfRangeError, "edge (0, 4): index 4 out of range [0, 4) in part 1"),
        (7, TypeError, "'int' object is not iterable"),
    ],
    ids=["string-coordinate", "bool", "bare-int-edge", "float", "non-decimal-string",
         "arity-then-bool", "arity-then-string", "range", "bare-int-edge-list"],
)
def test_malformed_json_edges_fail_with_pinned_errors(tmp_path, capsys, edges, error, message):
    payload = dict(_JSON_BASE, edges=edges)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    if error is None:
        assert Instance.from_json(payload).hypergraph.edges == message
        assert main(["measure", "--instance", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["edge_count"] == len(message)
        return
    with pytest.raises(error) as info:
        Instance.from_json(payload)
    assert type(info.value) is error
    assert str(info.value) == message
    assert main(["measure", "--instance", str(path)]) == 1
    # the CLI wraps parse faults with the file name; hypergraph faults pass as they are
    wrapped = error in (ConfigInvalidError, TypeError)
    shown = f"malformed {path}: {info.value!r}" if wrapped else message
    assert capsys.readouterr().err == f"bsgkit: error: {shown}\n"
