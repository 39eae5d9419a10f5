"""Byte identity of the CLI's outputs on a fixed set of runs.

Each run in RUNS goes gen -> extract -> verify through the CLI in-process,
and the SHA-256 of each of the three output files is compared with a
recorded digest. The set covers general mode at r = 2, 3 and 4, a sweep
over 16,384 supports (complete r = 2, n = 128), the dense and almost-all
modes, and an explicit claimed C. The sum-layer run pins `measure` on a
free x cyclic instance and `energy` and `sumset --out` on fixed sets of
the same group.
The count runs pin `count` at one support of the general-r2 and general-r3
instances: relaxed, `--exact named-only` and `--exact full`.
After a deliberate change of output bytes, re-record the tables with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from bsgkit.cli import main
from bsgkit.jsonio import canonical_dumps

RUNS = {
    "general-r2": (
        ["--family", "random-density", "--r", "2", "--n", "24", "--seed", "2", "--K", "3"],
        ["--mode", "general", "--K", "3"],
    ),
    "general-r3": (
        ["--family", "random-density", "--r", "3", "--n", "10", "--seed", "1", "--K", "2"],
        ["--mode", "general", "--K", "2"],
    ),
    "general-r4": (
        ["--family", "random-density", "--r", "4", "--n", "6", "--seed", "1", "--K", "2"],
        ["--mode", "general", "--K", "2"],
    ),
    "complete-r2-n128": (
        ["--family", "complete", "--r", "2", "--n", "128", "--seed", "1"],
        ["--mode", "general"],
    ),
    "dense": (
        ["--family", "dense", "--r", "2", "--n", "10", "--seed", "2", "--delta", "1/500"],
        ["--mode", "dense", "--eps", "1/25"],
    ),
    "almost-all": (
        ["--family", "dense", "--r", "3", "--n", "10", "--seed", "1", "--delta", "1/1500"],
        ["--mode", "almost-all", "--eps", "1/40"],
    ),
    "claimed-c": (
        ["--family", "planted", "--r", "2", "--n", "12", "--seed", "9",
         "--ap-fraction", "1/2", "--target-C", "2"],
        ["--mode", "general", "--C", "64"],
    ),
}

# (instance, extract report, verify report) digests per run
GOLDEN = {
    'general-r2': (
        '149c4c5527678675a313db5d1c98470f39b7e598486fa1ed2a22cb810f594b45',
        '505f558b82c3f15dcbda9431a35501333a88c3e47f36fed862667c08c816bb9e',
        '186a3dd2c93e8af9ab49b6aace03a7079cb4a4bdfec7f955715d90e131b3b2a3',
    ),
    'general-r3': (
        '179e6815de275289f6857cc73a6afebf23e6e9536459fe751cd1bddd26de3dc4',
        '4dd887f796df2295f2730a7dd6734d3f6831b0cecde41709ec04786410bfe973',
        '1aed75afc7ce7d2f210ab0ac5ac393f9eae0e9271dd14050ac5f79bfbb7ca2b7',
    ),
    'general-r4': (
        '9414a31274c4f354863c83c39d1968f9b58457bd23f4f10d72b911fe2f1bf3dd',
        '52b2cd80f19e29df6518a41068ab46007a52016316ba0ffb4c73ab566b915289',
        'f2b1b95318c18d40b2ff14939ada12b59af89eb310cd196839ecf5a374366a8c',
    ),
    'complete-r2-n128': (
        '250c45559e1203c08e278b83b12394a9d947b8537f0b93bc640937609014e4cd',
        '864c2a3848b733a4901e8909469f4003f4c7a0c50e00c4198a31b3e45eb922e6',
        '7ac0a1b344120069dba2493c13d1fc684d6b579e13d2aa2d5140603e98a08826',
    ),
    'dense': (
        '6d9faae7c27fdb11ea853ace47085cc26daaac87471a610261a54b60c589ad9e',
        'b8ec7bc2636a7bcb7df4873bb502e363ffe3a888ecc5eb2b7cf99343e34a97d7',
        'ce1f4ff22077de62db803b97562a97d055d7a41ffcd883a6e301fc717beb8d6d',
    ),
    'almost-all': (
        'd31eb0870cb898761dd092d85c08491f821c572a72d487a0321983c5bc734e79',
        'f99335ec8afd48f1fd52c8f392be9df30ad15b09e8bb1898ac2e4e2d0e3bf8b3',
        '6fe2ae22c382fea2aace427c4232f4ba875d10b01a6d15e040bb753a808249f4',
    ),
    'claimed-c': (
        '9bc82cfb2ac7eeba88217c1d550408c1cf53fa9d2cbe6ab470aa71d8aa9657be',
        '2ab248515edfa57a32a9c020f0d6c7bad1756935860fd9061300d5efd9962dc0',
        '16d39ec79351d43b520932b97b02f71925371c4a5a2bd325ea45ade8d4256bef',
    ),
}


# Sets of Z x Z_7 for the sum-layer run: negative free coordinates, free
# coordinates beyond 2^64 (as decimal strings), and cyclic coordinates given
# outside [0, 7).
SUM_SETS = {
    "a": [[-3, 0], [0, 6], [5, 9], ["1180591620717411303424", 3],
          ["-36893488147419103232", -1], [11, 4]],
    "b": [[0, 0], [1, 1], [-7, 5], [2, 13], ["18446744073709551616", 2]],
}
SUM_GEN = ["--family", "planted", "--r", "3", "--n", "8", "--seed", "3", "--group", "0,7",
           "--ap-fraction", "1/2", "--target-C", "2"]

# (measure, energy of a, sumset a + b + a stdout, sumset a + b + a --out) digests
SUM_GOLDEN = (
    'f01129e1a095ad7f0f8e8ebf4676218f567a389602c5fbade3707fcfc26cd6b6',
    '88206368a92e7ded56cda48675e8ce1e0efc5700fa65cf18ea01ee4a0c28be68',
    'de36178010b2b81b6fe47788fe8ad57563bc2fb021fffbddf2d73df75e4706fb',
    '673843f8c0e6f022b9bb514dddc13955380e32658b153d8c35328b28fbfe1c78',
)

# instance run and support per count run
COUNT_RUNS = {
    "count-r2": ("general-r2", "0,1"),
    "count-r3": ("general-r3", "0,1,2"),
}

# (relaxed, --exact named-only, --exact full) digests per count run
COUNT_GOLDEN = {
    'count-r2': (
        '8e30dc1eeabbd20c1f0264b9d9aa7fd5d48c6a69a74635275c18cb9d97e321e2',
        '3675adcbd9089f923321d03786e9617b2c3d6bba5bb1ae0bab4231a82f37c7c2',
        '67ad5a8f176b1f599c737c68e70c9a209360b7dea9cbdf638d136d2067c4f493',
    ),
    'count-r3': (
        'a078afd268e8bc12c8ec3882dec32f8fbf62d2fcce6455b9187c4b6b72a35325',
        '5dd44a425842d7b8b0e45995c49015707d1e023ba43513f38967433fba172298',
        '18ef0a033b737bd226a06c57a859bd58367f2a13f720b9a63e5955c4e910202c',
    ),
}


def run_digests(workdir: Path, name: str) -> tuple[str, str, str]:
    gen, extract = RUNS[name]
    mode = extract[extract.index("--mode") + 1]
    inst, report, verdict = (workdir / f"{name}-{kind}.json"
                             for kind in ("instance", "report", "verdict"))
    assert main(["gen", *gen, "--out", str(inst)]) == 0
    assert main(["extract", "--instance", str(inst), *extract, "--out", str(report)]) == 0
    assert main(["verify", "--instance", str(inst), "--result", str(report),
                 "--mode", mode, "--out", str(verdict)]) == 0
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (inst, report, verdict))


def sum_layer_digests(workdir: Path) -> tuple[str, str, str, str]:
    inst = workdir / "sum-instance.json"
    assert main(["gen", *SUM_GEN, "--out", str(inst)]) == 0
    sets = {}
    for name, elems in SUM_SETS.items():
        sets[name] = workdir / f"sum-set-{name}.json"
        sets[name].write_text(canonical_dumps({"elems": elems, "group": {"moduli": [0, 7]}}))
    measure, energy, combined = (workdir / f"sum-{kind}.json"
                                 for kind in ("measure", "energy", "combined"))
    assert main(["measure", "--instance", str(inst), "--out", str(measure)]) == 0
    assert main(["energy", "--set", str(sets["a"]), "--out", str(energy)]) == 0
    stdout = StringIO()
    with redirect_stdout(stdout):
        assert main(["sumset", "--set", str(sets["a"]), "--set", str(sets["b"]),
                     "--set", str(sets["a"]), "--out", str(combined)]) == 0
    outputs = (measure.read_bytes(), energy.read_bytes(), stdout.getvalue().encode(),
               combined.read_bytes())
    return tuple(hashlib.sha256(b).hexdigest() for b in outputs)


def count_digests(workdir: Path, name: str) -> tuple[str, str, str]:
    run, support = COUNT_RUNS[name]
    inst = workdir / f"{name}-instance.json"
    assert main(["gen", *RUNS[run][0], "--out", str(inst)]) == 0
    outputs = []
    for exact in ([], ["--exact", "named-only"], ["--exact", "full"]):
        out = workdir / f"{name}-count.json"
        assert main(["count", "--instance", str(inst), "--support", support, *exact,
                     "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    return tuple(hashlib.sha256(b).hexdigest() for b in outputs)


@pytest.mark.parametrize("name", list(RUNS))
def test_outputs_match_golden_digests(tmp_path, name):
    assert run_digests(tmp_path, name) == GOLDEN[name]


def test_sum_layer_outputs_match_golden_digests(tmp_path):
    assert sum_layer_digests(tmp_path) == SUM_GOLDEN


@pytest.mark.parametrize("name", list(COUNT_RUNS))
def test_count_outputs_match_golden_digests(tmp_path, name):
    assert count_digests(tmp_path, name) == COUNT_GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("GOLDEN = {\n")
        for name in RUNS:
            digests = run_digests(Path(tmp), name)
            sys.stdout.write(f"    {name!r}: (\n")
            for digest in digests:
                sys.stdout.write(f"        {digest!r},\n")
            sys.stdout.write("    ),\n")
        sys.stdout.write("}\n\nSUM_GOLDEN = (\n")
        for digest in sum_layer_digests(Path(tmp)):
            sys.stdout.write(f"    {digest!r},\n")
        sys.stdout.write(")\n\nCOUNT_GOLDEN = {\n")
        for name in COUNT_RUNS:
            sys.stdout.write(f"    {name!r}: (\n")
            for digest in count_digests(Path(tmp), name):
                sys.stdout.write(f"        {digest!r},\n")
            sys.stdout.write("    ),\n")
        sys.stdout.write("}\n")
