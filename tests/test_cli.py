"""End-to-end CLI behavior: subcommands, exit codes, canonical output bytes."""

import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import bsgkit
import bsgkit.cli
from bsgkit.cli import main
from bsgkit.jsonio import canonical_dumps


def gen_args(tmp_path, name="inst.json", family="complete", r=2, n=4, seed=1, extra=()):
    out = tmp_path / name
    args = [
        "gen", "--family", family, "--r", str(r), "--n", str(n),
        "--seed", str(seed), "--out", str(out), *extra,
    ]
    return args, out


def test_gen_and_measure(tmp_path, capsys):
    args, out = gen_args(tmp_path)
    assert main(args) == 0
    payload = json.loads(out.read_text())
    assert payload["edges"] == "complete"
    assert payload["meta"]["algorithm"] == "splitmix64"
    assert main(["measure", "--instance", str(out)]) == 0
    measured = json.loads(capsys.readouterr().out)
    assert measured["K"] == "1"


def test_gen_deterministic_bytes(tmp_path):
    args1, out1 = gen_args(tmp_path, "a.json", family="random-density",
                           n=8, seed=3, extra=("--K", "2"))
    args2, out2 = gen_args(tmp_path, "b.json", family="random-density",
                           n=8, seed=3, extra=("--K", "2"))
    assert main(args1) == 0
    assert main(args2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_extract_verify_roundtrip(tmp_path, capsys):
    args, inst = gen_args(tmp_path)
    main(args)
    report = tmp_path / "report.json"
    code = main([
        "extract", "--instance", str(inst), "--mode", "general",
        "--K", "1", "--out", str(report),
    ])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["bounds"]["overall"] is True
    assert payload["result"]["mode"] == "general"
    capsys.readouterr()

    verdict = tmp_path / "verdict.json"
    code = main([
        "verify", "--instance", str(inst), "--result", str(report),
        "--mode", "general", "--out", str(verdict),
    ])
    assert code == 0
    assert json.loads(verdict.read_text())["bounds"]["overall"] is True


def test_extract_dense_and_almost_all(tmp_path, monkeypatch):
    args, inst = gen_args(tmp_path, family="dense", n=10, seed=2,
                          extra=("--delta", "1/500"))
    main(args)

    # every extract report comes from the quantities the pipeline recorded
    def refuse(*args, **kwargs):
        raise AssertionError("extract called check_bounds")

    monkeypatch.setattr(bsgkit.cli, "check_bounds", refuse)
    for mode in ("dense", "almost-all"):
        report = tmp_path / f"{mode}.json"
        code = main([
            "extract", "--instance", str(inst), "--mode", mode,
            "--eps", "1/25", "--delta", "auto", "--out", str(report),
        ])
        assert code == 0
        assert json.loads(report.read_text())["bounds"]["overall"] is True


def test_count_command(tmp_path, capsys):
    args, inst = gen_args(tmp_path, n=3)
    main(args)
    assert main(["count", "--instance", str(inst), "--support", "0,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"relaxed": "6"}
    assert main([
        "count", "--instance", str(inst), "--support", "0,0", "--exact", "full",
    ]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exact"] == "4"
    assert out["relaxed"] == "6"


def test_energy_and_sumset_commands(tmp_path, capsys):
    setfile = tmp_path / "set.json"
    setfile.write_text(canonical_dumps(
        {"group": {"moduli": [0]}, "elems": [[0], [1], [2]]}
    ))
    assert main(["energy", "--set", str(setfile)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"doubling": "5/3", "energy": "19", "size": 5}

    assert main(["sumset", "--set", str(setfile), "--set", str(setfile)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["size"] == 5  # {0..4}
    combined = tmp_path / "combined.json"
    assert main([
        "sumset", "--set", str(setfile), "--set", str(setfile),
        "--out", str(combined),
    ]) == 0
    capsys.readouterr()
    data = json.loads(combined.read_text())
    assert data["elems"] == [[0], [1], [2], [3], [4]]


def test_report_command(tmp_path, capsys):
    args, inst = gen_args(tmp_path)
    main(args)
    report = tmp_path / "report.json"
    main([
        "extract", "--instance", str(inst), "--K", "1", "--out", str(report),
    ])
    assert main(["report", "--report", str(report)]) == 0
    text = capsys.readouterr().out
    assert "overall: PASS" in text
    csv_path = tmp_path / "rows.csv"
    assert main(["report", "--report", str(report), "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "name,relation,lhs,rhs,pass"
    assert len(lines) > 1


_FAILING_ROW = {"name": "a", "relation": ">=", "lhs": "0", "rhs": "1", "pass": False}


def test_report_judges_rows_without_overall(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"inequalities": [_FAILING_ROW]}))
    assert main(["report", "--report", str(path)]) == 2
    assert capsys.readouterr().out.endswith("overall: FAIL\n")


def test_exit_code_usage():
    assert main(["--bogus-flag"]) == 64
    assert main(["extract", "--no-such"]) == 64
    assert main(["extract", "--instance", "x.json", "--random-pivots", "1"]) == 64


def test_exit_code_error(tmp_path):
    assert main(["measure", "--instance", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize("source", ["instance-file", "gen"])
def test_tuple_cap_fails_typed_before_allocating(tmp_path, capsys, source):
    # 101^3 = 1,030,301 index tuples, just above the 10^6 cap
    out = tmp_path / "out.json"
    if source == "gen":
        argv = ["gen", "--family", "complete", "--r", "3", "--n", "101",
                "--seed", "1", "--out", str(out)]
    else:
        inst = tmp_path / "big.json"
        parts = [[[v] for v in range(101)] for _ in range(3)]
        inst.write_text(json.dumps(
            {"group": {"moduli": [0]}, "parts": parts, "edges": "complete"}))
        argv = ["measure", "--instance", str(inst), "--out", str(out)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "bsgkit: error:" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 10 * 2**20  # bytes; building the tuples would take ~100 MB


@pytest.mark.parametrize("command", ["energy", "sumset"])
def test_pair_cap_fails_typed(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(bsgkit.sumsets, "TUPLE_CAP", 8)
    monkeypatch.setattr(bsgkit.sumsets, "PAIR_CAP", 8)
    setfile = tmp_path / "set.json"
    setfile.write_text(canonical_dumps(
        {"group": {"moduli": [0]}, "elems": [[0], [1], [5]]}
    ))
    args = ["--set", str(setfile)] * (1 if command == "energy" else 2)
    assert main([command, *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bsgkit: error: ")
    assert ": 9, above the cap of 8" in captured.err


def test_sumset_statistics_have_their_own_cap(tmp_path, capsys, monkeypatch):
    # The result's pair histogram (36 additions) is above the sumset cap but
    # not above PAIR_CAP, so the sumset and its statistics are both written.
    monkeypatch.setattr(bsgkit.sumsets, "TUPLE_CAP", 8)
    a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "sum.json"
    a.write_text(canonical_dumps({"group": {"moduli": [0]}, "elems": [[0], [1], [5]]}))
    b.write_text(canonical_dumps({"group": {"moduli": [0]}, "elems": [[0], [2]]}))
    assert main(["sumset", "--set", str(a), "--set", str(b), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == 6
    assert json.loads(out.read_text())["elems"] == [[0], [1], [2], [3], [5], [7]]


@pytest.mark.parametrize(
    "command, payload",
    [
        ("measure", {}),
        ("measure", {"group": {"moduli": ["x"]}, "parts": [], "edges": []}),
        ("measure", {"group": {"moduli": [7.9]}, "parts": [[[0]], [[1]]],
                     "edges": "complete"}),
        ("verify", {"result": {"mode": "general"}}),
        ("verify", {"result": None}),
        ("energy", {"group": {"moduli": [0]}}),
        ("verify", {"mode": "general", "subsets": [[0, 1], [0, 1]]}),
        ("verify", {"mode": "general", "subsets": [[0, 1], [0, 1]],
                    "trace": [{"kind": "ambient"}]}),
        ("verify", {"mode": "general", "subsets": [[0, 1], [0, 1]], "epsilon": 5,
                    "trace": [{"kind": "ambient", "k": "1"}]}),
        ("verify", {"mode": "general", "subsets": [[0, 1], [0, 1]],
                    "trace": [{"kind": "ambient", "k": 2}]}),
        ("verify", {"mode": "general", "subsets": [[0, 1], [0, 1]],
                    "trace": [{"kind": "ambient", "k": "0"}]}),
        ("verify", {"mode": "general", "subsets": [[0, 1], [0, 1]],
                    "trace": [{"kind": "ambient", "k": "-2"}]}),
        ("verify", {"mode": "general", "subsets": [[0, 1], [0, 1]],
                    "trace": [{"kind": "ambient", "k": "1", "c": "-4"}]}),
        ("verify", {"mode": "sparse", "subsets": [[0, 1], [0, 1]],
                    "trace": [{"kind": "ambient", "k": "1"}]}),
        ("verify", {"mode": "dense", "subsets": [[0, 1], [0, 1]],
                    "trace": [{"kind": "ambient", "delta": "0"}]}),
        ("verify", {"mode": "dense", "subsets": [[0, 1], [0, 1]], "epsilon": "1/2",
                    "trace": [{"kind": "ambient", "delta": "0"}]}),
        ("verify", {"mode": "dense", "subsets": [[0, 1], [0, 1]], "epsilon": "1/25",
                    "trace": [{"kind": "ambient", "delta": "1"}]}),
        ("verify", {"mode": "dense", "subsets": [[0, 1], [0, 1]], "epsilon": "1/25",
                    "trace": [{"kind": "ambient", "delta": "-1/100"}]}),
        ("verify", {"mode": "dense", "subsets": [[0, 1], [0, 1]], "epsilon": "0",
                    "trace": [{"kind": "ambient", "delta": "0"}]}),
        ("verify", {"mode": "almost-all", "subsets": [[0, 1], [0, 1]], "epsilon": "1/20",
                    "trace": [{"kind": "ambient", "delta": "0"}]}),
        ("report", {"bounds": {"inequalities": [
            {"name": "a", "relation": ">=", "lhs": "1", "rhs": "0"}]}}),
        ("report", {"inequalities": "abc"}),
        ("report", []),
        ("report", {"inequalities": [_FAILING_ROW], "overall": True}),
        ("report", {"inequalities": [_FAILING_ROW], "overall": "false"}),
    ],
    ids=["no-group", "bad-modulus", "float-modulus", "result-without-subsets", "result-null",
         "set-without-elems", "result-without-trace", "ambient-without-k", "epsilon-not-a-string",
         "k-not-a-string", "k-zero", "k-negative", "c-negative", "unknown-mode",
         "dense-without-epsilon", "dense-epsilon-too-large", "dense-delta-one",
         "dense-delta-negative", "dense-epsilon-zero", "almost-all-epsilon-at-cap",
         "row-without-pass", "rows-not-a-list", "report-not-an-object",
         "overall-true-over-failing-row", "overall-not-a-bool"],
)
def test_malformed_input_fails_typed(tmp_path, capsys, command, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    if command == "verify":
        args, inst = gen_args(tmp_path)
        main(args)
        argv = ["verify", "--instance", str(inst), "--result", str(bad),
                "--mode", "general"]
    elif command == "energy":
        argv = ["energy", "--set", str(bad)]
    elif command == "report":
        argv = ["report", "--report", str(bad)]
    else:
        argv = ["measure", "--instance", str(bad)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("bsgkit: error:") and str(bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["general", "almost-all"])
def test_extract_rejects_a_non_positive_cap(tmp_path, capsys, mode):
    # in general mode C = -4 stands for the cap C^2 = 16, which a planted
    # r=2 instance meets, so every row would pass unless C itself is refused
    if mode == "general":
        args, inst = gen_args(tmp_path, family="planted", n=8,
                              extra=("--ap-fraction", "1/2", "--target-C", "2"))
        extra = []
    else:
        args, inst = gen_args(tmp_path, family="dense", n=10, seed=2,
                              extra=("--delta", "1/500"))
        extra = ["--eps", "1/25"]
    assert main(args) == 0
    report = tmp_path / "report.json"
    capsys.readouterr()
    code = main(["extract", "--instance", str(inst), "--mode", mode, "--C", "-4",
                 *extra, "--out", str(report)])
    assert code == 1
    assert capsys.readouterr().err == "bsgkit: error: sumset cap C must be positive, got -4\n"
    assert not report.exists()


def test_verify_empty_subset_fails_typed(tmp_path, capsys):
    args, inst = gen_args(tmp_path)
    main(args)
    report = tmp_path / "report.json"
    assert main(["extract", "--instance", str(inst), "--K", "1", "--out", str(report)]) == 0
    payload = json.loads(report.read_text())
    payload["result"]["subsets"][1] = []
    report.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["verify", "--instance", str(inst), "--result", str(report),
                 "--mode", "general"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"bsgkit: error: malformed {report}: "
        "ConfigInvalidError('chosen subset for part 1 is empty')\n"
    )


def test_verify_repeated_subset_vertices_fail_typed(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "--family", "random-density", "--r", "3", "--n", "10", "--seed", "1",
          "--K", "2", "--out", str(inst)])
    report = tmp_path / "report.json"
    assert main(["extract", "--instance", str(inst), "--K", "2", "--out", str(report)]) == 0
    payload = json.loads(report.read_text())
    payload["result"]["subsets"] = [[sub[0]] * len(sub) for sub in payload["result"]["subsets"]]
    report.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["verify", "--instance", str(inst), "--result", str(report),
                 "--mode", "general"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"bsgkit: error: malformed {report}: ConfigInvalidError('chosen subset for "
        "part 0 is not strictly increasing int indices')\n"
    )


def test_exit_code_check_failed(tmp_path, capsys):
    args, inst = gen_args(tmp_path)
    main(args)
    report = tmp_path / "report.json"
    main(["extract", "--instance", str(inst), "--K", "1", "--out", str(report)])
    capsys.readouterr()
    # tamper with the stored subsets so verification of sizes fails
    payload = json.loads(report.read_text())
    payload["result"]["subsets"][0] = [0]
    bad = tmp_path / "tampered.json"
    bad.write_text(canonical_dumps(payload))
    # n=4 gives floor 4/8 < 1, so shrink the instance check instead: use n=16
    args16, inst16 = gen_args(tmp_path, name="i16.json", n=16)
    main(args16)
    rep16 = tmp_path / "r16.json"
    main(["extract", "--instance", str(inst16), "--K", "1", "--out", str(rep16)])
    capsys.readouterr()
    payload = json.loads(rep16.read_text())
    payload["result"]["subsets"][0] = [0]
    bad16 = tmp_path / "t16.json"
    bad16.write_text(canonical_dumps(payload))
    code = main([
        "verify", "--instance", str(inst16), "--result", str(bad16),
        "--mode", "general",
    ])
    assert code == 2


def test_rejects_decimal_rationals(tmp_path):
    args, inst = gen_args(tmp_path)
    main(args)
    code = main(["extract", "--instance", str(inst), "--K", "0.5"])
    assert code == 64


def test_workers_do_not_change_bytes(tmp_path):
    args, inst = gen_args(tmp_path, family="random-density", n=12, seed=5,
                          extra=("--K", "2"))
    main(args)
    outs = []
    for workers in (1, 4):
        report = tmp_path / f"w{workers}.json"
        code = main([
            "extract", "--instance", str(inst), "--K", "2",
            "--workers", str(workers), "--out", str(report),
        ])
        assert code == 0
        outs.append(report.read_bytes())
    assert outs[0] == outs[1]


def test_module_entry_point(tmp_path):
    args, inst = gen_args(tmp_path)
    main(args)
    # `-m` searches the working directory first: run this process's bsgkit
    proc = subprocess.run(
        [sys.executable, "-m", "bsgkit", "measure", "--instance", str(inst)],
        capture_output=True, text=True,
        cwd=Path(bsgkit.__file__).resolve().parent.parent,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["K"] == "1"


@pytest.mark.parametrize("r", [9, 10])
def test_high_arity_runs_end_in_reports(tmp_path, capsys, r):
    # the growth cap's side has 6100 digits at r = 9, past the 4300 that
    # CPython's int-to-str conversion allows by default; rows render it exactly
    args, inst = gen_args(tmp_path, r=r, n=2)
    assert main(args) == 0
    report, verdict = tmp_path / "report.json", tmp_path / "verdict.json"
    assert main(["extract", "--instance", str(inst), "--out", str(report)]) == 0
    assert main(["verify", "--instance", str(inst), "--result", str(report),
                 "--mode", "general", "--out", str(verdict)]) == 0
    bounds = json.loads(verdict.read_text())["bounds"]
    assert bounds == json.loads(report.read_text())["bounds"]
    assert bounds["overall"] is True
    assert max(len(row["rhs"]) for row in bounds["inequalities"]) > 4300
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["extract", "--instance", "inst.json", "--mode", "almost-all"],
         "--eps is required for mode almost-all"),
        (["verify", "--instance", "inst.json", "--result", "result.json", "--mode", "general"],
         "malformed result.json: KeyError('mode')"),
    ],
    ids=["extract-without-eps", "verify-malformed-result"],
)
def test_instance_free_faults_are_reported_before_the_instance_loads(
    tmp_path, capsys, monkeypatch, argv, message
):
    def refuse(path):
        raise AssertionError("the instance was loaded")

    monkeypatch.setattr(bsgkit.cli, "_load_instance", refuse)
    monkeypatch.chdir(tmp_path)
    Path("result.json").write_text('{"subsets": [[0], [0]]}')
    assert main(argv) == 1
    assert capsys.readouterr().err == f"bsgkit: error: {message}\n"
