"""End-to-end CLI behavior: subcommands, exit codes, canonical output bytes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import bsgkit
import bsgkit.cli
from bsgkit.cli import main
from bsgkit.jsonio import canonical_dumps


def run_cli(args):
    return main(list(args))


def gen_args(tmp_path, name="inst.json", family="complete", r=2, n=4, seed=1, extra=()):
    out = tmp_path / name
    args = [
        "gen", "--family", family, "--r", str(r), "--n", str(n),
        "--seed", str(seed), "--out", str(out), *extra,
    ]
    return args, out


def test_gen_and_measure(tmp_path, capsys):
    args, out = gen_args(tmp_path)
    assert run_cli(args) == 0
    payload = json.loads(out.read_text())
    assert payload["edges"] == "complete"
    assert payload["meta"]["algorithm"] == "splitmix64"
    assert run_cli(["measure", "--instance", str(out)]) == 0
    measured = json.loads(capsys.readouterr().out)
    assert measured["K"] == "1"


def test_gen_deterministic_bytes(tmp_path):
    args1, out1 = gen_args(tmp_path, "a.json", family="random-density",
                           n=8, seed=3, extra=("--K", "2"))
    args2, out2 = gen_args(tmp_path, "b.json", family="random-density",
                           n=8, seed=3, extra=("--K", "2"))
    assert run_cli(args1) == 0
    assert run_cli(args2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_extract_verify_roundtrip(tmp_path, capsys):
    args, inst = gen_args(tmp_path)
    run_cli(args)
    report = tmp_path / "report.json"
    code = run_cli([
        "extract", "--instance", str(inst), "--mode", "general",
        "--K", "1", "--out", str(report),
    ])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["bounds"]["overall"] is True
    assert payload["result"]["mode"] == "general"
    capsys.readouterr()

    verdict = tmp_path / "verdict.json"
    code = run_cli([
        "verify", "--instance", str(inst), "--result", str(report),
        "--mode", "general", "--out", str(verdict),
    ])
    assert code == 0
    assert json.loads(verdict.read_text())["bounds"]["overall"] is True


def test_extract_dense_and_almost_all(tmp_path, monkeypatch):
    args, inst = gen_args(tmp_path, family="dense", n=10, seed=2,
                          extra=("--delta", "1/500"))
    run_cli(args)

    # every extract report comes from the quantities the pipeline recorded
    def refuse(*args, **kwargs):
        raise AssertionError("extract called check_bounds")

    monkeypatch.setattr(bsgkit.cli, "check_bounds", refuse)
    for mode in ("dense", "almost-all"):
        report = tmp_path / f"{mode}.json"
        code = run_cli([
            "extract", "--instance", str(inst), "--mode", mode,
            "--eps", "1/25", "--delta", "auto", "--out", str(report),
        ])
        assert code == 0
        assert json.loads(report.read_text())["bounds"]["overall"] is True


def test_count_command(tmp_path, capsys):
    args, inst = gen_args(tmp_path, n=3)
    run_cli(args)
    assert run_cli(["count", "--instance", str(inst), "--support", "0,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"relaxed": "6"}
    assert run_cli([
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
    assert run_cli(["energy", "--set", str(setfile)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"doubling": "5/3", "energy": "19", "size": 5}

    assert run_cli(["sumset", "--set", str(setfile), "--set", str(setfile)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["size"] == 5  # {0..4}
    combined = tmp_path / "combined.json"
    assert run_cli([
        "sumset", "--set", str(setfile), "--set", str(setfile),
        "--out", str(combined),
    ]) == 0
    capsys.readouterr()
    data = json.loads(combined.read_text())
    assert data["elems"] == [[0], [1], [2], [3], [4]]


def test_report_command(tmp_path, capsys):
    args, inst = gen_args(tmp_path)
    run_cli(args)
    report = tmp_path / "report.json"
    run_cli([
        "extract", "--instance", str(inst), "--K", "1", "--out", str(report),
    ])
    assert run_cli(["report", "--report", str(report)]) == 0
    text = capsys.readouterr().out
    assert "overall: PASS" in text
    csv_path = tmp_path / "rows.csv"
    assert run_cli(["report", "--report", str(report), "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "name,relation,lhs,rhs,pass"
    assert len(lines) > 1


_FAILING_ROW = {"name": "a", "relation": ">=", "lhs": "0", "rhs": "1", "pass": False}


def test_report_judges_rows_without_overall(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"inequalities": [_FAILING_ROW]}))
    assert run_cli(["report", "--report", str(path)]) == 2
    assert capsys.readouterr().out.endswith("overall: FAIL\n")


def test_exit_code_usage():
    assert run_cli(["--bogus-flag"]) == 64
    assert run_cli(["extract", "--no-such"]) == 64


def test_exit_code_error(tmp_path):
    assert run_cli(["measure", "--instance", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize(
    "command, payload",
    [
        ("measure", {}),
        ("measure", {"group": {"moduli": ["x"]}, "parts": [], "edges": []}),
        ("verify", {"result": {"mode": "general"}}),
        ("energy", {"group": {"moduli": [0]}}),
        ("verify", {"mode": "general", "subsets": [[0, 1], [0, 1]]}),
        ("verify", {"mode": "general", "subsets": [[0, 1], [0, 1]],
                    "trace": [{"kind": "ambient"}]}),
        ("verify", {"mode": "general", "subsets": [[0, 1], [0, 1]], "epsilon": 5,
                    "trace": [{"kind": "ambient", "k": "1"}]}),
        ("verify", {"mode": "general", "subsets": [[0, 1], [0, 1]],
                    "trace": [{"kind": "ambient", "k": 2}]}),
        ("report", {"bounds": {"inequalities": [
            {"name": "a", "relation": ">=", "lhs": "1", "rhs": "0"}]}}),
        ("report", {"inequalities": "abc"}),
        ("report", []),
        ("report", {"inequalities": [_FAILING_ROW], "overall": True}),
        ("report", {"inequalities": [_FAILING_ROW], "overall": "false"}),
    ],
    ids=["no-group", "bad-modulus", "result-without-subsets", "set-without-elems",
         "result-without-trace", "ambient-without-k", "epsilon-not-a-string",
         "k-not-a-string", "row-without-pass", "rows-not-a-list", "report-not-an-object",
         "overall-true-over-failing-row", "overall-not-a-bool"],
)
def test_malformed_input_fails_typed(tmp_path, capsys, command, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    if command == "verify":
        args, inst = gen_args(tmp_path)
        run_cli(args)
        argv = ["verify", "--instance", str(inst), "--result", str(bad),
                "--mode", "general"]
    elif command == "energy":
        argv = ["energy", "--set", str(bad)]
    elif command == "report":
        argv = ["report", "--report", str(bad)]
    else:
        argv = ["measure", "--instance", str(bad)]
    capsys.readouterr()
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("bsgkit: error:") and str(bad) in err
    assert "Traceback" not in err


def test_exit_code_check_failed(tmp_path, capsys):
    args, inst = gen_args(tmp_path)
    run_cli(args)
    report = tmp_path / "report.json"
    run_cli(["extract", "--instance", str(inst), "--K", "1", "--out", str(report)])
    capsys.readouterr()
    # tamper with the stored subsets so verification of sizes fails
    payload = json.loads(report.read_text())
    payload["result"]["subsets"][0] = [0]
    bad = tmp_path / "tampered.json"
    bad.write_text(canonical_dumps(payload))
    # n=4 gives floor 4/8 < 1, so shrink the instance check instead: use n=16
    args16, inst16 = gen_args(tmp_path, name="i16.json", n=16)
    run_cli(args16)
    rep16 = tmp_path / "r16.json"
    run_cli(["extract", "--instance", str(inst16), "--K", "1", "--out", str(rep16)])
    capsys.readouterr()
    payload = json.loads(rep16.read_text())
    payload["result"]["subsets"][0] = [0]
    bad16 = tmp_path / "t16.json"
    bad16.write_text(canonical_dumps(payload))
    code = run_cli([
        "verify", "--instance", str(inst16), "--result", str(bad16),
        "--mode", "general",
    ])
    assert code == 2


def test_rejects_decimal_rationals(tmp_path):
    args, inst = gen_args(tmp_path)
    run_cli(args)
    code = run_cli(["extract", "--instance", str(inst), "--K", "0.5"])
    assert code == 64


def test_workers_do_not_change_bytes(tmp_path):
    args, inst = gen_args(tmp_path, family="random-density", n=12, seed=5,
                          extra=("--K", "2"))
    run_cli(args)
    outs = []
    for workers in (1, 4):
        report = tmp_path / f"w{workers}.json"
        code = run_cli([
            "extract", "--instance", str(inst), "--K", "2",
            "--workers", str(workers), "--out", str(report),
        ])
        assert code == 0
        outs.append(report.read_bytes())
    assert outs[0] == outs[1]


def test_module_entry_point(tmp_path):
    args, inst = gen_args(tmp_path)
    run_cli(args)
    # `-m` searches the working directory first: run this process's bsgkit
    proc = subprocess.run(
        [sys.executable, "-m", "bsgkit", "measure", "--instance", str(inst)],
        capture_output=True, text=True,
        cwd=Path(bsgkit.__file__).resolve().parent.parent,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["K"] == "1"
