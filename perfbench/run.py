"""bsgkit benchmark: seeded extract -> verify workloads, timed end to end.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload general-r3 --seed 1 --seconds 50 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run. Metric names and units come from BENCHMARK.json.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The default seed is 1; seed 2 is held out, so a claimed
gain can be shown on a seed not used while making it.

Each run starts its own single-threaded worker processes (see worker.py):
SETUP_PROBES that only set up, to time set-up several times, then one that
runs the ops. All of them are waited for before this script exits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
DEFAULT_SEED = 1
HOLDOUT_SEED = 2
SETUP_PROBES = 6
# Each run must end within 180 s; leave room for interpreter exit.
RUN_BUDGET_S = 170


def fail(message: str) -> None:
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def git_commit() -> str:
    """Commit of the checkout read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, to identify code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bsgkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def stamp() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "loadavg_start": list(os.getloadavg()),
    }


def start_worker(args, mode: str, deadline: float) -> dict:
    """Run one worker to completion; return its JSON output."""
    started = time.monotonic()
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mode", mode,
        "--started", repr(started),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            timeout=max(1.0, deadline - started),
            check=False,
        )
    except subprocess.TimeoutExpired:
        fail(f"{mode} worker did not finish within the {RUN_BUDGET_S} s budget")
    if proc.returncode != 0:
        fail(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "bsgkit" / "__init__.py").is_file():
        fail(f"no bsgkit sources under {ROOT / 'src'}; run from a source checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose one of {names}")
    if not 0 <= args.seed < 2**63:
        fail("seed must be a non-negative 63-bit integer")
    if args.seconds <= 0:
        fail("seconds must be positive")

    info = stamp()
    probes = 0 if args.trace else SETUP_PROBES
    setups = [start_worker(args, "setup", deadline) for _ in range(probes)]
    out = start_worker(args, "run", deadline)
    setups.append(out)
    info["loadavg_end"] = list(os.getloadavg())

    measured = dict(out["metrics"])
    measured["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    raw = dict(out.get("raw", {}))
    raw["setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail(f"run produced no value for {missing}")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("stamp " + json.dumps(info, sort_keys=True))
    if args.trace:
        samples = f"per pass of {out['samples']} ops, {out['passes']} traced passes"
    else:
        samples = f"{out['samples']} instances, median of {out['passes']:.1f} ops each"
    for m in wanted:
        value = measured[m["name"]]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        unscaled = f"raw {raw[m['name']]:.6g}; " if m["name"] in raw else ""
        print(f"  {m['name']:34s} {shown} {m['unit']}  ({unscaled}{samples})")
    if args.trace:
        print(f"  {'traced passes agree':34s} {out['self_check']}")
    else:
        # Printed but not in BENCHMARK.json: a pool of 6 to 32 instances has
        # too few samples beyond its 90th percentile to make it steady.
        print(
            f"  {'solve_s_p90':34s} {measured['solve_s_p90']:.6g} s"
            f"  (raw {raw['solve_s_p90']:.6g}; {samples}; not gated)"
        )
        samples_s = ", ".join(f"{s['setup_s']:.4f}" for s in setups)
        print(f"  {'setup_s samples':34s} {samples_s} s")
        print(f"  {'reference speed factor':34s} {out['scale']:.4f}  (median over ops; scaled = raw x factor)")
        print(
            f"  {'failed_ops_ratio':34s} {measured['failed_ops_ratio']:.6g}"
            f"  ({out['failed']}/{out['attempted']} ops)"
        )
        print(f"  {'all_ops_per_s':34s} {raw['all_ops_per_s']:.6g} 1/s  (raw, every op)")
    print(f"  report digest {out['digest']} over {out['instances']} instances")
    for failure in out["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)

    correct = out["failed"] == 0 and out.get("self_check", True)
    result = {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
