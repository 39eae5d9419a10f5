"""One workload process: set up the instance pool, then time ops or trace them.

Started by run.py, never by hand. Prints one JSON object on stdout.

--mode setup  stops after set-up; the launcher times several of these.
--mode run    times ops in a closed loop with one client until --seconds
              have passed (trace 0), or alternates untraced and traced
              passes over the pool (trace 1).

The shared 2-core box the bounds were set on changes speed by up to 2x, in
spells that last from about a second to minutes, and an op's CPU time grows
as much as its wall time. So every timing is scaled to a reference speed. A
fixed pure-Python loop that does not use bsgkit is timed REFERENCE_BLOCKS
times before every op and once more after the last one. Each op's times are
multiplied by REFERENCE_S / (the mean loop time of the blocks just before and
just after it), and each instance's figure is the median of its scaled ops.
A change that speeds up bsgkit lowers the scaled times as much as the raw
ones, because the loop does not run bsgkit code. The raw figures (medians of
unscaled times) are reported next to the scaled ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bsgkit  # noqa: E402  (set-up time includes this import)

import tracing  # noqa: E402
import workloads  # noqa: E402

# Mean time of reference_block() on the box the bounds were set on, in its
# fast state (Intel Xeon at 2.0 GHz, CPython 3.11.7). Scaled times are seconds
# at that speed. Change it together with the loop, never alone.
REFERENCE_S = 0.0040
# Loop blocks timed before each op, and after set-up.
REFERENCE_BLOCKS = 4
SETUP_REFERENCE_BLOCKS = 12


def _pair_sum(a: tuple, b: tuple, moduli: tuple) -> tuple:
    return tuple((x + y) % m if m else x + y for x, y, m in zip(a, b, moduli))


def reference_block() -> float:
    """Seconds taken by a fixed pure-Python loop that does not use bsgkit.

    It does the two kinds of work that bsgkit ops spend their time on: counts
    in a dict keyed by small tuples (the octopus counters), and sets of tuples
    built by one function call per pair, then sorted (the sumsets).
    """
    start = time.perf_counter()
    counts: dict = {}
    seen = set()
    for i in range(3000):
        key = (i % 97, i % 89, i & 7)
        counts[key] = counts.get(key, 0) + ((i * 2654435761) & 0xFFFF).bit_count()
        seen.add(key[:2])
    moduli = (0,)
    elems = [(i * 7 % 41,) for i in range(24)]
    for _ in range(5):
        sums = {_pair_sum(x, y, moduli) for x in elems for y in elems}
        tuple(sorted(sums))
    return time.perf_counter() - start


def reference_mean(blocks: int) -> float:
    return statistics.fmean(reference_block() for _ in range(blocks))


class Ledger:
    """Op times, reference times, failures and report digests of a run.

    ops[k] is (instance index, extract_s, verify_s) of the k-th op, and
    reference[k] the mean loop time just before it; close() adds the one
    after the last op.
    """

    def __init__(self):
        self.ops: list[tuple[int, float, float]] = []
        self.reference: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}

    def run(self, workload, pool, index, tracer=None) -> str | None:
        """Run and gate one op on pool[index]; return its report digest.

        Returns None when the op raised.
        """
        reference = reference_mean(REFERENCE_BLOCKS)
        self.attempted += 1
        try:
            if tracer is None:
                extract_s, verify_s, outputs = workloads.run_op(workload, pool[index])
            else:
                with tracer.installed():
                    extract_s, verify_s, outputs = workloads.run_op(
                        workload, pool[index], tracer
                    )
        except Exception:  # an op that raises is counted as failed, and the run goes on
            self.failures.append(f"instance {index}: {traceback.format_exc(limit=3)}")
            return None
        self.ops.append((index, extract_s, verify_s))
        self.reference.append(reference)
        reason, digest = workloads.gate(workload, outputs)
        previous = self.digests.setdefault(index, digest)
        if reason is None and previous != digest:
            reason = "report bytes differ between ops on the same instance"
        if reason is not None:
            self.failures.append(f"instance {index}: {reason}")
        return digest

    def run_pass(self, workload, pool, tracer=None) -> dict[int, str | None]:
        return {i: self.run(workload, pool, i, tracer) for i in range(len(pool))}

    def close(self) -> None:
        self.reference.append(reference_mean(REFERENCE_BLOCKS))

    def factors(self) -> list[float]:
        """Per op, REFERENCE_S over the mean loop time around it."""
        ref = self.reference
        return [2 * REFERENCE_S / (ref[k] + ref[k + 1]) for k in range(len(self.ops))]

    def per_instance(self, scaled: bool) -> tuple[list[float], list[float], list[float]]:
        """Per instance, the median solve, extract and verify time of its ops."""
        factors = self.factors() if scaled else [1.0] * len(self.ops)
        reps: dict[int, list[tuple[float, float]]] = {}
        for (index, e, v), f in zip(self.ops, factors):
            reps.setdefault(index, []).append((e * f, v * f))
        reps = [reps[i] for i in sorted(reps)]
        return (
            [statistics.median(e + v for e, v in r) for r in reps],
            [statistics.median(e for e, _ in r) for r in reps],
            [statistics.median(v for _, v in r) for r in reps],
        )

    def digest(self) -> str:
        """SHA-256 over the per-instance report digests, in pool order."""
        text = "".join(f"{i}:{d}\n" for i, d in sorted(self.digests.items()))
        return hashlib.sha256(text.encode()).hexdigest()

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:5],
            "digest": self.digest(),
            "instances": len(self.digests),
        }


def timing_metrics(solve, extract, verify) -> dict[str, float]:
    return {
        "solve_s_p50": statistics.median(solve),
        "solve_s_p90": statistics.quantiles(solve, n=10)[8] if len(solve) > 1 else solve[0],
        "extract_s_p50": statistics.median(extract),
        "verify_s_p50": statistics.median(verify),
        "ops_per_s": len(solve) / sum(solve),
    }


def timed_run(workload, pool, seconds: float) -> dict:
    """Time ops round-robin over the pool until --seconds have passed.

    The first pass always completes, so every instance has at least one op.
    """
    ledger = Ledger()
    start = time.perf_counter()
    k = 0
    while k < len(pool) or time.perf_counter() - start < seconds:
        ledger.run(workload, pool, k % len(pool))
        k += 1
    ledger.close()
    raw = timing_metrics(*ledger.per_instance(scaled=False))
    metrics = timing_metrics(*ledger.per_instance(scaled=True))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["failed_ops_ratio"] = len(ledger.failures) / ledger.attempted
    raw["all_ops_per_s"] = len(ledger.ops) / sum(e + v for _, e, v in ledger.ops)
    return {
        "metrics": metrics,
        "raw": raw,
        "scale": statistics.median(ledger.factors()),
        "samples": len(pool),
        "passes": len(ledger.ops) / len(pool),
        **ledger.summary(),
    }


def traced_run(workload, pool, seconds: float) -> dict:
    """Alternate untraced and traced passes over the pool.

    Stops once --seconds have passed and at least two traced passes ran. Every
    traced pass must give the same counters and the same report digests. Span
    times are raw seconds and come from the fastest traced pass.
    """
    untraced = Ledger()
    traced = Ledger()
    passes = []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        untraced.run_pass(workload, pool)
        tracer = tracing.Tracer()
        digests = traced.run_pass(workload, pool, tracer)
        passes.append((tracing.pass_counters(tracer), tracing.pass_times(tracer), digests))
    untraced.close()
    traced.close()

    counters, _, digests = passes[0]
    self_check = untraced.digests == traced.digests and all(
        p[0] == counters and p[2] == digests for p in passes
    )
    fastest = min(passes, key=lambda p: p[1]["trace.op_s"])
    metrics: dict[str, float] = dict(counters)
    metrics.update(tracing.counter_ratios(counters))
    metrics.update(fastest[1])
    # Scaled to the reference speed, so the ratio does not follow the box's
    # speed between the two kinds of pass.
    traced_p50 = statistics.median(traced.per_instance(scaled=True)[0])
    untraced_p50 = statistics.median(untraced.per_instance(scaled=True)[0])
    metrics["trace.solve_s_p50"] = traced_p50
    metrics["trace.untraced_solve_s_p50"] = untraced_p50
    metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50
    metrics["trace.pass_ops"] = len(pool)
    summary = traced.summary()
    summary["attempted"] += untraced.attempted
    summary["failed"] += len(untraced.failures)
    summary["failures"] = (untraced.failures + traced.failures)[:5]
    return {
        "metrics": metrics,
        "samples": len(pool),
        "passes": len(passes),
        "self_check": self_check,
        **summary,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    # time.monotonic is system-wide on Linux, so the launcher's reading taken
    # just before it started this process marks the process start.
    parser.add_argument("--started", type=float, required=True)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    pool, gen_s = workloads.make_pool(workload, args.seed)
    setup_raw = time.monotonic() - args.started
    setup_reference = reference_mean(SETUP_REFERENCE_BLOCKS)
    out: dict = {
        "setup_s": setup_raw * REFERENCE_S / setup_reference,
        "setup_raw_s": setup_raw,
        "gen_s": gen_s,
    }
    if args.mode == "run":
        if args.trace:
            out.update(traced_run(workload, pool, args.seconds))
            out["metrics"]["instances.gen_s"] = gen_s
        else:
            out.update(timed_run(workload, pool, args.seconds))
    out["bsgkit_version"] = bsgkit.__version__
    print(json.dumps(out))


if __name__ == "__main__":
    main()
