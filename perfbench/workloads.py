"""Workload definitions, the timed operation, and the per-op correctness gate.

Each workload is a pool of instances generated with ``gen_instance`` from the
run seed. One operation is what a library or CLI user waits for: parse the
instance from its canonical JSON, run the pipeline, then parse a fresh copy
of the instance and run the independent check on it (as ``bsgkit verify``
does), so no cache warmed by extraction is shared with the check.

The program is always called through the ``bsgkit`` package attributes at
call time, so the wrappers installed by ``tracing.Tracer`` are picked up.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass
from fractions import Fraction

import bsgkit
from bsgkit.jsonio import canonical_dumps


@dataclass(frozen=True)
class Workload:
    """A seeded instance pool plus the pipeline and check run on it.

    Pool entry j is generated from ``variants[j % len(variants)]`` (keyword
    sets for ``GenConfig.make``). A variant listed more than once makes up a
    larger share of the pool. That keeps the median op inside one variant's
    cluster of op times instead of in the gap between two clusters, where it
    would jump from run to run.
    """

    name: str
    mode: str  # "general" or "oracle"
    pool_size: int
    variants: tuple[dict, ...]


def _random_density(r: int, n: int, k: Fraction) -> dict:
    return dict(r=r, n=n, family="random-density", moduli=(0,), k=k)


# Pool sizes are set so one pass over the pool takes about 6-12 s on a 2-core
# CPython 3.11 box; a 50 s run then times each instance 4 to 8 times.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "general-r3",
            "general",
            pool_size=24,
            variants=tuple(
                _random_density(3, n, k)
                for n, k in (
                    (10, Fraction(3, 2)),
                    (12, Fraction(3, 2)),
                    (10, Fraction(2)),
                    (12, Fraction(2)),
                    (12, Fraction(2)),
                    (12, Fraction(2)),
                )
            ),
        ),
        Workload(
            "oracle-r2",
            "oracle",
            pool_size=32,
            variants=(
                dict(
                    r=2,
                    n=8,
                    family="planted",
                    moduli=(0,),
                    ap_fraction=Fraction(1, 2),
                    target_c=Fraction(2),
                ),
            ),
        ),
    )
}


def instance_seed(workload: str, seed: int, index: int) -> int:
    """64-bit generator seed of pool entry ``index``; independent of bsgkit."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Item:
    """One pool entry: its generator config and canonical instance JSON."""

    cfg: object  # bsgkit.GenConfig
    text: str


def make_pool(workload: Workload, seed: int) -> tuple[list[Item], float]:
    """Generate the pool; also return the seconds spent in gen_instance."""
    items = []
    gen_s = 0.0
    for j in range(workload.pool_size):
        cfg = bsgkit.GenConfig.make(
            seed=instance_seed(workload.name, seed, j),
            **workload.variants[j % len(workload.variants)],
        )
        start = time.perf_counter()
        inst = bsgkit.gen_instance(cfg)
        gen_s += time.perf_counter() - start
        items.append(Item(cfg, canonical_dumps(inst.to_json())))
    return items, gen_s


def _phase(tracer, name):
    return tracer.phase(name) if tracer is not None else contextlib.nullcontext()


def run_op(workload: Workload, item: Item, tracer=None):
    """Run one timed operation; return (extract_s, verify_s, outputs)."""
    start = time.perf_counter()
    with _phase(tracer, "op.extract"):
        inst = bsgkit.Instance.from_json(json.loads(item.text))
        if workload.mode == "general":
            result, report = bsgkit.bsg_extract(inst, item.cfg.k, "measured")
        else:
            result, report = bsgkit.bsg_extract(inst, "measured", "measured")
    mid = time.perf_counter()
    with _phase(tracer, "op.verify"):
        fresh = bsgkit.Instance.from_json(json.loads(item.text))
        if workload.mode == "oracle":
            check = bsgkit.brute_force_best_subsets(fresh, result.sizes())
        else:
            check = bsgkit.check_bounds(result, fresh, result.mode)
    end = time.perf_counter()
    return mid - start, end - mid, (inst, result, report, check)


def gate(workload: Workload, outputs) -> tuple[str | None, str]:
    """Check one op's outputs; return (failure reason or None, report digest).

    Runs outside the timed region and outside any traced region.
    """
    inst, result, report, check = outputs
    if workload.mode == "oracle":
        best_subsets, best_size = check
        checked = {"best_size": best_size, "best_subsets": [list(s) for s in best_subsets]}
    else:
        checked = check.to_json()
    payload = {"check": checked, "report": report.to_json(), "result": result.to_json()}
    digest = hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()

    if not report.overall:
        return "pipeline report is not overall true", digest
    if workload.mode == "oracle":
        chosen = inst.subset_elemsets(result.subsets)
        size = len(bsgkit.iterated_sumset(chosen))
        if size < best_size:
            return f"pipeline sumset {size} beats the brute-force optimum {best_size}", digest
        return None, digest
    if not check.overall:
        return "independent check_bounds report is not overall true", digest
    independent = {q.name: q for q in check.inequalities}
    for q in report.inequalities:
        other = independent.get(q.name)
        if other is not None and (q.lhs, q.rhs, q.passed) != (
            other.lhs,
            other.rhs,
            other.passed,
        ):
            return f"row {q.name} differs between pipeline and check_bounds", digest
    return None, digest
