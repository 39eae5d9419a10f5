"""Command line interface.

Subcommands: gen, measure, energy, sumset, count, extract, verify, report.
JSON results go to the output file or stdout; diagnostics go to stderr.
Exit codes: 0 success with all checks passing, 2 some inequality failed
(the report is still written), 1 runtime error, 64 usage error. Rational
parameters are written as "p/q"; decimals are rejected. Output JSON is
canonical (sorted keys, compact separators), so identical invocations
produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .errors import BsgkitError, ConfigInvalidError
from .extraction import (
    ExtractionResult,
    almost_all_extract,
    bsg_extract,
    dense_extract,
    recorded_report,
)
from .groups import GroupSpec
from .hypergraph import Instance
from .instances import (
    GenConfig,
    check_bounds,
    gen_instance,
    measure_instance,
)
from .jsonio import canonical_dumps, frac_str, parse_fraction
from .octopus import octopus_count_exact, octopus_count_relaxed
from .report import BoundReport
from .sumsets import ElemSet, iterated_sumset, sum_stats

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 64 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fraction_arg(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ConfigInvalidError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _fraction_or_measured(text: str):
    if text == "measured":
        return "measured"
    return _fraction_arg(text)


def _fraction_or_auto(text: str):
    if text == "auto":
        return "auto"
    return _fraction_arg(text)


def _int_list(what: str):
    """Argument type for comma-separated ints, as a tuple; a bad list is
    reported as a bad `what`."""

    def parse(text: str) -> tuple[int, ...]:
        try:
            return tuple(int(x) for x in text.split(","))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}") from exc

    return parse


def _write_output(payload: dict, out: str | None) -> None:
    text = canonical_dumps(payload)
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise BsgkitError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise BsgkitError(f"invalid JSON in {path}: {exc}") from exc


def _parse_file(path: str, parse):
    """Parse the JSON of a file, turning a missing or malformed field into a
    typed error that names the file."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ConfigInvalidError(f"malformed {path}: top level is not a JSON object")
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError, IndexError, ConfigInvalidError) as exc:
        raise ConfigInvalidError(f"malformed {path}: {exc!r}") from exc


def _load_instance(path: str) -> Instance:
    return _parse_file(path, Instance.from_json)


def _load_set(path: str) -> ElemSet:
    return _parse_file(
        path,
        lambda data: ElemSet.from_json(GroupSpec.from_json(data["group"]), data["elems"]),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bsgkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a seeded instance")
    p_gen.add_argument("--family", required=True,
                       choices=["complete", "random-density", "planted", "dense"])
    p_gen.add_argument("--r", type=int, required=True)
    p_gen.add_argument("--n", type=_int_list("size list"), required=True,
                       help="part size, or comma-separated per-part sizes")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--group", type=_int_list("moduli list"), default=(0,),
                       help="comma-separated moduli, 0 for a free coordinate")
    p_gen.add_argument("--K", type=_fraction_arg, default=None)
    p_gen.add_argument("--ap-fraction", type=_fraction_arg, default=None)
    p_gen.add_argument("--target-C", type=_fraction_arg, default=None)
    p_gen.add_argument("--delta", type=_fraction_arg, default=None)
    p_gen.add_argument("--out", default=None)

    p_measure = sub.add_parser("measure", help="measure an instance")
    p_measure.add_argument("--instance", required=True)
    p_measure.add_argument("--out", default=None)

    p_energy = sub.add_parser("energy", help="sumset statistics of one set")
    p_energy.add_argument("--set", required=True, dest="set_path")
    p_energy.add_argument("--out", default=None)

    p_sumset = sub.add_parser("sumset", help="sumset of one or more sets")
    p_sumset.add_argument("--set", action="append", required=True, dest="set_paths")
    p_sumset.add_argument("--out", default=None,
                          help="also write the resulting set to this file")

    p_count = sub.add_parser("count", help="octopus counts at a support")
    p_count.add_argument("--instance", required=True)
    p_count.add_argument("--support", type=_int_list("support"), required=True)
    p_count.add_argument("--exact", choices=["full", "named-only"], default=None)
    p_count.add_argument("--out", default=None)

    p_extract = sub.add_parser("extract", help="run an extraction pipeline")
    p_extract.add_argument("--instance", required=True)
    p_extract.add_argument("--mode", choices=["general", "dense", "almost-all"],
                           default="general")
    p_extract.add_argument("--K", type=_fraction_or_measured, default="measured")
    p_extract.add_argument("--C", type=_fraction_or_measured, default="measured")
    p_extract.add_argument("--eps", type=_fraction_arg, default=None)
    p_extract.add_argument("--delta", type=_fraction_or_auto, default="auto")
    p_extract.add_argument("--workers", type=int, default=1,
                           help="accepted for compatibility; has no effect")
    p_extract.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="recheck a result against an instance")
    p_verify.add_argument("--instance", required=True)
    p_verify.add_argument("--result", required=True)
    p_verify.add_argument("--mode", choices=["general", "dense", "almost-all"],
                          required=True)
    p_verify.add_argument("--out", default=None)

    p_report = sub.add_parser("report", help="summarize a report file")
    p_report.add_argument("--report", required=True, dest="report_path")
    p_report.add_argument("--csv", nargs="?", const="-", default=None,
                          help="emit CSV rows (to a path, or stdout)")

    return parser


def _stats_payload(stats) -> dict:
    return {
        "doubling": frac_str(stats.doubling),
        "energy": str(stats.energy),
        "size": stats.sumset_size,
    }


def _cmd_gen(args) -> int:
    cfg = GenConfig.make(
        r=args.r,
        n=args.n[0] if len(args.n) == 1 else args.n,  # one size for every part
        family=args.family,
        seed=args.seed,
        moduli=args.group,
        k=args.K,
        ap_fraction=args.ap_fraction,
        target_c=args.target_C,
        delta=args.delta,
    )
    inst = gen_instance(cfg)
    _write_output(inst.to_json(), args.out)
    return EXIT_OK


def _cmd_measure(args) -> int:
    inst = _load_instance(args.instance)
    _write_output(measure_instance(inst).to_json(), args.out)
    return EXIT_OK


def _cmd_energy(args) -> int:
    elems = _load_set(args.set_path)
    _write_output(_stats_payload(sum_stats(elems)), args.out)
    return EXIT_OK


def _cmd_sumset(args) -> int:
    sets = [_load_set(p) for p in args.set_paths]
    combined = iterated_sumset(sets)
    payload = _stats_payload(sum_stats(combined))
    payload["size"] = len(combined)
    if args.out:
        _write_output(
            {"elems": combined.to_json(), "group": combined.spec.to_json()},
            args.out,
        )
        sys.stdout.write(canonical_dumps(payload))
    else:
        _write_output(payload, None)
    return EXIT_OK


def _cmd_count(args) -> int:
    inst = _load_instance(args.instance)
    payload: dict = {
        "relaxed": str(octopus_count_relaxed(inst.hypergraph, args.support)),
    }
    if args.exact is not None:
        payload["exact"] = str(
            octopus_count_exact(inst.hypergraph, args.support, mode=args.exact)
        )
        payload["mode"] = args.exact
    _write_output(payload, args.out)
    return EXIT_OK


def _report_payload(result: ExtractionResult, report: BoundReport, params: dict) -> dict:
    return {
        "bounds": report.to_json(),
        "params": params,
        "result": result.to_json(),
    }


def _cmd_extract(args) -> int:
    inst = _load_instance(args.instance)
    params: dict = {"mode": args.mode}
    if args.mode == "general":
        params["K"] = args.K if isinstance(args.K, str) else frac_str(args.K)
        params["C"] = args.C if isinstance(args.C, str) else frac_str(args.C)
        result, report = bsg_extract(inst, args.K, args.C)
    else:
        if args.eps is None:
            raise ConfigInvalidError(f"--eps is required for mode {args.mode}")
        params["eps"] = frac_str(args.eps)
        params["delta"] = args.delta if isinstance(args.delta, str) else frac_str(args.delta)
        if args.mode == "dense":
            result = dense_extract(inst, args.eps, args.delta)
            report = recorded_report(inst, result, None)
        else:
            params["C"] = args.C if isinstance(args.C, str) else frac_str(args.C)
            result, report = almost_all_extract(inst, args.C, args.eps, args.delta)
    _write_output(_report_payload(result, report, params), args.out)
    if not report.overall:
        print("bsgkit: some inequalities FAILED", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    result = _parse_file(
        args.result,
        lambda data: ExtractionResult.from_json(
            data["result"] if "result" in data else data
        ),
    )
    report = check_bounds(result, inst, args.mode)
    _write_output(
        {"bounds": report.to_json(), "mode": args.mode},
        args.out,
    )
    if not report.overall:
        print("bsgkit: some inequalities FAILED", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


_ROW_STRINGS = ("name", "relation", "lhs", "rhs")


def _report_bounds(data: dict) -> dict:
    """The bounds object of a report file, with every row checked for the
    fields the summary prints. A stored overall must be the conjunction of
    the rows, as BoundReport.to_json writes it."""
    bounds = data.get("bounds", data)
    if not isinstance(bounds, dict):
        raise TypeError("bounds is not an object")
    rows = bounds.get("inequalities", [])
    if not isinstance(rows, list):
        raise TypeError("inequalities is not a list")
    for i, row in enumerate(rows):
        if not (
            isinstance(row, dict)
            and all(isinstance(row.get(key), str) for key in _ROW_STRINGS)
            and isinstance(row.get("pass"), bool)
        ):
            raise ValueError(
                f"inequality {i} needs string {', '.join(_ROW_STRINGS)} and bool pass"
            )
    if "overall" in bounds and bounds["overall"] is not all(row["pass"] for row in rows):
        raise ValueError("overall must be the bool conjunction of the rows' pass")
    return bounds


def _cmd_report(args) -> int:
    bounds = _parse_file(args.report_path, _report_bounds)
    rows = bounds.get("inequalities", [])
    overall = all(row["pass"] for row in rows)
    if args.csv is not None:
        lines = ["name,relation,lhs,rhs,pass"]
        for row in rows:
            lines.append(
                f"{row['name']},{row['relation']},{row['lhs']},{row['rhs']},"
                f"{str(row['pass']).lower()}"
            )
        text = "\n".join(lines) + "\n"
        if args.csv == "-":
            sys.stdout.write(text)
        else:
            Path(args.csv).write_text(text, encoding="utf-8")
    else:
        for row in rows:
            status = "PASS" if row["pass"] else "FAIL"
            sys.stdout.write(
                f"{status} {row['name']}: {row['lhs']} {row['relation']} {row['rhs']}\n"
            )
        sys.stdout.write(f"overall: {'PASS' if overall else 'FAIL'}\n")
    return EXIT_OK if overall else EXIT_CHECK_FAILED


_COMMANDS = {
    "gen": _cmd_gen,
    "measure": _cmd_measure,
    "energy": _cmd_energy,
    "sumset": _cmd_sumset,
    "count": _cmd_count,
    "extract": _cmd_extract,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except BsgkitError as exc:
        print(f"bsgkit: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
