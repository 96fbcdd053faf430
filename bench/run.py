"""``python -m bench.run`` — the repo benchmark's one command.

Two modes:

* ``--workload NAME --seed N --seconds S --trace 0|1`` measures one
  workload in this process, pinned to one BLAS thread, and prints as its
  last line ``{"correct", "attempted", "failed", "metrics"}``: the
  end-to-end metrics with ``--trace 0``, the per-layer metrics with
  ``--trace 1``.  This is the form ``BENCHMARK.json`` names.
* without ``--workload`` it runs every workload (or ``--only`` one) that
  way in child processes, untraced then traced, prints every metric by
  name with its unit, and writes ``bench/out/results.json``.  It exits
  non-zero when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional

from . import ROOT
from .metrics import END_TO_END, PER_LAYER, RUN_SECONDS, UNITS, WORKLOAD_NAMES, WORKLOADS

OUT = ROOT / "bench" / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 900


def print_list() -> None:
    """Workload and metric names with units, as ``BENCHMARK.json`` declares them."""
    for w in WORKLOADS:
        print(f"workload    {w['name']}")
    for m in END_TO_END:
        print(f"end_to_end  {m['name']}  [{m['unit']}]  better={m['better']}  bound={m['bound']}")
    for m in PER_LAYER:
        print(f"per_layer   {m['name']}  [{m['unit']}]  better={m['better']}")


def _print_metrics(workload: str, metrics: Dict[str, float]) -> None:
    for name, value in metrics.items():
        print(f"{workload:18s} {name:34s} {value:.6g} {UNITS[name]}")


def run_workload(args: argparse.Namespace) -> int:
    """Measure one workload here; the last line printed is the result object."""
    for var in THREAD_VARS:  # before NumPy loads its BLAS
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"bench: {src}/repro not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT.mkdir(parents=True, exist_ok=True)
    start = perf_counter()
    from .measure import measure  # imports NumPy and every repro layer

    import_s = perf_counter() - start
    trace = args.trace == 1
    record = measure(
        args.workload, args.seed, args.seconds, trace, args.scale, OUT, import_s
    )
    metrics = record["per_layer" if trace else "end_to_end"]
    rounds = record["round_s"]
    print(
        f"{args.workload}: {rounds['n']} untraced rounds, median {rounds['median']:.4f} s,"
        f" first quartile {record['quiet_round_s']:.4f} s"
        f" ({record['atoms_per_round']} atoms and {record['ops_per_round']} operations a round)"
    )
    _print_metrics(args.workload, metrics)
    with open(OUT / f"run_{args.workload}_trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _child(workload: str, args: argparse.Namespace, trace: int) -> Optional[dict]:
    """Run one workload in a child; its full record, or None if it died."""
    cmd = [
        sys.executable, "-m", "bench.run",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--scale", args.scale,
    ]  # fmt: skip
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        print(f"bench: {workload} --trace {trace} timed out", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"bench: {workload} --trace {trace} exited {done.returncode}", file=sys.stderr)
        return None
    print(f"bench: {workload} --trace {trace} done", file=sys.stderr)
    with open(OUT / f"run_{workload}_trace{trace}.json") as fh:
        return json.load(fh)


def run_set(args: argparse.Namespace, workloads: List[str]) -> Optional[Dict[str, dict]]:
    """Every workload once untraced and once traced; None if a child died."""
    out: Dict[str, dict] = {}
    for workload in workloads:
        untraced = _child(workload, args, 0)
        traced = _child(workload, args, 1)
        if untraced is None or traced is None:
            return None
        out[workload] = {
            "fingerprint": untraced["fingerprint"],
            "round_s": untraced["round_s"],
            "traced_rounds": traced["traced_rounds"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "end_to_end": untraced["end_to_end"],
            "per_layer": traced["per_layer"],
        }
    return out


def disagreements(sets: List[Dict[str, dict]]) -> List[str]:
    """End-to-end metrics whose values across sets differ by more than their bound."""
    out = []
    for workload in sets[0]:
        for m in END_TO_END:
            values = [s[workload]["end_to_end"][m["name"]] for s in sets]
            lo, hi = min(values), max(values)
            if (hi - lo) / lo > m["bound"]:
                out.append(
                    f"{workload} {m['name']}: {lo:.6g} .. {hi:.6g} {m['unit']}"
                    f" differ by {(hi - lo) / lo:.1%}, bound {m['bound']:.0%}"
                )
    return out


def run_all(args: argparse.Namespace) -> int:
    workloads = [args.only] if args.only else WORKLOAD_NAMES
    sets = []
    for _ in range(args.repeat):
        one = run_set(args, workloads)
        if one is None:
            return 1
        sets.append(one)
    status = 0
    for i, one in enumerate(sets):
        print(f"== set {i + 1} of {len(sets)}, seed {args.seed}, scale {args.scale}")
        for workload, rec in one.items():
            _print_metrics(workload, rec["end_to_end"])
            _print_metrics(workload, rec["per_layer"])
            failed_frac = rec["failed"] / rec["attempted"]
            print(f"{workload:18s} {'failed_frac':34s} {failed_frac:.6g} ratio"
                  f" ({rec['failed']} of {rec['attempted']})")  # fmt: skip
            if rec["failed"]:
                status = 1
    if args.scale == "full":  # smoke sizes are for development and stay unrecorded
        with open(OUT / "results.json", "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "sets": sets}, fh, indent=1)
        print(f"wrote {OUT / 'results.json'}")
    if args.check_agreement:
        bad = disagreements(sets)
        for line in bad:
            print(f"DISAGREE {line}")
        if bad:
            status = 1
    return status


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m bench.run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="measure this one workload in-process")
    parser.add_argument("--seed", type=int, default=0, help="every input is generated from it")
    parser.add_argument("--seconds", type=float, help=f"how long the rounds measure (default {RUN_SECONDS}, smoke 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced pass")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full", help="smoke: seconds-long sizes, unrecorded")
    parser.add_argument("--only", choices=WORKLOAD_NAMES, help="all-workloads mode, restricted to one")
    parser.add_argument("--repeat", type=int, default=1, help="number of full sets to run")
    parser.add_argument("--check-agreement", action="store_true", help="fail if sets differ by more than a metric's bound")
    parser.add_argument("--list", action="store_true", help="print workload and metric names and exit")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.seconds is None:
        args.seconds = float(RUN_SECONDS) if args.scale == "full" else 1.0
    if args.list:
        print_list()
        return 0
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
