"""Run the repository benchmark.

One workload (what an automated driver calls)::

    python3 perfbench/run.py --workload offline-paper --seed 1 \\
        --seconds 15 --trace 0

prints a report and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--out FILE`` also writes the run as a result set (metrics plus the
context needed to compare it).

Other modes::

    python3 perfbench/run.py --all --seed 1        # every workload
    python3 perfbench/run.py --compare base.json head.json

Exit status: 0 when every output check passed, 1 when one failed, 2
when the program under test (``src/repro``) is missing or the arguments
are wrong.  Scratch files live under ``.perfbench-work/``
and are removed at exit; traced runs write their spans to
``.perfbench-out/<workload>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import results  # noqa: E402
from perfbench.tracing import PER_LAYER_METRICS  # noqa: E402


def _benchmark_json() -> dict:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def _number(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"metric value {value!r} is not a finite number")
    return value


def run_one(args) -> int:
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench-work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        outcome = workload.run(args.seed, args.seconds, bool(args.trace),
                               workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"== {workload.name}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}")
    for name, (value, unit) in {**outcome.metrics, **outcome.report}.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'failed_frac':<24} {frac:>14.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} operations and outputs)")
    if args.trace:
        print_layers(outcome.layers)
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        if outcome.tracer is not None:
            outcome.tracer.write(out_dir / f"{workload.name}.spans.jsonl")
        metrics = {name: {"value": _number(outcome.layers[name]), "unit": unit}
                   for name, unit in PER_LAYER_METRICS}
    else:
        metrics = {name: {"value": _number(value), "unit": unit}
                   for name, (value, unit) in outcome.metrics.items()}
    line = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    if args.out:
        ctx = results.context(workload.name, workload.describe(), args.seed,
                              args.seconds, bool(args.trace))
        report = {name: value for name, (value, _) in outcome.report.items()}
        results.write(args.out,
                      {"context": ctx, "result": line, "report": report})
    print(json.dumps(line))
    return 0 if outcome.correct else 1


def print_layers(layers: dict[str, float]) -> None:
    print("  per-layer (the traced operations: every other one of the timed phase):")
    for name, unit in PER_LAYER_METRICS:
        print(f"    {name:<36} {layers[name]:>14.6g} {unit}")
    print(f"  hdc.spatial share incl. carry-save tree: "
          f"{layers['hdc.spatial.total_share']:.1%} (ROADMAP measured "
          f"85-99% of detector time on the paper shape)")


def run_all(args) -> int:
    from perfbench.workloads import WORKLOADS

    status = 0
    summary = {}
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-work") as scratch:
        for name in WORKLOADS:
            out = (Path(args.out) / f"{name}.json" if args.out
                   else Path(scratch) / f"{name}.json")
            out.parent.mkdir(parents=True, exist_ok=True)
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", str(out)],
                capture_output=True, text=True, check=False,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not out.is_file():
                status = 1
                continue
            summary[name] = results.read(out)["result"]
    print("== summary")
    for name, line in summary.items():
        cells = "  ".join(
            f"{metric}={entry['value']:.4g} {entry['unit']}"
            for metric, entry in line["metrics"].items()
        )
        print(f"  {name:<18} correct={line['correct']}  {cells}")
    return status


def run_compare(args) -> int:
    bounds = {
        metric["name"]: (metric["better"], metric["bound"])
        for metric in _benchmark_json().get("end_to_end", ())
    }
    base, head = (results.read(path) for path in args.compare)
    try:
        rows = results.compare(base, head, bounds)
    except results.ContextMismatch as exc:
        print(f"perfbench: refusing to compare: {exc}", file=sys.stderr)
        return 2
    regressed = False
    for row in rows:
        verdict = ("REGRESSED" if row["regressed"]
                   else "-" if row["bound"] is None else "ok")
        regressed |= row["regressed"]
        print(f"  {row['name']:<36} {row['base']:>12.6g} -> "
              f"{row['head']:>12.6g} {row['unit']:<10} {row['change']:+.1%}  "
              f"{verdict}")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(_benchmark_json().get("run_seconds", 15)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    if args.compare:
        return run_compare(args)
    # The program under test is the checkout's own source tree, never a
    # copy installed elsewhere.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
