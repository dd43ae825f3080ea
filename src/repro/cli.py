"""Command-line interface: regenerate every paper artefact.

Usage::

    repro-laelaps table1 [--scale 720] [--methods laelaps,svm]
    repro-laelaps table2
    repro-laelaps fig3
    repro-laelaps scaling
    repro-laelaps backends
    repro-laelaps sessions [--patients 6] [--backend auto]
    repro-laelaps serve [--workers 4] [--mode process]
    repro-laelaps serve-http [--port 0] [--checkpoint-dir DIR]
    repro-laelaps loadtest [--sessions 256] [--out load.json] [--check F]
    repro-laelaps synth --out DIR [--channels 64,1024] [--minutes 30]
    repro-laelaps lint [PATHS ...] [--baseline FILE] [--format json]

(or ``python -m repro ...``).  ``repro --help`` lists every sub-command
with a one-line description; unknown sub-commands exit non-zero with
the list of valid choices.  See EXPERIMENTS.md for the recorded runs
and ``docs/serving.md`` for the serving demos.

Sub-commands live in one :data:`COMMANDS` registry (name, help line,
argument wiring, handler); the parser, ``--help`` text and the CLI
tests all derive from it, so they cannot drift apart.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Callable

from repro.evaluation.report import render_table
from repro.hdc.engine import UNPACKED_ENGINE, backend_choices

#: Default lint targets, mirroring the CI static-analysis job.
LINT_DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")

#: Default committed-baseline file, used when it exists.
LINT_DEFAULT_BASELINE = "lint-baseline.json"


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.evaluation.table1 import default_methods, run_table1

    include = tuple(args.methods.split(","))
    methods = default_methods(
        dim=args.dim, include=include, backend=args.backend
    )
    start = time.perf_counter()
    result = run_table1(
        methods,
        hours_scale=1.0 / args.scale,
        fs=args.fs,
        progress=print if args.verbose else None,
    )
    print(result.render())
    print()
    for method in result.methods():
        summary = result.summary(method)
        print(
            f"{method:>8}: detected {summary['detected']:.0f}/"
            f"{summary['test_seizures']:.0f}, "
            f"mean FDR {summary['mean_fdr_per_hour']:.2f}/h, "
            f"mean sensitivity {100 * summary['mean_sensitivity']:.1f} %, "
            f"mean delay {summary['mean_delay_s']:.1f} s"
        )
    print(f"\n[total wall time {time.perf_counter() - start:.0f} s, "
          f"duration scale 1/{args.scale:.0f}, fs {args.fs:.0f} Hz]")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.hw.energy import table2

    rows = table2()
    table = render_table(
        ["Elect", "Method", "Res", "time[ms]", "(x)", "energy[mJ]", "(x)"],
        [
            [
                r["electrodes"], r["method"], r["resource"],
                r["time_ms"], r["time_ratio"], r["energy_mj"],
                r["energy_ratio"],
            ]
            for r in rows
        ],
        title="Table II (reproduction): cost per 0.5 s classification event",
        precision=1,
    )
    print(table)
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    from repro.hw.energy import fig3_points

    points = fig3_points(n_electrodes=args.electrodes)
    table = render_table(
        ["Method", "Res", "energy[mJ]", "FDR[/h]"],
        [
            [p["method"], p["resource"], p["energy_mj"], p["fdr_per_hour"]]
            for p in points
        ],
        title=(
            "Fig. 3 (reproduction): FDR vs energy per classification, "
            f"{args.electrodes} electrodes (paper FDR means)"
        ),
    )
    print(table)
    return 0


def _train_demo_fleet(
    n_patients: int, seconds: float, dim: int, backend: str, fs: float
):
    """Synthetic patients for the serving demos: fitted detectors + signals.

    Each patient gets two planned seizures — the first is trained on,
    the second is unseen and should raise the demo's alarms.
    """
    from repro.core.config import LaelapsConfig
    from repro.core.detector import LaelapsDetector
    from repro.core.training import TrainingSegments
    from repro.data.synthetic import (
        SeizurePlan,
        SynthesisParams,
        SyntheticIEEGGenerator,
    )

    detectors = {}
    signals = {}
    for i in range(n_patients):
        n_electrodes = (16, 24, 32)[i % 3]
        generator = SyntheticIEEGGenerator(
            n_electrodes, SynthesisParams(fs=fs), seed=1000 + i
        )
        recording = generator.generate(
            seconds,
            [
                SeizurePlan(seconds * 0.3, 20.0),
                SeizurePlan(seconds * 0.75, 20.0),
            ],
        )
        detector = LaelapsDetector(
            n_electrodes,
            LaelapsConfig(dim=dim, fs=fs, seed=3 + i, backend=backend),
        )
        onset = seconds * 0.3
        detector.fit(
            recording.data,
            TrainingSegments(
                ictal=((onset, onset + 20.0),),
                interictal=(seconds * 0.05, seconds * 0.05 + 30.0),
            ),
        )
        detector.tune_tr(
            recording.data[: int((onset + 30.0) * fs)],
            [(onset, onset + 20.0)],
        )
        patient_id = f"patient-{i:02d}"
        detectors[patient_id] = detector
        signals[patient_id] = recording.data
    return detectors, signals


def _cmd_sessions(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.sessions import StreamSessionManager

    fs = 256.0
    duration = args.seconds
    print(
        f"training {args.patients} patient models "
        f"(d={args.dim}, {args.backend} backend) ..."
    )
    detectors, signals = _train_demo_fleet(
        args.patients, duration, args.dim, args.backend, fs
    )
    manager = StreamSessionManager()
    for patient_id, detector in detectors.items():
        manager.open(patient_id, detector)
    chunk = int(fs // 2)  # one 0.5 s block per tick, as served live
    print(
        f"streaming {args.patients} concurrent sessions "
        f"({duration:.0f} s each, 0.5 s ticks, shared batched sweeps) ..."
    )
    start = time.perf_counter()
    events = manager.run(signals, chunk)
    elapsed = time.perf_counter() - start
    n_windows = sum(len(v) for v in events.values())
    for patient_id in sorted(events):
        alarms = [e.time_s for e in events[patient_id] if e.alarm]
        print(
            f"  {patient_id}: {len(events[patient_id])} windows, alarms at "
            f"{np.round(alarms, 1).tolist()} s "
            f"(true onsets {duration * 0.3:.0f} s trained, "
            f"{duration * 0.75:.0f} s unseen)"
        )
    print(
        f"\n[{n_windows} windows across {args.patients} sessions in "
        f"{elapsed:.2f} s = {n_windows / max(elapsed, 1e-9):,.0f} windows/s]"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import tempfile

    import numpy as np

    from repro.serve import ShardedStreamGateway

    fs = 256.0
    duration = args.seconds
    print(
        f"training {args.patients} patient models "
        f"(d={args.dim}, {args.backend} backend) ..."
    )
    detectors, signals = _train_demo_fleet(
        args.patients, duration, args.dim, args.backend, fs
    )
    chunk = int(fs // 2)
    half = int(duration * 0.5 * fs)
    print(
        f"serving {args.patients} sessions on {args.workers} "
        f"{args.mode} workers (0.5 s ticks) ..."
    )
    start = time.perf_counter()
    gateway = ShardedStreamGateway(args.workers, mode=args.mode)
    for patient_id, detector in detectors.items():
        gateway.open(patient_id, detector)
    for worker_id, sessions in sorted(gateway.shard_map().items()):
        print(f"  shard {worker_id}: {len(sessions)} sessions")
    events = gateway.run(
        {sid: sig[:half] for sid, sig in signals.items()}, chunk
    )
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        gateway.checkpoint(checkpoint_dir)
        gateway.shutdown()
        restored = ShardedStreamGateway.restore(
            checkpoint_dir, n_workers=args.workers + 1, mode=args.mode
        )
    print(
        f"mid-stream fleet checkpoint -> restored onto "
        f"{args.workers + 1} workers, streams resume bit-exactly ..."
    )
    with restored:
        second = restored.run(
            {sid: sig[half:] for sid, sig in signals.items()}, chunk
        )
    for patient_id, new_events in second.items():
        events[patient_id].extend(new_events)
    elapsed = time.perf_counter() - start
    n_windows = sum(len(v) for v in events.values())
    for patient_id in sorted(events):
        alarms = [e.time_s for e in events[patient_id] if e.alarm]
        print(
            f"  {patient_id}: {len(events[patient_id])} windows, alarms at "
            f"{np.round(alarms, 1).tolist()} s "
            f"(true onsets {duration * 0.3:.0f} s trained, "
            f"{duration * 0.75:.0f} s unseen)"
        )
    print(
        f"\n[{n_windows} windows across {args.patients} sessions / "
        f"{args.workers} shards in {elapsed:.2f} s = "
        f"{n_windows / max(elapsed, 1e-9):,.0f} windows/s]"
    )
    return 0


def _cmd_serve_http(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.serve import ShardedStreamGateway
    from repro.serve.gateway import FLEET_MANIFEST
    from repro.serve.service import run_service

    checkpoint_dir = (
        Path(args.checkpoint_dir) if args.checkpoint_dir else None
    )
    if (
        checkpoint_dir is not None
        and (checkpoint_dir / FLEET_MANIFEST).exists()
    ):
        print(f"restoring fleet from checkpoint {checkpoint_dir} ...")
        gateway = ShardedStreamGateway.restore(
            checkpoint_dir, n_workers=args.workers, mode=args.mode
        )
    else:
        gateway = ShardedStreamGateway(args.workers, mode=args.mode)
        if args.patients:
            print(
                f"training {args.patients} demo patient models "
                f"(d={args.dim}, {args.backend} backend) ..."
            )
            detectors, _ = _train_demo_fleet(
                args.patients, args.seconds, args.dim, args.backend, 256.0
            )
            for patient_id, detector in detectors.items():
                gateway.open(patient_id, detector)
    print(
        f"serving {len(gateway)} sessions on {args.workers} {args.mode} "
        f"workers; GET /healthz and /metrics on the same port; "
        "SIGTERM drains"
        + (f" to a checkpoint in {checkpoint_dir}" if checkpoint_dir else "")
        + " (bound address in the 'service listening' log line)"
    )
    return run_service(
        gateway,
        host=args.host,
        port=args.port,
        checkpoint_dir=checkpoint_dir,
    )


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.evaluation.benchrec import (
        BenchRecordError,
        read_record,
        render_comparison,
        write_record,
    )
    from repro.serve.loadgen import (
        LOAD_RECORD_NAME,
        LoadConfig,
        run_load_test,
    )

    baseline = None
    if args.check:  # refuse a bad baseline before the run, not after
        try:
            baseline = read_record(args.check)
        except BenchRecordError as exc:
            print(f"loadtest --check: {exc}", file=sys.stderr)
            return 2
        if baseline.name != LOAD_RECORD_NAME:
            print(
                f"loadtest --check: {args.check} is a {baseline.name!r} "
                f"record, not a {LOAD_RECORD_NAME!r} one",
                file=sys.stderr,
            )
            return 2
    config = LoadConfig(
        n_sessions=args.sessions,
        dim=args.dim,
        n_ticks=args.ticks,
        rate=args.rate,
        n_workers=args.workers,
        mode=args.mode,
        backend=args.backend,
        native_threads=args.native_threads,
        transport=args.transport,
    )
    report = run_load_test(config, progress=print)
    metrics = report.metrics
    table = render_table(
        ["Metric", "Value"],
        [[name, metrics[name]] for name in sorted(metrics)],
        title=(
            f"Load test: {args.sessions} sessions x {args.ticks} ticks on "
            f"{args.workers} {args.mode} workers ({report.engine})"
        ),
        precision=3,
    )
    print(table)
    if args.out:
        path = write_record(report.record(), args.out)
        print(f"\nbenchmark record written to {path}")
    if baseline is not None:
        print()
        print(render_comparison(baseline, report.record()))
        print("(deltas are report-only; see docs/benchmarking.md)")
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    from repro.hdc.engine import (
        AUTO_ENGINE,
        engine_capabilities,
        engine_names,
        resolve_engine_name,
    )

    caps = engine_capabilities(args.dim)
    rows = [
        [
            cap["name"],
            cap["window_form"],
            cap["width_at_dim"],
            "yes" if cap["available"] else "no",
            cap["summary"],
        ]
        for cap in caps
    ]
    table = render_table(
        ["Engine", "Window form", f"width@d={args.dim}", "Avail",
         "Capabilities"],
        rows,
        title="Registered compute engines (LaelapsConfig.backend values)",
    )
    print(table)
    for cap in caps:
        if not cap["available"]:
            print(
                f"\n'{cap['name']}' is unavailable on this host: "
                f"{cap['unavailable_reason']}"
            )
    for alias in backend_choices():
        if alias not in engine_names() and alias != AUTO_ENGINE:
            print(
                f"\n'{alias}' is a retired name kept for old models and "
                f"checkpoints; it resolves to '{resolve_engine_name(alias)}'."
            )
    print(
        f"\n'{AUTO_ENGINE}' resolves to "
        f"'{resolve_engine_name(AUTO_ENGINE)}' on this host; all engines "
        f"produce bit-identical labels and confidence scores."
    )
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.hw.energy import electrode_scaling

    sweep = electrode_scaling()
    counts = [e.n_electrodes for e in next(iter(sweep.values()))]
    rows = []
    for method, estimates in sweep.items():
        rows.append(
            [method] + [e.time_ms for e in estimates]
        )
    table = render_table(
        ["Method"] + [f"{n}e [ms]" for n in counts],
        rows,
        title="Sec. V-C scaling: time per classification vs electrode count",
        precision=1,
    )
    print(table)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis import lint_paths, load_baseline

    baseline = None
    baseline_path = args.baseline
    if baseline_path is None:
        if Path(LINT_DEFAULT_BASELINE).exists():
            baseline_path = LINT_DEFAULT_BASELINE
    elif not Path(baseline_path).exists():
        print(f"baseline file not found: {baseline_path}", file=sys.stderr)
        return 2
    if baseline_path is not None:
        baseline = load_baseline(baseline_path)
    result = lint_paths(args.paths, baseline=baseline)
    if args.format == "json":
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(result.render_text())
    return result.exit_code


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.data.outofcore import (
        CohortSpec,
        MemberSpec,
        default_member_plans,
        generate_cohort,
    )
    from repro.data.synthetic import SynthesisParams

    try:
        channels = tuple(int(c) for c in args.channels.split(","))
    except ValueError:
        print(f"--channels must be a comma list of integers, got "
              f"{args.channels!r}", file=sys.stderr)
        return 2
    duration_s = args.minutes * 60.0
    try:
        plans = default_member_plans(duration_s, args.seizures)
        spec = CohortSpec(
            args.name,
            tuple(
                MemberSpec(f"m{ch:04d}", ch, duration_s, plans, seed=ch)
                for ch in channels
            ),
            params=SynthesisParams(fs=args.fs),
            seed=args.seed,
        )
        start = time.perf_counter()
        cohort = generate_cohort(spec, args.out,
                                 chunk_samples=args.chunk_samples)
    except ValueError as exc:
        print(f"synth: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    rows = [
        [
            member.member_id,
            member.n_electrodes,
            f"{member.duration_s / 60.0:.1f}",
            member.n_samples,
            len(member.seizures),
            f"{member.path.stat().st_size / 1e6:,.1f}",
        ]
        for member in cohort
    ]
    print(render_table(
        ["Member", "Channels", "Minutes", "Samples", "Seizures", "MB"],
        rows,
        title=(
            f"Cohort '{cohort.name}' @ {cohort.fs:g} Hz, seed "
            f"{cohort.seed} -> {args.out}"
        ),
    ))
    print(
        f"\n{len(rows)} member(s) synthesised in {elapsed:.1f} s; the "
        "manifest round-trips through load_cohort() — open members with "
        "repro.data.outofcore.open_member()."
    )
    return 0


def _args_table1(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", type=float, default=720.0,
                   help="duration scale divisor (default 720: 1 h -> 5 s)")
    p.add_argument("--fs", type=float, default=256.0)
    p.add_argument("--dim", type=int, default=1_000)
    p.add_argument("--methods", default="laelaps,svm,cnn,lstm")
    p.add_argument("--backend", choices=backend_choices(),
                   default=UNPACKED_ENGINE,
                   help="Laelaps compute engine (bit-exact on every "
                        "engine; see `repro backends`)")
    p.add_argument("--verbose", action="store_true")


def _args_fig3(p: argparse.ArgumentParser) -> None:
    p.add_argument("--electrodes", type=int, default=64)


def _args_backends(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, default=10_000,
                   help="dimension for the reported window widths")


def _args_sessions(p: argparse.ArgumentParser) -> None:
    p.add_argument("--patients", type=int, default=6,
                   help="number of concurrent patient streams")
    p.add_argument("--seconds", type=float, default=120.0,
                   help="synthetic recording length per patient")
    p.add_argument("--dim", type=int, default=2_000)
    p.add_argument("--backend", choices=backend_choices(),
                   default="auto",
                   help="compute engine of the demo detectors")


def _args_serve(p: argparse.ArgumentParser) -> None:
    p.add_argument("--patients", type=int, default=6,
                   help="number of concurrent patient streams")
    p.add_argument("--workers", type=int, default=2,
                   help="shard worker pool size")
    p.add_argument("--mode", choices=("inline", "process"),
                   default="process",
                   help="shard transport (inline = single process)")
    p.add_argument("--seconds", type=float, default=120.0,
                   help="synthetic recording length per patient")
    p.add_argument("--dim", type=int, default=2_000)
    p.add_argument("--backend", choices=backend_choices(),
                   default="auto",
                   help="compute engine of the demo detectors")


def _args_serve_http(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (loopback by default)")
    p.add_argument("--port", type=int, default=0,
                   help="bind port (0 = ephemeral; the bound port is in "
                        "the 'service listening' log line)")
    p.add_argument("--workers", type=int, default=2,
                   help="shard worker pool size")
    p.add_argument("--mode", choices=("inline", "process"),
                   default="process",
                   help="shard transport (inline = single process)")
    p.add_argument("--checkpoint-dir", metavar="DIR",
                   help="drain checkpoint target; restored from on start "
                        "when it already holds a fleet manifest")
    p.add_argument("--patients", type=int, default=0,
                   help="pre-train this many demo patient sessions "
                        "(0 = start empty; clients open sessions over "
                        "the wire)")
    p.add_argument("--seconds", type=float, default=120.0,
                   help="synthetic recording length per demo patient")
    p.add_argument("--dim", type=int, default=2_000)
    p.add_argument("--backend", choices=backend_choices(),
                   default="auto",
                   help="compute engine of the demo detectors")


def _args_loadtest(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sessions", type=int, default=64,
                   help="concurrent patient sessions")
    p.add_argument("--workers", type=int, default=2,
                   help="shard worker pool size")
    p.add_argument("--mode", choices=("inline", "process"),
                   default="inline",
                   help="shard transport (inline = single process)")
    p.add_argument("--ticks", type=int, default=40,
                   help="measured steady-state ticks")
    p.add_argument("--dim", type=int, default=2_000)
    p.add_argument("--rate", type=float, default=0.0,
                   help="tick pacing as a multiple of real time "
                        "(0 = as fast as possible)")
    p.add_argument("--backend", choices=backend_choices(),
                   default="auto",
                   help="compute engine of the served models")
    p.add_argument("--native-threads", type=int, default=0,
                   help="packed-native kernel threads per worker "
                        "(REPRO_NATIVE_THREADS; 0 = engine default)")
    p.add_argument("--transport", choices=("direct", "socket"),
                   default="direct",
                   help="tick path: in-process gateway calls, or the "
                        "asyncio service over loopback TCP")
    p.add_argument("--out", metavar="PATH",
                   help="write the run as a benchrec JSON record")
    p.add_argument("--check", metavar="BASELINE",
                   help="compare against an earlier --out record "
                        "(report-only deltas)")


def _args_synth(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, metavar="DIR",
                   help="cohort directory (memmap members + manifest.json)")
    p.add_argument("--channels", default="64",
                   help="comma list of electrode counts; one disk-backed "
                        "member per count (default 64)")
    p.add_argument("--minutes", type=float, default=10.0,
                   help="recording length per member (default 10)")
    p.add_argument("--seizures", type=int, default=2,
                   help="evenly placed clinical seizures per member")
    p.add_argument("--seed", type=int, default=0,
                   help="cohort seed (members derive per-member streams)")
    p.add_argument("--fs", type=float, default=256.0)
    p.add_argument("--name", default="synth", help="cohort name")
    p.add_argument("--chunk-samples", type=int, default=None,
                   metavar="N",
                   help="generation chunk size; output is bit-identical "
                        "for every choice (default: ~32 MB of buffer)")


def _args_lint(p: argparse.ArgumentParser) -> None:
    p.add_argument("paths", nargs="*", default=list(LINT_DEFAULT_PATHS),
                   help="files/directories to lint "
                        f"(default: {' '.join(LINT_DEFAULT_PATHS)})")
    p.add_argument("--baseline", metavar="FILE",
                   help="sanctioned-findings file (default: "
                        f"{LINT_DEFAULT_BASELINE} when present)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (json is the schema-versioned "
                        "machine envelope)")


@dataclass(frozen=True)
class CommandSpec:
    """One sub-command: the single source the parser and tests share."""

    name: str
    help: str
    handler: Callable[[argparse.Namespace], int]
    configure: Callable[[argparse.ArgumentParser], None] | None = None


#: Every sub-command, in ``--help`` display order.  Add commands here —
#: ``main`` wires the registry into argparse and ``tests/test_cli.py``
#: asserts help/error output against :func:`command_names`.
COMMANDS: tuple[CommandSpec, ...] = (
    CommandSpec("table1", "per-patient detection results",
                _cmd_table1, _args_table1),
    CommandSpec("table2", "TX2 time/energy per classification", _cmd_table2),
    CommandSpec("fig3", "FDR vs energy scatter (64 electrodes)",
                _cmd_fig3, _args_fig3),
    CommandSpec("scaling", "electrode-count scaling sweep", _cmd_scaling),
    CommandSpec("backends",
                "list registered compute engines (capabilities, word layout)",
                _cmd_backends, _args_backends),
    CommandSpec("sessions",
                "multi-patient stream-serving demo (batched sweeps)",
                _cmd_sessions, _args_sessions),
    CommandSpec("serve",
                "sharded multi-worker serving demo (checkpoint + rebalance)",
                _cmd_serve, _args_serve),
    CommandSpec("serve-http",
                "network service over a gateway (/healthz, /metrics, "
                "SIGTERM drain)",
                _cmd_serve_http, _args_serve_http),
    CommandSpec("loadtest",
                "load-test the sharded gateway (latency SLO harness)",
                _cmd_loadtest, _args_loadtest),
    CommandSpec("synth",
                "synthesise a disk-backed (out-of-core) iEEG cohort",
                _cmd_synth, _args_synth),
    CommandSpec("lint",
                "run the project's static-analysis contract rules",
                _cmd_lint, _args_lint),
)


def command_names() -> tuple[str, ...]:
    """Registered sub-command names, ``--help`` display-ordered."""
    return tuple(spec.name for spec in COMMANDS)


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-laelaps``."""
    parser = argparse.ArgumentParser(
        prog="repro-laelaps",
        description=(
            "Regenerate the tables and figures of the Laelaps paper and "
            "run the serving demos"
        ),
        epilog=(
            "Run `repro <command> --help` for per-command options; see "
            "docs/ for the architecture, paper map and serving guides."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                title="commands")
    for spec in COMMANDS:
        p = sub.add_parser(spec.name, help=spec.help)
        if spec.configure is not None:
            spec.configure(p)
        p.set_defaults(func=spec.handler)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `... | head`); the
        # conventional CLI response is a quiet exit.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
