"""The four benchmark workloads and how each one is measured.

Every workload follows the same protocol:

1. **Inputs.**  Everything the program receives is generated from the
   seed before any clock starts: recordings (the high-channel one
   written to a memmap cohort on disk), template training recordings,
   and every tick chunk of the serving workloads (pre-rendered from
   per-session :class:`~repro.data.synthetic.ClockedEEGSource` streams
   and replayed in a cycle).
2. **Set-up** (``setup_s``).  Everything until the system can score:
   detector build and ``fit``; for serving also template training,
   gateway and worker spawn, session ``open`` and service start.  It is
   repeated (:func:`set_up`); the median is reported and the last system
   is kept.
3. **Timed phase.**  A closed loop of operations (one recording segment
   or one tick each) for the requested seconds and at least
   :data:`MIN_OPS` operations.  ``windows_per_s`` is windows over wall
   time across the whole phase.  Traced runs trace every
   other operation, so host drift reaches traced and untraced
   operations alike: the per-layer metrics come from the traced ones,
   the end-to-end figures from the rest, and the difference in
   ``windows_per_s`` between the two is the tracing overhead.
4. **Memory** (``peak_mb``).  tracemalloc peak of more operations, in a
   phase of its own so tracemalloc never slows the timings; for
   serving, the median of :data:`PEAK_TICKS` ticks' peaks, because the
   client and service threads interleave their buffers differently
   from tick to tick.
5. **Output check.**  A fixed sample is replayed through the
   ``unpacked`` reference engine and compared exactly (labels,
   distances, alarm times; stream events for serving).  Every mismatch,
   raised operation, typed error, non-200 probe and silent session is
   counted as failed.
"""

from __future__ import annotations

import gc
import logging
import statistics
import threading
import time
import tracemalloc
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from perfbench.tracing import Tracer, per_layer_metrics
from repro.core.config import LaelapsConfig
from repro.core.detector import LaelapsDetector, WindowPredictions
from repro.core.postprocess import PostprocessConfig, Postprocessor
from repro.core.streaming import StreamingLaelaps
from repro.core.training import TrainingSegments, windows_in_segments
from repro.data.model import Patient
from repro.data.outofcore import CohortSpec, MemberSpec, generate_cohort
from repro.data.splits import split_patient
from repro.data.synthetic import (
    ClockedEEGSource,
    SeizurePlan,
    SynthesisParams,
    SyntheticIEEGGenerator,
)
from repro.evaluation import runner
from repro.evaluation.runner import PatientRun, finalize_run, tune_run_tr
from repro.serve.gateway import ShardedStreamGateway
from repro.serve.loadgen import nearest_rank_percentile as nearest_rank
from repro.serve.service import (
    ServiceClient,
    ServiceRunner,
    http_get,
    service_logger,
)

#: Sampling rate of every generated signal, Hz.
FS = 256.0
#: Set-up runs at least ``SETUP_REPEATS`` times and until ``SETUP_MIN_S``
#: of set-up time has been measured (at most ``SETUP_MAX_REPEATS``
#: times), so a cheap set-up gets more samples for its median.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
SETUP_MAX_REPEATS = 7
#: Untimed operations before the timed phase: first-touch allocations
#: and, for serving, encoder buffers that fill before the first window.
WARMUP_OPS = 2
WARMUP_TICKS = 4
#: Fewest measured operations per run: the tail percentile reported
#: (p75) then has at least ten samples beyond it.
MIN_OPS = 40

#: Gated end-to-end metrics every workload reports, with their units.
#: Operation latency percentiles are printed but not gated: on a shared
#: host a run's median operation flips between the host's fast and slow
#: spells (see :attr:`Phase.windows_per_s`).
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("windows_per_s", "windows/s"),
    ("peak_mb", "MB"),
)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` holds the end-to-end metrics (value, unit);
    ``report`` adds the workload-specific figures that are printed but
    not gated (tick p90, healthz, checkpoint, detection quality, ...).
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed


@dataclass
class Phase:
    """One measured run of the operation loop.

    ``latencies_s`` and ``windows`` cover the untraced operations;
    traced ones only add to the ``traced_*`` totals.
    """

    t0: float = 0.0
    t1: float = 0.0
    ops: int = 0
    failed: int = 0
    windows: int = 0
    latencies_s: list[float] = field(default_factory=list)
    traced_ops: list[tuple[float, float]] = field(default_factory=list)
    traced_windows: int = 0
    traced_s: float = 0.0

    @property
    def windows_per_s(self) -> float:
        """Untraced windows per wall second over the whole phase (less
        traced operations' time; work between operations, such as a
        checkpoint, counts).

        A ratio of totals because the host alternates between fast and
        slow spells lasting seconds: a median (of blocks or of
        operations) flips between the two whenever a run spends about
        half its time in each, while the ratio moves only in proportion.
        """
        wall = self.t1 - self.t0 - self.traced_s
        return self.windows / wall if wall > 0 else 0.0


class OpLoop:
    """Closed-loop driver of a workload's operation ``op(i) -> windows``.

    The operation index keeps counting across phases.  With a
    ``tracer`` set, every odd-numbered operation runs with the tracer
    installed.  ``between`` runs after an operation, inside the phase's
    wall time but outside the operation's latency (the fleet checkpoint
    of ``serve-wire``).
    """

    def __init__(
        self,
        op: Callable[[int], int],
        between: Callable[[int], None] = lambda index: None,
    ) -> None:
        self.op = op
        self.between = between
        self.next_index = 0
        self.tracer: Tracer | None = None

    def run(
        self,
        seconds: float,
        min_ops: int,
        until: Callable[[int], bool] = lambda index: True,
    ) -> Phase:
        """Run until ``seconds`` passed, ``min_ops`` ran and ``until``."""
        gc.collect()
        phase = Phase()
        clock = time.perf_counter
        phase.t0 = clock()
        deadline = phase.t0 + seconds
        while (
            clock() < deadline
            or phase.ops < min_ops
            or not until(self.next_index)
        ):
            index = self.next_index
            self.next_index += 1
            tracer = self.tracer if index % 2 else None
            if tracer is not None:
                tracer.op = index
                tracer.install()
            started = clock()
            try:
                windows = self.op(index)
            except Exception:  # noqa: BLE001 - counted, the loop goes on
                phase.failed += 1
                if tracer is not None:
                    phase.traced_s += clock() - started
            else:
                elapsed = clock() - started
                if tracer is None:
                    phase.latencies_s.append(elapsed)
                    phase.windows += windows
                else:
                    phase.traced_ops.append((started, started + elapsed))
                    phase.traced_windows += windows
                    phase.traced_s += elapsed
            finally:
                if tracer is not None:
                    tracer.uninstall()
            phase.ops += 1
            self.between(index)
        phase.t1 = clock()
        return phase


def measure(
    loop: OpLoop,
    seconds: float,
    trace: bool,
    until: Callable[[int], bool] = lambda index: True,
) -> tuple[Phase, Tracer | None]:
    """The timed phase, every other operation traced when ``trace``."""
    loop.tracer = Tracer() if trace else None
    phase = loop.run(seconds, MIN_OPS, until)
    tracer, loop.tracer = loop.tracer, None
    return phase, tracer


def set_up(build: Callable[[], object],
           close: Callable[[object], None] = lambda system: None
           ) -> tuple[list[float], object]:
    """Build the system repeatedly; return the set-up times and the last."""
    times: list[float] = []
    system = None
    while len(times) < SETUP_REPEATS or (
        sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS
    ):
        if system is not None:
            close(system)
        gc.collect()
        elapsed, system = timed(build)
        times.append(elapsed)
    return times, system


def timed(fn: Callable[[], object]) -> tuple[float, object]:
    started = time.perf_counter()
    value = fn()
    return time.perf_counter() - started, value


def peak_of(op: Callable[[], object]) -> int:
    """tracemalloc peak (bytes) of one call, in a phase of its own."""
    gc.collect()
    tracemalloc.start()
    try:
        op()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def finish(
    outcome: Outcome,
    measured: Phase,
    setup_s: list[float],
    peak_bytes: int,
) -> None:
    """Fill the end-to-end metrics of a measured phase."""
    latencies = measured.latencies_s or [float("nan")]
    outcome.metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "windows_per_s": (measured.windows_per_s, "windows/s"),
        "peak_mb": (peak_bytes / 1e6, "MB"),
    }
    outcome.report["ops"] = (float(len(measured.latencies_s)), "count")
    outcome.report["op_p50_ms"] = (nearest_rank(latencies, 50) * 1e3, "ms")
    outcome.report["op_p75_ms"] = (nearest_rank(latencies, 75) * 1e3, "ms")
    if len(measured.latencies_s) >= 100:
        outcome.report["op_p90_ms"] = (nearest_rank(latencies, 90) * 1e3, "ms")
    outcome.count(measured.ops, measured.failed)


def traced_layers(
    outcome: Outcome,
    phase: Phase,
    tracer: Tracer | None,
    extra: dict[str, float],
) -> None:
    """Per-layer metrics of the traced operations (no-op untraced)."""
    if tracer is None:
        return
    outcome.tracer = tracer
    untraced_s = sum(phase.latencies_s)
    if phase.traced_s > 0 and phase.windows > 0:
        extra["trace.overhead_frac"] = 1.0 - (
            phase.traced_windows / phase.traced_s
        ) / (phase.windows / untraced_s)
    outcome.layers = per_layer_metrics(
        tracer, ops=phase.traced_ops, extra=extra
    )


# ----------------------------------------------------------------------
# Offline workloads: one patient scored segment by segment
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OfflineConfig:
    """Shape of an offline (whole-recording) workload.

    Attributes:
        n_electrodes, dim: Patient and model shape.
        duration_s: Recording length.
        seizures: ``(onset_s, duration_s)`` of each planned seizure.
        windows_per_op: Analysis windows per operation (one segment).
        split: Keyword arguments of ``split_patient``.
        chunk_samples: None keeps the recording in memory and scores each
            segment with one batch ``predict``; a value writes it as a
            memmap cohort member and scores through the streamed path in
            blocks of that many samples (the out-of-core shape).
        check_s: Seconds at the start of each span replayed through
            the reference engine.
        peak_s: Seconds of the test span scored for ``peak_mb``.
    """

    n_electrodes: int
    dim: int
    duration_s: float
    seizures: tuple[tuple[float, float], ...]
    windows_per_op: int
    split: tuple[tuple[str, float], ...] = ()
    chunk_samples: int | None = None
    check_s: float = 30.0
    peak_s: float = 30.0


def _patient(config: OfflineConfig, seed: int, workdir: Path) -> Patient:
    plans = tuple(SeizurePlan(on, dur) for on, dur in config.seizures)
    params = SynthesisParams(fs=FS)
    if config.chunk_samples is None:
        recording = SyntheticIEEGGenerator(
            config.n_electrodes, params, seed=seed
        ).generate(config.duration_s, list(plans))
        return Patient(patient_id="bench", recording=recording)
    spec = CohortSpec(
        "bench",
        (MemberSpec("m0", config.n_electrodes, config.duration_s, plans,
                    seed=seed),),
        params=params,
        seed=seed,
    )
    return generate_cohort(spec, workdir / "cohort").member("m0").patient()


def segment_bounds(
    n_samples: int, step: int, margin: int, per_op: int
) -> list[tuple[int, int, int]]:
    """Aligned ``(start, stop, n_windows)`` segments of one span.

    Segment ``i`` holds exactly the samples that windows
    ``[k0, k0 + n_windows)`` of the whole span read (the window's two
    blocks plus the LBP margin), so scoring the segments one by one
    yields the span's window stream, bit for bit.
    """
    total = max(0, (n_samples - margin) // step - 1)
    return [
        (k0 * step, min(n_samples, (k0 + m + 1) * step + margin), m)
        for k0 in range(0, total, per_op)
        for m in (min(per_op, total - k0),)
    ]


def _concat(parts, detector: LaelapsDetector) -> WindowPredictions:
    labels = np.concatenate([p.labels for p in parts])
    return WindowPredictions(
        labels=labels,
        distances=np.concatenate([p.distances for p in parts], axis=0),
        deltas=np.concatenate([p.deltas for p in parts]),
        times=detector.window_times(labels.shape[0]),
    )


def run_offline(
    config: OfflineConfig, seed: int, seconds: float, trace: bool,
    workdir: Path,
) -> Outcome:
    outcome = Outcome()
    patient = _patient(config, seed, workdir)
    split = split_patient(patient, **dict(config.split))
    recording = patient.recording
    train_rec = recording.slice_time(0.0, split.train_span_s[1])
    test_rec = recording.slice_time(split.train_span_s[1], recording.duration_s)
    spans = {"train": train_rec, "test": test_rec}
    fits: list[float] = []

    def build(backend: str = "auto") -> LaelapsDetector:
        detector = LaelapsDetector(
            config.n_electrodes,
            LaelapsConfig(dim=config.dim, fs=FS, backend=backend),
        )
        fit_s, _ = timed(
            lambda: detector.fit(train_rec.data, split.training_segments)
        )
        fits.append(fit_s)
        return detector

    setup_s, detector = set_up(build)

    # Looked up on the module at call time, so the tracer's wrappers
    # are the ones called.
    def score(signal):
        if config.chunk_samples is None:
            return runner.predict_windows(detector, signal)
        return runner.predict_windows_streamed(
            detector, signal, config.chunk_samples
        )

    segments = [
        (name, start, stop, n)
        for name, rec in spans.items()
        for start, stop, n in segment_bounds(
            rec.data.shape[0], detector.config.window_spec.step_samples,
            detector.symbolizer.margin, config.windows_per_op,
        )
    ]
    first_pass: list = [None] * len(segments)

    def op(index: int) -> int:
        position = index % len(segments)
        name, start, stop, n = segments[position]
        preds = score(spans[name].data[start:stop])
        if len(preds) != n:
            raise RuntimeError(f"segment gave {len(preds)} windows, not {n}")
        if index < len(segments):
            first_pass[position] = preds
        return n

    loop = OpLoop(op)
    warmup = loop.run(0.0, WARMUP_OPS)
    outcome.count(warmup.ops, warmup.failed)
    # The first full pass over both spans always completes: it is what
    # detection quality and the output check read.
    measured, tracer = measure(
        loop, seconds, trace, until=lambda index: index >= len(segments)
    )
    peak = peak_of(lambda: score(test_rec.data[:int(config.peak_s * FS)]))
    outcome.count(1)
    finish(outcome, measured, setup_s, peak)
    traced_layers(outcome, measured, tracer,
                  {"core.detector.fit_s": statistics.median(fits)})
    if any(p is None for p in first_pass):  # a segment's op raised
        return outcome

    # Detection quality, as run_patient + the t_r tuning report it.
    preds = {
        name: _concat(
            [p for p, seg in zip(first_pass, segments) if seg[0] == name],
            detector,
        )
        for name in spans
    }
    run = PatientRun(
        patient_id=patient.patient_id,
        method="laelaps",
        n_electrodes=patient.n_electrodes,
        train_preds=preds["train"],
        train_truth=windows_in_segments(
            preds["train"].times,
            [(s.onset_s, s.offset_s + detector.window_s)
             for s in train_rec.seizures],
            window_s=0.0,
        ),
        test_preds=preds["test"],
        test_seizures=test_rec.seizures,
        test_duration_s=test_rec.duration_s,
    )
    tr = tune_run_tr(run)
    quality = finalize_run(run, tr).metrics
    outcome.report.update({
        "sensitivity": (quality.sensitivity, "ratio"),
        "false_alarms_per_h": (quality.fdr_per_hour, "1/h"),
        "detection_delay_s": (quality.mean_delay_s, "s"),
        "tuned_tr": (tr, "delta"),
    })

    # Output check against the unpacked reference engine.
    reference = build("unpacked")
    outcome.count(1, int(not all(
        np.array_equal(detector.memory.prototype(label),
                       reference.memory.prototype(label))
        for label in (0, 1)
    )))
    post = Postprocessor(PostprocessConfig(tr=tr))
    for name, rec in spans.items():
        expected = runner.predict_windows(
            reference, rec.data[:int(config.check_s * FS)]
        )
        n = len(expected)
        got = preds[name]
        outcome.count(n, mismatches(
            got.labels[:n], got.distances[:n], expected.labels,
            expected.distances,
        ))
        got_alarms = got.times[post.onsets(got.labels[:n], got.deltas[:n])]
        want_alarms = expected.times[post.onsets(expected.labels,
                                                 expected.deltas)]
        outcome.count(max(len(want_alarms), 1),
                      len(set(got_alarms.tolist())
                          ^ set(want_alarms.tolist())))
    return outcome


def mismatches(labels, distances, ref_labels, ref_distances) -> int:
    """Windows whose label or distances differ from the reference."""
    if labels.shape != ref_labels.shape or distances.shape != ref_distances.shape:
        return max(len(ref_labels), 1)
    bad = (labels != ref_labels) | np.any(distances != ref_distances, axis=1)
    return int(bad.sum())


# ----------------------------------------------------------------------
# Serving workloads: many live sessions ticked in a closed loop
# ----------------------------------------------------------------------

#: Samples per session per tick: 0.5 s, one label period.
TICK_SAMPLES = int(0.5 * FS)
#: Distinct pre-rendered ticks, replayed in a cycle (8 s of signal).
POOL_TICKS = 16
#: Fitted models cycled across a fleet's sessions.
N_TEMPLATES = 4
#: Sessions replayed through the reference engine.
CHECK_SESSIONS = 4
#: Ticks whose tracemalloc peaks give a serving workload's ``peak_mb``.
PEAK_TICKS = 8
#: ``serve-wire`` ops: a fleet checkpoint after every this many ticks,
#: an open-loop probe every ``PROBE_INTERVAL_S`` of which every
#: ``METRICS_EVERY``-th is ``GET /metrics`` and the rest ``GET /healthz``.
#: A probe is served between ticks, so it can wait a whole tick (~110
#: ms): probing faster than that makes the one probing connection's
#: backlog grow without bound.
CHECKPOINT_EVERY = 20
PROBE_INTERVAL_S = 0.2
METRICS_EVERY = 10


@dataclass(frozen=True)
class ServeConfig:
    """Shape of a serving workload.

    Attributes:
        n_sessions, n_electrodes, dim: Fleet and model shape.
        wire: Serve through the network service over loopback TCP with
            *process* shard workers, checkpointing and probing the ops
            plane; otherwise call an inline gateway.
        workers: Shard workers of the gateway.
    """

    n_sessions: int
    n_electrodes: int = 16
    dim: int = 2_000
    wire: bool = False
    workers: int = 2


class HealthProber(threading.Thread):
    """Open-loop ops-plane probe: one GET every :data:`PROBE_INTERVAL_S`.

    Latency counts from when each probe was *due*, so a probe stuck
    behind a stalled event loop also charges the probes queued behind
    it; ``lateness_s`` records how late the generator itself sent.
    """

    def __init__(self, host: str, port: int) -> None:
        super().__init__(name="perfbench-prober", daemon=True)
        self.host, self.port = host, port
        self.stop_event = threading.Event()
        #: ``(path, due, latency_s, status, served_s)`` per probe; status
        #: 0 = raised; ``served_s`` is the worker ping time the healthz
        #: body reports, the part of the latency that was not waiting.
        self.probes: list[tuple[str, float, float, int, float]] = []
        self.lateness_s: list[float] = []

    def run(self) -> None:
        started = time.perf_counter()
        index = 0
        while True:
            due = started + index * PROBE_INTERVAL_S
            if self.stop_event.wait(max(0.0, due - time.perf_counter())):
                return
            self.lateness_s.append(time.perf_counter() - due)
            path = ("/metrics" if (index + 1) % METRICS_EVERY == 0
                    else "/healthz")
            served = 0.0
            try:
                status, body = http_get(self.host, self.port, path,
                                        timeout_s=30.0)
                if path == "/healthz":
                    served = sum(worker["latency_s"]
                                 for worker in body["workers"].values())
            except (OSError, ValueError, KeyError):
                status = 0
            self.probes.append(
                (path, due, time.perf_counter() - due, status, served)
            )
            index += 1

    def stop(self) -> None:
        self.stop_event.set()
        self.join(timeout=60.0)


class Fleet:
    """One set-up serving system: templates, gateway, maybe a service."""

    def __init__(self, config: ServeConfig, recordings, seed: int,
                 workdir: Path) -> None:
        self.session_ids = [f"s{i:05d}" for i in range(config.n_sessions)]
        self.checkpoint_dir = workdir / "checkpoint"
        self.fit_s, self.templates = timed(
            lambda: fit_templates(config, recordings, seed, "auto")
        )
        # Workers fork here, before the service starts its thread.
        self.gateway = ShardedStreamGateway(
            config.workers, mode="process" if config.wire else "inline"
        )
        self.runner = self.client = None
        try:
            opener = self.gateway.open
            if config.wire:
                self.runner = ServiceRunner(
                    self.gateway, logger=service_logger(level=logging.WARNING)
                )
                self.address = self.runner.start()
                self.client = ServiceClient(*self.address)
                opener = self.client.open
            for i, session_id in enumerate(self.session_ids):
                opener(session_id, self.templates[i % len(self.templates)])
        except BaseException:
            self.close()
            raise

    def push_many(self, chunks):
        if self.client is not None:
            return self.client.push_many(chunks)
        return self.gateway.push_many(chunks)

    def checkpoint(self) -> None:
        self.client.checkpoint(self.checkpoint_dir)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.runner is not None:
            self.runner.stop(drain=False)
        else:
            self.gateway.shutdown()


def fit_templates(config: ServeConfig, recordings, seed: int, backend: str):
    """The fleet's fitted models (one-shot, on pre-generated recordings)."""
    templates = []
    for i, recording in enumerate(recordings):
        detector = LaelapsDetector(
            config.n_electrodes,
            LaelapsConfig(dim=config.dim, fs=FS, seed=seed + 101 * i,
                          backend=backend, tc=6),
        )
        detector.fit(
            recording.data,
            TrainingSegments(ictal=((32.0, 44.0),), interictal=(1.0, 31.0)),
        )
        templates.append(detector)
    return templates


def serve_inputs(config: ServeConfig, seed: int):
    """Template recordings and the pre-rendered tick pool."""
    recordings = [
        SyntheticIEEGGenerator(
            config.n_electrodes, SynthesisParams(fs=FS), seed=seed + 977 * i,
        ).generate(46.0, [SeizurePlan(32.0, 12.0)])
        for i in range(N_TEMPLATES)
    ]
    sources = {
        f"s{i:05d}": ClockedEEGSource(
            config.n_electrodes, FS, seed=seed + 13 * i + 7,
            seizure_rate_per_min=2.0,
        )
        for i in range(config.n_sessions)
    }
    ticks = [
        {sid: source.next_chunk(TICK_SAMPLES)
         for sid, source in sources.items()}
        for _ in range(POOL_TICKS)
    ]
    return recordings, ticks


def run_serve(
    config: ServeConfig, seed: int, seconds: float, trace: bool,
    workdir: Path,
) -> Outcome:
    outcome = Outcome()
    recordings, ticks = serve_inputs(config, seed)
    fits: list[float] = []

    def build() -> Fleet:
        fleet = Fleet(config, recordings, seed, workdir)
        fits.append(fleet.fit_s)
        return fleet

    setup_s, fleet = set_up(build, Fleet.close)
    checked = fleet.session_ids[:CHECK_SESSIONS]
    pushed: list[int] = []
    received = {sid: [] for sid in checked}
    event_counts = dict.fromkeys(fleet.session_ids, 0)
    checkpoints: list[float] = []

    def tick() -> int:
        k = len(pushed) % len(ticks)
        pushed.append(k)
        events = fleet.push_many(ticks[k])
        for sid in checked:
            received[sid].extend(events.get(sid, ()))
        windows = 0
        for sid, session_events in events.items():
            event_counts[sid] += len(session_events)
            windows += len(session_events)
        return windows

    def between(index: int) -> None:
        if not config.wire or (index + 1) % CHECKPOINT_EVERY:
            return
        try:
            elapsed, _ = timed(fleet.checkpoint)
        except Exception:  # noqa: BLE001 - counted as a failed op
            outcome.count(1, 1)
            return
        checkpoints.append(elapsed)
        outcome.count(1)

    prober = None
    try:
        for _ in range(WARMUP_TICKS):
            tick()
        event_counts = dict.fromkeys(fleet.session_ids, 0)
        if config.wire:
            prober = HealthProber(*fleet.address)
            prober.start()
        try:
            measured, tracer = measure(
                OpLoop(lambda index: tick(), between), seconds, trace
            )
        finally:
            if prober is not None:
                prober.stop()
        peak = statistics.median(peak_of(tick) for _ in range(PEAK_TICKS))
        outcome.count(PEAK_TICKS)
    finally:
        fleet.close()

    finish(outcome, measured, setup_s, peak)
    silent = sum(1 for count in event_counts.values() if count == 0)
    outcome.count(len(event_counts), silent)
    extra = {"core.detector.fit_s": statistics.median(fits)}
    if checkpoints:
        write_s = statistics.median(checkpoints)
        outcome.report["checkpoint_s"] = (write_s, "s")
        extra["core.persistence.write_s"] = write_s
        extra["core.persistence.bytes"] = float(sum(
            path.stat().st_size for path in fleet.checkpoint_dir.iterdir()
        ))
    if prober is not None:
        health_report(outcome, prober, measured, extra)
    traced_layers(outcome, measured, tracer, extra)

    # Output check: replay the checked sessions on the reference engine.
    references = fit_templates(config, recordings, seed, "unpacked")
    for i, sid in enumerate(checked):
        stream = StreamingLaelaps(references[i % len(references)])
        expected = []
        for k in pushed:
            expected.extend(stream.push(ticks[k][sid]))
        got = received[sid]
        bad = sum(
            1 for a, b in zip(got, expected)
            if (a.time_s, a.label, a.delta, a.alarm)
            != (b.time_s, b.label, b.delta, b.alarm)
        ) + abs(len(got) - len(expected))
        outcome.count(max(len(expected), 1), bad)
    return outcome


def health_report(outcome, prober, phase, extra) -> None:
    """healthz latency percentiles, failed probes and the time they waited."""
    probes = [probe for probe in prober.probes
              if probe[0] == "/healthz" and phase.t0 <= probe[1] <= phase.t1]
    latencies = [probe[2] for probe in probes]
    extra["serve.service.healthz_wait_s"] = sum(
        max(0.0, probe[2] - probe[4]) for probe in probes
    )
    outcome.count(len(prober.probes),
                  sum(1 for probe in prober.probes if probe[3] != 200))
    if latencies:
        outcome.report.update({
            "healthz_p50_ms": (nearest_rank(latencies, 50) * 1e3, "ms"),
            "healthz_p90_ms": (nearest_rank(latencies, 90) * 1e3, "ms"),
            "healthz_probes": (float(len(latencies)), "count"),
        })
    if prober.lateness_s:
        outcome.report["prober_late_max_ms"] = (
            max(prober.lateness_s) * 1e3, "ms")


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    config: OfflineConfig | ServeConfig
    runner: Callable[..., Outcome]

    def run(self, seed: int, seconds: float, trace: bool,
            workdir: Path) -> Outcome:
        return self.runner(self.config, seed, seconds, trace, workdir)

    def describe(self) -> dict:
        return {"kind": type(self.config).__name__, **asdict(self.config)}


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("offline-paper", OfflineConfig(
            n_electrodes=32, dim=10_000, duration_s=360.0,
            seizures=((70.0, 20.0), (170.0, 20.0), (280.0, 20.0)),
            windows_per_op=16,
        ), run_offline),
        Workload("offline-highchan", OfflineConfig(
            n_electrodes=1024, dim=1_000, duration_s=100.0,
            seizures=((40.0, 10.0), (75.0, 10.0)),
            split=(("interictal_duration_s", 6.0), ("ictal_max_s", 6.0)),
            windows_per_op=4, chunk_samples=256, check_s=12.0, peak_s=10.0,
        ), run_offline),
        Workload("serve-fleet", ServeConfig(n_sessions=64), run_serve),
        # One process worker: two, with the service beside them, keep
        # both cores of a 2-core host busy, and the tick then swings
        # with anything else the host runs.
        Workload("serve-wire",
                 ServeConfig(n_sessions=64, wire=True, workers=1),
                 run_serve),
    )
}
