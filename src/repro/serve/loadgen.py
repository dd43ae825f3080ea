"""Load harness for the sharded gateway: SLO-grade latency numbers.

Opens many concurrent patient sessions against a
:class:`~repro.serve.ShardedStreamGateway`, drives every session with a
:class:`~repro.data.synthetic.ClockedEEGSource` (live chunked synthesis
with stochastic seizure injection — traffic is non-stationary, like
production), and measures the numbers every speed/scale claim about the
serving stack should run through:

* **tick latency** — p50/p99/p99.9 of every measured tick, timed by
  the harness with ``time.perf_counter()`` around the transport's
  ``push_many``;
* **sustained throughput** — windows classified per wall second across
  the whole fleet;
* **backpressure onset** — the offered load (queued chunks per drain
  cycle) at which the first :class:`~repro.serve.Backpressure` raise
  appears;
* **elasticity recovery** — wall time of a ``remove_worker`` /
  ``add_worker`` cycle, including the ticks until tick latency settles
  back to its pre-disruption baseline.

Ticks run as fast as the gateway allows by default; a ``rate`` > 0
paces them at that multiple of real time (``rate=1`` is one 0.5 s tick
per 0.5 s wall — the live deployment shape).

``transport="socket"`` drives the same steady-state phase through the
network front end (:mod:`repro.serve.service`) instead of calling the
gateway in-process: chunks are serialised over a real TCP connection,
so the same clock that times the gateway call in direct mode times
serialisation and the wire too.  The backpressure and elasticity
probes need direct gateway access and are skipped in socket mode.
The harness never resets or reads the gateway's
:class:`~repro.serve.gateway.TickStats`: a load test against a live
gateway only adds to its monotonic ``/metrics`` counters.

Results convert to the versioned benchmark-record schema
(:mod:`repro.evaluation.benchrec`) via :meth:`LoadReport.record`, which
is how ``repro loadtest --out`` writes a record and ``--check`` reads
one back.  This is the operator's probe of a deployment shape; the
repo's timing harness is ``perfbench/`` (its serve-fleet and
serve-wire workloads drive the same tick loop), and the harness
invariants live in ``tests/serve/test_loadgen.py``.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable

from repro.core.config import LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.core.training import TrainingSegments
from repro.data.synthetic import (
    ClockedEEGSource,
    SeizurePlan,
    SynthesisParams,
    SyntheticIEEGGenerator,
)
from repro.evaluation.benchrec import (
    BenchRecord,
    current_git_sha,
    machine_fingerprint,
)
from repro.serve.gateway import Backpressure, ShardedStreamGateway

#: Harness name of every load-test benchmark record.
LOAD_RECORD_NAME = "load_slo"

#: Latency percentiles the harness reports, as (metric suffix, p) pairs.
LATENCY_PERCENTILES = (("p50", 50.0), ("p99", 99.0), ("p99_9", 99.9))


def nearest_rank_percentile(samples, p: float) -> float:
    """Exact nearest-rank percentile (no interpolation).

    The smallest sample x such that at least ``p`` percent of the
    samples are <= x — the conventional definition for latency SLOs,
    where an interpolated value that no request actually experienced
    would be misleading.

    Args:
        samples: Non-empty sequence of numbers.
        p: Percentile in [0, 100].  ``p=0`` returns the minimum.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("cannot take a percentile of no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    rank = math.ceil(p / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def min_samples_for_percentile(p: float) -> int:
    """Fewest samples for which nearest-rank ``p`` is below the max.

    With fewer samples, ``nearest_rank_percentile(samples, p)`` can only
    return the maximum — the tail percentile is degenerate, not
    measured.  E.g. p99 needs 100 samples, p99.9 needs 1001; the load
    bench warns when a run's ``n_ticks`` is below this.
    """
    if not 0 <= p < 100:
        raise ValueError(f"percentile must be in [0, 100), got {p}")
    # Smallest n >= 2 with rank(p, n) < n, probed with the exact float
    # arithmetic of nearest_rank_percentile (the closed form
    # ceil(100 / (100 - p)) can be off by one at e.g. p = 99.9).
    n = max(2, math.ceil(100.0 / (100.0 - p)) - 1)
    while math.ceil(p / 100.0 * n) >= n:
        n += 1
    return n


def latency_summary_ms(latencies_s) -> dict:
    """SLO summary of a latency log: percentiles, mean and max, in ms."""
    summary = {
        f"tick_latency_{suffix}_ms":
            nearest_rank_percentile(latencies_s, p) * 1e3
        for suffix, p in LATENCY_PERCENTILES
    }
    summary["tick_latency_mean_ms"] = (
        sum(latencies_s) / len(latencies_s) * 1e3
    )
    summary["tick_latency_max_ms"] = max(latencies_s) * 1e3
    return summary


@dataclass(frozen=True)
class LoadConfig:
    """Shape of one load-test run.

    Attributes:
        n_sessions: Concurrent patient sessions to open.
        n_electrodes: Electrode count of every session.
        dim: Hypervector dimension of the served models.
        fs: Sampling rate of the live sources, Hz.
        tick_s: Seconds of signal per tick (0.5 s = one label period).
        n_ticks: Measured steady-state ticks.
        warmup_ticks: Unmeasured leading ticks (fill encoder buffers).
        rate: Tick pacing as a multiple of real time; 0 = as fast as
            the gateway allows (the throughput-probing mode).
        n_workers: Gateway worker-pool size.
        mode: Gateway transport, ``"inline"`` or ``"process"``.
        max_pending: Gateway per-session submit-queue bound.
        backend: Compute engine of the served detectors.
        seed: Master seed (models and every live source derive from it).
        seizure_rate_per_min: Injected-seizure rate per session stream.
        n_templates: Distinct detector models cycled across sessions
            (training cost stays O(templates), not O(sessions)).
        native_threads: Kernel threads per worker for the
            ``packed-native`` engine (``REPRO_NATIVE_THREADS``),
            exported to the environment before workers spawn so
            N workers x M threads is explicit; 0 keeps the default.
        transport: ``"direct"`` calls the gateway in-process (the
            default);
            ``"socket"`` runs every tick through the asyncio service
            over a loopback TCP connection, measuring the full network
            data plane (backpressure/elasticity probes are skipped —
            they need direct gateway access).
    """

    n_sessions: int = 64
    n_electrodes: int = 16
    dim: int = 2_000
    fs: float = 256.0
    tick_s: float = 0.5
    n_ticks: int = 40
    warmup_ticks: int = 4
    rate: float = 0.0
    n_workers: int = 2
    mode: str = "inline"
    max_pending: int = 8
    backend: str = "auto"
    seed: int = 0
    seizure_rate_per_min: float = 2.0
    n_templates: int = 4
    native_threads: int = 0
    transport: str = "direct"

    def __post_init__(self) -> None:
        if self.n_sessions < 1:
            raise ValueError(f"n_sessions must be >= 1, got {self.n_sessions}")
        if self.n_ticks < 1:
            raise ValueError(f"n_ticks must be >= 1, got {self.n_ticks}")
        if self.warmup_ticks < 0:
            raise ValueError("warmup_ticks must be >= 0")
        if self.rate < 0:
            raise ValueError(f"rate must be >= 0, got {self.rate}")
        if self.mode not in ("inline", "process"):
            raise ValueError(f"mode must be inline or process, got "
                             f"{self.mode!r}")
        if self.n_templates < 1:
            raise ValueError("n_templates must be >= 1")
        if self.native_threads < 0:
            raise ValueError(
                f"native_threads must be >= 0, got {self.native_threads}"
            )
        if self.transport not in ("direct", "socket"):
            raise ValueError(
                f"transport must be direct or socket, got {self.transport!r}"
            )

    @property
    def chunk_samples(self) -> int:
        """Samples delivered per tick per session."""
        return max(1, int(round(self.tick_s * self.fs)))


@dataclass(frozen=True)
class LoadReport:
    """Everything one load-test run measured.

    ``metrics`` is the flat dict that enters the benchmark record; the
    measured ticks' latencies ride along for callers that want more
    than the summary percentiles.
    """

    config: LoadConfig
    engine: str
    latencies_s: tuple
    events_per_session: dict
    metrics: dict = field(default_factory=dict)

    @property
    def dropped_sessions(self) -> int:
        """Sessions that produced no events during the measured phase."""
        return int(self.metrics.get("dropped_sessions", -1))

    def record(self, name: str = LOAD_RECORD_NAME) -> BenchRecord:
        """This run as a versioned benchmark record."""
        return BenchRecord(
            name=name,
            machine=machine_fingerprint(),
            git_sha=current_git_sha(),
            engine=self.engine,
            config=asdict(self.config),
            metrics=dict(self.metrics),
        )


def _train_templates(config: LoadConfig) -> list[LaelapsDetector]:
    """A few fitted detector models to cycle across the fleet's sessions.

    Each template trains one-shot on a short synthetic recording with a
    planned seizure, so the served prototypes are real models of the
    traffic family the clocked sources emit — not random bit patterns.
    """
    templates = []
    for i in range(min(config.n_templates, config.n_sessions)):
        detector = LaelapsDetector(
            config.n_electrodes,
            LaelapsConfig(
                dim=config.dim,
                fs=config.fs,
                seed=config.seed + 101 * i,
                backend=config.backend,
                tc=6,
            ),
        )
        generator = SyntheticIEEGGenerator(
            config.n_electrodes,
            SynthesisParams(fs=config.fs),
            seed=config.seed + 977 * i,
        )
        recording = generator.generate(46.0, [SeizurePlan(32.0, 12.0)])
        detector.fit(
            recording.data,
            TrainingSegments(ictal=((32.0, 44.0),), interictal=(1.0, 31.0)),
        )
        templates.append(detector)
    return templates


class _DirectTransport:
    """In-process tick transport: the gateway called directly."""

    def __init__(self, gateway: ShardedStreamGateway) -> None:
        self.gateway = gateway

    def push_many(self, chunks):
        return self.gateway.push_many(chunks)

    def close(self) -> None:
        self.gateway.shutdown()


class _SocketTransport:
    """Network tick transport: the asyncio service over loopback TCP.

    Owns a :class:`~repro.serve.service.ServiceRunner` (which in turn
    owns the gateway) and one :class:`~repro.serve.service.ServiceClient`
    connection; a tick's latency is its client round trip.
    """

    def __init__(self, gateway: ShardedStreamGateway) -> None:
        import logging

        from repro.serve.service import (
            ServiceClient,
            ServiceRunner,
            service_logger,
        )

        # WARNING level: a load test would otherwise drown stderr in
        # per-session open/close log lines.
        self.runner = ServiceRunner(
            gateway, logger=service_logger(level=logging.WARNING)
        )
        host, port = self.runner.start()
        self.client = ServiceClient(host, port)

    def push_many(self, chunks):
        return self.client.push_many(chunks)

    def close(self) -> None:
        self.client.close()
        self.runner.stop(drain=False)


class LoadGenerator:
    """Drives one load-test run end to end (see module docstring)."""

    def __init__(self, config: LoadConfig) -> None:
        self.config = config

    def _session_ids(self) -> list[str]:
        return [f"s{i:05d}" for i in range(self.config.n_sessions)]

    def _build_sources(self) -> dict[str, ClockedEEGSource]:
        config = self.config
        return {
            session_id: ClockedEEGSource(
                config.n_electrodes,
                config.fs,
                seed=config.seed + 13 * i + 7,
                seizure_rate_per_min=config.seizure_rate_per_min,
            )
            for i, session_id in enumerate(self._session_ids())
        }

    def _build_gateway(
        self, templates: list[LaelapsDetector]
    ) -> ShardedStreamGateway:
        config = self.config
        gateway = ShardedStreamGateway(
            config.n_workers,
            mode=config.mode,
            max_pending=config.max_pending,
        )
        try:
            for i, session_id in enumerate(self._session_ids()):
                gateway.open(session_id, templates[i % len(templates)])
        except Exception:
            gateway.shutdown()
            raise
        return gateway

    def run(
        self, progress: Callable[[str], None] | None = None
    ) -> LoadReport:
        """Execute the full run: steady state, backpressure, elasticity."""
        config = self.config
        say = progress or (lambda message: None)
        if config.native_threads:
            # Export the thread knob before anything spawns: forked and
            # spawned shard workers both inherit the environment, so
            # this one call sizes every worker's kernel pool.
            from repro.hdc.native import configure_native_threads

            configure_native_threads(config.native_threads)
            say(f"native kernel threads pinned to {config.native_threads} "
                f"per worker")
        say(f"training {min(config.n_templates, config.n_sessions)} "
            f"template models (d={config.dim}, {config.backend})")
        templates = _train_templates(config)
        engine = templates[0].engine.name
        say(f"opening {config.n_sessions} sessions on {config.n_workers} "
            f"{config.mode} workers")
        gateway = self._build_gateway(templates)
        if config.transport == "socket":
            say("socket transport: ticks travel the network data plane")
            transport = _SocketTransport(gateway)
        else:
            transport = _DirectTransport(gateway)
        sources = self._build_sources()
        try:
            metrics, latencies, counts = self._steady_state(
                transport, sources, say
            )
            if config.transport == "socket":
                say("socket transport: backpressure/elasticity probes "
                    "skipped (they need direct gateway access)")
            else:
                metrics["backpressure_onset_chunks"] = float(
                    self._probe_backpressure(gateway, sources)
                )
                metrics["max_pending"] = float(config.max_pending)
                if config.n_workers >= 2:
                    metrics.update(
                        self._probe_worker_cycle(
                            gateway, sources, latencies, say
                        )
                    )
        finally:
            transport.close()
        return LoadReport(
            config=config,
            engine=engine,
            latencies_s=tuple(latencies),
            events_per_session=dict(counts),
            metrics=metrics,
        )

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _tick(self, transport, sources, counts=None) -> float:
        """Push one chunk per session; return the tick's latency (s).

        The clock brackets ``transport.push_many`` alone, so chunk
        synthesis is never timed and the socket transport's latency
        includes serialisation and the wire.
        """
        chunks = {
            session_id: source.next_chunk(self.config.chunk_samples)
            for session_id, source in sources.items()
        }
        started = time.perf_counter()
        events = transport.push_many(chunks)
        latency_s = time.perf_counter() - started
        if counts is not None:
            for session_id, session_events in events.items():
                counts[session_id] += len(session_events)
        return latency_s

    def _steady_state(self, transport, sources, say):
        config = self.config
        top_suffix, top_p = LATENCY_PERCENTILES[-1]
        needed = min_samples_for_percentile(top_p)
        if config.n_ticks < needed:
            warnings.warn(
                f"n_ticks={config.n_ticks} cannot resolve the "
                f"{top_suffix} tick-latency tail (nearest-rank p{top_p} "
                f"needs >= {needed} samples); the top percentiles will "
                f"degenerate to the maximum",
                RuntimeWarning,
                stacklevel=2,
            )
        say(f"warmup: {config.warmup_ticks} ticks")
        for _ in range(config.warmup_ticks):
            self._tick(transport, sources)
        counts = {session_id: 0 for session_id in sources}
        latencies = []
        interval = config.tick_s / config.rate if config.rate > 0 else 0.0
        say(f"measuring {config.n_ticks} ticks"
            + (f" at {config.rate:g}x real time" if interval else
               " (unpaced)"))
        started = time.perf_counter()
        for _ in range(config.n_ticks):
            tick_started = time.perf_counter()
            latencies.append(self._tick(transport, sources, counts))
            if interval:
                remaining = interval - (time.perf_counter() - tick_started)
                if remaining > 0:
                    time.sleep(remaining)
        measured_s = time.perf_counter() - started
        metrics = latency_summary_ms(latencies)
        metrics["sessions"] = float(config.n_sessions)
        metrics["ticks"] = float(config.n_ticks)
        metrics["throughput_windows_per_s"] = (
            sum(counts.values()) / measured_s
        )
        metrics["ticks_per_s"] = config.n_ticks / measured_s
        metrics["dropped_sessions"] = float(
            sum(1 for count in counts.values() if count == 0)
        )
        return metrics, latencies, counts

    def _probe_backpressure(self, gateway, sources) -> int:
        """Offered load (chunks queued per drain cycle) at first raise.

        Sweeps the per-cycle offered load upward: at each multiple m,
        every probed session submits m chunks, then one drain services
        them.  The first m that raises :class:`Backpressure` is the
        onset; with a bounded queue of ``max_pending`` and one drain
        per cycle the expected onset is ``max_pending + 1``, so a lower
        number signals queueing regressions.  Returns 0 if no raise
        happened within twice the queue bound (the queue is effectively
        unbounded — itself a finding).
        """
        config = self.config
        probed = dict(list(sources.items())[: min(8, len(sources))])
        for offered in range(1, 2 * config.max_pending + 2):
            try:
                for _ in range(offered):
                    for session_id, source in probed.items():
                        gateway.submit(
                            session_id,
                            source.next_chunk(config.chunk_samples),
                        )
            except Backpressure:
                gateway.drain()
                return offered
            gateway.drain()
        return 0

    def _probe_worker_cycle(self, gateway, sources, baseline, say) -> dict:
        """Remove a worker, recover, add one back, recover — timed."""
        baseline_p50_s = nearest_rank_percentile(baseline, 50.0)
        routes = {
            session_id: gateway.worker_of(session_id)
            for session_id in gateway.session_ids
        }
        say("elasticity probe: remove_worker / add_worker cycle")
        cycle_started = time.perf_counter()
        victim = gateway.worker_ids[-1]
        moved = gateway.remove_worker(victim)
        remove_s = time.perf_counter() - cycle_started
        remove_recovery_ticks = self._ticks_until_recovered(
            gateway, sources, baseline_p50_s
        )
        add_started = time.perf_counter()
        gateway.add_worker()
        add_s = time.perf_counter() - add_started
        moved_back = sum(
            1
            for session_id, worker_id in routes.items()
            if gateway.worker_of(session_id) != worker_id
        )
        add_recovery_ticks = self._ticks_until_recovered(
            gateway, sources, baseline_p50_s
        )
        return {
            "rebalance_remove_s": remove_s,
            "rebalance_add_s": add_s,
            "migrated_on_remove": float(len(moved)),
            "migrated_on_add": float(moved_back),
            "recovery_ticks_after_remove": float(remove_recovery_ticks),
            "recovery_ticks_after_add": float(add_recovery_ticks),
            "worker_cycle_recovery_s": time.perf_counter() - cycle_started,
        }

    def _ticks_until_recovered(
        self,
        gateway,
        sources,
        baseline_p50_s: float,
        window: int = 3,
        max_ticks: int = 50,
    ) -> int:
        """Ticks until median latency re-enters the recovery envelope.

        Recovered means: the median of the last ``window`` tick
        latencies is within 2x the steady-state p50 (plus a 2 ms
        absolute allowance for timer noise at sub-millisecond ticks).
        Returns ``max_ticks`` when the envelope is never re-entered —
        a saturated post-disruption fleet shows up as the cap, not as
        an infinite loop.
        """
        threshold = max(2.0 * baseline_p50_s, baseline_p50_s + 0.002)
        recent: list[float] = []
        for tick in range(1, max_ticks + 1):
            recent.append(self._tick(gateway, sources))
            last = recent[-window:]
            if len(last) == window:
                if nearest_rank_percentile(last, 50.0) <= threshold:
                    return tick
        return max_ticks


def run_load_test(
    config: LoadConfig, progress: Callable[[str], None] | None = None
) -> LoadReport:
    """Convenience wrapper: one :class:`LoadGenerator` run."""
    return LoadGenerator(config).run(progress)
