"""The sharded serving gateway: one front door, many shard workers.

:class:`ShardedStreamGateway` is the fleet-scale layer above
:class:`~repro.core.sessions.StreamSessionManager`.  Sessions are
partitioned across a pool of workers by consistent hashing on
``session_id`` (:mod:`repro.serve.hashing`); each worker runs its own
manager and classifies each tick's accumulated chunks as one grouped
packed sweep, so the per-tick cost per worker stays one XOR+popcount
sweep regardless of how many of its sessions received data.  Events
returned through the gateway are bit-identical to driving a single
in-process manager (property-tested over ragged chunkings and mixed
electrode counts/compute engines — every engine hands the shard's
sweep the same packed H vectors) — sharding, like batching, is a pure
transport optimisation.

The gateway adds three things a bare manager does not have:

* **backpressure** — :meth:`ShardedStreamGateway.submit` parks chunks
  in a bounded per-session queue and raises :class:`Backpressure` when
  a producer outruns :meth:`ShardedStreamGateway.drain`;
* **elasticity** — :meth:`ShardedStreamGateway.add_worker` /
  :meth:`ShardedStreamGateway.remove_worker` rebalance mid-run by
  migrating only the sessions whose ring arc changed, bit-exactly;
* **fleet checkpointing** — :meth:`ShardedStreamGateway.checkpoint`
  writes one :func:`~repro.core.persistence.save_sessions` shard per
  worker plus a manifest, and
  :meth:`ShardedStreamGateway.restore` resumes the fleet on *any*
  worker count.

Opened, migrated and restored sessions all enter a shard one way: as a
``{"model", "state"}`` payload through :meth:`ShardedStreamGateway.admit`.
"""

from __future__ import annotations

import secrets
import time
import types
from bisect import bisect_left
from collections import deque
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.core.detector import LaelapsDetector
from repro.core.persistence import (
    detector_payload,
    read_fleet_manifest,
    read_sessions,
    write_fleet_manifest,
)
from repro.core.sessions import run_lockstep, validate_chunk
from repro.core.streaming import StreamEvent
from repro.serve.hashing import HashRing
from repro.serve.metrics import LATENCY_BUCKET_BOUNDS_S
from repro.serve.worker import (
    DEFAULT_POLL_TIMEOUT_S,
    InlineShardWorker,
    ProcessShardWorker,
    WorkerError,
)

#: Name of the manifest file inside a fleet checkpoint directory.
FLEET_MANIFEST = "fleet.json"

# Read-only on purpose: this module is forked into shard workers, so a
# plain dict here would become a divergent per-process copy (RPR004).
_WORKER_CLASSES = types.MappingProxyType({
    "inline": InlineShardWorker,
    "process": ProcessShardWorker,
})


class Backpressure(RuntimeError):
    """A session's pending-chunk queue is full; drain before submitting."""


class TickStats:
    """Monotonic tick counters of one gateway (the ``/metrics`` source).

    Every completed tick (:meth:`ShardedStreamGateway.push_many` round,
    including each round of a :meth:`ShardedStreamGateway.drain`)
    adds its session count, returned-window count and wall latency
    here.  Nothing is kept per tick and nothing is ever reset: the
    latency histogram is one count per
    :data:`~repro.serve.metrics.LATENCY_BUCKET_BOUNDS_S` bucket plus
    the latency sum, so a scrape costs the same after a day of ticks
    as after one, and every counter only counts up from gateway start.
    """

    def __init__(self) -> None:
        self.ticks = 0
        self.windows = 0
        self.sessions_ticked = 0
        #: ``bucket_counts[i]``: ticks with ``bounds[i - 1] < latency <=
        #: bounds[i]``; ticks above the last bound count only in ``ticks``.
        self.bucket_counts = [0] * len(LATENCY_BUCKET_BOUNDS_S)
        self.latency_sum_s = 0.0

    def record(
        self, latency_s: float, n_sessions: int, n_windows: int
    ) -> None:
        """Count one completed tick."""
        self.ticks += 1
        self.windows += n_windows
        self.sessions_ticked += n_sessions
        self.latency_sum_s += latency_s
        bucket = bisect_left(LATENCY_BUCKET_BOUNDS_S, latency_s)
        if bucket < len(self.bucket_counts):
            self.bucket_counts[bucket] += 1


class ShardedStreamGateway:
    """Routes patient-stream sessions across a pool of shard workers.

    Args:
        n_workers: Initial worker-pool size (>= 1).
        mode: ``"inline"`` (in-process shards, deterministic reference)
            or ``"process"`` (one child process per shard, parallel
            ticks).
        max_pending: Bound of each session's submit queue; the
            backpressure threshold.
        replicas: Virtual ring points per worker (see
            :class:`~repro.serve.hashing.HashRing`).
        poll_timeout_s: Reply deadline of every process-worker command;
            a silent worker raises a typed
            :class:`~repro.serve.worker.WorkerDiedError` /
            :class:`~repro.serve.worker.WorkerTimeoutError` instead of
            blocking the gateway forever.

    The gateway owns each session's model from :meth:`open` onwards
    (the detector is exported by value to its shard), and supports use
    as a context manager — ``with ShardedStreamGateway(...) as gw:`` —
    to guarantee worker shutdown.
    """

    def __init__(
        self,
        n_workers: int = 2,
        *,
        mode: str = "inline",
        max_pending: int = 8,
        replicas: int = 64,
        poll_timeout_s: float = DEFAULT_POLL_TIMEOUT_S,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if mode not in _WORKER_CLASSES:
            raise ValueError(
                f"mode must be one of {sorted(_WORKER_CLASSES)}, got {mode!r}"
            )
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self._mode = mode
        self._max_pending = max_pending
        self._poll_timeout_s = poll_timeout_s
        self._workers: dict[str, InlineShardWorker | ProcessShardWorker] = {}
        self._ring = HashRing(replicas=replicas)
        self._routes: dict[str, str] = {}
        self._queues: dict[str, deque[np.ndarray]] = {}
        self._electrodes: dict[str, int] = {}
        self._dim: int | None = None
        self._next_worker = 0
        #: Monotonic tick counters (see :class:`TickStats`).
        self.tick_stats = TickStats()
        for _ in range(n_workers):
            self.add_worker()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._routes

    def __enter__(self) -> "ShardedStreamGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    @property
    def mode(self) -> str:
        """The worker transport: ``"inline"`` or ``"process"``."""
        return self._mode

    @property
    def dim(self) -> int | None:
        """Shared hypervector dimension (None while no session is open)."""
        return self._dim

    @property
    def session_ids(self) -> list[str]:
        """Open session ids in insertion order."""
        return list(self._routes)

    @property
    def worker_ids(self) -> list[str]:
        """Worker names in creation order."""
        return list(self._workers)

    def worker_of(self, session_id: str) -> str:
        """The worker currently serving ``session_id``."""
        return self._route(session_id)

    def shard_map(self) -> dict[str, list[str]]:
        """Sessions grouped by worker (every worker listed, maybe empty)."""
        shards: dict[str, list[str]] = {w: [] for w in self._workers}
        for session_id, worker_id in self._routes.items():
            shards[worker_id].append(session_id)
        return shards

    def pending(self, session_id: str) -> int:
        """Chunks queued for ``session_id`` awaiting :meth:`drain`."""
        self._route(session_id)
        return len(self._queues[session_id])

    def ping_workers(self) -> dict[str, dict]:
        """Liveness round-trip to every worker (the ``/healthz`` probe).

        Each worker answers the ``ping`` shard command; a dead or hung
        process worker surfaces as ``alive: False`` with its typed
        error's message instead of an exception, so one sick shard
        cannot take the health endpoint down with it.

        Returns:
            Per worker: ``{"alive": bool, "latency_s": float,
            "error": str | None}``.
        """
        report: dict[str, dict] = {}
        for worker_id, worker in list(self._workers.items()):
            started = time.perf_counter()
            try:
                worker.request("ping", {})
            except (WorkerError, RuntimeError, OSError) as exc:
                report[worker_id] = {
                    "alive": False,
                    "latency_s": time.perf_counter() - started,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            else:
                report[worker_id] = {
                    "alive": True,
                    "latency_s": time.perf_counter() - started,
                    "error": None,
                }
        return report

    def _round(self, requests: dict[str, tuple[str, dict]]) -> dict:
        """Dispatch every worker's command, then collect every reply.

        With process workers the shards run concurrently.  Every
        dispatched worker is collected even when one fails — an unread
        reply would wedge that worker for good — and the first failure
        is re-raised afterwards.
        """
        dispatched: list[str] = []
        first_error: Exception | None = None
        for worker_id, (op, payload) in requests.items():
            try:
                self._workers[worker_id].dispatch(op, payload)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                first_error = exc
                break
            dispatched.append(worker_id)
        replies = {}
        for worker_id in dispatched:
            try:
                replies[worker_id] = self._workers[worker_id].collect()
            except Exception as exc:  # noqa: BLE001 - first one wins
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return replies

    def _route(self, session_id: str) -> str:
        try:
            return self._routes[session_id]
        except KeyError:
            raise KeyError(f"no open session {session_id!r}") from None

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------

    def add_worker(self) -> str:
        """Add one worker and migrate the sessions its arcs capture.

        Returns:
            The new worker's id.
        """
        name = f"w{self._next_worker}"
        self._next_worker += 1
        self._workers[name] = _WORKER_CLASSES[self._mode](
            name, poll_timeout_s=self._poll_timeout_s
        )
        self._ring.add(name)
        self._rebalance()
        return name

    def remove_worker(self, worker_id: str) -> list[str]:
        """Drain a worker out of the pool, migrating its sessions away.

        Returns:
            The ids of the sessions that moved (bit-exactly, mid-stream)
            to surviving workers.

        Raises:
            KeyError: If ``worker_id`` is unknown.
            ValueError: If it is the last worker of the pool.
        """
        if worker_id not in self._workers:
            raise KeyError(f"no worker {worker_id!r}")
        if len(self._workers) == 1:
            raise ValueError("cannot remove the last worker of the pool")
        self._ring.remove(worker_id)
        moved = self._rebalance()
        worker = self._workers.pop(worker_id)
        worker.stop()
        return moved

    def _rebalance(self) -> list[str]:
        """Move every session whose ring assignment changed (bit-exact)."""
        moved = []
        for session_id, old_worker in list(self._routes.items()):
            new_worker = self._ring.assign(session_id)
            if new_worker == old_worker:
                continue
            payload = self._workers[old_worker].request(
                "pop", {"id": session_id}
            )
            self._workers[new_worker].request(
                "import", {"id": session_id, "session": payload}
            )
            self._routes[session_id] = new_worker
            moved.append(session_id)
        return moved

    def shutdown(self) -> None:
        """Stop every worker and forget all sessions (not a checkpoint)."""
        for worker in self._workers.values():
            worker.stop()
        self._workers.clear()
        self._routes.clear()
        self._queues.clear()
        self._electrodes.clear()
        self._dim = None

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def open(self, session_id: str, detector: LaelapsDetector) -> str:
        """Open a session, shipping the fitted detector to its shard.

        Args:
            session_id: Unique session key; also the routing key.
            detector: A fitted detector.  Exported by value — later
                mutations of the caller's object do not reach the shard.

        Returns:
            The id of the worker now serving the session.
        """
        return self.admit(
            session_id, {"model": detector_payload(detector), "state": None}
        )

    def admit(self, session_id: str, payload: dict) -> str:
        """Route a ``{"model", "state"}`` payload to its shard, open it.

        A ``state`` of ``None`` opens a fresh stream.  The shard's
        ``import_session`` rebuilds and checks the model; a payload it
        refuses leaves no route.  Returns the serving worker's id.
        """
        if session_id in self._routes:
            raise ValueError(f"session {session_id!r} is already open")
        model = payload["model"]
        dim = int(model["config"]["dim"])
        if self._dim is not None and dim != self._dim:
            raise ValueError(
                f"session dimension {dim} does not match the fleet's "
                f"shared dimension {self._dim}"
            )
        n_electrodes = int(model["n_electrodes"])
        worker_id = self._ring.assign(session_id)
        self._workers[worker_id].request(
            "import", {"id": session_id, "session": payload}
        )
        self._routes[session_id] = worker_id
        self._queues[session_id] = deque()
        self._electrodes[session_id] = n_electrodes
        self._dim = dim
        return worker_id

    def close(self, session_id: str) -> None:
        """Drop a session and its shard-side state.

        Raises:
            RuntimeError: If the session still has queued chunks —
                :meth:`drain` first, or the data would be lost silently.
        """
        worker_id = self._route(session_id)
        if self._queues[session_id]:
            raise RuntimeError(
                f"session {session_id!r} has "
                f"{len(self._queues[session_id])} queued chunks; drain() "
                "before closing"
            )
        self._workers[worker_id].request("close", {"id": session_id})
        del self._routes[session_id]
        del self._queues[session_id]
        del self._electrodes[session_id]
        if not self._routes:
            self._dim = None

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------

    def push(self, session_id: str, chunk) -> list[StreamEvent]:
        """Push one chunk into one session (see :meth:`push_many`)."""
        return self.push_many({session_id: chunk})[session_id]

    def push_many(self, chunks: Mapping[str, np.ndarray]) -> dict[str, list[StreamEvent]]:
        """Advance many sessions one tick, one grouped sweep per worker.

        Chunks are validated up front (an invalid entry fails the whole
        tick before any session consumes data, as in the single
        manager), grouped by shard, and dispatched to every involved
        worker before the first reply is collected — with process
        workers the shards encode and classify concurrently.

        A *worker-side* failure (which gateway-side validation should
        make unreachable) is re-raised after every dispatched worker
        has been collected, so the gateway stays serviceable; the
        failing tick's events are lost on shards that had already
        consumed it.

        Returns:
            Per-session event lists, bit-identical to a single
            :class:`~repro.core.sessions.StreamSessionManager` fed the
            same ticks.

        Raises:
            RuntimeError: If any pushed session still has chunks queued
                via :meth:`submit` — pushing past them would reorder
                the stream's samples; :meth:`drain` first.
        """
        backed_up = [s for s in chunks if self._queues.get(s)]
        if backed_up:
            raise RuntimeError(
                f"sessions {backed_up} have queued chunks; drain() before "
                "pushing more data, or the stream would be reordered"
            )
        return self._push_tick(chunks)

    def _push_tick(
        self, chunks: Mapping[str, np.ndarray]
    ) -> dict[str, list[StreamEvent]]:
        """The unguarded tick path shared by :meth:`push_many`/:meth:`drain`."""
        tick_start = time.perf_counter()
        per_worker: dict[str, dict[str, np.ndarray]] = {}
        for session_id in chunks:
            worker_id = self._route(session_id)
            arr = validate_chunk(
                session_id, chunks[session_id], self._electrodes[session_id]
            )
            per_worker.setdefault(worker_id, {})[session_id] = arr
        events: dict[str, list[StreamEvent]] = {}
        for shard_events in self._round({
            worker_id: ("push_many", {"chunks": shard_chunks})
            for worker_id, shard_chunks in per_worker.items()
        }).values():
            events.update(shard_events)
        self.tick_stats.record(
            time.perf_counter() - tick_start,
            len(chunks),
            sum(len(session_events) for session_events in events.values()),
        )
        return events

    def submit(self, session_id: str, chunk) -> None:
        """Queue a chunk for the next :meth:`drain` (bounded).

        Raises:
            Backpressure: If the session already has ``max_pending``
                queued chunks — the producer must back off (or the
                consumer must drain) before more data is accepted.
        """
        self._route(session_id)
        arr = validate_chunk(session_id, chunk, self._electrodes[session_id])
        queue = self._queues[session_id]
        if len(queue) >= self._max_pending:
            raise Backpressure(
                f"session {session_id!r} has {len(queue)} pending chunks "
                f"(max_pending={self._max_pending})"
            )
        # Deferred consumption: the caller may reuse or mutate its chunk
        # buffer before drain() runs, so the queue must own a copy.
        queue.append(arr.copy())

    def drain(self) -> dict[str, list[StreamEvent]]:
        """Flush every queued chunk through the shards, in order.

        Each round forms one tick from the head chunk of every backed-up
        session and pushes it through the shards, preserving each
        session's chunk order (and therefore bit-exactness).

        Like :meth:`push_many`, a worker-side failure mid-drain is
        lossy: rounds completed before the failure have already
        advanced the shard-side streams, and their events do not reach
        the caller (the exception propagates instead).

        Returns:
            Accumulated events per session that had queued chunks.
        """
        events: dict[str, list[StreamEvent]] = {
            session_id: []
            for session_id, queue in self._queues.items()
            if queue
        }
        while True:
            tick = {
                session_id: queue.popleft()
                for session_id, queue in self._queues.items()
                if queue
            }
            if not tick:
                return events
            # _push_tick, not push_many: the chunks popped this round
            # are ahead of whatever is still queued, by construction.
            for session_id, new_events in self._push_tick(tick).items():
                events[session_id].extend(new_events)

    def run(
        self, signals: Mapping[str, np.ndarray], chunk_samples: int
    ) -> dict[str, list[StreamEvent]]:
        """Stream whole recordings through the fleet in lockstep ticks.

        Mirror of :meth:`StreamSessionManager.run`: every tick delivers
        the next ``chunk_samples`` of each signal (exhausted sessions
        stop receiving), so all traffic flows through the sharded sweep.
        """
        for session_id in signals:
            self._route(session_id)
        return run_lockstep(self.push_many, signals, chunk_samples)

    # ------------------------------------------------------------------
    # Fleet checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self, directory: str | Path) -> Path:
        """Snapshot the whole fleet into ``directory``.

        Each worker writes its shard with
        :func:`~repro.core.persistence.save_sessions` (with process
        workers, shard files are written concurrently by the children)
        as ``shard-{worker}-{token}.npz``, then the gateway replaces the
        manifest.  The set is atomic: a failure before the manifest is
        replaced deletes this checkpoint's shards, and a success deletes
        the shards the new manifest does not name.

        Returns:
            The manifest path (``fleet.json``).

        Raises:
            ValueError: If no sessions are open.
            RuntimeError: If any session has queued chunks (drain
                first — queued raw data is not part of a checkpoint).
        """
        if not self._routes:
            raise ValueError("cannot checkpoint a fleet with no open sessions")
        backed_up = [s for s, q in self._queues.items() if q]
        if backed_up:
            raise RuntimeError(
                f"sessions {backed_up} have queued chunks; drain() before "
                "checkpointing"
            )
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        # A fresh random token, not a counter: a counter restarts with a
        # restored fleet and could overwrite the shards it restored from.
        token = secrets.token_hex(4)
        paths = {
            worker_id: directory / f"shard-{worker_id}-{token}.npz"
            for worker_id, sessions in self.shard_map().items()
            if sessions
        }
        try:
            self._round({
                worker_id: ("checkpoint", {"path": str(path)})
                for worker_id, path in paths.items()
            })
            manifest = write_fleet_manifest(
                directory / FLEET_MANIFEST,
                shards={worker_id: path.name
                        for worker_id, path in paths.items()},
                routes=self._routes,
                dim=self._dim,
            )
        except BaseException:
            for path in paths.values():
                path.unlink(missing_ok=True)
            raise
        for path in directory.glob("shard-*.npz"):
            if path not in paths.values():
                path.unlink(missing_ok=True)
        return manifest

    @classmethod
    def restore(
        cls,
        directory: str | Path,
        *,
        n_workers: int | None = None,
        mode: str = "inline",
        max_pending: int = 8,
        replicas: int = 64,
    ) -> "ShardedStreamGateway":
        """Resume a :meth:`checkpoint` fleet, on any worker count.

        Every :func:`~repro.core.persistence.read_sessions` payload is
        :meth:`admit`-ted through the new gateway's ring — the worker
        count and transport are free to differ from the checkpointing
        fleet's; subsequent events are bit-identical either way.

        Args:
            directory: A fleet checkpoint directory (or its manifest).
            n_workers: Pool size of the restored fleet; defaults to the
                number of shards in the checkpoint.
        """
        directory = Path(directory)
        if directory.name == FLEET_MANIFEST:
            directory = directory.parent
        manifest = read_fleet_manifest(directory / FLEET_MANIFEST)
        if n_workers is None:
            n_workers = max(len(manifest["shards"]), 1)
        gateway = cls(
            n_workers, mode=mode, max_pending=max_pending, replicas=replicas
        )
        try:
            for shard_file in manifest["shards"].values():
                shard = read_sessions(directory / shard_file)
                for session_id, payload in shard.items():
                    gateway.admit(session_id, payload)
        except Exception:
            gateway.shutdown()
            raise
        return gateway
