"""Shard workers: one :class:`StreamSessionManager` per worker.

A worker owns a subset of the fleet's sessions and executes a small
command vocabulary against its manager — ping, import (the one way in
for a session payload, fresh or mid-stream), pop, close, ``push_many``
(the per-tick grouped sweep over *its* sessions, each session queried
through its own compute engine), and ``checkpoint`` (its shard of a
fleet snapshot, written with
:func:`repro.core.persistence.save_sessions` — session payloads carry
their engine tag, so shards reopen on the engine that wrote them).

Two transports implement the same request/reply protocol:

* :class:`InlineShardWorker` runs the manager in the calling process —
  zero IPC, fully deterministic, the reference for the bit-exactness
  property tests and the right choice for single-core hosts;
* :class:`ProcessShardWorker` runs it in a child process behind a pipe,
  so ticks dispatched to different workers encode and classify in
  parallel.  Command payloads are plain dicts/numpy arrays and pickle
  cheaply; results are bit-identical to the inline transport.

The split ``dispatch``/``collect`` API is what buys the parallelism:
the gateway dispatches one tick to every involved worker first and only
then collects, so child processes overlap their sweeps.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from multiprocessing.connection import Connection

from repro.core.persistence import save_sessions
from repro.core.sessions import StreamSessionManager

#: Default reply deadline of :meth:`ProcessShardWorker.collect`.  A tick
#: is one grouped sweep — tens of milliseconds at paper scale — so a
#: worker silent for this long is dead or wedged, not slow.
DEFAULT_POLL_TIMEOUT_S = 30.0

#: How often a waiting ``collect`` re-checks the child's liveness while
#: polling the pipe, so a killed worker surfaces in ~this time even
#: under a long reply deadline.
_LIVENESS_INTERVAL_S = 0.05


class WorkerError(RuntimeError):
    """A shard worker failed to execute a command (remote traceback)."""


class WorkerDiedError(WorkerError):
    """A shard child process died mid-command (no reply will ever come).

    Raised by :meth:`ProcessShardWorker.collect` instead of blocking
    forever on a pipe whose writer is gone.  Picklable by construction
    (rebuilt from its two constructor arguments), so it can itself
    travel through queues or pipes without wedging a ``recv``.
    """

    def __init__(self, worker_id: str, detail: str) -> None:
        super().__init__(f"shard worker {worker_id} {detail}")
        self.worker_id = worker_id
        self.detail = detail

    def __reduce__(self):
        return (type(self), (self.worker_id, self.detail))


class WorkerTimeoutError(WorkerDiedError):
    """A live shard child did not reply within the poll timeout.

    From the gateway's point of view a hung worker is as gone as a dead
    one — the subclass only records that the process was still alive
    (the command may still complete later, so the worker must not be
    reused without a restart).
    """


class ShardCommandHandler:
    """Executes the shard command vocabulary against one manager.

    Shared by both transports: the inline worker calls :meth:`handle`
    directly, the process worker calls it inside the child's serve
    loop.  Commands mutate only this shard's sessions.
    """

    def __init__(self) -> None:
        self.manager = StreamSessionManager()

    def handle(self, op: str, payload: dict):
        method = getattr(self, f"_op_{op}", None)
        if method is None:
            raise WorkerError(f"unknown shard command {op!r}")
        return method(payload)

    def _op_ping(self, payload: dict) -> str:
        return "pong"

    def _op_import(self, payload: dict) -> None:
        self.manager.import_session(payload["id"], payload["session"])

    def _op_pop(self, payload: dict) -> dict:
        return self.manager.pop_session(payload["id"])

    def _op_close(self, payload: dict) -> None:
        self.manager.close(payload["id"])

    def _op_push_many(self, payload: dict) -> dict:
        return self.manager.push_many(payload["chunks"])

    def _op_checkpoint(self, payload: dict) -> str:
        return str(save_sessions(self.manager, payload["path"]))


class InlineShardWorker:
    """In-process transport: commands run synchronously, no pickling.

    ``poll_timeout_s`` is accepted for constructor parity with
    :class:`ProcessShardWorker` (the gateway builds both through one
    table); an inline command cannot outlive its caller, so the value
    is never consulted.
    """

    def __init__(
        self, name: str, *, poll_timeout_s: float = DEFAULT_POLL_TIMEOUT_S
    ) -> None:
        self.name = name
        self.poll_timeout_s = poll_timeout_s
        self._handler = ShardCommandHandler()
        self._pending = None

    def request(self, op: str, payload: dict):
        """Execute one command and return its result."""
        return self._handler.handle(op, payload)

    def dispatch(self, op: str, payload: dict) -> None:
        """Start one command (inline: runs it immediately)."""
        if self._pending is not None:
            raise RuntimeError(f"worker {self.name}: dispatch already pending")
        self._pending = (True, self._handler.handle(op, payload))

    def collect(self):
        """Return the result of the last :meth:`dispatch`."""
        if self._pending is None:
            raise RuntimeError(f"worker {self.name}: nothing dispatched")
        _, result = self._pending
        self._pending = None
        return result

    def stop(self) -> None:
        """Release the shard (inline: nothing to tear down)."""
        self._pending = None


def _mp_context():
    """Fork where available (cheap, inherits sys.path), else spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        return multiprocessing.get_context("spawn")


def _shard_worker_main(conn: Connection) -> None:
    """Child-process serve loop: recv (op, payload), send (status, value)."""
    handler = ShardCommandHandler()
    while True:
        try:
            op, payload = conn.recv()
        except EOFError:  # gateway died without a stop — just exit
            return
        if op == "stop":
            conn.send(("ok", None))
            return
        try:
            conn.send(("ok", handler.handle(op, payload)))
        except Exception as exc:  # noqa: BLE001 - relayed to the gateway
            conn.send(
                ("error", f"{type(exc).__name__}: {exc}\n"
                          f"{traceback.format_exc()}")
            )


class ProcessShardWorker:
    """Child-process transport behind a duplex pipe.

    The child runs :func:`_shard_worker_main`; exceptions raised there
    are relayed back and re-raised here as :class:`WorkerError` with the
    remote traceback in the message.  ``dispatch``/``collect`` must be
    strictly paired per worker (the gateway serialises them).

    Waiting for a reply is always bounded: ``collect`` polls the pipe in
    short liveness-checking slices instead of blocking in ``recv``, so a
    child that died (killed, OOMed, segfaulted) raises
    :class:`WorkerDiedError` within ~:data:`_LIVENESS_INTERVAL_S`, and a
    child that hangs raises :class:`WorkerTimeoutError` after
    ``poll_timeout_s`` — the gateway never wedges on a silent worker.
    """

    def __init__(
        self, name: str, *, poll_timeout_s: float = DEFAULT_POLL_TIMEOUT_S
    ) -> None:
        if poll_timeout_s <= 0:
            raise ValueError(
                f"poll_timeout_s must be > 0, got {poll_timeout_s}"
            )
        self.name = name
        self.poll_timeout_s = poll_timeout_s
        ctx = _mp_context()
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_shard_worker_main,
            args=(child,),
            name=f"repro-shard-{name}",
            daemon=True,
        )
        self._proc.start()
        child.close()
        self._in_flight = 0

    def dispatch(self, op: str, payload: dict) -> None:
        """Send one command without waiting for its reply.

        Raises:
            WorkerDiedError: If the child is already gone — the pipe
                rejects the write, so the failure is known immediately.
        """
        if self._in_flight:
            raise RuntimeError(f"worker {self.name}: dispatch already pending")
        try:
            self._conn.send((op, payload))
        except (BrokenPipeError, OSError):
            raise WorkerDiedError(
                self.name, "died before accepting a command (pipe closed)"
            ) from None
        self._in_flight = 1

    def collect(self):
        """Wait for and return the reply of the last :meth:`dispatch`.

        Raises:
            WorkerDiedError: If the child died before replying.
            WorkerTimeoutError: If the child is alive but produced no
                reply within ``poll_timeout_s``.
            WorkerError: If the child executed the command and failed.
        """
        if not self._in_flight:
            raise RuntimeError(f"worker {self.name}: nothing dispatched")
        # The request is over either way — a recv failure (dead child)
        # must not leave _in_flight set, or every later error would
        # masquerade as 'dispatch already pending'.
        self._in_flight = 0
        status, value = self._bounded_recv()
        if status == "error":
            raise WorkerError(f"shard worker {self.name} failed:\n{value}")
        return value

    def _bounded_recv(self):
        """One pipe reply, or a typed error — never an indefinite block."""
        deadline = time.perf_counter() + self.poll_timeout_s
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise WorkerTimeoutError(
                    self.name,
                    f"sent no reply within {self.poll_timeout_s:g} s "
                    "(hung or overloaded); the worker must be replaced, "
                    "its sessions restored from the last checkpoint",
                )
            try:
                if self._conn.poll(min(remaining, _LIVENESS_INTERVAL_S)):
                    return self._conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                raise WorkerDiedError(
                    self.name, "died mid-command (pipe closed)"
                ) from None
            if not self._proc.is_alive():
                # Drain a reply the child may have written just before
                # exiting; only then declare the command lost.
                try:
                    if self._conn.poll(0):
                        return self._conn.recv()
                except (EOFError, BrokenPipeError, OSError):
                    pass
                raise WorkerDiedError(
                    self.name,
                    f"died mid-command (exit code {self._proc.exitcode})",
                )

    def request(self, op: str, payload: dict):
        """Execute one command and return its result (round trip)."""
        self.dispatch(op, payload)
        return self.collect()

    def stop(self, timeout: float = 5.0) -> None:
        """Shut the child down (terminate if it does not exit in time)."""
        if self._proc.is_alive():
            try:
                self._conn.send(("stop", None))
                # Bounded like collect(): a hung child must not turn
                # shutdown into an indefinite recv — terminate instead.
                if self._conn.poll(timeout):
                    self._conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
        self._proc.join(timeout)
        if self._proc.is_alive():  # pragma: no cover - wedged child
            self._proc.terminate()
            self._proc.join(timeout)
        self._conn.close()
