"""Network-facing asyncio front end over the sharded gateway.

Everything below :class:`~repro.serve.gateway.ShardedStreamGateway` is
in-process or behind child-process pipes; this module is the first
layer a *network* client can reach.  One asyncio TCP server speaks two
protocols on the same port, told apart by the first four bytes of a
connection:

* **data plane** — length-prefixed frames carrying the session
  vocabulary: ``open`` / ``push`` / ``push_many`` / ``submit`` /
  ``drain`` / ``close`` / ``checkpoint`` plus ``ping``, ``healthz``
  and ``metrics``.  A frame is a 4-byte big-endian length, then the
  body: a 4-byte big-endian header length, a UTF-8 JSON header (the
  message) and one attachment region.  Numpy arrays (chunks, model
  prototypes) travel as their raw C-order bytes in that region, each
  named in the header by an ``{"__ndarray__": {dtype, shape, offset,
  nbytes}}`` tag, bit-exactly; requests and replies use the same
  layout, and a body that does not follow it gets the typed
  ``FrameError``;
* **ops plane** — plain ``HTTP/1.1``: ``GET /healthz`` answers 200
  with per-worker liveness (via the shard ``ping`` command) or 503
  when any worker is dead/hung, and ``GET /metrics`` serves the
  :func:`~repro.serve.metrics.gateway_metrics` snapshot, so stock
  probes and scrapers need no custom client.

The service is deliberately *thin*: it owns serialisation, one
``asyncio.Lock`` serialising gateway access (the gateway's parallelism
lives across its shard workers, not across connections), structured
JSON logging, and graceful drain — SIGTERM stops the listener, lets
the in-flight request finish, drains queued chunks, writes a fleet
checkpoint (restorable bit-exactly via
:meth:`~repro.serve.gateway.ShardedStreamGateway.restore`) and exits 0.
The bit-exact core is untouched: every event a network client sees is
the gateway's own return value, canonically JSON-encoded.

``repro serve-http`` is the CLI entry point;
:class:`ServiceRunner`/:class:`ServiceClient` give tests and the load
harness the same stack without a subprocess.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import math
import re
import signal
import socket
import threading
import types
from pathlib import Path

import numpy as np

from repro.core.persistence import detector_from_payload, detector_payload
from repro.core.streaming import StreamEvent
from repro.serve.gateway import Backpressure, ShardedStreamGateway
from repro.serve.metrics import gateway_metrics, service_logger

#: Default bind address: loopback — exposing a fleet beyond the host is
#: a deployment decision, never a default.
DEFAULT_HOST = "127.0.0.1"

#: Hard bound on one data-plane frame.  Also what disambiguates the two
#: protocols: ASCII ``"GET "`` read as a big-endian length is ~1.2 GB,
#: far above this bound, so an HTTP first-read can never be mistaken
#: for a valid frame header.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: First-reads that switch a connection onto the HTTP handler.
_HTTP_PREFIXES = (b"GET ", b"HEAD")

# Read-only on purpose: serve/ modules are forked into shard workers,
# so a plain dict here would become a divergent per-process copy.
_HTTP_REASONS = types.MappingProxyType(
    {200: "OK", 404: "Not Found", 503: "Service Unavailable"}
)

#: Data-plane ops that stay answerable while the service drains
#: (read-only probes; everything stateful is refused once draining).
_DRAINING_SAFE_OPS = frozenset({"ping", "healthz", "metrics"})


class ServiceError(RuntimeError):
    """A data-plane request failed service-side (typed, by name).

    ``error_type`` carries the server-side exception's class name
    (``"Backpressure"``, ``"WorkerDiedError"``, ``"KeyError"``, ...) so
    clients branch on failure class without parsing messages.
    """

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type


# ----------------------------------------------------------------------
# Wire codec: a JSON header over one raw attachment region
# ----------------------------------------------------------------------

#: Key of an array tag.
_TAG = "__ndarray__"
_TAG_FIELDS = frozenset({"dtype", "shape", "offset", "nbytes"})

#: The dtype strings an attachment may name (``dtype.str`` of a bool,
#: integer, float or complex dtype).  Anything else is refused before
#: numpy parses it: ``np.dtype`` evaluates structured-dtype strings.
_DTYPE_STR = re.compile(r"[<>|=]?[biufc][0-9]{1,2}")

#: Most dimensions a tagged array may declare (numpy 1's limit).
_MAX_NDIM = 32


class FrameError(ValueError):
    """A data-plane body that does not follow the body layout."""


class _Attachments:
    """The raw byte parts of one body's attachment region, in order."""

    def __init__(self) -> None:
        self.parts: list[np.ndarray] = []
        self.size = 0

    def add(self, raw: np.ndarray) -> int:
        """Append ``raw`` (uint8) and return its offset in the region."""
        offset = self.size
        self.parts.append(raw)
        self.size += raw.nbytes
        return offset


def encode_value(value, attachments: _Attachments):
    """Make ``value`` JSON-safe, moving numpy arrays into ``attachments``.

    An array becomes ``{"__ndarray__": {dtype, shape, offset, nbytes}}``
    and its raw C-order bytes join the attachment region at ``offset``:
    bit-exact for every dtype the pipeline uses (float signals,
    uint8/uint64 prototypes), with no text round trip.
    """
    if isinstance(value, np.ndarray):
        raw = np.ascontiguousarray(value).reshape(-1).view(np.uint8)
        return {
            _TAG: {
                "dtype": value.dtype.str,
                "shape": list(value.shape),
                "offset": attachments.add(raw),
                "nbytes": raw.nbytes,
            }
        }
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {
            key: encode_value(item, attachments) for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [encode_value(item, attachments) for item in value]
    return value


def decode_value(value, region: memoryview):
    """Inverse of :func:`encode_value`: tags become arrays read from
    ``region``, each a checked copy that owns its memory.

    Raises:
        FrameError: For a tag that is not exactly the four fields, a
            dtype that is not bool, integer, float or complex, a shape
            that is not a list of non-negative integers, an ``nbytes``
            other than the shape's and dtype's, or bytes outside
            ``region``.
    """
    if isinstance(value, dict):
        if _TAG in value:
            return _attachment(value, region)
        return {key: decode_value(item, region) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_value(item, region) for item in value]
    return value


def _attachment(tag: dict, region: memoryview) -> np.ndarray:
    spec = tag[_TAG]
    if len(tag) != 1 or not isinstance(spec, dict) or spec.keys() != _TAG_FIELDS:
        raise FrameError(
            "an array tag must be one key holding exactly dtype, shape, "
            "offset and nbytes"
        )
    dtype, shape = spec["dtype"], spec["shape"]
    if not (isinstance(dtype, str) and _DTYPE_STR.fullmatch(dtype)):
        raise FrameError(f"unsupported array dtype {dtype!r}")
    try:
        dtype = np.dtype(dtype)
    except TypeError:  # a size the kind does not have, say "<i3"
        raise FrameError(f"unsupported array dtype {dtype!r}") from None
    if not (isinstance(shape, list) and len(shape) <= _MAX_NDIM
            and all(type(n) is int and n >= 0 for n in shape)):
        raise FrameError(f"bad array shape {shape!r}")
    offset, nbytes = spec["offset"], spec["nbytes"]
    if type(offset) is not int or type(nbytes) is not int or offset < 0:
        raise FrameError("array offset and nbytes must be integers >= 0")
    count = math.prod(shape)
    if nbytes != count * dtype.itemsize:
        raise FrameError(
            f"a {dtype} array of shape {shape} holds "
            f"{count * dtype.itemsize} bytes, not {nbytes}"
        )
    if offset + nbytes > len(region):
        raise FrameError(
            f"array bytes [{offset}, {offset + nbytes}) lie outside the "
            f"{len(region)}-byte attachment region"
        )
    try:
        return np.frombuffer(region, dtype, count, offset).reshape(shape).copy()
    except (ValueError, OverflowError) as exc:  # a zero-size shape too big
        raise FrameError(f"bad array shape {shape!r}: {exc}") from None


def events_to_wire(events: list[StreamEvent]) -> list[dict]:
    """Stream events as plain JSON objects (floats round-trip exactly)."""
    return [
        {
            "time_s": event.time_s,
            "label": int(event.label),
            "delta": event.delta,
            "alarm": bool(event.alarm),
        }
        for event in events
    ]


def events_from_wire(payload: list[dict]) -> list[StreamEvent]:
    """Rebuild :class:`StreamEvent` objects from :func:`events_to_wire`."""
    return [
        StreamEvent(
            time_s=item["time_s"],
            label=int(item["label"]),
            delta=item["delta"],
            alarm=bool(item["alarm"]),
        )
        for item in payload
    ]


def _frame_parts(message) -> list:
    """``message`` as one frame, in parts to send back to back.

    A frame is its 4-byte big-endian length, then the body: a 4-byte
    big-endian header length, the UTF-8 JSON header (``message`` with
    its arrays tagged) and the attachment region (the arrays' raw
    bytes).
    """
    attachments = _Attachments()
    header = json.dumps(
        encode_value(message, attachments), separators=(",", ":")
    ).encode("utf-8")
    length = 4 + len(header) + attachments.size
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {length} bytes exceeds MAX_FRAME_BYTES")
    return [
        length.to_bytes(4, "big"), len(header).to_bytes(4, "big"), header,
        *attachments.parts,
    ]


def _frame(payload) -> bytes:
    return b"".join(_frame_parts(payload))


def _unpack(body) -> object:
    """The message of one frame body (see :func:`_frame_parts`).

    Reads nothing outside ``body``.

    Raises:
        FrameError: For a body too short for its header, a header that
            is not UTF-8 JSON, or a bad array tag.
    """
    view = memoryview(body)
    if len(view) < 4:
        raise FrameError(f"a {len(view)}-byte body has no header length")
    end = 4 + int.from_bytes(view[:4], "big")
    if end > len(view):
        raise FrameError(
            f"a {end - 4}-byte header runs past the {len(view)}-byte body"
        )
    try:
        header = json.loads(str(view[4:end], "utf-8"))
        return decode_value(header, view[end:])
    except RecursionError:
        raise FrameError("the header nests too deeply") from None
    except FrameError:
        raise
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise FrameError(f"the header is not UTF-8 JSON: {exc}") from None


# ----------------------------------------------------------------------
# The asyncio service
# ----------------------------------------------------------------------

class LaelapsService:
    """Asyncio TCP/HTTP front end over one gateway (see module docs).

    Args:
        gateway: The gateway to serve.  The service owns it from
            :meth:`start` on — do not drive it concurrently from
            outside the service loop.
        host: Bind address.
        port: Bind port; 0 picks an ephemeral port (read ``address``
            after :meth:`start`).
        checkpoint_dir: Where the graceful-drain fleet checkpoint is
            written on shutdown; ``None`` skips the checkpoint.
        logger: Structured logger; defaults to the package's
            stderr JSON logger.
    """

    def __init__(
        self,
        gateway: ShardedStreamGateway,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        checkpoint_dir: str | Path | None = None,
        logger: logging.Logger | None = None,
    ) -> None:
        self._gateway = gateway
        self._host = host
        self._port = port
        self._checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self._log = logger if logger is not None else service_logger()
        self._lock = asyncio.Lock()
        self._server: asyncio.Server | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._stop_requested = asyncio.Event()
        self._draining = False
        self._finished = False

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("service is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound address."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        host, port = self.address
        self._log.info(
            "service listening", extra={
                "host": host, "port": port,
                "mode": self._gateway.mode,
                "workers": len(self._gateway.worker_ids),
                "sessions": len(self._gateway),
            },
        )
        return host, port

    def request_shutdown(self) -> None:
        """Begin graceful drain (the SIGTERM handler); returns at once."""
        self._stop_requested.set()

    async def serve_until_shutdown(self) -> None:
        """Serve until :meth:`request_shutdown`, then drain and stop."""
        if self._server is None:
            await self.start()
        await self._stop_requested.wait()
        await self.shutdown()

    async def shutdown(self, *, drain: bool = True) -> None:
        """Graceful stop: refuse new work, drain, checkpoint, tear down.

        Order matters: the listener closes first (no new connections),
        the gateway lock is then acquired (the in-flight request, if
        any, completes), queued chunks are drained through the shards,
        the fleet checkpoint is written, and only then do the workers
        stop.  With ``drain=False`` queued chunks and the checkpoint
        are skipped (an abort, not a graceful exit).
        """
        if self._finished:
            return
        self._finished = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        async with self._lock:
            if drain:
                drained = self._gateway.drain()
                if drained:
                    self._log.info(
                        "drained queued chunks", extra={
                            "sessions": len(drained),
                            "windows": sum(
                                len(events) for events in drained.values()
                            ),
                        },
                    )
                if self._checkpoint_dir is not None and len(self._gateway):
                    manifest = self._gateway.checkpoint(self._checkpoint_dir)
                    self._log.info(
                        "fleet checkpoint written", extra={
                            "manifest": str(manifest),
                            "sessions": len(self._gateway),
                        },
                    )
            self._gateway.shutdown()
        for writer in list(self._writers):
            writer.close()
        self._log.info("service stopped", extra={"drained": drain})

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            head = await reader.readexactly(4)
            if any(head.startswith(p[:4]) for p in _HTTP_PREFIXES):
                await self._handle_http(head, reader, writer)
                return
            await self._handle_frames(head, reader, writer)
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client went away; nothing to answer
        finally:
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_frames(
        self,
        head: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve length-prefixed requests until the peer hangs up."""
        while True:
            length = int.from_bytes(head, "big")
            if length > MAX_FRAME_BYTES:
                writer.write(_frame({
                    "ok": False,
                    "error": {
                        "type": "FrameTooLarge",
                        "message": (
                            f"frame of {length} bytes exceeds "
                            f"{MAX_FRAME_BYTES}"
                        ),
                    },
                }))
                await writer.drain()
                return
            body = await reader.readexactly(length)
            response = await self._execute(body)
            writer.write(_frame(response))
            await writer.drain()
            head = await reader.readexactly(4)

    async def _execute(self, body: bytes) -> dict:
        try:
            request = _unpack(body)
            if not isinstance(request, dict):
                raise FrameError("a request header must be a JSON object")
            op = request.get("op")
            handler = getattr(self, f"_op_{op}", None) if op else None
            if handler is None:
                raise ServiceError("UnknownOp", f"unknown op {op!r}")
            if self._draining and op not in _DRAINING_SAFE_OPS:
                raise ServiceError(
                    "ServiceDraining",
                    f"service is draining; op {op!r} refused",
                )
            async with self._lock:
                result = handler(request)
            return {"ok": True, "result": result}
        except ServiceError as exc:
            return {
                "ok": False,
                "error": {"type": exc.error_type, "message": str(exc)},
            }
        except Exception as exc:  # noqa: BLE001 - relayed to the client
            self._log.warning(
                "request failed", extra={
                    "error_type": type(exc).__name__, "error": str(exc),
                },
            )
            return {
                "ok": False,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }

    # -- data-plane ops ------------------------------------------------

    def _op_ping(self, request: dict):
        return "pong"

    def _op_open(self, request: dict):
        session_id = request["session_id"]
        worker_id = self._gateway.open(
            session_id, detector_from_payload(request["model"])
        )
        self._log.info(
            "session opened",
            extra={"session_id": session_id, "worker": worker_id},
        )
        return {"worker": worker_id}

    def _op_push(self, request: dict):
        events = self._gateway.push(request["session_id"], request["chunk"])
        return events_to_wire(events)

    def _op_push_many(self, request: dict):
        events = self._gateway.push_many(request["chunks"])
        return {
            session_id: events_to_wire(session_events)
            for session_id, session_events in events.items()
        }

    def _op_submit(self, request: dict):
        self._gateway.submit(request["session_id"], request["chunk"])
        return None

    def _op_drain(self, request: dict):
        events = self._gateway.drain()
        return {
            session_id: events_to_wire(session_events)
            for session_id, session_events in events.items()
        }

    def _op_close(self, request: dict):
        session_id = request["session_id"]
        self._gateway.close(session_id)
        self._log.info("session closed", extra={"session_id": session_id})
        return None

    def _op_checkpoint(self, request: dict):
        manifest = self._gateway.checkpoint(request["directory"])
        self._log.info(
            "fleet checkpoint written",
            extra={
                "manifest": str(manifest),
                "sessions": len(self._gateway),
            },
        )
        return {"manifest": str(manifest)}

    def _op_session_ids(self, request: dict):
        return self._gateway.session_ids

    def _op_healthz(self, request: dict):
        return self._healthz_payload()

    def _op_metrics(self, request: dict):
        return gateway_metrics(self._gateway)

    # -- HTTP ops plane ------------------------------------------------

    def _healthz_payload(self) -> dict:
        report = self._gateway.ping_workers()
        healthy = all(entry["alive"] for entry in report.values())
        status = "ok" if healthy else "degraded"
        if self._draining:
            status = "draining"
        return {
            "status": status,
            "draining": self._draining,
            "sessions_open": len(self._gateway),
            "workers": report,
        }

    async def _handle_http(
        self,
        head: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        request = head + await reader.readuntil(b"\r\n\r\n")
        request_line = request.split(b"\r\n", 1)[0].decode("latin-1")
        parts = request_line.split()
        path = parts[1].split("?", 1)[0] if len(parts) >= 2 else "/"
        if path == "/healthz":
            async with self._lock:
                payload = self._healthz_payload()
            status = 200 if payload["status"] == "ok" else 503
        elif path == "/metrics":
            async with self._lock:
                payload = gateway_metrics(self._gateway)
            status = 200
        else:
            payload = {"error": f"no such endpoint {path!r}"}
            status = 404
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        writer.write(
            (
                f"HTTP/1.1 {status} {_HTTP_REASONS[status]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1") + body
        )
        await writer.drain()


def run_service(
    gateway: ShardedStreamGateway,
    *,
    host: str = DEFAULT_HOST,
    port: int = 0,
    checkpoint_dir: str | Path | None = None,
    logger: logging.Logger | None = None,
) -> int:
    """Serve until SIGTERM/SIGINT, drain gracefully, return exit code 0.

    The blocking entry point behind ``repro serve-http``: installs the
    signal handlers, logs the bound address (a ``"service listening"``
    JSON line with ``host``/``port`` fields — how wrappers discover an
    ephemeral port), and runs the drain-checkpoint-exit sequence when a
    signal arrives.
    """
    async def _main() -> int:
        service = LaelapsService(
            gateway,
            host=host,
            port=port,
            checkpoint_dir=checkpoint_dir,
            logger=logger,
        )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, service.request_shutdown)
        await service.serve_until_shutdown()
        return 0

    return asyncio.run(_main())


class ServiceRunner:
    """A :class:`LaelapsService` on a background thread, sync API.

    What tests and the load harness use to stand up a real socket
    without a subprocess: ``start()`` returns the bound address,
    ``stop()`` runs the same graceful drain as SIGTERM.  The wrapped
    gateway belongs to the service between the two calls.
    """

    def __init__(
        self,
        gateway: ShardedStreamGateway,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        checkpoint_dir: str | Path | None = None,
        logger: logging.Logger | None = None,
    ) -> None:
        self.service = LaelapsService(
            gateway,
            host=host,
            port=port,
            checkpoint_dir=checkpoint_dir,
            logger=logger,
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> tuple[str, int]:
        """Start the loop thread and the service; return ``(host, port)``."""
        if self._thread is not None:
            raise RuntimeError("runner already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-service", daemon=True
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            self.service.start(), self._loop
        )
        return future.result(timeout=30.0)

    def stop(self, *, drain: bool = True) -> None:
        """Gracefully stop the service and join the loop thread."""
        if self._loop is None or self._thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(drain=drain), self._loop
        )
        future.result(timeout=120.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30.0)
        self._loop.close()
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ServiceRunner":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Synchronous client
# ----------------------------------------------------------------------

class ServiceClient:
    """Blocking data-plane client of one :class:`LaelapsService`.

    Speaks the length-prefixed frame protocol over a plain socket; every
    method is one request/reply round trip.  Server-side failures raise
    :class:`ServiceError` with the remote exception's class name in
    ``error_type``.  Usable as a context manager.
    """

    def __init__(
        self, host: str, port: int, *, timeout_s: float = 60.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout_s)

    def call(self, op: str, **fields):
        """One raw protocol round trip (the typed methods wrap this).

        Numpy arrays anywhere in ``fields`` travel as attachments.
        """
        self._sock.sendall(b"".join(_frame_parts({"op": op, **fields})))
        length = int.from_bytes(self._recv_exact(4), "big")
        response = _unpack(self._recv_exact(length))
        if not response["ok"]:
            error = response["error"]
            raise ServiceError(error["type"], error["message"])
        return response["result"]

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                raise ConnectionError(
                    "service closed the connection mid-reply"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    # -- typed wrappers ------------------------------------------------

    def ping(self) -> str:
        return self.call("ping")

    def open(self, session_id: str, detector) -> str:
        """Open a session from a fitted detector; returns its worker id."""
        return self.open_payload(session_id, detector_payload(detector))

    def open_payload(self, session_id: str, payload: dict) -> str:
        result = self.call("open", session_id=session_id, model=payload)
        return result["worker"]

    def push(self, session_id: str, chunk) -> list[StreamEvent]:
        return events_from_wire(self.call(
            "push", session_id=session_id, chunk=np.asarray(chunk)
        ))

    def push_many(self, chunks: dict) -> dict[str, list[StreamEvent]]:
        wire_chunks = {
            session_id: np.asarray(chunk)
            for session_id, chunk in chunks.items()
        }
        result = self.call("push_many", chunks=wire_chunks)
        return {
            session_id: events_from_wire(events)
            for session_id, events in result.items()
        }

    def submit(self, session_id: str, chunk) -> None:
        self.call("submit", session_id=session_id, chunk=np.asarray(chunk))

    def drain(self) -> dict[str, list[StreamEvent]]:
        return {
            session_id: events_from_wire(events)
            for session_id, events in self.call("drain").items()
        }

    def close_session(self, session_id: str) -> None:
        self.call("close", session_id=session_id)

    def checkpoint(self, directory: str | Path) -> str:
        return self.call("checkpoint", directory=str(directory))["manifest"]

    def session_ids(self) -> list[str]:
        return self.call("session_ids")

    def healthz(self) -> dict:
        return self.call("healthz")

    def metrics(self) -> dict:
        return self.call("metrics")

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def http_get(
    host: str, port: int, path: str, *, timeout_s: float = 30.0
) -> tuple[int, dict]:
    """Minimal HTTP/1.1 GET against the ops plane (tests and scripts).

    Returns:
        ``(status_code, decoded JSON body)``.
    """
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.sendall(
            (
                f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
        )
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    return status, json.loads(body)
