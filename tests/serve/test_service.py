"""Service-layer tests: the asyncio front end over real sockets.

Everything here runs against actual TCP connections on loopback —
:class:`~repro.serve.service.ServiceRunner` hosts the event loop on a
background thread, :class:`~repro.serve.service.ServiceClient` speaks
the length-prefixed JSON protocol, and the ops plane is probed with
plain HTTP GETs.  The governing invariant is inherited from the rest of
the serving stack: events that crossed the wire are bit-identical to a
single in-process :class:`~repro.core.sessions.StreamSessionManager`
fed the same ticks.

The SIGTERM end-to-end test (marked ``slow``) runs ``repro serve-http``
as a real subprocess, opens sessions over the wire, signals it, and
asserts the drain checkpoint restores bit-exactly.
"""

import json
import os
import selectors
import signal as signal_module
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.sessions import StreamSessionManager
from repro.core.streaming import StreamEvent
from repro.serve import ShardedStreamGateway
from repro.serve.service import (
    ServiceClient,
    ServiceError,
    ServiceRunner,
    decode_value,
    encode_value,
    events_from_wire,
    events_to_wire,
    http_get,
)
from tests.serve.conftest import build_fleet

pytestmark = pytest.mark.service

CHUNK = 128


def reference_events(detectors, signals, chunk=CHUNK):
    """Single-manager ground truth for a fleet of signals."""
    manager = StreamSessionManager()
    for session_id, detector in detectors.items():
        manager.open(session_id, detector)
    return manager.run(signals, chunk)


def lockstep_push(client, signals, start_tick=0, end_tick=None, chunk=CHUNK):
    """Drive the client the way ``StreamSessionManager.run`` ticks."""
    events = {session_id: [] for session_id in signals}
    max_ticks = max(
        -(-len(signal) // chunk) for signal in signals.values()
    )
    if end_tick is None:
        end_tick = max_ticks
    for tick in range(start_tick, min(end_tick, max_ticks)):
        chunks = {
            session_id: signal[tick * chunk:(tick + 1) * chunk]
            for session_id, signal in signals.items()
            if tick * chunk < len(signal)
        }
        for session_id, new_events in client.push_many(chunks).items():
            events[session_id].extend(new_events)
    return events


class TestWireCodec:
    def test_ndarray_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(7)
        arrays = [
            rng.standard_normal((7, 3)),
            np.arange(12, dtype=np.uint64).reshape(3, 4),
            rng.integers(0, 2, size=9, dtype=np.uint8),
            np.asfortranarray(rng.standard_normal((4, 5))),
        ]
        for original in arrays:
            over_json = json.loads(json.dumps(encode_value(original)))
            decoded = decode_value(over_json)
            assert decoded.dtype == original.dtype
            assert decoded.shape == original.shape
            assert np.ascontiguousarray(original).tobytes() \
                == decoded.tobytes()

    def test_nested_containers_roundtrip(self):
        payload = {
            "meta": {"dim": 512, "tag": "packed"},
            "protos": [np.arange(4, dtype=np.uint64), "text", 1.5],
        }
        decoded = decode_value(json.loads(json.dumps(encode_value(payload))))
        assert decoded["meta"] == payload["meta"]
        assert np.array_equal(decoded["protos"][0], payload["protos"][0])
        assert decoded["protos"][1:] == ["text", 1.5]

    def test_events_roundtrip_exactly(self):
        events = [
            StreamEvent(time_s=0.1 + 0.2, label=1, delta=-3.725, alarm=True),
            StreamEvent(time_s=7.5, label=0, delta=1 / 3, alarm=False),
        ]
        over_json = json.loads(json.dumps(events_to_wire(events)))
        assert events_from_wire(over_json) == events


class TestServiceEndToEnd:
    def test_socket_stream_bit_exact_with_live_observability(self):
        detectors, signals = build_fleet(n_sessions=4, seconds=3.0)
        reference = reference_events(detectors, signals)
        gateway = ShardedStreamGateway(2, mode="process")
        runner = ServiceRunner(gateway)
        try:
            host, port = runner.start()
            with ServiceClient(host, port) as client:
                assert client.ping() == "pong"
                for session_id, detector in detectors.items():
                    worker_id = client.open(session_id, detector)
                    assert worker_id == gateway.worker_of(session_id)
                assert sorted(client.session_ids()) == sorted(signals)

                events = lockstep_push(client, signals)
                for session_id in signals:
                    assert events[session_id] == reference[session_id], (
                        f"socket events for {session_id} diverged from "
                        "the single-manager reference"
                    )

                # /healthz: all workers answer ping.
                status, health = http_get(host, port, "/healthz")
                assert status == 200
                assert health["status"] == "ok"
                assert set(health["workers"]) == set(gateway.worker_ids)
                assert all(
                    entry["alive"] for entry in health["workers"].values()
                )

                # /metrics mirrors the gateway's own introspection.
                status, metrics = http_get(host, port, "/metrics")
                assert status == 200
                assert metrics["sessions_open"] == len(gateway)
                assert metrics["shard_sessions"] == {
                    worker_id: len(sessions)
                    for worker_id, sessions in gateway.shard_map().items()
                }
                assert metrics["ticks_total"] == gateway.tick_stats.ticks
                assert (
                    metrics["tick_latency"]["count"] == metrics["ticks_total"]
                )
                assert client.metrics() == metrics  # both planes agree

                # Queue depths surface submitted-but-undrained chunks.
                victim = next(iter(signals))
                client.submit(victim, np.zeros((CHUNK, 8)))
                depths = client.metrics()["queue_depths"]
                assert depths[victim] == gateway.pending(victim) == 1
                drained = client.drain()
                assert set(drained) == {victim}
                assert client.metrics()["queued_chunks_total"] == 0

                client.close_session(victim)
                assert victim not in client.session_ids()

                status, _ = http_get(host, port, "/nope")
                assert status == 404
        finally:
            runner.stop(drain=False)

    def test_healthz_degraded_when_a_worker_dies(self):
        detectors, _ = build_fleet(n_sessions=2, seconds=2.0)
        gateway = ShardedStreamGateway(2, mode="process")
        runner = ServiceRunner(gateway)
        try:
            host, port = runner.start()
            status, health = http_get(host, port, "/healthz")
            assert status == 200 and health["status"] == "ok"

            victim_id = gateway.worker_ids[0]
            gateway._workers[victim_id]._proc.kill()
            gateway._workers[victim_id]._proc.join()

            status, health = http_get(host, port, "/healthz")
            assert status == 503
            assert health["status"] == "degraded"
            assert health["workers"][victim_id]["alive"] is False
            assert "WorkerDiedError" in health["workers"][victim_id]["error"]
            survivors = [
                worker_id for worker_id in gateway.worker_ids
                if worker_id != victim_id
            ]
            assert all(
                health["workers"][worker_id]["alive"]
                for worker_id in survivors
            )
        finally:
            runner.stop(drain=False)

    def test_errors_cross_the_wire_typed(self):
        detectors, _ = build_fleet(n_sessions=1, seconds=2.0)
        session_id = next(iter(detectors))
        gateway = ShardedStreamGateway(1, mode="inline", max_pending=2)
        runner = ServiceRunner(gateway)
        try:
            host, port = runner.start()
            with ServiceClient(host, port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.push("ghost", np.zeros((8, 8)))
                assert excinfo.value.error_type == "KeyError"

                # Nothing on the wire resets the tick counters: there is
                # no ``stats``/``stats_reset`` op beside /metrics.
                for op in ("frobnicate", "stats", "stats_reset"):
                    with pytest.raises(ServiceError) as excinfo:
                        client.call(op)
                    assert excinfo.value.error_type == "UnknownOp"

                client.open(session_id, detectors[session_id])
                for _ in range(2):
                    client.submit(session_id, np.zeros((8, 8)))
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(session_id, np.zeros((8, 8)))
                assert excinfo.value.error_type == "Backpressure"
                client.drain()
        finally:
            runner.stop(drain=False)


def _spawn_serve_http(checkpoint_dir: Path) -> tuple[subprocess.Popen, int]:
    """Launch ``repro serve-http`` and return (process, bound port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve-http",
            "--workers", "2", "--mode", "process",
            "--checkpoint-dir", str(checkpoint_dir),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    # The bound (ephemeral) port arrives as the 'service listening'
    # structured-log line on stderr.
    selector = selectors.DefaultSelector()
    selector.register(proc.stderr, selectors.EVENT_READ)
    deadline = time.perf_counter() + 60.0
    buffered = b""
    try:
        while time.perf_counter() < deadline:
            if not selector.select(timeout=1.0):
                if proc.poll() is not None:
                    break
                continue
            read = os.read(proc.stderr.fileno(), 65536)
            if not read:
                break
            buffered += read
            for line in buffered.split(b"\n"):
                if b"service listening" in line:
                    return proc, json.loads(line)["port"]
    finally:
        selector.close()
    proc.kill()
    raise AssertionError(
        f"serve-http never logged its address; stderr so far: {buffered!r}"
    )


@pytest.mark.slow
class TestSigtermDrain:
    def test_sigterm_drains_to_bit_exact_checkpoint(self, tmp_path):
        detectors, signals = build_fleet(n_sessions=3, seconds=4.0)
        reference = reference_events(detectors, signals)
        max_ticks = max(
            -(-len(signal) // CHUNK) for signal in signals.values()
        )
        split = max_ticks // 2

        checkpoint_dir = tmp_path / "fleet-ckpt"
        proc, port = _spawn_serve_http(checkpoint_dir)
        try:
            with ServiceClient("127.0.0.1", port) as client:
                for session_id, detector in detectors.items():
                    client.open(session_id, detector)
                first_half = lockstep_push(
                    client, signals, start_tick=0, end_tick=split
                )

            proc.send_signal(signal_module.SIGTERM)
            assert proc.wait(timeout=120) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        manifest = checkpoint_dir / "fleet.json"
        assert manifest.exists(), "SIGTERM drain wrote no fleet checkpoint"

        # Resume from the drain checkpoint on a *different* transport
        # and worker count; the combined event streams must equal the
        # single-manager reference bit for bit.
        restored = ShardedStreamGateway.restore(
            checkpoint_dir, n_workers=1, mode="inline"
        )
        try:
            remainders = {
                session_id: signal[split * CHUNK:]
                for session_id, signal in signals.items()
                if split * CHUNK < len(signal)
            }
            second_half = restored.run(remainders, CHUNK)
        finally:
            restored.shutdown()
        for session_id in signals:
            combined = list(first_half[session_id])
            combined.extend(second_half.get(session_id, []))
            assert combined == reference[session_id], (
                f"restored stream for {session_id} diverged from the "
                "single-manager reference"
            )
