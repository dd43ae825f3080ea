"""Process-transport tests: the child-process shard behaves identically."""

import os
import time

import pytest

from repro.core.config import GOLDEN_DIM
from repro.core.sessions import StreamSessionManager
from repro.serve import ProcessShardWorker, ShardedStreamGateway, WorkerError

from tests.serve.conftest import build_fleet


@pytest.fixture(scope="module")
def small_fleet():
    return build_fleet(n_sessions=4, seconds=3.0)


class TestProcessGateway:
    def test_matches_single_manager(self, small_fleet):
        detectors, signals = small_fleet
        manager = StreamSessionManager()
        for sid, detector in detectors.items():
            manager.open(sid, detector)
        expected = manager.run(signals, 128)
        with ShardedStreamGateway(2, mode="process") as gateway:
            for sid, detector in detectors.items():
                gateway.open(sid, detector)
            assert gateway.run(signals, 128) == expected

    def test_checkpoint_written_by_children(self, small_fleet, tmp_path):
        detectors, signals = small_fleet
        with ShardedStreamGateway(2, mode="process") as gateway:
            for sid, detector in detectors.items():
                gateway.open(sid, detector)
            gateway.run(signals, 256)
            manifest = gateway.checkpoint(tmp_path / "fleet")
            assert manifest.exists()
        # A process checkpoint restores onto inline workers unchanged.
        with ShardedStreamGateway.restore(
            tmp_path / "fleet", n_workers=3, mode="inline"
        ) as restored:
            assert sorted(restored.session_ids) == sorted(detectors)


class TestWorkerTransport:
    def test_remote_errors_surface_as_worker_error(self):
        worker = ProcessShardWorker("t0")
        try:
            assert worker.request("ping", {}) == "pong"
            with pytest.raises(WorkerError, match="ghost"):
                worker.request("export", {"id": "ghost"})
            # The worker survives a failed command.
            assert worker.request("session_ids", {}) == []
        finally:
            worker.stop()

    def test_unknown_command_rejected(self):
        worker = ProcessShardWorker("t1")
        try:
            with pytest.raises(WorkerError, match="unknown shard command"):
                worker.request("frobnicate", {})
        finally:
            worker.stop()

    def test_stop_is_idempotent(self):
        worker = ProcessShardWorker("t2")
        worker.stop()
        worker.stop()

    def test_dispatch_collect_must_pair(self):
        worker = ProcessShardWorker("t3")
        try:
            with pytest.raises(RuntimeError):
                worker.collect()
            worker.dispatch("ping", {})
            with pytest.raises(RuntimeError):
                worker.dispatch("ping", {})
            assert worker.collect() == "pong"
        finally:
            worker.stop()


@pytest.mark.slow
@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="4 process workers need 4 cores to overlap")
def test_four_process_workers_double_a_single_manager():
    """Throughput floor: 16 sessions at d = 10000, 0.5 s ticks."""
    detectors, signals = build_fleet(16, GOLDEN_DIM, seconds=12.0)

    def timed(open_and_run):
        start = time.perf_counter()
        events = open_and_run()
        return events, time.perf_counter() - start

    def single():
        manager = StreamSessionManager()
        for sid, detector in detectors.items():
            manager.open(sid, detector)
        return manager.run(signals, 128)

    def sharded():
        with ShardedStreamGateway(4, mode="process") as gateway:
            for sid, detector in detectors.items():
                gateway.open(sid, detector)
            return gateway.run(signals, 128)

    expected, single_s = timed(single)
    events, sharded_s = timed(sharded)
    assert events == expected
    assert single_s / sharded_s >= 2.0, (single_s, sharded_s)
