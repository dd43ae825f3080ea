"""Unit tests for the sharded gateway (inline transport)."""

import numpy as np
import pytest

from repro.core.config import LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.core.persistence import read_fleet_manifest
from repro.core.sessions import StreamSessionManager
from repro.hdc.backend import pack_bits
from repro.serve import Backpressure, ShardedStreamGateway

from tests.serve.conftest import FS


def reference_events(detectors, signals, chunk=128):
    manager = StreamSessionManager()
    for sid, detector in detectors.items():
        manager.open(sid, detector)
    return manager.run(signals, chunk)


class TestLifecycle:
    def test_open_routes_and_close_clears(self, fleet):
        detectors, _ = fleet
        with ShardedStreamGateway(3) as gateway:
            for sid, detector in detectors.items():
                worker = gateway.open(sid, detector)
                assert worker in gateway.worker_ids
                assert gateway.worker_of(sid) == worker
            assert len(gateway) == len(detectors)
            assert gateway.dim == 512
            shard_map = gateway.shard_map()
            assert sorted(sum(shard_map.values(), [])) == sorted(detectors)
            for sid in detectors:
                gateway.close(sid)
            assert len(gateway) == 0 and gateway.dim is None

    def test_duplicate_session_rejected(self, fleet):
        detectors, _ = fleet
        sid, detector = next(iter(detectors.items()))
        with ShardedStreamGateway(2) as gateway:
            gateway.open(sid, detector)
            with pytest.raises(ValueError):
                gateway.open(sid, detector)

    def test_unfitted_detector_rejected(self):
        with ShardedStreamGateway(1) as gateway:
            with pytest.raises(ValueError):
                gateway.open("s", LaelapsDetector(4, LaelapsConfig(dim=512)))

    def test_dim_mismatch_rejected(self, fleet):
        detectors, _ = fleet
        other = LaelapsDetector(4, LaelapsConfig(dim=1024, fs=FS, seed=1))
        other.fit_from_windows(
            pack_bits(np.ones((1, 1024), dtype=np.uint8)),
            pack_bits(np.zeros((1, 1024), dtype=np.uint8)),
        )
        with ShardedStreamGateway(2) as gateway:
            gateway.open("a", next(iter(detectors.values())))
            with pytest.raises(ValueError, match="shared dimension"):
                gateway.open("b", other)

    def test_unknown_session_rejected(self, fleet):
        _, signals = fleet
        chunk = next(iter(signals.values()))[:64]
        with ShardedStreamGateway(2) as gateway:
            with pytest.raises(KeyError):
                gateway.push("ghost", chunk)
            with pytest.raises(KeyError):
                gateway.submit("ghost", chunk)
            with pytest.raises(KeyError):
                gateway.close("ghost")

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ShardedStreamGateway(0)
        with pytest.raises(ValueError):
            ShardedStreamGateway(1, mode="threads")
        with pytest.raises(ValueError):
            ShardedStreamGateway(1, max_pending=0)


class TestPushParity:
    def test_run_matches_single_manager(self, fleet):
        detectors, signals = fleet
        expected = reference_events(detectors, signals)
        with ShardedStreamGateway(3) as gateway:
            for sid, detector in detectors.items():
                gateway.open(sid, detector)
            assert gateway.run(signals, 128) == expected

    def test_bad_chunk_fails_tick_atomically(self, fleet):
        detectors, signals = fleet
        ids = list(detectors)[:2]
        with ShardedStreamGateway(2) as gateway:
            for sid in ids:
                gateway.open(sid, detectors[sid])
            with pytest.raises(ValueError):
                gateway.push_many(
                    {
                        ids[0]: signals[ids[0]][:512],
                        ids[1]: np.zeros((512, 3)),  # wrong electrode count
                    }
                )
            # No session consumed the failed tick: replaying it cleanly
            # still matches per-stream runs from sample zero.
            good = gateway.push_many(
                {sid: signals[sid][:512] for sid in ids}
            )
            expected = reference_events(
                {sid: detectors[sid] for sid in ids},
                {sid: signals[sid][:512] for sid in ids},
                chunk=512,
            )
            assert good == expected


class TestBackpressure:
    def test_submit_bounded_and_drain_matches_push(self, fleet):
        detectors, signals = fleet
        sid = next(iter(detectors))
        with ShardedStreamGateway(2, max_pending=3) as gateway:
            gateway.open(sid, detectors[sid])
            for k in range(3):
                gateway.submit(sid, signals[sid][k * 128 : (k + 1) * 128])
            assert gateway.pending(sid) == 3
            with pytest.raises(Backpressure):
                gateway.submit(sid, signals[sid][384:512])
            events = gateway.drain()
            assert gateway.pending(sid) == 0
        expected = reference_events(
            {sid: detectors[sid]}, {sid: signals[sid][:384]}
        )
        assert events[sid] == expected[sid]

    def test_drain_preserves_chunk_order_across_sessions(self, fleet):
        detectors, signals = fleet
        ids = list(detectors)[:3]
        with ShardedStreamGateway(2, max_pending=8) as gateway:
            for sid in ids:
                gateway.open(sid, detectors[sid])
            # Ragged backlog: session k has k+1 queued chunks.
            for k, sid in enumerate(ids):
                for j in range(k + 1):
                    gateway.submit(sid, signals[sid][j * 100 : (j + 1) * 100])
            events = gateway.drain()
        for k, sid in enumerate(ids):
            expected = reference_events(
                {sid: detectors[sid]},
                {sid: signals[sid][: (k + 1) * 100]},
                chunk=100,
            )
            assert events[sid] == expected[sid]

    def test_push_refuses_to_jump_queued_chunks(self, fleet):
        # push_many past a session's submit() backlog would feed samples
        # out of order — it must refuse instead of silently reordering.
        detectors, signals = fleet
        sid = next(iter(detectors))
        with ShardedStreamGateway(1) as gateway:
            gateway.open(sid, detectors[sid])
            gateway.submit(sid, signals[sid][:128])
            with pytest.raises(RuntimeError, match="drain"):
                gateway.push(sid, signals[sid][128:256])
            events = gateway.drain()  # multi-chunk drain still legal
            events[sid].extend(gateway.push(sid, signals[sid][128:256]))
        expected = reference_events(
            {sid: detectors[sid]}, {sid: signals[sid][:256]}, chunk=128
        )
        assert events[sid] == expected[sid]

    def test_submit_copies_the_chunk(self, fleet):
        # Deferred consumption must not alias the producer's buffer: a
        # producer that reuses one array between submit() and drain()
        # would otherwise corrupt every queued chunk.
        detectors, signals = fleet
        sid = next(iter(detectors))
        with ShardedStreamGateway(1, max_pending=4) as gateway:
            gateway.open(sid, detectors[sid])
            buffer = signals[sid][:128].copy()
            gateway.submit(sid, buffer)
            buffer[:] = 1e9  # producer reuses its buffer
            events = gateway.drain()
        expected = reference_events(
            {sid: detectors[sid]}, {sid: signals[sid][:128]}
        )
        assert events[sid] == expected[sid]

    def test_worker_side_failure_does_not_wedge_the_gateway(self, fleet):
        # A worker-side error mid-tick must be raised *after* every
        # dispatched worker is collected, or the uncollected workers
        # stay in-flight forever and the whole fleet wedges.
        detectors, signals = fleet
        with ShardedStreamGateway(2) as gateway:
            for sid, detector in detectors.items():
                gateway.open(sid, detector)
            by_worker = {
                w: sids[0]
                for w, sids in gateway.shard_map().items()
                if sids
            }
            assert len(by_worker) == 2  # one victim, one survivor
            victim, survivor = by_worker.values()
            # Break the victim's shard behind the gateway's back.
            gateway._workers[gateway.worker_of(victim)].request(
                "close", {"id": victim}
            )
            with pytest.raises(Exception, match=victim):
                gateway.push_many(
                    {
                        victim: signals[victim][:256],
                        survivor: signals[survivor][:256],
                    }
                )
            # The surviving shard keeps serving: no 'dispatch already
            # pending', and further ticks classify normally.
            assert isinstance(
                gateway.push(survivor, signals[survivor][256:512]), list
            )

    def test_close_and_checkpoint_refuse_queued_chunks(self, fleet, tmp_path):
        detectors, signals = fleet
        sid = next(iter(detectors))
        with ShardedStreamGateway(1) as gateway:
            gateway.open(sid, detectors[sid])
            gateway.submit(sid, signals[sid][:128])
            with pytest.raises(RuntimeError, match="drain"):
                gateway.close(sid)
            with pytest.raises(RuntimeError, match="drain"):
                gateway.checkpoint(tmp_path / "fleet")
            gateway.drain()
            gateway.close(sid)


class TestElasticity:
    def test_add_and_remove_workers_mid_stream(self, fleet):
        detectors, signals = fleet
        expected = reference_events(detectors, signals)
        half = int(3 * FS)
        with ShardedStreamGateway(2) as gateway:
            for sid, detector in detectors.items():
                gateway.open(sid, detector)
            first = gateway.run(
                {s: sig[:half] for s, sig in signals.items()}, 128
            )
            added = gateway.add_worker()
            moved_in = set()
            for sid in detectors:
                if gateway.worker_of(sid) == added:
                    moved_in.add(sid)
            removed_moved = gateway.remove_worker("w0")
            assert all(gateway.worker_of(sid) != "w0" for sid in detectors)
            assert "w0" not in gateway.worker_ids
            rest = gateway.run(
                {s: sig[half:] for s, sig in signals.items()}, 128
            )
        for sid in detectors:
            assert first[sid] + rest[sid] == expected[sid]
        # Rebalances must actually have exercised migration somewhere.
        assert moved_in or removed_moved

    def test_cannot_remove_last_worker(self, fleet):
        detectors, _ = fleet
        sid, detector = next(iter(detectors.items()))
        with ShardedStreamGateway(1) as gateway:
            gateway.open(sid, detector)
            with pytest.raises(ValueError):
                gateway.remove_worker("w0")
            with pytest.raises(KeyError):
                gateway.remove_worker("ghost")


class TestFleetCheckpoint:
    def test_round_trip_with_different_worker_count(self, fleet, tmp_path):
        detectors, signals = fleet
        expected = reference_events(detectors, signals)
        half = int(3 * FS)
        gateway = ShardedStreamGateway(3)
        for sid, detector in detectors.items():
            gateway.open(sid, detector)
        first = gateway.run(
            {s: sig[:half] for s, sig in signals.items()}, 128
        )
        manifest_path = gateway.checkpoint(tmp_path / "fleet")
        gateway.shutdown()
        manifest = read_fleet_manifest(manifest_path)
        assert manifest["dim"] == 512
        assert set(manifest["routes"]) == set(detectors)
        for shard in manifest["shards"].values():
            assert (tmp_path / "fleet" / shard).exists()
        with ShardedStreamGateway.restore(
            tmp_path / "fleet", n_workers=5
        ) as restored:
            assert sorted(restored.session_ids) == sorted(detectors)
            assert len(restored.worker_ids) == 5
            rest = restored.run(
                {s: sig[half:] for s, sig in signals.items()}, 128
            )
        for sid in detectors:
            assert first[sid] + rest[sid] == expected[sid]

    def test_restore_accepts_manifest_path_and_defaults_workers(
        self, fleet, tmp_path
    ):
        detectors, _ = fleet
        sid, detector = next(iter(detectors.items()))
        gateway = ShardedStreamGateway(2)
        gateway.open(sid, detector)
        manifest_path = gateway.checkpoint(tmp_path / "fleet")
        gateway.shutdown()
        with ShardedStreamGateway.restore(manifest_path) as restored:
            # Defaults to one worker per checkpoint shard (here: the one
            # shard that actually held the session).
            assert restored.session_ids == [sid]
            assert len(restored.worker_ids) == 1

    def test_empty_fleet_cannot_checkpoint(self, tmp_path):
        with ShardedStreamGateway(1) as gateway:
            with pytest.raises(ValueError):
                gateway.checkpoint(tmp_path / "fleet")

    def test_manifest_version_check(self, fleet, tmp_path):
        detectors, _ = fleet
        sid, detector = next(iter(detectors.items()))
        with ShardedStreamGateway(1) as gateway:
            gateway.open(sid, detector)
            manifest_path = gateway.checkpoint(tmp_path / "fleet")
        bad = manifest_path.read_text().replace('"version": 1', '"version": 99')
        manifest_path.write_text(bad)
        with pytest.raises(ValueError, match="version"):
            ShardedStreamGateway.restore(tmp_path / "fleet")


class TestAtomicCheckpointWrites:
    """A checkpoint write that fails partway keeps what was on disk."""

    CUT, LATER = int(3 * FS), int(4 * FS)

    def _checkpointed(self, fleet, directory):
        """A 1-worker fleet checkpointed at CUT, then streamed to LATER."""
        detectors, signals = fleet
        gateway = ShardedStreamGateway(1)
        for sid, detector in detectors.items():
            gateway.open(sid, detector)
        head = gateway.run(
            {s: sig[:self.CUT] for s, sig in signals.items()}, 128
        )
        gateway.checkpoint(directory)
        middle = gateway.run(
            {s: sig[self.CUT:self.LATER] for s, sig in signals.items()}, 128
        )
        saved = {path.name: path.read_bytes() for path in directory.iterdir()}
        return gateway, head, middle, saved

    def _assert_resumes(self, fleet, directory, head, start):
        """Restoring ``directory`` continues bit-exactly from ``start``."""
        detectors, signals = fleet
        expected = reference_events(detectors, signals)
        with ShardedStreamGateway.restore(directory) as restored:
            rest = restored.run(
                {s: sig[start:] for s, sig in signals.items()}, 128
            )
        for sid in detectors:
            assert head[sid] + rest[sid] == expected[sid]

    def test_shard_write_failing_partway(self, fleet, tmp_path, monkeypatch):
        directory = tmp_path / "fleet"
        gateway, head, _, saved = self._checkpointed(fleet, directory)
        write_array = np.lib.format.write_array
        entries = []

        def failing(*args, **kwargs):
            entries.append(1)
            if len(entries) == 7:
                raise OSError("disk full")
            return write_array(*args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", failing)
        with pytest.raises(OSError, match="disk full"):
            gateway.checkpoint(directory)
        monkeypatch.undo()
        gateway.shutdown()
        assert len(entries) == 7
        # The shard and the manifest are the first checkpoint's, byte
        # for byte, and no temporary file is left beside them.
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == saved
        self._assert_resumes(fleet, directory, head, self.CUT)

    def test_manifest_write_failing(self, fleet, tmp_path, monkeypatch):
        import repro.core.persistence as persistence

        directory = tmp_path / "fleet"
        gateway, head, middle, saved = self._checkpointed(fleet, directory)
        replace = persistence.os.replace

        def failing(src, dst):
            if str(dst).endswith(".json"):
                raise OSError("disk full")
            return replace(src, dst)

        monkeypatch.setattr(persistence.os, "replace", failing)
        with pytest.raises(OSError, match="disk full"):
            gateway.checkpoint(directory)
        monkeypatch.undo()
        gateway.shutdown()
        # The shard was replaced whole; the manifest is the old one and
        # still names it.
        assert sorted(p.name for p in directory.iterdir()) == sorted(saved)
        assert (directory / "fleet.json").read_bytes() == saved["fleet.json"]
        head = {sid: head[sid] + middle[sid] for sid in head}
        self._assert_resumes(fleet, directory, head, self.LATER)
