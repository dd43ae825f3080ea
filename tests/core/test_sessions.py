"""Tests for repro.core.sessions (multi-patient stream serving)."""

import numpy as np
import pytest

from repro.core.config import LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.core.persistence import (
    detector_from_payload,
    detector_payload,
    load_sessions,
    save_sessions,
)
from repro.core.sessions import StreamSessionManager, validate_chunk
from repro.core.streaming import StreamingLaelaps
from repro.core.training import TrainingSegments
from repro.data.synthetic import (
    SeizurePlan,
    SynthesisParams,
    SyntheticIEEGGenerator,
)
from repro.hdc.backend import pack_bits
from repro.hdc.engine import engine_names
from repro.hdc.native import NATIVE_PURE_PYTHON_ENV

FS = 256.0
N_SESSIONS = 8


@pytest.fixture(scope="module")
def fleet():
    """Eight fitted packed-backend patients with individual recordings.

    Electrode counts and seeds differ per patient; t_c is below
    ``postprocess_len`` so the historic batch/stream skew would show up
    immediately if the paths diverged.
    """
    detectors = {}
    signals = {}
    for i in range(N_SESSIONS):
        n_electrodes = (8, 12, 16, 10)[i % 4]
        generator = SyntheticIEEGGenerator(
            n_electrodes, SynthesisParams(fs=FS), seed=200 + i
        )
        recording = generator.generate(90.0, [SeizurePlan(40.0, 20.0)])
        config = LaelapsConfig(
            dim=1_000, fs=FS, seed=11 + i, backend="packed", tc=6
        )
        detector = LaelapsDetector(n_electrodes, config)
        detector.fit(
            recording.data,
            TrainingSegments(ictal=((40.0, 60.0),), interictal=(5.0, 35.0)),
        )
        detectors[f"patient-{i}"] = detector
        signals[f"patient-{i}"] = recording.data
    return detectors, signals


class TestLifecycle:
    def test_open_close_contains(self, fleet):
        detectors, _ = fleet
        manager = StreamSessionManager()
        sid, detector = next(iter(detectors.items()))
        manager.open(sid, detector)
        assert sid in manager and len(manager) == 1
        assert manager.dim == detector.config.dim
        manager.close(sid)
        assert sid not in manager and len(manager) == 0
        assert manager.dim is None

    def test_duplicate_session_rejected(self, fleet):
        detectors, _ = fleet
        manager = StreamSessionManager()
        sid, detector = next(iter(detectors.items()))
        manager.open(sid, detector)
        with pytest.raises(ValueError):
            manager.open(sid, detector)

    def test_dim_mismatch_rejected(self, fleet):
        detectors, _ = fleet
        manager = StreamSessionManager()
        manager.open("a", next(iter(detectors.values())))
        other = LaelapsDetector(4, LaelapsConfig(dim=2_000, fs=FS, seed=1))
        other.fit_from_windows(
            pack_bits(np.ones((1, 2_000), dtype=np.uint8)),
            pack_bits(np.zeros((1, 2_000), dtype=np.uint8)),
        )
        with pytest.raises(ValueError):
            manager.open("b", other)

    def test_unknown_session_rejected(self, fleet):
        _, signals = fleet
        manager = StreamSessionManager()
        with pytest.raises(KeyError):
            manager.push("ghost", next(iter(signals.values()))[:100])

    def test_bad_chunk_leaves_all_sessions_untouched(self, fleet):
        # A malformed chunk anywhere in the batch must fail *before* any
        # session consumes its tick, or earlier sessions would lose the
        # windows completed by the partially-processed batch.
        detectors, signals = fleet
        ids = list(detectors)[:2]
        manager = StreamSessionManager()
        for sid in ids:
            manager.open(sid, detectors[sid])
        with pytest.raises(ValueError):
            manager.push_many(
                {
                    ids[0]: signals[ids[0]][:512],
                    ids[1]: np.zeros((512, 3)),  # wrong electrode count
                }
            )
        assert all(
            manager.session(sid).samples_seen == 0 for sid in ids
        )
        # The tick replays cleanly afterwards, matching per-stream runs.
        good = manager.push_many({sid: signals[sid][:512] for sid in ids})
        for sid in ids:
            expected = StreamingLaelaps(detectors[sid]).push(
                signals[sid][:512]
            )
            assert good[sid] == expected


class TestBatchedParity:
    """N concurrent sessions must match per-stream results bit-exactly."""

    def test_eight_packed_sessions_match_per_stream(self, fleet):
        detectors, signals = fleet
        reference = {
            sid: StreamingLaelaps(det).run(signals[sid], 300)
            for sid, det in detectors.items()
        }
        manager = StreamSessionManager()
        for sid, detector in detectors.items():
            manager.open(sid, detector)
        events = manager.run(signals, 300)
        for sid in detectors:
            assert events[sid] == reference[sid]
        assert sum(len(v) for v in events.values()) > 0

    def test_ragged_chunks_and_idle_sessions(self, fleet):
        detectors, signals = fleet
        ids = list(detectors)[:3]
        reference = {
            sid: StreamingLaelaps(detectors[sid]).run(signals[sid], 257)
            for sid in ids
        }
        manager = StreamSessionManager()
        for sid in ids:
            manager.open(sid, detectors[sid])
        events = {sid: [] for sid in ids}
        offsets = dict.fromkeys(ids, 0)
        rng = np.random.default_rng(0)
        # Deliver 257-sample chunks to a random subset per tick so
        # sessions progress at different rates (idle sessions included).
        while any(offsets[sid] < signals[sid].shape[0] for sid in ids):
            active = [
                sid for sid in ids
                if offsets[sid] < signals[sid].shape[0]
                and rng.random() < 0.7
            ]
            tick = {}
            for sid in active:
                start = offsets[sid]
                tick[sid] = signals[sid][start : start + 257]
                offsets[sid] = start + 257
            for sid, new in manager.push_many(tick).items():
                events[sid].extend(new)
        for sid in ids:
            assert events[sid] == reference[sid]

    def test_mixed_backends_share_the_sweep(self, fleet):
        detectors, signals = fleet
        sid_packed = "patient-0"
        generator = SyntheticIEEGGenerator(
            6, SynthesisParams(fs=FS), seed=999
        )
        recording = generator.generate(70.0, [SeizurePlan(30.0, 20.0)])
        unpacked = LaelapsDetector(
            6, LaelapsConfig(dim=1_000, fs=FS, seed=77, backend="unpacked")
        )
        unpacked.fit(
            recording.data,
            TrainingSegments(ictal=((30.0, 50.0),), interictal=(2.0, 28.0)),
        )
        reference = {
            sid_packed: StreamingLaelaps(detectors[sid_packed]).run(
                signals[sid_packed], 512
            ),
            "unpacked": StreamingLaelaps(unpacked).run(recording.data, 512),
        }
        manager = StreamSessionManager()
        manager.open(sid_packed, detectors[sid_packed])
        manager.open("unpacked", unpacked)
        events = manager.run(
            {sid_packed: signals[sid_packed], "unpacked": recording.data}, 512
        )
        for sid, expected in reference.items():
            assert events[sid] == expected

    def test_staged_tick_matches_solo_streams(self, fleet, tmp_path,
                                              monkeypatch):
        """One tick completes 0, 1 and >= 2 blocks across sessions of
        mixed engines and electrode counts, over more sessions than one
        block tile holds, through a mid-block checkpoint and a t_r
        retuned mid-stream: events equal solo streams'."""
        from repro.hdc import temporal

        # Three packed sessions per tile at d = 1000 (an unpacked tile
        # holds one), so the tick spans many tiles.
        monkeypatch.setattr(temporal, "_TILE_WORDS", 3 * 128 * 16)
        detectors, signals = fleet
        models = dict(detectors)
        for i in range(3):
            recording = SyntheticIEEGGenerator(
                6, SynthesisParams(fs=FS), seed=500 + i
            ).generate(70.0, [SeizurePlan(30.0, 20.0)])
            unpacked = LaelapsDetector(6, LaelapsConfig(
                dim=1_000, fs=FS, seed=90 + i, backend="unpacked", tc=6))
            unpacked.fit(recording.data, TrainingSegments(
                ictal=((30.0, 50.0),), interictal=(2.0, 28.0)))
            models[f"unpacked-{i}"] = unpacked
            signals = {**signals, f"unpacked-{i}": recording.data}
        rng = np.random.default_rng(3)
        offsets = dict.fromkeys(models, 0)
        ticks = []
        while any(offsets[sid] < signals[sid].shape[0] for sid in models):
            tick = {}
            for sid in models:
                size = int(rng.choice([0, 50, 128, 300, 700]))
                if offsets[sid] < signals[sid].shape[0] and size:
                    tick[sid] = signals[sid][offsets[sid]:offsets[sid] + size]
                    offsets[sid] += size
            ticks.append(tick)
        retune_at, retuned = len(ticks) // 2, list(models)[::3]

        def clone(detector):
            return detector_from_payload(detector_payload(detector))

        reference = {}
        for sid, detector in models.items():
            stream = StreamingLaelaps(clone(detector))
            reference[sid] = []
            for index, tick in enumerate(ticks):
                if index == retune_at and sid in retuned:
                    stream.detector.tr = 0.0
                if sid in tick:
                    reference[sid] += stream.push(tick[sid])
        manager = StreamSessionManager()
        for sid, detector in models.items():
            manager.open(sid, clone(detector))
        events = {sid: [] for sid in models}
        block_counts = set()
        for index, tick in enumerate(ticks):
            if index == len(ticks) // 3:
                pending = [manager.session(sid)._encoder._pending.shape[0]
                           for sid in models]
                assert any(pending)  # the checkpoint lands mid-block
                manager = load_sessions(
                    save_sessions(manager, tmp_path / "mid.npz")
                )
            if index == retune_at:
                for sid in retuned:
                    manager.session(sid).detector.tr = 0.0
            for sid, new in manager.push_many(tick).items():
                events[sid] += new
                # Past warm-up, each completed block completes a window.
                block_counts.add(len(new))
        assert {0, 1} <= block_counts and max(block_counts) >= 2
        assert events == reference
        assert any(event.alarm for stream in events.values()
                   for event in stream)

    def test_float32_ticks_match_float64(self, fleet):
        detectors, signals = fleet
        ids = list(detectors)[:4]
        events = {}
        for dtype in (np.float32, np.float64):
            manager = StreamSessionManager()
            for sid in ids:
                manager.open(sid, detectors[sid])
            events[dtype] = manager.run(
                {sid: signals[sid].astype(dtype) for sid in ids}, 300
            )
            raw_tail = manager.session(ids[0]).state_dict()["raw_tail"]
            assert raw_tail.dtype == dtype
        assert events[np.float32] == events[np.float64]

    def test_tail_keeps_chunk_dtype_across_switches_and_restore(
        self, fleet, tmp_path
    ):
        # The same float32-exact samples, fed all as float64 or switching
        # dtype every chunk, through a mid-stream checkpoint/restore.
        detectors, signals = fleet
        ids = list(detectors)[:3]
        samples = {sid: signals[sid].astype(np.float32) for sid in ids}
        n_samples = min(len(x) for x in samples.values())
        cut = 256 * 6 + 55  # checkpointed while the tail is float32

        def feed(manager, start, stop, switched, events, widest):
            for k, begin in enumerate(range(start, stop, 300)):
                dtype = (
                    np.float32 if switched and (k < 6 or k % 2)
                    else np.float64
                )
                widest = np.result_type(widest, dtype)
                ticked = manager.push_many({
                    sid: samples[sid][begin:min(begin + 300, stop)]
                    .astype(dtype)
                    for sid in ids
                })
                for sid in ids:
                    events[sid].extend(ticked[sid])
                    # The carried tail is as wide as the widest chunk
                    # it has seen, never wider.
                    tail = manager.session(sid)._raw_tail
                    assert tail.dtype == widest

        def npz_values(path):
            with np.load(path) as archive:
                return {name: archive[name] for name in archive.files}

        runs = {}
        for switched in (False, True):
            events = {sid: [] for sid in ids}
            manager = StreamSessionManager()
            for sid in ids:
                manager.open(sid, detectors[sid])
            feed(manager, 0, cut, switched, events, np.float16)
            path = save_sessions(manager, tmp_path / f"{switched}.npz")
            # A restored tail keeps the dtype it was checkpointed in.
            saved = np.float32 if switched else np.float64
            restored = load_sessions(path)
            for sid in ids:
                assert restored.session(sid)._raw_tail.dtype == saved
            feed(restored, cut, n_samples, switched, events, saved)
            runs[switched] = (events, npz_values(path))
        assert runs[True][0] == runs[False][0]
        assert any(runs[True][0][sid] for sid in ids)
        # The checkpoints hold equal values; only the tail's dtype differs.
        narrow, wide = runs[True][1], runs[False][1]
        assert narrow.keys() == wide.keys()
        for name in wide:
            np.testing.assert_array_equal(narrow[name], wide[name],
                                          err_msg=name)
        assert {name for name in wide
                if narrow[name].dtype != wide[name].dtype} == {
            f"s{i}__raw_tail" for i in range(len(ids))
        }

    def test_validate_chunk_keeps_floats_and_upcasts_the_rest(self):
        chunk = np.zeros((4, 2), dtype=np.float32)
        assert validate_chunk("s", chunk, 2) is chunk
        assert validate_chunk("s", [[1, 2]], 2).dtype == np.float64
        with pytest.raises(ValueError, match="expects"):
            validate_chunk("s", chunk, 3)


def _import_refused(fleet, engine: str, encoder_state) -> None:
    """Importing a session whose encoder checkpoint is updated with
    ``encoder_state(detector)`` must raise and change nothing."""
    detectors, signals = fleet
    (sid, detector), (other, _) = list(detectors.items())[:2]
    state = StreamingLaelaps(detector).state_dict()
    state["encoder"].update(encoder_state(detector))
    payload = {
        "model": {**detector_payload(detector), "engine": engine},
        "state": state,
    }
    manager = StreamSessionManager()
    manager.open(other, detectors[other])
    with pytest.raises(ValueError):
        manager.import_session(sid, payload)
    # Nothing is half imported: the next tick runs as if the import had
    # never been tried.
    assert manager.session_ids == [other]
    chunk = signals[other][:512]
    assert manager.push_many({other: chunk})[other] == (
        StreamingLaelaps(detectors[other]).push(chunk)
    )


class TestCheckpointing:
    def test_mid_stream_round_trip(self, fleet, tmp_path):
        detectors, signals = fleet
        reference = {
            sid: StreamingLaelaps(det).run(signals[sid], 300)
            for sid, det in detectors.items()
        }
        manager = StreamSessionManager()
        for sid, detector in detectors.items():
            manager.open(sid, detector)
        cut = 256 * 33 + 97  # mid-block, mid-code, mid-postprocess-window
        head = manager.run(
            {sid: signals[sid][:cut] for sid in detectors}, 300
        )
        restored = load_sessions(
            save_sessions(manager, tmp_path / "sessions.npz")
        )
        assert restored.session_ids == manager.session_ids
        tail = restored.run(
            {sid: signals[sid][cut:] for sid in detectors}, 300
        )
        for sid in detectors:
            assert head[sid] + tail[sid] == reference[sid]

    @pytest.mark.parametrize("engine", engine_names())
    @pytest.mark.parametrize("count", [2**32 + 5, -1])
    def test_restore_rejects_block_counts_out_of_range(
        self, fleet, engine, count, monkeypatch
    ):
        # The reference's int32 cast used to wrap 2**32 + 5 while the
        # packed planes kept it exact, so the engines disagreed.
        monkeypatch.setenv(NATIVE_PURE_PYTHON_ENV, "1")
        _import_refused(fleet, engine, lambda detector: {
            "blocks": [np.full(detector.config.dim, count)],
        })

    @pytest.mark.parametrize("engine", engine_names())
    @pytest.mark.parametrize("rows,code", [(1, 999), (1, -1), (None, 0)])
    def test_restore_rejects_bad_pending_codes(
        self, fleet, engine, rows, code, monkeypatch
    ):
        # Pending codes used to reach the spatial encoder only at the
        # next push, after other sessions of that tick had consumed
        # their samples.  ``rows=None`` is a whole block's worth, which
        # the encoder would already have consumed.
        monkeypatch.setenv(NATIVE_PURE_PYTHON_ENV, "1")

        def pending(detector):
            n = rows or detector.config.window_spec.step_samples
            return {"pending": np.full((n, detector.n_electrodes), code)}

        _import_refused(fleet, engine, pending)

    def test_empty_manager_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_sessions(StreamSessionManager(), tmp_path / "empty.npz")

    def test_version_check(self, fleet, tmp_path):
        import json

        detectors, _ = fleet
        manager = StreamSessionManager()
        sid, detector = next(iter(detectors.items()))
        manager.open(sid, detector)
        path = save_sessions(manager, tmp_path / "s.npz")
        with np.load(path) as archive:
            payload = {name: archive[name] for name in archive.files}
        meta = json.loads(bytes(payload["meta"].tobytes()).decode())
        meta["version"] = 99
        payload["meta"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        np.savez_compressed(tmp_path / "bad.npz", **payload)
        with pytest.raises(ValueError):
            load_sessions(tmp_path / "bad.npz")
