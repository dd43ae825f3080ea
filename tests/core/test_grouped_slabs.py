"""Serving ticks whose slabs are one spatial call over many sessions.

A tick's packed block tile holds all of a shard's sessions of one
electrode count and alphabet, their block codes staged once, and each
sample slab of it is one ``encode_packed`` call in which every record
gathers from its session's slot of the shared bound-table arena.
Fleets mixing engines, electrode counts and seeds must still give every
session the events of a lone stream and of the integer-counter
reference.
"""

import gc
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.core.persistence import (
    detector_from_payload,
    detector_payload,
    load_sessions,
    save_sessions,
)
from repro.core.sessions import StreamSessionManager
from repro.core.streaming import StreamingLaelaps
from repro.core.training import TrainingSegments
from repro.data.synthetic import (
    SeizurePlan,
    SynthesisParams,
    SyntheticIEEGGenerator,
)
from repro.hdc.native import NATIVE_PURE_PYTHON_ENV
from repro.hdc.temporal_packed import PackedBlockTile
from repro.serve import ShardedStreamGateway

FS = 256.0
ELECTRODES = (1, 2, 3, 5, 16)
SEEDS = (1, 2, 3)
ENGINES = ("packed", "packed-native", "unpacked")
SIGNALS = 2


@pytest.fixture(scope="module")
def fleet_models():
    """A fitted model per (electrode count, seed, engine) at d = 192,
    and per electrode count a few 12 s signals with a seizure."""
    models, signals = {}, {}
    with mock.patch.dict(os.environ, {NATIVE_PURE_PYTHON_ENV: "1"}):
        for n_electrodes in ELECTRODES:
            recordings = [
                SyntheticIEEGGenerator(
                    n_electrodes, SynthesisParams(fs=FS), seed=70 + 7 * i
                ).generate(12.0, [SeizurePlan(4.0, 6.0)]).data
                for i in range(SIGNALS + 1)
            ]
            signals[n_electrodes] = recordings[1:]
            for seed in SEEDS:
                detector = LaelapsDetector(n_electrodes, LaelapsConfig(
                    dim=192, fs=FS, seed=seed, backend="packed", tc=3))
                detector.fit(recordings[0], TrainingSegments(
                    ictal=((4.0, 10.0),), interictal=(0.5, 3.5)))
                payload = detector_payload(detector)
                for engine in ENGINES:
                    models[n_electrodes, seed, engine] = payload, engine
    return models, signals


def _build(models, key) -> LaelapsDetector:
    payload, engine = models[key]
    with mock.patch.dict(os.environ, {NATIVE_PURE_PYTHON_ENV: "1"}):
        return detector_from_payload({**payload, "engine": engine})


@st.composite
def fleets(draw):
    """Sessions as (electrodes, seed, engine, signal) and a chunk seed."""
    seeds = SEEDS[: draw(st.integers(1, 3))]
    sessions = [
        (draw(st.sampled_from(ELECTRODES)), draw(st.sampled_from(seeds)),
         draw(st.sampled_from(ENGINES)), draw(st.integers(0, SIGNALS - 1)))
        for _ in range(draw(st.integers(1, 12)))
    ]
    return sessions, draw(st.integers(0, 2**32 - 1))


class TestMixedFleets:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fleets())
    def test_events_equal_lone_pushes_and_the_reference(
        self, fleet_models, fleet
    ):
        models, signals = fleet_models
        sessions, chunk_seed = fleet
        rng = np.random.default_rng(chunk_seed)
        # Per tick, each session gets 1-300 samples or sits idle.
        data = {f"s{i}": signals[e][k] for i, (e, _, _, k) in enumerate(sessions)}
        offsets = dict.fromkeys(data, 0)
        ticks = []
        while any(offsets[sid] < len(data[sid]) for sid in data):
            tick = {}
            for sid, signal in data.items():
                if offsets[sid] < len(signal) and rng.random() < 0.8:
                    size = int(rng.integers(1, 301))
                    tick[sid] = signal[offsets[sid] : offsets[sid] + size]
                    offsets[sid] += size
            ticks.append(tick)
        manager = StreamSessionManager()
        lone, reference = {}, {}
        for sid, (e, seed, engine, _) in zip(data, sessions):
            manager.open(sid, _build(models, (e, seed, engine)))
            lone[sid] = StreamingLaelaps(_build(models, (e, seed, engine)))
            reference[sid] = StreamingLaelaps(
                _build(models, (e, seed, "unpacked")))
        events = {sid: [] for sid in data}
        alone = {sid: [] for sid in data}
        expected = {sid: [] for sid in data}
        for tick in ticks:
            for sid, new in manager.push_many(tick).items():
                events[sid] += new
            for sid, chunk in tick.items():
                alone[sid] += lone[sid].push(chunk)
                expected[sid] += reference[sid].push(chunk)
        assert events == alone
        assert events == expected
        assert all(len(events[sid]) > 0 for sid in data)


class _TileSpy:
    """Records each packed tile flush's rows and slab sizes."""

    def __init__(self) -> None:
        self.flushes: list[tuple[int, list[int]]] = []
        begin, add = PackedBlockTile._begin, PackedBlockTile._add

        def spy_begin(tile, k):
            self.flushes.append((len(tile.codes), []))
            begin(tile, k)

        def spy_add(tile, counter, slab):
            self.flushes[-1][1].append(slab.shape[0])
            add(tile, counter, slab)

        self.patches = (
            mock.patch.object(PackedBlockTile, "_begin", spy_begin),
            mock.patch.object(PackedBlockTile, "_add", spy_add))

    def __enter__(self):
        for patch in self.patches:
            patch.start()
        return self

    def __exit__(self, *exc_info):
        for patch in self.patches:
            patch.stop()


def _lone_and_reference(models, keys, ticks):
    """Each session's events pushed alone, and on the unpacked engine."""
    alone, expected = {}, {}
    for sid, (e, seed, engine) in keys.items():
        lone = StreamingLaelaps(_build(models, (e, seed, engine)))
        reference = StreamingLaelaps(_build(models, (e, seed, "unpacked")))
        alone[sid], expected[sid] = [], []
        for tick in ticks:
            if sid in tick:
                alone[sid] += lone.push(tick[sid])
                expected[sid] += reference.push(tick[sid])
    return alone, expected


class TestShardTiles:
    """A serving tile holds all of a shard's same-shape sessions."""

    def test_a_34_30_fleet_flushes_one_tile_per_shard(self, fleet_models):
        # serve-fleet's split: 64 sessions on an inline 2-shard gateway
        # land 34 and 30 per shard.  Each shard tick is one tile of all
        # its sessions, and at d = 192 the slabs split every block
        # (a quarter budget holds 80 samples of 34 rows).
        models, signals = fleet_models
        keys = {f"s{i:05d}": (16, SEEDS[i % 3], "packed") for i in range(64)}
        step = int(FS / 2)
        signal = signals[16][0]
        ticks = [{sid: signal[start : start + step] for sid in keys}
                 for start in range(0, len(signal), step)]
        gateway = ShardedStreamGateway(2, mode="inline")
        try:
            for sid, key in keys.items():
                gateway.open(sid, _build(models, key))
            shards = sorted(map(len, gateway.shard_map().values()))
            assert shards == [30, 34]
            events = {sid: [] for sid in keys}
            tiles_per_tick = []
            with _TileSpy() as spy:
                for tick in ticks:
                    before = len(spy.flushes)
                    for sid, new in gateway.push_many(tick).items():
                        events[sid] += new
                    tiles_per_tick.append(len(spy.flushes) - before)
        finally:
            gateway.shutdown()
        # The first tick's codes fill no block (the LBP margin).
        assert tiles_per_tick == [0] + [2] * (len(ticks) - 1)
        assert sorted({rows for rows, _ in spy.flushes}) == [30, 34]
        for rows, slabs in spy.flushes:
            assert sum(slabs) == step and len(slabs) > 1
        alone, expected = _lone_and_reference(models, keys, ticks)
        assert events == alone
        assert events == expected
        assert all(events[sid] for sid in keys)

    def test_a_checkpoint_between_ticks_with_pending_codes(
        self, fleet_models, tmp_path
    ):
        # 0.5 s ticks leave every session step - margin codes pending
        # (122 at 256 Hz): a save/load round trip between two ticks
        # resumes them in the compact dtype, bit-exactly.
        models, signals = fleet_models
        keys = {f"s{i}": (16, SEEDS[i % 3], ENGINES[i % 3]) for i in range(12)}
        step = int(FS / 2)
        signal = signals[16][1]
        ticks = [{sid: signal[start : start + step] for sid in keys}
                 for start in range(0, len(signal), step)]
        manager = StreamSessionManager()
        for sid, key in keys.items():
            manager.open(sid, _build(models, key))
        events = {sid: [] for sid in keys}
        for index, tick in enumerate(ticks):
            if index == len(ticks) // 2:
                for sid in keys:
                    stream = manager.session(sid)
                    pending = stream._encoder._pending
                    assert pending.shape[0] == step - stream._symbolizer.margin
                    assert pending.dtype == np.uint8
                native_env = {NATIVE_PURE_PYTHON_ENV: "1"}
                with mock.patch.dict(os.environ, native_env):
                    manager = load_sessions(
                        save_sessions(manager, tmp_path / "tick.npz"))
                assert all(manager.session(sid)._encoder._pending.dtype
                           == np.uint8 for sid in keys)
            for sid, new in manager.push_many(tick).items():
                events[sid] += new
        alone, expected = _lone_and_reference(models, keys, ticks)
        assert events == alone
        assert events == expected


class TestTickMemory:
    #: tracemalloc peak (median over ticks) of one 32-session serving
    #: tick, 16 electrodes, d = 2000, 4 templates, 0.5 s chunks, when a
    #: shard's sessions became one tile counted in 256-record slabs
    #: (0.994 MB before, with 8-row tiles of 128-record spatial tiles).
    #: A 10% rise fails: slabs of 384 records, say, peak at about 1.3 MB.
    PEAK_MB = 0.985

    def test_a_32_session_tick_keeps_its_peak(self):
        generator = SyntheticIEEGGenerator(16, SynthesisParams(fs=FS), seed=5)
        templates = []
        for i in range(4):
            recording = generator.generate(46.0, [SeizurePlan(32.0, 12.0)])
            detector = LaelapsDetector(16, LaelapsConfig(
                dim=2_000, fs=FS, seed=40 + i, backend="packed", tc=6))
            detector.fit(recording.data, TrainingSegments(
                ictal=((32.0, 44.0),), interictal=(1.0, 31.0)))
            templates.append(detector_payload(detector))
        manager = StreamSessionManager()
        for i in range(32):
            manager.open(f"s{i}", detector_from_payload(templates[i % 4]))
        # The 32 sessions hold 4 bound tables, not 32.
        bases = {manager.session(f"s{i}").detector.spatial.base
                 for i in range(32)}
        assert len(bases) == 4
        signal = generator.generate(8.0, []).data
        step = int(FS / 2)
        peaks = []
        for start in range(0, len(signal) - step + 1, step):
            tick = {f"s{i}": signal[start : start + step] for i in range(32)}
            gc.collect()
            tracemalloc.start()
            try:
                manager.push_many(tick)
                peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
            finally:
                tracemalloc.stop()
        peak = float(np.median(peaks[4:]))
        assert peak <= 1.1 * self.PEAK_MB, f"tick peak {peak:.3f} MB"
