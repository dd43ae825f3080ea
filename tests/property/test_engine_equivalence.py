"""Property tests: every registered compute engine is bit-exact.

The tentpole contract of :mod:`repro.hdc.engine`: the ``unpacked``,
``packed`` and ``packed-native`` engines produce identical prototypes,
labels, Hamming distances and stream events on arbitrary inputs — over
odd dimensions (padding bits in the top word), ragged stream chunking,
the chunk loop behind ``predict``, mixed-engine session fleets sharing
one grouped sweep, and mid-stream checkpoint/restore where the
checkpoint is reopened on a *different* engine than the one that wrote
it (the retired ``packed-fused`` tag included).

``packed-native`` participates on every host: with numba installed (the
``native-engine`` CI job) its kernels run JIT-compiled and parallel,
without it the module-scoped fixture below forces the pure-Python
kernel twins — the exact same kernel code, so bit-exactness holds in
both environments.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.streaming as streaming_module
from repro.core.config import ICTAL, INTERICTAL, LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.core.sessions import StreamSessionManager
from repro.core.streaming import StreamingLaelaps
from repro.hdc.backend import random_bits, unpack_bits
from repro.hdc.engine import (
    PACKED_NATIVE_ENGINE,
    engine_names,
    resolve_engine_name,
)
from repro.hdc.native import NATIVE_PURE_PYTHON_ENV

ENGINES = engine_names()


@pytest.fixture(scope="module", autouse=True)
def _native_engine_constructible():
    """Let ``packed-native`` build on numba-free hosts (pure-Python twins).

    Module-scoped (not function-scoped) so hypothesis's
    function_scoped_fixture health check stays quiet; restores the
    environment on the way out.
    """
    previous = os.environ.get(NATIVE_PURE_PYTHON_ENV)
    os.environ[NATIVE_PURE_PYTHON_ENV] = "1"
    yield
    if previous is None:
        os.environ.pop(NATIVE_PURE_PYTHON_ENV, None)
    else:
        os.environ[NATIVE_PURE_PYTHON_ENV] = previous
#: Dimensions straddling word boundaries: d % 64 in {63, 0, 1, ...}.
ODD_DIMS = st.sampled_from([63, 64, 65, 127, 129, 200, 257])
FS = 32.0  # 32-sample windows, 16-sample blocks: fast under hypothesis


def _fitted(engine: str, dim: int, rng: np.random.Generator,
            n_electrodes: int = 3) -> LaelapsDetector:
    """A fitted detector on ``engine``, trained from shared unpacked H.

    Every engine accepts the unpacked window form, so training all
    engines from the same uint8 windows checks the training dispatch
    (``engine.train``) as well as the query path.
    """
    detector = LaelapsDetector(
        n_electrodes,
        LaelapsConfig(dim=dim, fs=FS, lbp_length=3, seed=11, backend=engine),
    )
    detector.fit_from_windows(
        random_bits((4, dim), np.random.default_rng(rng.integers(2**31))),
        random_bits((4, dim), np.random.default_rng(rng.integers(2**31))),
    )
    detector.tr = 1.0
    return detector


def _signal(rng: np.random.Generator, seconds: float,
            n_electrodes: int = 3) -> np.ndarray:
    return rng.standard_normal((int(seconds * FS), n_electrodes))


class TestBatchEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(ODD_DIMS, st.integers(0, 2**31 - 1))
    def test_encode_matches_across_engines(self, dim, seed):
        """H vectors agree component for component after unpacking."""
        signal = _signal(np.random.default_rng(seed + 1), 3.0)
        reference = None
        for engine in ENGINES:
            h = _fitted(engine, dim, np.random.default_rng(seed)).encode(
                signal
            )
            as_bits = h if h.dtype == np.uint8 else unpack_bits(h, dim)
            if reference is None:
                reference = as_bits
            else:
                np.testing.assert_array_equal(as_bits, reference)
        assert reference is not None and reference.shape[0] > 0

    @settings(max_examples=20, deadline=None)
    @given(ODD_DIMS, st.integers(0, 2**31 - 1))
    def test_train_and_predict_bit_exact(self, dim, seed):
        """Prototypes, labels, distances and deltas agree everywhere."""
        signal = _signal(np.random.default_rng(seed + 1), 4.0)
        results = {}
        for engine in ENGINES:
            detector = _fitted(engine, dim, np.random.default_rng(seed))
            results[engine] = (
                detector.memory.prototype(INTERICTAL),
                detector.memory.prototype(ICTAL),
                detector.predict(signal),
            )
        ref_inter, ref_ictal, ref_preds = results[ENGINES[0]]
        for engine in ENGINES[1:]:
            inter, ictal, preds = results[engine]
            np.testing.assert_array_equal(inter, ref_inter)
            np.testing.assert_array_equal(ictal, ref_ictal)
            np.testing.assert_array_equal(preds.labels, ref_preds.labels)
            np.testing.assert_array_equal(
                preds.distances, ref_preds.distances
            )
            np.testing.assert_array_equal(preds.deltas, ref_preds.deltas)
            np.testing.assert_array_equal(preds.times, ref_preds.times)

    @settings(max_examples=25, deadline=None)
    @given(ODD_DIMS, st.integers(1, 6), st.integers(0, 2**31 - 1))
    def test_cross_engine_window_feeding(self, dim, n_windows, seed):
        """Windows encoded on any engine classify identically on any other."""
        rng = np.random.default_rng(seed)
        detectors = {
            engine: _fitted(engine, dim, np.random.default_rng(seed))
            for engine in ENGINES
        }
        windows = random_bits((n_windows, dim), rng)
        forms = [windows, detectors["packed"].engine.pack_queries(windows)]
        reference = None
        for detector in detectors.values():
            for form in forms:
                labels, dists, deltas = detector.classify_from_windows(form)
                if reference is None:
                    reference = (labels, dists, deltas)
                else:
                    np.testing.assert_array_equal(labels, reference[0])
                    np.testing.assert_array_equal(dists, reference[1])
                    np.testing.assert_array_equal(deltas, reference[2])


class TestChunkedPredict:
    """``predict``'s chunk loop equals one-shot encode + classify."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("chunk_of_step", [
        pytest.param(lambda step: 1, id="one-sample"),
        pytest.param(lambda step: step // 2 + 1, id="mid-block"),
        pytest.param(lambda step: step, id="block-edge"),
    ])
    def test_predict_equals_one_shot(self, monkeypatch, engine,
                                     chunk_of_step):
        detector = _fitted(engine, 129, np.random.default_rng(9))
        step = detector.config.window_spec.step_samples
        monkeypatch.setattr(
            streaming_module, "DEFAULT_CHUNK_SAMPLES", chunk_of_step(step)
        )
        signal = _signal(np.random.default_rng(5), 8.0)
        chunked = detector.predict(signal)
        one_shot = detector.predict_from_windows(detector.encode(signal))
        assert len(one_shot) > 1
        for field in ("labels", "distances", "deltas", "times"):
            np.testing.assert_array_equal(
                getattr(chunked, field), getattr(one_shot, field)
            )

    def test_signal_shorter_than_margin_plus_window(self):
        detector = _fitted("packed", 65, np.random.default_rng(3))
        n = detector.symbolizer.margin + detector.config.window_spec.window_samples
        preds = detector.predict(_signal(np.random.default_rng(4), 2.0)[: n - 1])
        assert preds.labels.shape == (0,)
        assert preds.distances.shape == (0, 2)
        assert preds.times.shape == (0,)

    @pytest.mark.parametrize("dtype", [np.uint16, np.int16])
    def test_integer_samples_score_like_float64(self, dtype):
        """Integer input gives the codes of the same samples in float64
        (a subtraction would wrap: uint16 3 - 5 is 65534)."""
        detector = _fitted("packed", 129, np.random.default_rng(9))
        info = np.iinfo(dtype)
        samples = np.random.default_rng(6).integers(
            info.min, info.max, size=(int(8 * FS), 3), endpoint=True
        ).astype(dtype)
        as_float = samples.astype(np.float64)
        np.testing.assert_array_equal(
            detector.encode(samples), detector.encode(as_float)
        )
        got, want = detector.predict(samples), detector.predict(as_float)
        assert len(want) > 0
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.distances, want.distances)


@st.composite
def ragged_cuts(draw, n_samples: int):
    cuts = draw(st.lists(st.integers(1, n_samples), max_size=6).map(sorted))
    return [0, *cuts, n_samples]


class TestStreamingEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(ODD_DIMS, st.data())
    def test_ragged_chunking_matches_batch_on_every_engine(self, dim, data):
        seed = data.draw(st.integers(0, 2**31 - 1))
        signal = _signal(np.random.default_rng(seed + 1), 5.0)
        bounds = data.draw(ragged_cuts(signal.shape[0]))
        reference = None
        for engine in ENGINES:
            detector = _fitted(engine, dim, np.random.default_rng(seed))
            batch = detector.detect(signal)
            stream = StreamingLaelaps(detector)
            events = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                events.extend(stream.push(signal[lo:hi]))
            streamed = [
                (e.time_s, e.label, e.delta, e.alarm) for e in events
            ]
            assert len(streamed) == len(batch.predictions)
            np.testing.assert_array_equal(
                [s[1] for s in streamed], batch.predictions.labels
            )
            if reference is None:
                reference = streamed
            else:
                assert streamed == reference


class TestMixedEngineFleet:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([5, 11, 16, 37]))
    def test_grouped_sweep_matches_solo_streams(self, seed, chunk):
        """One manager serving every engine at once is bit-exact."""
        dim = 127
        rng = np.random.default_rng(seed)
        manager = StreamSessionManager()
        solo = {}
        signals = {}
        for i, engine in enumerate(ENGINES):
            detector = _fitted(engine, dim, np.random.default_rng(seed + i))
            twin = _fitted(engine, dim, np.random.default_rng(seed + i))
            session_id = f"s-{engine}"
            manager.open(session_id, detector)
            solo[session_id] = StreamingLaelaps(twin)
            signals[session_id] = _signal(
                np.random.default_rng(seed + 50 + i), 4.0
            )
        fleet_events = manager.run(signals, chunk)
        for session_id, signal in signals.items():
            solo_events = solo[session_id].run(signal, chunk)
            assert [
                (e.time_s, e.label, e.delta, e.alarm)
                for e in fleet_events[session_id]
            ] == [
                (e.time_s, e.label, e.delta, e.alarm) for e in solo_events
            ]
        del rng  # randomness flows through the per-session seeds


class TestCheckpointAcrossEngines:
    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from([17, 29, 40]),
        st.sampled_from(ENGINES),
        st.sampled_from(ENGINES),
    )
    def test_midstream_export_reopens_on_any_engine(
        self, seed, cut_chunk, engine_a, engine_b
    ):
        """A session checkpointed on one engine resumes on another.

        The exported payload pins the engine that wrote it; rewriting
        the tag before import must still produce bit-identical events,
        because the persisted state (prototypes, symboliser tail, block
        counters as plain numpy data) is engine-independent.
        """
        _roundtrip_checkpoint(engine_a, engine_b, seed, cut_chunk)


def _roundtrip_checkpoint(
    engine_a: str, engine_b: str, seed: int, cut_chunk: int, dim: int = 100
) -> None:
    """Checkpoint mid-stream on ``engine_a``, resume on ``engine_b``."""
    signal = _signal(np.random.default_rng(seed + 1), 5.0)
    half = signal.shape[0] // 2

    reference = StreamingLaelaps(
        _fitted(engine_a, dim, np.random.default_rng(seed))
    )
    expected = reference.run(signal, cut_chunk)

    manager = StreamSessionManager()
    manager.open(
        "p0", _fitted(engine_a, dim, np.random.default_rng(seed))
    )
    events = []
    for start in range(0, half, cut_chunk):
        events.extend(
            manager.push("p0", signal[start : start + cut_chunk])
        )
    payload = manager.pop_session("p0")
    assert payload["model"]["engine"] == resolve_engine_name(engine_a)

    payload["model"]["engine"] = engine_b
    resumed = StreamSessionManager()
    stream = resumed.import_session("p0", payload)
    assert stream.detector.backend == resolve_engine_name(engine_b)
    consumed = stream.samples_seen
    for lo in range(consumed, signal.shape[0], cut_chunk):
        events.extend(resumed.push("p0", signal[lo : lo + cut_chunk]))
    assert [
        (e.time_s, e.label, e.delta, e.alarm) for e in events
    ] == [(e.time_s, e.label, e.delta, e.alarm) for e in expected]


class TestNativeCheckpointDirections:
    """Explicit to/from ``packed-native`` restore coverage, both ways.

    The hypothesis test above samples engine pairs; these pin the four
    native-engine directions so every run exercises them, odd dim and
    mid-window cut included.  ``packed-fused`` is the retired alias of
    ``packed``: a session tagged with it must resume on ``packed``.
    """

    @pytest.mark.parametrize("engine_a, engine_b", [
        (PACKED_NATIVE_ENGINE, "packed-fused"),
        ("packed-fused", PACKED_NATIVE_ENGINE),
        (PACKED_NATIVE_ENGINE, "unpacked"),
        ("unpacked", PACKED_NATIVE_ENGINE),
    ])
    def test_midstream_restore(self, engine_a, engine_b):
        _roundtrip_checkpoint(engine_a, engine_b, seed=123, cut_chunk=29,
                              dim=127)
