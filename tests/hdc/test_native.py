"""Tests for repro.hdc.native (the packed-native engine).

The kernels run in every environment: with numba installed they
exercise the JIT-compiled parallel path (the ``native-engine`` CI job),
without it the pure-Python twins of the exact same code.  Bit-exactness
is asserted against the numpy implementations either way.
"""

import importlib
import os
import statistics
import time

import numpy as np
import pytest

import repro.hdc.native as native_module
from repro.cli import main
from repro.core.config import GOLDEN_DIM, LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.hdc.associative import grouped_classify_packed
from repro.hdc.backend import pack_bits, popcount_words, random_bits
from repro.hdc.bitsliced import (
    bitsliced_counts,
    plane_depth,
    planes_to_counts,
)
from repro.hdc.engine import (
    AUTO_ENGINE,
    PACKED_ENGINE,
    PACKED_NATIVE_ENGINE,
    EngineUnavailableError,
    PackedEngine,
    build_engine,
    engine_capabilities,
    resolve_engine_name,
)
from repro.hdc.item_memory import ItemMemory
from repro.hdc.native import (
    NATIVE_PURE_PYTHON_ENV,
    NATIVE_THREADS_ENV,
    NativeBlockTile,
    NativeSpatialEncoder,
    PackedNativeEngine,
    apply_native_threads,
    configure_native_threads,
    grouped_classify_packed_native,
    native_available,
    native_bitsliced_counts,
    native_bundle_exceeds,
    numba_available,
    requested_native_threads,
)
from repro.hdc.spatial_packed import PackedSpatialEncoder
from repro.hdc.temporal import WindowBundler
from repro.hdc.temporal_packed import PackedBlockTile
from repro.signal.windows import WindowSpec

# These tests always run (the pure-Python twins back them on
# numba-free hosts); the marker lets the CI native-engine job select
# exactly this surface with `-m native`.
pytestmark = pytest.mark.native

SPEC = WindowSpec.from_seconds(1.0, 0.5, 32.0)


@pytest.fixture()
def pure_python_ok(monkeypatch):
    """Make the engine constructible on numba-free hosts."""
    monkeypatch.setenv(NATIVE_PURE_PYTHON_ENV, "1")


def _native_engine(dim: int = 100) -> PackedNativeEngine:
    return build_engine(
        PACKED_NATIVE_ENGINE,
        ItemMemory(8, dim, seed=1),
        ItemMemory(4, dim, seed=2),
        SPEC,
    )


def _random_words(shape, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**64, size=shape, dtype=np.uint64)


def _sweep(queries, protos):
    """One memory's sweep: the native grouped kernel with one owner."""
    return grouped_classify_packed_native(
        queries,
        protos[None],
        np.zeros(queries.shape[0], dtype=np.intp),
        np.arange(protos.shape[0])[None],
    )


class TestSweepKernel:
    @pytest.mark.parametrize("dim", [1, 63, 64, 65, 200])
    def test_matches_numpy_sweep(self, dim):
        rng = np.random.default_rng(dim)
        queries = pack_bits(random_bits((9, dim), rng))
        protos = pack_bits(random_bits((4, dim), rng))
        best, dists = _sweep(queries, protos)
        ref = popcount_words(
            queries[:, None, :] ^ protos[None, :, :]
        ).sum(axis=-1, dtype=np.int64)
        np.testing.assert_array_equal(dists, ref)
        np.testing.assert_array_equal(best, ref.argmin(axis=1))

    def test_ties_go_to_earliest_stored_prototype(self):
        queries = np.zeros((1, 1), dtype=np.uint64)
        # Both prototypes are 2 bits away; np.argmin picks index 0.
        protos = np.array([[0b0011], [0b1100]], dtype=np.uint64)
        best, dists = _sweep(queries, protos)
        assert dists.tolist() == [[2, 2]]
        assert best.tolist() == [0]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="word-count mismatch"):
            _sweep(
                np.zeros((2, 3), dtype=np.uint64),
                np.zeros((2, 4), dtype=np.uint64),
            )
        with pytest.raises(ValueError, match="prototypes"):
            grouped_classify_packed_native(
                np.zeros((2, 3), dtype=np.uint64),
                np.zeros((2, 3), dtype=np.uint64),
                np.zeros(2, dtype=np.intp),
                np.zeros((1, 2), dtype=np.int64),
            )
        with pytest.raises(ValueError, match="zero classes"):
            _sweep(
                np.zeros((2, 3), dtype=np.uint64),
                np.zeros((0, 3), dtype=np.uint64),
            )

    def test_grouped_matches_reference(self):
        rng = np.random.default_rng(7)
        dim = 130
        stack = pack_bits(random_bits((3 * 2, dim), rng)).reshape(3, 2, -1)
        label_table = np.array(
            [[10, 20], [30, 40], [50, 60]], dtype=np.int64
        )
        owners = np.array([0, 2, 1, 0, 2])
        queries = pack_bits(random_bits((5, dim), rng))
        labels, dists = grouped_classify_packed_native(
            queries, stack, owners, label_table
        )
        ref_labels, ref_dists = grouped_classify_packed(
            queries, stack, owners, label_table
        )
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_array_equal(dists, ref_dists)

    def test_grouped_kernel_hook_is_the_native_twin(self):
        assert (
            PackedNativeEngine.grouped_kernel
            is grouped_classify_packed_native
        )
        assert PackedEngine.grouped_kernel is grouped_classify_packed


class TestBundlingKernels:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 11])
    def test_counts_match_reference(self, k):
        masks = _random_words((k, 3), seed=k)
        dim = 3 * 64
        np.testing.assert_array_equal(
            planes_to_counts(native_bitsliced_counts(masks), dim),
            planes_to_counts(bitsliced_counts(masks), dim),
        )

    def test_counts_keep_batch_shape(self):
        masks = _random_words((5, 4, 2), seed=0)
        planes = native_bitsliced_counts(masks)
        assert planes.shape == (plane_depth(5), 4, 2)

    def test_counts_reject_empty_stack(self):
        with pytest.raises(ValueError, match="empty"):
            native_bitsliced_counts(np.zeros((0, 3), dtype=np.uint64))

    @pytest.mark.parametrize("threshold", [-1, 0, 3, 5, 6, 11, 12, 64])
    def test_bundle_exceeds_matches_bit_counts(self, threshold):
        k = 11
        masks = _random_words((k, 4), seed=threshold + 100)
        got = native_bundle_exceeds(masks, threshold)
        for word in range(4):
            for bit in range(64):
                count = sum(
                    int((int(masks[t, word]) >> bit) & 1) for t in range(k)
                )
                expected = count > threshold
                assert bool((int(got[word]) >> bit) & 1) == expected, (
                    f"word {word} bit {bit}: count {count}, "
                    f"threshold {threshold}"
                )


class TestNativeEncoders:
    def test_spatial_matches_packed(self):
        cm = ItemMemory(8, 130, seed=1)
        em = ItemMemory(5, 130, seed=2)
        ref = PackedSpatialEncoder(cm, em)
        nat = NativeSpatialEncoder(cm, em)
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 8, size=(17, 5))
        np.testing.assert_array_equal(
            nat.encode_packed(codes), ref.encode_packed(codes)
        )

    def test_spatial_validates_like_packed(self):
        cm = ItemMemory(8, 64, seed=1)
        em = ItemMemory(4, 64, seed=2)
        nat = NativeSpatialEncoder(cm, em)
        with pytest.raises(ValueError, match="expected"):
            nat.encode_packed(np.zeros((3, 7), dtype=np.int64))
        with pytest.raises(ValueError, match="out of range"):
            nat.encode_packed(np.full((3, 4), 9))
        assert nat.encode_packed(
            np.zeros((0, 4), dtype=np.int64)
        ).shape == (0, 1)

    def test_temporal_matches_packed(self):
        cm = ItemMemory(8, 129, seed=1)
        em = ItemMemory(4, 129, seed=2)
        rng = np.random.default_rng(4)
        codes = rng.integers(0, 8, size=(5 * 32, 4))
        ref = WindowBundler(
            PackedSpatialEncoder(cm, em), SPEC, PackedBlockTile
        )
        nat = WindowBundler(
            NativeSpatialEncoder(cm, em), SPEC, NativeBlockTile
        )
        np.testing.assert_array_equal(nat.feed(codes), ref.feed(codes))


class TestAvailability:
    def test_unavailable_without_numba_or_env(self, monkeypatch):
        monkeypatch.delenv(NATIVE_PURE_PYTHON_ENV, raising=False)
        monkeypatch.setattr(
            native_module, "_NUMBA_IMPORT_ERROR", "No module named 'numba'"
        )
        ok, why = native_available()
        assert ok is False
        assert "numba" in why and NATIVE_PURE_PYTHON_ENV in why
        with pytest.raises(EngineUnavailableError, match="unavailable"):
            _native_engine()
        rows = {r["name"]: r for r in engine_capabilities()}
        row = rows[PACKED_NATIVE_ENGINE]
        assert row["available"] is False
        assert "numba" in row["unavailable_reason"]
        assert resolve_engine_name(AUTO_ENGINE) == PACKED_ENGINE

    def test_auto_prefers_native_with_real_numba(self, monkeypatch):
        monkeypatch.setattr(native_module, "_NUMBA_IMPORT_ERROR", None)
        assert resolve_engine_name(AUTO_ENGINE) == PACKED_NATIVE_ENGINE

    def test_pure_python_env_constructs_but_never_auto(
        self, pure_python_ok, monkeypatch
    ):
        engine = _native_engine()
        assert isinstance(engine, PackedNativeEngine)
        # The env knob only unlocks construction; auto still requires
        # the real JIT.
        monkeypatch.setattr(
            native_module, "_NUMBA_IMPORT_ERROR", "No module named 'numba'"
        )
        assert resolve_engine_name(AUTO_ENGINE) == PACKED_ENGINE
        rows = {r["name"]: r for r in engine_capabilities()}
        assert rows[PACKED_NATIVE_ENGINE]["available"] is True

    def test_backends_cli_reports_unavailability(self, monkeypatch, capsys):
        monkeypatch.delenv(NATIVE_PURE_PYTHON_ENV, raising=False)
        monkeypatch.setattr(
            native_module, "_NUMBA_IMPORT_ERROR", "No module named 'numba'"
        )
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        row = next(
            line for line in out.splitlines()
            if line.startswith(PACKED_NATIVE_ENGINE)
        )
        assert " no " in row  # the Avail column
        assert "unavailable on this host" in out
        assert "No module named 'numba'" in out

    def test_backends_cli_silent_when_available(self, monkeypatch, capsys):
        monkeypatch.setattr(native_module, "_NUMBA_IMPORT_ERROR", None)
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "unavailable on this host" not in out


class TestNumbaAbsentReload:
    def test_module_degrades_without_numba(self):
        """Reload the module with the numba import forcibly failing."""
        import builtins

        real_import = builtins.__import__
        saved_env = os.environ.pop(NATIVE_PURE_PYTHON_ENV, None)

        def no_numba(name, *args, **kwargs):
            if name == "numba" or name.startswith("numba."):
                raise ImportError("No module named 'numba' (forced by test)")
            return real_import(name, *args, **kwargs)

        builtins.__import__ = no_numba
        try:
            importlib.reload(native_module)
            assert native_module.numba_available() is False
            assert "forced by test" in (
                native_module.numba_unavailable_reason() or ""
            )
            assert native_module.prange is range
            # The identity decorator keeps the kernels callable...
            labels, dists = native_module.grouped_classify_packed_native(
                np.array([[5]], dtype=np.uint64),
                np.array([[[0], [5]]], dtype=np.uint64),
                np.zeros(1, dtype=np.intp),
                np.array([[10, 20]], dtype=np.int64),
            )
            assert labels.tolist() == [20]
            assert dists.tolist() == [[2, 0]]
            # ...threads pin to 1, and the registry degrades gracefully.
            assert native_module.apply_native_threads(4) == 1
            rows = {r["name"]: r for r in engine_capabilities()}
            assert rows[PACKED_NATIVE_ENGINE]["available"] is False
            assert resolve_engine_name(AUTO_ENGINE) == PACKED_ENGINE
        finally:
            builtins.__import__ = real_import
            if saved_env is not None:
                os.environ[NATIVE_PURE_PYTHON_ENV] = saved_env
            importlib.reload(native_module)


class TestThreadKnob:
    def test_unset_means_numba_default(self, monkeypatch):
        monkeypatch.delenv(NATIVE_THREADS_ENV, raising=False)
        assert requested_native_threads() == 0

    def test_parses_the_env_value(self, monkeypatch):
        monkeypatch.setenv(NATIVE_THREADS_ENV, " 3 ")
        assert requested_native_threads() == 3

    @pytest.mark.parametrize("bad", ["two", "-1", "1.5"])
    def test_rejects_bad_values(self, monkeypatch, bad):
        monkeypatch.setenv(NATIVE_THREADS_ENV, bad)
        with pytest.raises(ValueError, match=NATIVE_THREADS_ENV):
            requested_native_threads()

    def test_configure_writes_env_for_worker_children(self, monkeypatch):
        monkeypatch.setenv(NATIVE_THREADS_ENV, "0")  # records the original
        configure_native_threads(2)
        assert os.environ[NATIVE_THREADS_ENV] == "2"

    def test_configure_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            configure_native_threads(-1)

    def test_apply_clamps_to_launch_maximum(self):
        effective = apply_native_threads(10_000)
        if numba_available():
            assert 1 <= effective <= 10_000
        else:
            assert effective == 1
        apply_native_threads(0)

    def test_engine_records_effective_threads(
        self, pure_python_ok, monkeypatch
    ):
        monkeypatch.setenv(NATIVE_THREADS_ENV, "2")
        engine = _native_engine()
        if numba_available():
            assert engine.threads >= 1
        else:
            assert engine.threads == 1

    def test_results_are_thread_count_invariant(self):
        queries = _random_words((8, 3), seed=1)
        protos = _random_words((3, 3), seed=2)
        masks = _random_words((9, 3), seed=3)
        baseline = None
        try:
            for n in (1, 2, 4):
                apply_native_threads(n)
                best, dists = _sweep(queries, protos)
                bundle = native_bundle_exceeds(masks, 4)
                if baseline is None:
                    baseline = (best, dists, bundle)
                else:
                    np.testing.assert_array_equal(best, baseline[0])
                    np.testing.assert_array_equal(dists, baseline[1])
                    np.testing.assert_array_equal(bundle, baseline[2])
        finally:
            apply_native_threads(0)


class TestEngineParity:
    def test_full_pipeline_matches_packed_fused(self, pure_python_ok):
        # "packed-fused" is the retired alias of packed: a model saved
        # under it must score like packed-native too.
        rng = np.random.default_rng(11)
        signal = rng.standard_normal((3 * 128, 4))
        predictions = {}
        for backend in ("packed-fused", PACKED_NATIVE_ENGINE):
            detector = LaelapsDetector(
                4, LaelapsConfig(dim=129, fs=128.0, seed=5, backend=backend)
            )
            detector.fit_from_windows(
                pack_bits(random_bits((3, 129), np.random.default_rng(1))),
                pack_bits(random_bits((3, 129), np.random.default_rng(2))),
            )
            predictions[backend] = detector.predict(signal)
        fused = predictions["packed-fused"]
        nat = predictions[PACKED_NATIVE_ENGINE]
        assert len(nat) > 0
        np.testing.assert_array_equal(nat.labels, fused.labels)
        np.testing.assert_array_equal(nat.distances, fused.distances)


@pytest.mark.skipif(
    not numba_available() or (os.cpu_count() or 1) < 4,
    reason="the floor needs the compiled kernels and >= 4 cores",
)
def test_native_triples_packed_at_golden_dim():
    """packed-native >= 3x packed at d = 10000: 32 electrodes, 6 s."""
    signal = np.random.default_rng(9).standard_normal((6 * 256, 32))
    rates = {}
    for backend in (PACKED_ENGINE, PACKED_NATIVE_ENGINE):
        detector = LaelapsDetector(
            32, LaelapsConfig(dim=GOLDEN_DIM, fs=256.0, seed=7,
                              backend=backend),
        )
        detector.fit_from_windows(
            pack_bits(random_bits((4, GOLDEN_DIM), np.random.default_rng(1))),
            pack_bits(random_bits((4, GOLDEN_DIM), np.random.default_rng(2))),
        )
        detector.predict(signal)  # the first call pays the JIT compile
        elapsed = []
        for _ in range(5):
            start = time.perf_counter()
            detector.predict(signal)
            elapsed.append(time.perf_counter() - start)
        rates[backend] = 1.0 / statistics.median(elapsed)
    speedup = rates[PACKED_NATIVE_ENGINE] / rates[PACKED_ENGINE]
    assert speedup >= 3.0, speedup
