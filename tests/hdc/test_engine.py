"""Tests for repro.hdc.engine (the compute-engine registry)."""

import numpy as np
import pytest

import repro.hdc.engine as engine_module
from repro.core.config import BACKENDS, LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.hdc.associative import AssociativeMemory
from repro.hdc.backend import pack_bits, packed_words, random_bits
from repro.hdc.engine import (
    AUTO_ENGINE,
    PackedEngine,
    UnpackedEngine,
    backend_choices,
    build_engine,
    engine_capabilities,
    engine_names,
    register_engine,
    resolve_engine_name,
)
from repro.hdc.item_memory import ItemMemory
from repro.hdc.native import NATIVE_PURE_PYTHON_ENV
from repro.hdc.temporal import WindowBundler
from repro.signal.windows import WindowSpec

SPEC = WindowSpec.from_seconds(1.0, 0.5, 32.0)


def _engine(name: str, dim: int = 100):
    return build_engine(
        name, ItemMemory(8, dim, seed=1), ItemMemory(4, dim, seed=2), SPEC
    )


class TestRegistry:
    def test_registered_names(self):
        assert engine_names() == ("unpacked", "packed", "packed-native")

    def test_backend_choices_append_auto(self):
        assert backend_choices() == (
            *engine_names(), "packed-fused", AUTO_ENGINE,
        )
        assert BACKENDS == backend_choices()

    def test_retired_fused_name_resolves_to_packed(self):
        assert resolve_engine_name("packed-fused") == "packed"
        detector = LaelapsDetector(
            4, LaelapsConfig(dim=256, backend="packed-fused")
        )
        assert type(detector.engine) is PackedEngine
        assert detector.backend == "packed"
        assert detector.config.backend == "packed-fused"

    def test_auto_resolves_to_fastest_eligible(self):
        # packed-native leads the preference order but only when real
        # numba backs it; otherwise auto lands on packed.
        from repro.hdc.native import numba_available

        expected = "packed-native" if numba_available() else "packed"
        assert resolve_engine_name(AUTO_ENGINE) == expected

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="packed-fused"):
            resolve_engine_name("gpu")
        with pytest.raises(ValueError, match="valid choices"):
            build_engine(
                "gpu", ItemMemory(8, 64, 1), ItemMemory(4, 64, 2), SPEC
            )

    def test_register_engine_extends_registry(self):
        @register_engine
        class _Dummy(UnpackedEngine):
            name = "dummy-test-engine"
            summary = "registered by the test suite"

        try:
            assert "dummy-test-engine" in engine_names()
            built = _engine("dummy-test-engine")
            assert built.name == "dummy-test-engine"
            assert LaelapsConfig(backend="dummy-test-engine")
        finally:
            del engine_module._REGISTRY["dummy-test-engine"]
        assert "dummy-test-engine" not in engine_names()

    def test_instances_satisfy_protocol(self, monkeypatch):
        # Every engine implements the hooks the base class leaves open:
        # its temporal encoder, its bundling kernel and its sweep.
        monkeypatch.setenv(NATIVE_PURE_PYTHON_ENV, "1")
        h = pack_bits(random_bits((1, 100), np.random.default_rng(0)))
        for name in engine_names():
            engine = _engine(name)
            assert isinstance(engine.temporal_encoder(), WindowBundler)
            np.testing.assert_array_equal(engine.bundle(h), h[0])
            memory = AssociativeMemory(100)
            engine.train(memory, 7, h)
            block, table = memory.packed_block()
            labels, dists = engine.grouped_kernel(
                h, block[None], np.zeros(1, dtype=np.intp), table[None]
            )
            assert labels.tolist() == [7]
            assert dists.tolist() == [[0]]

    def test_mismatched_item_memories_rejected(self):
        with pytest.raises(ValueError, match="share a dimension"):
            build_engine(
                "packed", ItemMemory(8, 64, 1), ItemMemory(4, 65, 2), SPEC
            )


class TestCapabilities:
    def test_rows_cover_every_engine(self):
        rows = engine_capabilities()
        assert [row["name"] for row in rows] == list(engine_names())
        for row in rows:
            assert set(row) == {
                "name", "available", "unavailable_reason", "summary",
            }
            assert row["available"] == (row["unavailable_reason"] is None)

    def test_word_layout_widths(self, monkeypatch):
        # One word layout for every engine: ceil(130 / 64) = 3 words.
        monkeypatch.setenv(NATIVE_PURE_PYTHON_ENV, "1")
        for name in engine_names():
            h = _engine(name, dim=130).temporal_encoder().feed(
                np.zeros((0, 4), dtype=np.int64)
            )
            assert h.shape == (0, packed_words(130)) == (0, 3)


class TestWindowForms:
    def test_encode_is_packed_and_identical_across_engines(
        self, monkeypatch
    ):
        monkeypatch.setenv(NATIVE_PURE_PYTHON_ENV, "1")
        signal = np.random.default_rng(0).standard_normal((160, 4))
        encoded = [
            LaelapsDetector(
                4, LaelapsConfig(dim=129, fs=32.0, lbp_length=3, backend=name)
            ).encode(signal)
            for name in engine_names()
        ]
        for h in encoded:
            assert h.dtype == np.uint64
            assert h.shape == (encoded[0].shape[0], packed_words(129))
            np.testing.assert_array_equal(h, encoded[0])
        assert encoded[0].shape[0] > 0

    def test_windows_returns_packed_batch(self):
        engine = _engine("unpacked", dim=100)
        h = pack_bits(random_bits((4, 100), np.random.default_rng(1)))
        np.testing.assert_array_equal(engine.windows(h), h)
        np.testing.assert_array_equal(engine.windows(h[0]), h[:1])

    def test_windows_rejects_every_other_form(self):
        forms = [
            ((3, 100), np.uint8),  # unpacked bits
            ((3, 100), np.uint64),
            ((3, 2), np.uint8),
            ((3, 2), np.int64),
            ((3, 1), np.uint64),
            ((3, 3), np.uint64),
            ((2, 3, 2), np.uint64),
        ]
        for name in ("unpacked", "packed"):
            engine = _engine(name, dim=100)  # 2 words
            for shape, dtype in forms:
                with pytest.raises(ValueError, match=r"\(n, 2\) uint64"):
                    engine.windows(np.zeros(shape, dtype=dtype))

    def test_native_encoders(self):
        for name in ("unpacked", "packed"):
            assert _engine(name).temporal_encoder().feed(
                np.zeros((0, 4), dtype=np.int64)
            ).dtype == np.uint64


@pytest.mark.parametrize("name", engine_names())
class TestPaddingBits:
    """Packed H vectors come from outside; a set bit beyond ``dim`` would
    shift every distance on the word kernels, so every engine rejects it."""

    DIM = 129  # 3 words, 63 padding bits in the last

    def _detector(self, name, monkeypatch) -> LaelapsDetector:
        monkeypatch.setenv(NATIVE_PURE_PYTHON_ENV, "1")
        return LaelapsDetector(
            3, LaelapsConfig(dim=self.DIM, fs=32.0, lbp_length=3,
                             backend=name)
        )

    def _windows(self, seed: int, dirty: bool = False) -> np.ndarray:
        h = pack_bits(
            random_bits((3, self.DIM), np.random.default_rng(seed))
        )
        if dirty:
            h[-1, -1] |= np.uint64(1 << 63)
        return h

    def test_predict_rejects_padding_bits(self, name, monkeypatch):
        detector = self._detector(name, monkeypatch)
        detector.fit_from_windows(self._windows(1), self._windows(2))
        with pytest.raises(ValueError, match="padding bits"):
            detector.predict_from_windows(self._windows(3, dirty=True))

    def test_fit_rejects_padding_bits(self, name, monkeypatch):
        detector = self._detector(name, monkeypatch)
        with pytest.raises(ValueError, match="padding bits"):
            detector.fit_from_windows(
                self._windows(1, dirty=True), self._windows(2)
            )
        with pytest.raises(ValueError, match="padding bits"):
            detector.fit_from_windows(
                self._windows(1), self._windows(2, dirty=True)
            )
        assert not detector.is_fitted


class TestDetectorIntegration:
    def test_auto_detector_reports_resolved_name(self):
        detector = LaelapsDetector(4, LaelapsConfig(dim=256, backend="auto"))
        assert detector.backend == resolve_engine_name(AUTO_ENGINE)
        assert detector.config.backend == "auto"
        assert isinstance(detector.engine, PackedEngine)

    def test_named_engines_construct(self):
        for name, cls in (
            ("unpacked", UnpackedEngine),
            ("packed", PackedEngine),
        ):
            detector = LaelapsDetector(
                4, LaelapsConfig(dim=256, backend=name)
            )
            assert isinstance(detector.engine, cls)
            assert detector.backend == name
            assert detector.spatial is detector.engine.spatial

    def test_bad_backend_string_fails_at_config(self):
        with pytest.raises(ValueError, match="valid choices"):
            LaelapsConfig(backend="cuda")
