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
        from repro.hdc.native import NATIVE_PURE_PYTHON_ENV

        # Every engine implements the hooks the base class leaves open:
        # its temporal encoder, its accumulator and how it stores.
        monkeypatch.setenv(NATIVE_PURE_PYTHON_ENV, "1")
        bits = random_bits((1, 100), np.random.default_rng(0))
        for name in engine_names():
            engine = _engine(name)
            assert isinstance(engine.temporal_encoder(), WindowBundler)
            assert engine.accumulator().add(engine.windows_2d(bits)).count == 1
            memory = AssociativeMemory(100)
            engine.train(memory, 7, bits)
            labels, dists = engine.classify_windows(memory, bits)
            assert labels.tolist() == [7]
            assert dists.tolist() == [[0]]

    def test_mismatched_item_memories_rejected(self):
        with pytest.raises(ValueError, match="share a dimension"):
            build_engine(
                "packed", ItemMemory(8, 64, 1), ItemMemory(4, 65, 2), SPEC
            )


class TestCapabilities:
    def test_rows_cover_every_engine(self):
        rows = engine_capabilities(dim=10_000)
        assert [row["name"] for row in rows] == list(engine_names())
        for row in rows:
            assert set(row) == {
                "name", "window_form", "width_at_dim",
                "available", "unavailable_reason", "summary",
            }
            assert row["available"] == (row["unavailable_reason"] is None)

    def test_word_layout_widths(self):
        by_name = {row["name"]: row for row in engine_capabilities(130)}
        assert by_name["unpacked"]["width_at_dim"] == 130
        assert by_name["packed"]["width_at_dim"] == packed_words(130) == 3
        assert by_name["packed-native"]["width_at_dim"] == 3


class TestWindowForms:
    def test_windows_2d_accepts_both_forms(self):
        # Either form comes back in the engine's own form.
        bits = random_bits((3, 100), np.random.default_rng(0))
        for name, own in (("unpacked", bits), ("packed", pack_bits(bits))):
            engine = _engine(name, dim=100)
            for h in (bits, pack_bits(bits)):
                out = engine.windows_2d(h)
                assert out.dtype == own.dtype
                np.testing.assert_array_equal(out, own)

    def test_windows_2d_rejects_other_widths(self):
        engine = _engine("unpacked", dim=100)
        with pytest.raises(ValueError, match="100 .* or 2"):
            engine.windows_2d(np.zeros((3, 7), dtype=np.uint8))

    def test_pack_queries_round_trips(self):
        engine = _engine("packed", dim=100)
        bits = random_bits((4, 100), np.random.default_rng(1))
        packed = engine.pack_queries(bits)
        np.testing.assert_array_equal(packed, pack_bits(bits))
        # Already-packed queries pass through unchanged.
        np.testing.assert_array_equal(engine.pack_queries(packed), packed)

    def test_native_encoders(self):
        assert _engine("unpacked").temporal_encoder().feed(
            np.zeros((0, 4), dtype=np.int64)
        ).dtype == np.uint8
        assert _engine("packed").temporal_encoder().feed(
            np.zeros((0, 4), dtype=np.int64)
        ).dtype == np.uint64


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
