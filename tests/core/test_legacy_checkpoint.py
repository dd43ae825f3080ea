"""Backward compat: pre-engine-registry checkpoints restore bit-exactly.

The committed ``tests/fixtures/legacy_packed_*`` files were written with
the payload schema that predates :mod:`repro.hdc.engine` — no ``engine``
tag, the engine named only by the config's legacy backend field.  These
tests restore them onto the current registry and compare predictions and
stream events against the frozen expectations, so a payload-format
change can never silently strand deployed models.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from repro.core.persistence import load_model, load_sessions, save_model
from repro.hdc.engine import PackedEngine, UnpackedEngine

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "fixtures"

_spec = importlib.util.spec_from_file_location(
    "legacy_fixture_generator", FIXTURE_DIR / "generate_legacy_fixtures.py"
)
generator = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generator)


def _meta(path: Path) -> dict:
    with np.load(path) as archive:
        return json.loads(bytes(archive["meta"].tobytes()).decode("utf-8"))


class TestFixturesAreLegacy:
    """Guard: the fixtures really exercise the no-tag compat path."""

    def test_model_fixture_has_no_engine_tag(self):
        meta = _meta(FIXTURE_DIR / "legacy_packed_model.npz")
        assert "engine" not in meta
        assert meta["config"]["backend"] == "packed"

    def test_sessions_fixture_has_no_engine_tags(self):
        meta = _meta(FIXTURE_DIR / "legacy_packed_sessions.npz")
        backends = set()
        for session in meta["sessions"]:
            assert "engine" not in session
            backends.add(session["config"]["backend"])
        assert backends == {"packed", "unpacked"}

    def test_packed_session_blocks_are_legacy_digit_planes(self):
        # The packed encoder used to checkpoint engine-specific
        # bit-sliced planes; the fixture must keep that form so the
        # planes-decoding restore path stays exercised.
        with np.load(FIXTURE_DIR / "legacy_packed_sessions.npz") as archive:
            block = archive["s0__block0"]
        assert block.ndim == 2 and block.dtype == np.uint64


class TestLegacyModelRestores:
    def test_restores_onto_the_registry_bit_exactly(self):
        detector = load_model(FIXTURE_DIR / "legacy_packed_model.npz")
        assert detector.backend == "packed"
        assert isinstance(detector.engine, PackedEngine)

        reference, signal = generator.build_legacy_model()
        preds = detector.predict(signal)
        with np.load(FIXTURE_DIR / "legacy_packed_expected.npz") as expected:
            np.testing.assert_array_equal(preds.labels, expected["labels"])
            np.testing.assert_array_equal(
                preds.distances, expected["distances"]
            )
            np.testing.assert_array_equal(preds.deltas, expected["deltas"])
            np.testing.assert_array_equal(preds.times, expected["times"])
        # And the restored model matches a freshly trained reference.
        np.testing.assert_array_equal(
            detector.memory.prototype(0), reference.memory.prototype(0)
        )
        assert detector.tr == reference.tr

    def test_pre_backend_archive_loads_as_unpacked(self):
        """Seed-era payloads lack even the config's backend key.

        The oldest schema predates the backend field itself; such a
        payload must load onto the unpacked reference engine (the only
        engine that era ran) rather than crash on the missing key.
        """
        from repro.core.persistence import (
            detector_from_payload,
            detector_payload,
        )

        reference, signal = generator.build_legacy_model()
        payload = detector_payload(reference)
        payload.pop("engine")
        payload["config"] = dict(payload["config"])
        payload["config"].pop("backend")
        rebuilt = detector_from_payload(payload)
        assert rebuilt.backend == "unpacked"
        np.testing.assert_array_equal(
            rebuilt.predict(signal).labels, reference.predict(signal).labels
        )

    def test_resave_upgrades_to_the_tagged_schema(self, tmp_path):
        detector = load_model(FIXTURE_DIR / "legacy_packed_model.npz")
        resaved = save_model(detector, tmp_path / "upgraded.npz")
        meta = _meta(resaved)
        assert meta["engine"] == "packed"
        upgraded = load_model(resaved)
        assert upgraded.backend == "packed"


class TestLegacySessionsRestore:
    def test_mixed_engine_fleet_resumes_bit_exactly(self):
        manager = load_sessions(FIXTURE_DIR / "legacy_packed_sessions.npz")
        assert manager.session_ids == ["legacy-0", "legacy-1"]
        assert isinstance(
            manager.session("legacy-0").detector.engine, PackedEngine
        )
        assert isinstance(
            manager.session("legacy-1").detector.engine, UnpackedEngine
        )
        for session_id in manager.session_ids:
            stream = manager.session(session_id)
            assert stream.samples_seen == generator.WARMUP_SAMPLES

        _, signals = generator.build_legacy_sessions()
        events = generator.resume_events(manager, signals)
        expected = json.loads(
            (
                FIXTURE_DIR / "legacy_packed_sessions_expected.json"
            ).read_text()
        )
        assert events == expected
        assert any(len(v) > 0 for v in expected.values())


def _retagged(src: Path, dst: Path, retag) -> Path:
    """A copy of a checkpoint whose JSON meta went through ``retag``."""
    with np.load(src) as archive:
        arrays = {key: archive[key] for key in archive.files}
    meta = json.loads(bytes(arrays.pop("meta").tobytes()).decode("utf-8"))
    retag(meta)
    encoded = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(dst, meta=encoded, **arrays)
    return dst


class TestRetiredFusedTag:
    """Checkpoints tagged with the retired ``packed-fused`` engine name
    reload onto ``packed`` and reproduce the frozen outputs."""

    def test_model_checkpoint_loads_on_packed(self, tmp_path):
        path = _retagged(
            FIXTURE_DIR / "legacy_packed_model.npz", tmp_path / "m.npz",
            lambda meta: meta.update(engine="packed-fused"),
        )
        assert _meta(path)["engine"] == "packed-fused"
        detector = load_model(path)
        assert type(detector.engine) is PackedEngine
        _, signal = generator.build_legacy_model()
        preds = detector.predict(signal)
        with np.load(FIXTURE_DIR / "legacy_packed_expected.npz") as expected:
            np.testing.assert_array_equal(preds.labels, expected["labels"])
            np.testing.assert_array_equal(
                preds.distances, expected["distances"]
            )

    def test_session_checkpoint_resumes_on_packed(self, tmp_path):
        def retag(meta):
            for session in meta["sessions"]:
                if session["config"]["backend"] == "packed":
                    session["engine"] = "packed-fused"

        path = _retagged(
            FIXTURE_DIR / "legacy_packed_sessions.npz", tmp_path / "s.npz",
            retag,
        )
        assert "packed-fused" in {
            s.get("engine") for s in _meta(path)["sessions"]
        }
        manager = load_sessions(path)
        assert type(manager.session("legacy-0").detector.engine) is PackedEngine
        _, signals = generator.build_legacy_sessions()
        expected = json.loads(
            (FIXTURE_DIR / "legacy_packed_sessions_expected.json").read_text()
        )
        assert generator.resume_events(manager, signals) == expected


class TestGeneratorIsDeterministic:
    """Regenerating the fixtures reproduces the committed bytes' content."""

    def test_model_regeneration_matches(self):
        detector, signal = generator.build_legacy_model()
        preds = detector.predict(signal)
        with np.load(FIXTURE_DIR / "legacy_packed_expected.npz") as expected:
            np.testing.assert_array_equal(preds.labels, expected["labels"])
            np.testing.assert_array_equal(
                preds.distances, expected["distances"]
            )
