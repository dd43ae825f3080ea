"""Regenerate the pre-engine-registry checkpoint fixtures.

The committed ``legacy_packed_*`` files freeze the payload schema that
existed *before* the compute-engine registry: model metas carry no
``engine`` tag and name their engine only through the config's
``backend`` field (``"packed"`` / ``"unpacked"``).  The compat test
(``tests/core/test_legacy_checkpoint.py``) restores them onto the
current registry and checks the results bit-exactly against the frozen
expectations.

Run from the repository root to regenerate after an *intentional*
format change (the whole point of the fixtures is that unintentional
changes fail the test)::

    PYTHONPATH=src python tests/fixtures/generate_legacy_fixtures.py

Everything is derived from fixed seeds, so regeneration is
deterministic; the writers below produce the legacy schema by saving
with the current code and stripping the ``engine`` tags.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

FIXTURE_DIR = Path(__file__).resolve().parent

# The frozen model/session parameters (mirrored by the compat test).
DIM = 300
FS = 128.0
N_ELECTRODES = 4
MODEL_SEED = 11
MODEL_TR = 1.5
EVAL_SECONDS = 8.0
SESSION_SPECS = (
    {"id": "legacy-0", "seed": 21, "backend": "packed"},
    {"id": "legacy-1", "seed": 22, "backend": "unpacked"},
)
SESSION_TR = 0.5
#: Samples pushed before the mid-stream checkpoint: more than one 0.5 s
#: block (64 samples at 128 Hz), so the snapshot holds a live block
#: accumulator *and* pending codes.
WARMUP_SAMPLES = 70
SESSION_SECONDS = 7.0
RESUME_CHUNK = 32


def build_legacy_model():
    """The fitted packed-era detector and its evaluation signal."""
    from repro.core.config import LaelapsConfig
    from repro.core.detector import LaelapsDetector
    from repro.hdc.backend import pack_bits, random_bits

    detector = LaelapsDetector(
        N_ELECTRODES,
        LaelapsConfig(dim=DIM, fs=FS, seed=MODEL_SEED, backend="packed"),
    )
    detector.fit_from_windows(
        pack_bits(random_bits((5, DIM), np.random.default_rng(101))),
        pack_bits(random_bits((5, DIM), np.random.default_rng(102))),
    )
    detector.tr = MODEL_TR
    signal = np.random.default_rng(2024).standard_normal(
        (int(EVAL_SECONDS * FS), N_ELECTRODES)
    )
    return detector, signal


def build_legacy_sessions():
    """A mid-stream two-session manager (mixed engines) + its signals."""
    from repro.core.config import LaelapsConfig
    from repro.core.detector import LaelapsDetector
    from repro.core.sessions import StreamSessionManager
    from repro.hdc.backend import pack_bits, random_bits

    manager = StreamSessionManager()
    signals = {}
    for spec in SESSION_SPECS:
        detector = LaelapsDetector(
            N_ELECTRODES,
            LaelapsConfig(
                dim=DIM, fs=FS, seed=spec["seed"], backend=spec["backend"]
            ),
        )
        detector.fit_from_windows(*(
            pack_bits(random_bits((4, DIM), np.random.default_rng(seed)))
            for seed in (spec["seed"] + 100, spec["seed"] + 200)
        ))
        detector.tr = SESSION_TR
        manager.open(spec["id"], detector)
        signals[spec["id"]] = np.random.default_rng(
            spec["seed"] + 300
        ).standard_normal((int(SESSION_SECONDS * FS), N_ELECTRODES))
    warmup = manager.push_many(
        {sid: sig[:WARMUP_SAMPLES] for sid, sig in signals.items()}
    )
    assert all(not events for events in warmup.values())
    return manager, signals


def resume_events(manager, signals):
    """Stream the post-checkpoint remainder; returns JSON-ready events."""
    events = {sid: [] for sid in signals}
    for start in range(
        WARMUP_SAMPLES, int(SESSION_SECONDS * FS), RESUME_CHUNK
    ):
        tick = {
            sid: sig[start : start + RESUME_CHUNK]
            for sid, sig in signals.items()
        }
        for sid, new_events in manager.push_many(tick).items():
            events[sid].extend(
                [e.time_s, e.label, e.delta, int(e.alarm)]
                for e in new_events
            )
    return events


def _strip_engine_tags(path: Path) -> None:
    """Rewrite an ``.npz`` checkpoint into the pre-registry schema.

    Two legacy traits: model metas lose their ``engine`` tag, and
    packed sessions store their live block state as bit-sliced digit
    planes (the engine-specific form the packed encoder checkpointed
    before block state was canonicalised to integer counts).
    """
    from repro.hdc.bitsliced import planes_from_counts

    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(bytes(arrays["meta"].tobytes()).decode("utf-8"))
    meta.pop("engine", None)
    for i, session in enumerate(meta.get("sessions", [])):
        session.pop("engine", None)
        if session["config"]["backend"] == "packed":
            for j in range(session["n_blocks"]):
                key = f"s{i}__block{j}"
                arrays[key] = planes_from_counts(arrays[key], DIM)
    arrays["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)


def main() -> None:
    from repro.core.persistence import save_model, save_sessions

    detector, signal = build_legacy_model()
    model_path = save_model(detector, FIXTURE_DIR / "legacy_packed_model.npz")
    _strip_engine_tags(model_path)
    preds = detector.predict(signal)
    np.savez_compressed(
        FIXTURE_DIR / "legacy_packed_expected.npz",
        labels=preds.labels,
        distances=preds.distances,
        deltas=preds.deltas,
        times=preds.times,
    )

    manager, signals = build_legacy_sessions()
    sessions_path = save_sessions(
        manager, FIXTURE_DIR / "legacy_packed_sessions.npz"
    )
    _strip_engine_tags(sessions_path)
    expected = resume_events(manager, signals)
    (FIXTURE_DIR / "legacy_packed_sessions_expected.json").write_text(
        json.dumps(expected, indent=1)
    )
    print(f"regenerated legacy fixtures under {FIXTURE_DIR}")


if __name__ == "__main__":
    main()
