"""Persistence of trained patient models and live stream sessions.

A deployed Laelaps model is tiny — the item memories regenerate from
the config seed, so only the two prototypes, the tuned t_r and the
configuration need storing (a few kilobytes, matching the paper's
point that the whole model fits comfortably in on-chip memory).
``save_model``/``load_model`` round-trip a fitted detector through a
single ``.npz`` file; the reloaded detector is bit-exact.

The compute engine travels as an explicit ``engine`` tag next to the
persisted config: the tag holds the *resolved* engine name (a detector
configured with ``backend="auto"`` saves the concrete engine it ran
on), so a model reopens on the engine that wrote it if that engine can
run on the loading host, and on ``auto`` if it cannot (a
``packed-native`` tag on a host without numba).  The associative memory
holds prototypes packed on every engine; they are serialised in the
unpacked inspection form of ``AssociativeMemory.prototype`` and packed
again on load, and all engines are bit-exact, so archives move freely
between engines.  Payloads from before the engine registry carry no tag
and fall back to the config's legacy backend field.

``save_sessions``/``load_sessions`` extend the same idea to a live
:class:`~repro.core.sessions.StreamSessionManager`: one ``.npz`` holds
every session's model *plus* its mid-stream state (raw symboliser
tail, temporal-encoder buffers, alarm state machine, counters), so a
serving process can checkpoint N concurrent patient streams and resume
them elsewhere with bit-identical subsequent events.

Two further layers support the sharded serving gateway
(:mod:`repro.serve`): ``detector_payload``/``detector_from_payload``
turn a fitted detector into a picklable dict (the unit shipped to shard
workers and moved between shards on rebalance), and
``write_fleet_manifest``/``read_fleet_manifest`` record how a fleet
checkpoint is split across per-worker ``save_sessions`` shard files.

Every file is written atomically: to a temporary file in the target
directory first, then moved over the target with ``os.replace``, so a
write that fails partway leaves the previous model, shard or manifest
as it was.  Archives are deflated at level 1 by one shared ``.npz``
writer; ``np.load`` reads them like any ``np.savez_compressed`` file.
"""

from __future__ import annotations

import json
import os
import secrets
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core.config import ICTAL, INTERICTAL, LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.core.symbolizers import HVGSymbolizer, LBPSymbolizer
from repro.hdc.engine import AUTO_ENGINE, engine_available

_FORMAT_VERSION = 1
_SESSIONS_FORMAT_VERSION = 1
_FLEET_FORMAT_VERSION = 1


def _symbolizer_spec(symbolizer) -> dict:
    if isinstance(symbolizer, LBPSymbolizer):
        return {"kind": "lbp", "length": symbolizer.length}
    if isinstance(symbolizer, HVGSymbolizer):
        return {"kind": "hvg", "degree_cap": symbolizer.degree_cap}
    raise ValueError(
        f"cannot persist unknown symboliser {type(symbolizer).__name__}"
    )


def _build_symbolizer(spec: dict):
    if spec["kind"] == "lbp":
        return LBPSymbolizer(spec["length"])
    if spec["kind"] == "hvg":
        return HVGSymbolizer(spec["degree_cap"])
    raise ValueError(f"unknown symboliser kind {spec['kind']!r}")


def _npz_path(path: str | Path) -> Path:
    """The path ``np.savez`` will actually write to.

    numpy appends ``.npz`` when the suffix is missing, so normalise up
    front — the returned ``Path`` must always name the real file.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def _replace(path: Path, write) -> Path:
    """Write ``path`` atomically through ``write(binary_file)``.

    The bytes go to a temporary file in ``path``'s directory, which one
    ``os.replace`` then moves over ``path``: a write that fails partway
    leaves the previous file whole and removes the temporary one.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(temp, "xb") as file:
            write(file)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return path


def _write_npz(path: str | Path, arrays: dict[str, np.ndarray]) -> Path:
    """Write ``arrays`` as one ``.npz`` archive, atomically.

    The layout is ``np.savez_compressed``'s (one ``<name>.npy`` entry
    per array, read back by ``np.load``), deflated at level 1: at the
    default level most of a shard write was spent in zlib.

    Returns:
        The path written (``.npz`` appended when missing).
    """
    def write(file) -> None:
        with zipfile.ZipFile(
            file, "w", zipfile.ZIP_DEFLATED, compresslevel=1
        ) as archive:
            for name, array in arrays.items():
                with archive.open(f"{name}.npy", "w", force_zip64=True) as entry:
                    np.lib.format.write_array(
                        entry, np.asanyarray(array), allow_pickle=False
                    )

    return _replace(_npz_path(path), write)


def _meta_array(meta: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)


def _model_meta(detector: LaelapsDetector) -> dict:
    """The JSON-serialisable model description shared by both formats."""
    return {
        "n_electrodes": detector.n_electrodes,
        "config": asdict(detector.config),
        # The resolved engine name (never "auto"): reload runs on the
        # engine that actually ran, wherever that engine is available.
        "engine": detector.engine.name,
        "tr": detector.tr,
        "symbolizer": _symbolizer_spec(detector.symbolizer),
    }


def _rebuild_detector(
    spec: dict, interictal: np.ndarray, ictal: np.ndarray
) -> LaelapsDetector:
    """Reconstruct a fitted detector from :func:`_model_meta` + prototypes."""
    config_spec = dict(spec["config"])
    # Compat loader: payloads written before the engine registry have no
    # "engine" tag — their config's backend field (e.g. "packed") still
    # names a registered engine, so it keeps loading unchanged.  Older
    # still (pre-backend archives), the config has no backend key either
    # and loads onto the engine that era ran on, the unpacked reference.
    engine = spec.get("engine")
    if engine is None:
        engine = config_spec.get("backend", "unpacked")
    # Every engine is bit-exact, so a tag this host cannot run (say
    # packed-native without numba) reopens on whatever auto picks.
    if not engine_available(engine):
        engine = AUTO_ENGINE
    config_spec["backend"] = engine
    detector = LaelapsDetector(
        spec["n_electrodes"],
        LaelapsConfig(**config_spec),
        symbolizer=_build_symbolizer(spec["symbolizer"]),
    )
    detector.memory.store(
        INTERICTAL, np.asarray(interictal).astype(np.uint8)
    )
    detector.memory.store(ICTAL, np.asarray(ictal).astype(np.uint8))
    detector.tr = float(spec["tr"])
    return detector


def detector_payload(detector: LaelapsDetector) -> dict:
    """A fitted detector as one picklable, file-free dict.

    The in-memory twin of :func:`save_model`: the JSON-compatible model
    description plus the two prototype arrays, with nothing written to
    disk.  This is the unit the sharded serving layer ships to worker
    processes on :meth:`~repro.serve.ShardedStreamGateway.open` and
    moves between shards when the fleet rebalances.

    Raises:
        ValueError: If the detector has not been fitted.
    """
    if not detector.is_fitted:
        raise ValueError("only fitted detectors can be exported")
    return {
        **_model_meta(detector),
        "interictal": detector.memory.prototype(INTERICTAL),
        "ictal": detector.memory.prototype(ICTAL),
    }


def detector_from_payload(payload: dict) -> LaelapsDetector:
    """Rebuild a fitted detector from :func:`detector_payload`.

    Item memories regenerate from the payload's config seed, so the
    rebuilt detector predicts bit-identically to the exported one.
    """
    return _rebuild_detector(
        payload, payload["interictal"], payload["ictal"]
    )


def save_model(detector: LaelapsDetector, path: str | Path) -> Path:
    """Serialise a fitted detector to ``path`` (``.npz``).

    Returns:
        The path actually written (``.npz`` appended when missing).

    Raises:
        ValueError: If the detector has not been fitted.
    """
    if not detector.is_fitted:
        raise ValueError("only fitted detectors can be saved")
    meta = {"version": _FORMAT_VERSION, **_model_meta(detector)}
    return _write_npz(path, {
        "interictal": detector.memory.prototype(INTERICTAL),
        "ictal": detector.memory.prototype(ICTAL),
        "meta": _meta_array(meta),
    })


def load_model(path: str | Path) -> LaelapsDetector:
    """Reconstruct a fitted detector saved by :func:`save_model`.

    The item memories are regenerated from the stored config seed, so
    the reloaded detector produces bit-identical predictions.
    """
    path = Path(path)
    with np.load(path) as archive:
        interictal = archive["interictal"]
        ictal = archive["ictal"]
        meta = json.loads(bytes(archive["meta"].tobytes()).decode("utf-8"))
    if meta.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported model format version {meta.get('version')!r}"
        )
    return _rebuild_detector(meta, interictal, ictal)


def save_sessions(manager, path: str | Path) -> Path:
    """Checkpoint a live :class:`StreamSessionManager` to one ``.npz``.

    Stores, per open session, the model (prototypes + config + t_r +
    symboliser, exactly as :func:`save_model`) and the complete live
    stream state, so :func:`load_sessions` resumes every stream
    bit-exactly.  Sessions sharing one detector object are serialised
    as independent models and resume as independent detectors.

    Raises:
        ValueError: If the manager has no open sessions.
    """
    session_ids = manager.session_ids
    if not session_ids:
        raise ValueError("cannot checkpoint a manager with no open sessions")
    sessions_meta = []
    arrays: dict[str, np.ndarray] = {}
    for i, session_id in enumerate(session_ids):
        stream = manager.session(session_id)
        detector = stream.detector
        state = stream.state_dict()
        post = state["post"]
        encoder = state["encoder"]
        sessions_meta.append(
            {
                "id": session_id,
                **_model_meta(detector),
                "samples_seen": state["samples_seen"],
                "windows_emitted": state["windows_emitted"],
                "post_seen": post["seen"],
                "post_active": post["active"],
                "n_blocks": len(encoder["blocks"]),
            }
        )
        arrays[f"s{i}__interictal"] = detector.memory.prototype(INTERICTAL)
        arrays[f"s{i}__ictal"] = detector.memory.prototype(ICTAL)
        arrays[f"s{i}__raw_tail"] = state["raw_tail"]
        arrays[f"s{i}__pending"] = encoder["pending"]
        arrays[f"s{i}__post_labels"] = post["tail_labels"]
        arrays[f"s{i}__post_deltas"] = post["tail_deltas"]
        for j, block in enumerate(encoder["blocks"]):
            arrays[f"s{i}__block{j}"] = block
    meta = {"version": _SESSIONS_FORMAT_VERSION, "sessions": sessions_meta}
    return _write_npz(path, {"meta": _meta_array(meta), **arrays})


def load_sessions(path: str | Path):
    """Resume a :func:`save_sessions` checkpoint.

    Returns:
        A fresh :class:`~repro.core.sessions.StreamSessionManager` with
        every session reopened mid-stream: models are rebuilt as in
        :func:`load_model`, and the raw tails, encoder buffers and
        alarm machines pick up exactly where the checkpoint left off.
    """
    from repro.core.sessions import StreamSessionManager

    path = Path(path)
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["meta"].tobytes()).decode("utf-8"))
        if meta.get("version") != _SESSIONS_FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported sessions format version "
                f"{meta.get('version')!r}"
            )
        manager = StreamSessionManager()
        for i, spec in enumerate(meta["sessions"]):
            detector = _rebuild_detector(
                spec, archive[f"s{i}__interictal"], archive[f"s{i}__ictal"]
            )
            stream = manager.open(spec["id"], detector)
            stream.restore_state(
                {
                    "raw_tail": archive[f"s{i}__raw_tail"],
                    "samples_seen": spec["samples_seen"],
                    "windows_emitted": spec["windows_emitted"],
                    "encoder": {
                        "pending": archive[f"s{i}__pending"],
                        "blocks": [
                            archive[f"s{i}__block{j}"]
                            for j in range(spec["n_blocks"])
                        ],
                    },
                    "post": {
                        "tail_labels": archive[f"s{i}__post_labels"],
                        "tail_deltas": archive[f"s{i}__post_deltas"],
                        "seen": spec["post_seen"],
                        "active": spec["post_active"],
                    },
                }
            )
    return manager


def write_fleet_manifest(
    path: str | Path,
    *,
    shards: dict[str, str],
    routes: dict[str, str],
    dim: int,
) -> Path:
    """Write the JSON manifest of a sharded fleet checkpoint.

    A fleet checkpoint is a directory of per-worker
    :func:`save_sessions` shard files plus this manifest tying them
    together; :meth:`repro.serve.ShardedStreamGateway.restore` reads it
    back (possibly onto a different worker count).

    Args:
        path: Manifest file to write (conventionally ``fleet.json``).
        shards: Mapping of worker id to its shard file name, relative
            to the manifest's directory.
        routes: Mapping of session id to the worker id that held it at
            checkpoint time (informational — restore recomputes routing
            from its own ring).
        dim: The fleet's shared hypervector dimension.
    """
    manifest = {
        "version": _FLEET_FORMAT_VERSION,
        "shards": dict(shards),
        "routes": dict(routes),
        "dim": int(dim),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True)
    return _replace(Path(path), lambda file: file.write(text.encode("utf-8")))


def read_fleet_manifest(path: str | Path) -> dict:
    """Read and validate a :func:`write_fleet_manifest` manifest."""
    path = Path(path)
    manifest = json.loads(path.read_text())
    if manifest.get("version") != _FLEET_FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported fleet format version "
            f"{manifest.get('version')!r}"
        )
    for key in ("shards", "routes", "dim"):
        if key not in manifest:
            raise ValueError(f"{path}: fleet manifest missing {key!r}")
    return manifest
