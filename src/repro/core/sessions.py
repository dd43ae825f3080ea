"""Multi-patient stream serving: many concurrent sessions, one staged tick.

A :class:`StreamSessionManager` multiplexes many live patient streams
(:class:`~repro.core.streaming.StreamingLaelaps`), each with its own
fitted detector, raw tail, encoder and alarm machine.  A tick
(:meth:`StreamSessionManager.push_many`, through :func:`push_streams`)
runs each stage once over every session: LBP symbolise *per session*;
the spatial encode and temporal block step *grouped* in one tile of
all sessions that share an electrode count and alphabet
(:class:`repro.hdc.temporal.BlockTiles`) — codes staged once, one
spatial call per sample slab, every record gathering from its
session's table in the shared bound-table arena
(:mod:`repro.hdc.spatial_packed`), one carry-save count, window adder
and comparator;
then one XOR + popcount sweep through the one classify stage
(:func:`repro.core.detector.classify_grouped`) and one t_c / t_r vote
over a bank of the sessions' alarm machines.  Events are
bit-identical to driving each stream alone; a lone
``StreamingLaelaps.push`` is the same tick with one session.  Sessions
may differ in electrode count, prototypes, t_r and compute engine; only
the hypervector dimension is shared, so queries line up word for word.

Live state (every session's symboliser tail, encoder buffers, alarm
machine and counters, plus each model) checkpoints to one ``.npz``
through :func:`repro.core.persistence.save_sessions` and resumes
bit-exactly with :func:`repro.core.persistence.load_sessions`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.detector import LaelapsDetector, classify_grouped
from repro.core.postprocess import AlarmStateMachine, delta_scores
from repro.core.streaming import StreamEvent, StreamingLaelaps

# ``grouped_classify_packed`` is unused here; the name stays importable
# from this module because perfbench's tracer wraps it here.
from repro.hdc.associative import grouped_classify_packed  # noqa: F401
from repro.hdc.temporal import BlockTiles


def validate_chunk(
    session_id: str, chunk, n_electrodes: int
) -> np.ndarray:
    """Coerce one session's raw chunk to an array and check its shape.

    The single chunk-shape contract of the serving layers — the manager
    and the sharded gateway both validate through here, so they can
    never drift into accepting different inputs.

    Args:
        session_id: Session key, for the error message.
        chunk: Raw samples, must be ``(n, n_electrodes)``.
        n_electrodes: The session's electrode count.

    Returns:
        Array ``(n, n_electrodes)``: floating-point input keeps its
        dtype (LBP codes compare samples, so float32 gives the same
        codes at half the memory and IPC bytes); anything else becomes
        float64.
    """
    arr = np.asarray(chunk)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    if arr.ndim != 2 or arr.shape[1] != n_electrodes:
        raise ValueError(
            f"session {session_id!r} expects (n, {n_electrodes}) "
            f"chunks, got {arr.shape}"
        )
    return arr


def run_lockstep(
    push_many, signals: Mapping[str, np.ndarray], chunk_samples: int
) -> dict[str, list[StreamEvent]]:
    """Stream whole recordings through ``push_many`` in lockstep ticks.

    Tick ``t`` delivers samples ``[t * chunk_samples, (t + 1) *
    chunk_samples)`` of every signal that still has data (exhausted
    signals drop out of later ticks).  Shared by
    :meth:`StreamSessionManager.run` and
    :meth:`repro.serve.ShardedStreamGateway.run` so the two layers
    cannot diverge in tick semantics.
    """
    arrays = {sid: np.asarray(signal) for sid, signal in signals.items()}
    events: dict[str, list[StreamEvent]] = {sid: [] for sid in arrays}
    longest = max((a.shape[0] for a in arrays.values()), default=0)
    for start in range(0, longest, chunk_samples):
        tick = {sid: arr[start : start + chunk_samples]
                for sid, arr in arrays.items() if arr.shape[0] > start}
        for sid, new_events in push_many(tick).items():
            events[sid].extend(new_events)
    return events


def push_streams(
    streams: Sequence[StreamingLaelaps], chunks: Sequence[np.ndarray]
) -> list[list[StreamEvent]]:
    """One serving tick over many streams, stage by stage (see module
    docstring).  Chunks must be valid for their streams
    (:func:`validate_chunk`); returns each stream's new events."""
    tiles = BlockTiles()
    h_blocks = [
        stream.encode_chunk(chunk, tiles)
        for stream, chunk in zip(streams, chunks)
    ]
    tiles.flush()
    events: list[list[StreamEvent]] = [[] for _ in streams]
    live = [i for i, h in enumerate(h_blocks) if h.shape[0]]
    if not live:
        return events
    labels, distances = classify_grouped(
        [streams[i].detector for i in live], [h_blocks[i] for i in live]
    )
    splits = np.cumsum([h_blocks[i].shape[0] for i in live])[:-1]
    labels_rows = np.split(labels, splits)
    deltas_rows = np.split(delta_scores(distances), splits)
    bank = AlarmStateMachine.bank([streams[i].alarm_machine() for i in live])
    _, rising_rows = bank.update(labels_rows, deltas_rows)
    for i, row_labels, row_deltas, rising in zip(
        live, labels_rows, deltas_rows, rising_rows
    ):
        events[i] = streams[i].emit_events(row_labels, row_deltas, rising)
    return events


class StreamSessionManager:
    """Registry and batched driver of concurrent patient streams.

    Sessions are opened against fitted detectors and pushed either one
    at a time (:meth:`push`) or as a batch (:meth:`push_many`); both
    return per-session :class:`~repro.core.streaming.StreamEvent` lists
    with the same warm-up/alarm semantics as the batch pipeline.
    """

    def __init__(self) -> None:
        self._sessions: dict[str, StreamingLaelaps] = {}
        self._dim: int | None = None

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    @property
    def session_ids(self) -> list[str]:
        """Open session ids in insertion order."""
        return list(self._sessions)

    @property
    def dim(self) -> int | None:
        """Shared hypervector dimension (None while no session is open)."""
        return self._dim

    def session(self, session_id: str) -> StreamingLaelaps:
        """The live stream engine of a session."""
        try:
            return self._sessions[session_id]
        except KeyError:
            raise KeyError(f"no open session {session_id!r}") from None

    def open(
        self, session_id: str, detector: LaelapsDetector
    ) -> StreamingLaelaps:
        """Open a new stream session for a fitted detector.

        Args:
            session_id: Unique session key (e.g. a patient/device id).
            detector: A fitted detector; its hypervector dimension must
                match every other open session (the cross-session sweep
                shares one packed word layout), electrode counts and
                backends may differ freely.
        """
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} is already open")
        if self._dim is not None and detector.config.dim != self._dim:
            raise ValueError(
                f"session dimension {detector.config.dim} does not match "
                f"the manager's shared dimension {self._dim}"
            )
        stream = StreamingLaelaps(detector)
        self._sessions[session_id] = stream
        self._dim = detector.config.dim
        return stream

    def close(self, session_id: str) -> None:
        """Drop a session and its live state."""
        self.session(session_id)
        del self._sessions[session_id]
        if not self._sessions:
            self._dim = None

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------

    def push(self, session_id: str, chunk: np.ndarray) -> list[StreamEvent]:
        """Push one chunk into one session (see :meth:`push_many`)."""
        return self.push_many({session_id: chunk})[session_id]

    def push_many(
        self, chunks: Mapping[str, np.ndarray]
    ) -> dict[str, list[StreamEvent]]:
        """Advance many sessions one tick (see :func:`push_streams`).

        Args:
            chunks: Mapping of session id to raw chunk
                ``(n_samples, n_electrodes_of_that_session)``; chunk
                sizes may differ per session.

        Returns:
            Per-session lists of completed-window events (empty where a
            chunk finished no window).
        """
        # Validate every session id and chunk shape before touching any
        # stream state: a bad entry must not leave earlier sessions with
        # half-consumed ticks (their windows would vanish unclassified).
        streams = [self.session(session_id) for session_id in chunks]
        arrays = [
            validate_chunk(session_id, chunks[session_id],
                           stream.detector.n_electrodes)
            for session_id, stream in zip(chunks, streams)
        ]
        return dict(zip(chunks, push_streams(streams, arrays)))

    def run(
        self,
        signals: Mapping[str, np.ndarray],
        chunk_samples: int,
    ) -> dict[str, list[StreamEvent]]:
        """Stream whole recordings through many sessions in lockstep.

        Convenience mirror of :meth:`StreamingLaelaps.run`: every tick
        delivers the next ``chunk_samples`` of each signal (sessions
        whose signal is exhausted simply stop receiving), so all
        classification traffic flows through the batched sweep.
        """
        for session_id in signals:
            self.session(session_id)
        return run_lockstep(self.push_many, signals, chunk_samples)

    # ------------------------------------------------------------------
    # Checkpointing and shard migration
    # ------------------------------------------------------------------

    def export_session(self, session_id: str) -> dict:
        """One session as a picklable ``{"model", "state"}`` payload.

        The full model (:func:`repro.core.persistence.detector_payload`)
        and mid-stream state (:meth:`StreamingLaelaps.state_dict`); it
        resumes bit-exactly through :meth:`import_session` on any other
        manager.  The session stays open (:meth:`pop_session` moves it).
        """
        from repro.core.persistence import detector_payload

        stream = self.session(session_id)
        return {
            "model": detector_payload(stream.detector),
            "state": stream.state_dict(),
        }

    def import_session(self, session_id: str, payload: dict) -> StreamingLaelaps:
        """Open a session from an :meth:`export_session` payload.

        Rebuilds the detector from the payload's model and resumes the
        stream mid-flight (a ``state`` of ``None`` opens it fresh);
        subsequent events are bit-identical to the exporting manager's.
        """
        from repro.core.persistence import detector_from_payload

        stream = self.open(session_id, detector_from_payload(payload["model"]))
        if payload["state"] is None:
            return stream
        try:
            stream.restore_state(payload["state"])
        except Exception:
            self.close(session_id)
            raise
        return stream

    def pop_session(self, session_id: str) -> dict:
        """Close a session and return its :meth:`export_session` payload."""
        payload = self.export_session(session_id)
        self.close(session_id)
        return payload
