"""Label postprocessing: delta scores, t_c / t_r voting, t_r tuning.

Sec. III-C of the paper: every 0.5 s the classifier emits a label and the
score ``delta = |eta(H, P1) - eta(H, P2)|`` (the gap between the two
prototype distances, a confidence proxy).  A postprocessing window slides
over the last 10 labels; an alarm is flagged only when

* at least ``t_c`` of those labels are ictal (the paper uses t_c = 10,
  i.e. ten consecutive ictal labels), and
* the mean delta of those ictal labels exceeds ``t_r``.

``t_c`` is global; ``t_r`` is tuned per patient on the training tail with
the rule implemented in :func:`tune_tr`.

Warm-up / alarm-latency contract
--------------------------------

The voting window is only evaluated once it is *full*: no alarm can be
raised before ``postprocess_len`` labels exist, so the earliest possible
alarm sits at window index ``postprocess_len - 1`` of a recording (or
stream).  Batch (:func:`alarm_flags`, :meth:`Postprocessor.flags`,
:func:`tune_tr`) and incremental (:class:`AlarmStateMachine`, and through
it ``StreamingLaelaps`` and the stream sessions) paths share one
implementation — :class:`AlarmStateMachine` — and therefore produce
bit-identical alarm onsets for every ``t_c <= postprocess_len`` and any
chunking of the label stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import ICTAL


def delta_scores(distances: np.ndarray) -> np.ndarray:
    """Confidence score per window: |eta(H, P1) - eta(H, P2)|.

    Args:
        distances: int array ``(n_windows, 2)`` of Hamming distances to
            the interictal and ictal prototypes.

    Returns:
        float64 array ``(n_windows,)``.
    """
    arr = np.asarray(distances)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (n_windows, 2) distances, got {arr.shape}")
    return np.abs(arr[:, 0].astype(np.float64) - arr[:, 1].astype(np.float64))


def alarm_flags(
    labels: np.ndarray,
    deltas: np.ndarray,
    postprocess_len: int = 10,
    tc: int = 10,
    tr: float = 0.0,
) -> np.ndarray:
    """Per-window alarm condition of Sec. III-C (one-shot batch form).

    Thin wrapper over :class:`AlarmStateMachine` fed the whole stream in
    one chunk, so batch and streaming postprocessing cannot diverge.  No
    window can flag before the voting window is full: the earliest
    possible True is at index ``postprocess_len - 1``.

    Args:
        labels: int array ``(n_windows,)`` of classifier labels.
        deltas: float array ``(n_windows,)`` of delta scores.
        postprocess_len: Voting-window length in labels.
        tc: Minimum ictal-label count inside the voting window.
        tr: Threshold the mean delta of the ictal labels must *exceed*.

    Returns:
        bool array ``(n_windows,)``: True where the alarm condition holds.
    """
    machine = AlarmStateMachine(
        PostprocessConfig(postprocess_len=postprocess_len, tc=tc, tr=tr)
    )
    flags, _ = machine.update(labels, deltas)
    return flags


def flags_to_onsets(flags: np.ndarray) -> np.ndarray:
    """Indices where the alarm condition newly becomes true (rising edges).

    Args:
        flags: Boolean array ``(n_windows,)`` (as returned by
            :func:`alarm_flags`).

    Returns:
        int64 array of window indices where ``flags`` goes False->True
        (index 0 counts when ``flags[0]`` is True) — the alarm onsets.
    """
    arr = np.asarray(flags, dtype=bool)
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    rising = np.flatnonzero(arr & ~np.concatenate([[False], arr[:-1]]))
    return rising.astype(np.int64)


@dataclass(frozen=True)
class PostprocessConfig:
    """Postprocessor parameters (see :func:`alarm_flags`)."""

    postprocess_len: int = 10
    tc: int = 10
    tr: float = 0.0

    def __post_init__(self) -> None:
        if not 1 <= self.tc <= self.postprocess_len:
            raise ValueError(
                f"need 1 <= tc <= postprocess_len, got tc={self.tc}, "
                f"len={self.postprocess_len}"
            )
        if self.tr < 0:
            raise ValueError(f"tr must be >= 0, got {self.tr}")


class AlarmStateMachine:
    """The canonical Sec. III-C postprocessor: vectorized *and* resumable.

    One instance consumes a label/delta stream in arbitrary chunks (a
    whole recording at once, one label at a time, or anything between)
    and evaluates the t_c / t_r vote over the trailing
    ``postprocess_len`` labels.  Chunking never changes the output:
    feeding chunks ``a`` then ``b`` produces exactly the flags of
    feeding ``a + b`` in one call.  Both the batch pipeline
    (:func:`alarm_flags`, :meth:`Postprocessor.flags`, :func:`tune_tr`)
    and the streaming/session engines run through this class, which is
    what guarantees bit-identical alarms between ``detect()`` and
    incremental ``push()``.  A :meth:`bank` of machines votes many
    streams (a serving tick's sessions) in one call, through the same
    code as a lone machine.

    Warm-up contract: the vote is only taken once the window is full,
    so no flag can be raised for a global window index smaller than
    ``postprocess_len - 1`` — the detector's intrinsic alarm latency.

    The full live state is exposed through :meth:`state_dict` /
    :meth:`restore_state` (used by the stream-session checkpointing),
    and is O(postprocess_len) regardless of stream length.
    """

    def __init__(self, config: PostprocessConfig | None = None) -> None:
        self.config = config or PostprocessConfig()
        self._members: list[AlarmStateMachine] | None = None
        self.reset()

    @classmethod
    def bank(cls, machines) -> "AlarmStateMachine":
        """One machine whose rows are ``machines`` (a sessions axis): its
        :meth:`update` votes all of them in one pass, each with its own
        t_c, t_r and warm-up depth, exactly as if each were updated alone."""
        bank = cls()
        bank._members = list(machines)
        return bank

    @property
    def labels_seen(self) -> int:
        """Total labels consumed so far."""
        return self._seen

    @property
    def alarm_active(self) -> bool:
        """Whether the alarm condition held at the last consumed label."""
        return self._active

    def reset(self) -> None:
        """Forget all stream state (start of a new recording)."""
        self._tail_labels = np.zeros(0, dtype=np.int64)
        self._tail_deltas = np.zeros(0, dtype=np.float64)
        self._seen = 0
        self._active = False

    def update(self, labels, deltas):
        """Consume a chunk of labels/deltas, continuing the stream.

        Args:
            labels: int array ``(n,)`` of classifier labels; on a
                :meth:`bank`, one such array per member (any lengths).
            deltas: float array(s) of delta scores, shaped like ``labels``.

        Returns:
            ``(flags, rising)`` bool arrays ``(n,)``: the per-label alarm
            condition and its rising edges (True exactly where an alarm
            *onset* occurs, carried correctly across chunk boundaries);
            on a bank, one list of arrays each.
        """
        members = self._members or [self]
        if self._members is None:
            labels, deltas = [labels], [deltas]
        rows = [(np.asarray(row_labels, dtype=np.int64),
                 np.asarray(row_deltas, dtype=np.float64))
                for row_labels, row_deltas in zip(labels, deltas, strict=True)]
        if len(rows) != len(members) or any(
            lab.shape != d.shape or lab.ndim != 1 for lab, d in rows
        ):
            raise ValueError("labels and deltas must be equal-length 1-D "
                             "arrays, one pair per machine")
        flags_rows = [np.zeros(len(lab), dtype=bool) for lab, _ in rows]
        rising_rows = [flags.copy() for flags in flags_rows]
        live = [r for r, (lab, _) in enumerate(rows) if len(lab)]
        # Each width's members are voted together over one joined array
        # with a ``width - 1 + n`` segment per member: its carried tail,
        # right-aligned behind zeros (an interictal, zero-delta pad), then
        # its new labels.  Each window is summed explicitly rather than as
        # a difference of running cumsums, so a sum depends only on the
        # window's contents — never on the stream prefix, the chunking or
        # the other members (a cumsum difference can absorb a tiny delta
        # into a large total).
        for width in {members[r].config.postprocess_len for r in live}:
            group = [r for r in live
                     if members[r].config.postprocess_len == width]
            machines = [members[r] for r in group]
            counts = np.array([len(rows[r][0]) for r in group])
            tails = np.array([len(m._tail_labels) for m in machines])
            ends = np.cumsum(width - 1 + counts)
            firsts = ends - counts  # each member's first new label
            starts = np.cumsum(counts) - counts  # ... in the new-label axis
            offsets = np.arange(counts.sum()) - np.repeat(starts, counts)
            new = np.repeat(firsts, counts) + offsets
            tail = (np.repeat(firsts, tails) + np.arange(tails.sum())
                    - np.repeat(np.cumsum(tails), tails))
            labels_joined = np.zeros(ends[-1], dtype=np.int64)
            deltas_joined = np.zeros(ends[-1], dtype=np.float64)
            labels_joined[new] = np.concatenate([rows[r][0] for r in group])
            deltas_joined[new] = np.concatenate([rows[r][1] for r in group])
            if len(tail):
                labels_joined[tail] = np.concatenate(
                    [m._tail_labels for m in machines])
                deltas_joined[tail] = np.concatenate(
                    [m._tail_deltas for m in machines])
            ictal = (labels_joined == ICTAL).astype(np.float64)
            # New label i of a member closes the window starting at its
            # own position minus ``width - 1``.
            index = new - (width - 1)

            def window_sums(values):
                return np.lib.stride_tricks.sliding_window_view(
                    values, width).sum(axis=-1)[index]

            ictal_counts = window_sums(ictal)
            ictal_delta_sums = window_sums(ictal * deltas_joined)
            with np.errstate(invalid="ignore", divide="ignore"):
                mean_delta = np.where(
                    ictal_counts > 0, ictal_delta_sums / ictal_counts, 0.0
                )
            per_label = [(m.config.tc, m.config.tr, m._seen) for m in machines]
            tc, tr, seen = (np.repeat(column, counts) for column in zip(*per_label))
            flags = (ictal_counts >= tc) & (mean_delta > tr)
            # Warm-up: a window only votes once `width` labels exist.
            flags &= seen + offsets >= width - 1
            previous = np.empty_like(flags)
            previous[1:] = flags[:-1]
            previous[starts] = [m._active for m in machines]
            rising = flags & ~previous
            for r, m, start, n, end, carried in zip(
                group, machines, starts.tolist(), counts.tolist(),
                ends.tolist(), tails.tolist(),
            ):
                flags_rows[r] = flags[start : start + n]
                rising_rows[r] = rising[start : start + n]
                keep = min(width - 1, carried + n)
                m._tail_labels = labels_joined[end - keep : end]
                m._tail_deltas = deltas_joined[end - keep : end]
                m._seen += n
                m._active = bool(flags[start + n - 1])
        if self._members is None:
            return flags_rows[0], rising_rows[0]
        return flags_rows, rising_rows

    def state_dict(self) -> dict:
        """Snapshot of the live stream state (checkpointable)."""
        return {
            "tail_labels": self._tail_labels.copy(),
            "tail_deltas": self._tail_deltas.copy(),
            "seen": int(self._seen),
            "active": bool(self._active),
        }

    def restore_state(self, state: dict) -> "AlarmStateMachine":
        """Resume from a :meth:`state_dict` snapshot (bit-exact)."""
        tail_labels = np.asarray(state["tail_labels"], dtype=np.int64)
        tail_deltas = np.asarray(state["tail_deltas"], dtype=np.float64)
        if tail_labels.shape != tail_deltas.shape or tail_labels.ndim != 1:
            raise ValueError("state tails must be equal-length 1-D arrays")
        if tail_labels.shape[0] > self.config.postprocess_len - 1:
            raise ValueError(
                f"state tail of {tail_labels.shape[0]} labels exceeds "
                f"postprocess_len - 1 = {self.config.postprocess_len - 1}"
            )
        self._tail_labels = tail_labels.copy()
        self._tail_deltas = tail_deltas.copy()
        self._seen = int(state["seen"])
        self._active = bool(state["active"])
        return self


class Postprocessor:
    """Stateless batch wrapper turning label/delta streams into onsets.

    Each call runs a fresh :class:`AlarmStateMachine` over the whole
    stream, so results match the incremental engines exactly.
    """

    def __init__(self, config: PostprocessConfig | None = None) -> None:
        self.config = config or PostprocessConfig()

    def flags(self, labels: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        """Alarm condition per window (see :func:`alarm_flags`)."""
        flags, _ = AlarmStateMachine(self.config).update(labels, deltas)
        return flags

    def onsets(self, labels: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        """Window indices of alarm onsets (rising edges of the condition)."""
        return flags_to_onsets(self.flags(labels, deltas))


def tune_tr(
    labels: np.ndarray,
    deltas: np.ndarray,
    ictal_truth: np.ndarray,
    alpha: float = 0.0,
    postprocess_len: int = 10,
    tc: int = 10,
) -> float:
    """Patient-specific t_r tuning rule of Sec. III-C.

    Run on the *training* tail (everything up to the end of the training
    set that was not used to build the prototypes is fair game):

    * If the hard t_c filter alone produces no false alarm on the
      interictal part, set ``t_r = min(delta_ictal)`` — maximally robust
      without touching sensitivity.
    * Otherwise set ``t_r`` to the highest integer multiple of
      ``max(delta_interictal)`` that stays below
      ``max(delta_ictal) - alpha``, where ``alpha`` compensates for the
      classifier's higher confidence on the samples it was trained on.

    Degenerate cases (documented choices, not in the paper):

    * no ictal windows in the tuning data -> return 0 (nothing to tune);
    * no valid multiple exists -> return ``max(delta_interictal)``,
      prioritising the paper's headline goal of zero false alarms.

    Args:
        labels: Classifier labels over the tuning stream.
        deltas: Delta scores over the tuning stream.
        ictal_truth: Boolean ground-truth mask (True inside seizures).
        alpha: The confidence-compensation term; computed across patients
            by :func:`alpha_from_cohort`.
        postprocess_len: Voting window length.
        tc: Hard label-count threshold.

    Returns:
        The tuned ``t_r`` value (float, >= 0).
    """
    labels_arr = np.asarray(labels)
    deltas_arr = np.asarray(deltas, dtype=np.float64)
    truth = np.asarray(ictal_truth, dtype=bool)
    if not labels_arr.shape == deltas_arr.shape == truth.shape:
        raise ValueError("labels, deltas and ictal_truth must align")
    ictal_deltas = deltas_arr[truth]
    if ictal_deltas.size == 0:
        return 0.0
    flags = alarm_flags(labels_arr, deltas_arr, postprocess_len, tc, tr=0.0)
    false_alarm = bool(np.any(flags & ~truth))
    if not false_alarm:
        return float(ictal_deltas.min())
    interictal_deltas = deltas_arr[~truth]
    max_inter = float(interictal_deltas.max()) if interictal_deltas.size else 0.0
    if max_inter <= 0.0:
        return float(ictal_deltas.min())
    bound = float(ictal_deltas.max()) - alpha
    multiples = int(np.ceil(bound / max_inter)) - 1  # highest k with k*m < bound
    if multiples < 1:
        return max_inter
    return multiples * max_inter


def alpha_from_cohort(
    trained_vs_heldout: list[tuple[float, float]]
) -> float:
    """Compute the alpha compensation term across patients.

    Args:
        trained_vs_heldout: Per-patient pairs ``(mean delta_ictal on the
            windows used to train the prototypes, mean delta_ictal on the
            remaining training-set ictal windows)``.

    Returns:
        The mean difference across patients (clipped at 0: a classifier
        cannot be *less* confident on its own training samples in a way
        that should loosen the threshold).
    """
    if not trained_vs_heldout:
        return 0.0
    diffs = [trained - heldout for trained, heldout in trained_vs_heldout]
    return max(0.0, float(np.mean(diffs)))
