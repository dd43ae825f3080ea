"""Property-based tests for the postprocessor and event matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.postprocess import (
    AlarmStateMachine,
    PostprocessConfig,
    alarm_flags,
    flags_to_onsets,
)
from repro.evaluation.events import merge_alarms

LABELS = hnp.arrays(np.int64, st.integers(0, 80), elements=st.integers(0, 1))


@st.composite
def label_delta_stream(draw):
    labels = draw(LABELS)
    deltas = draw(
        hnp.arrays(
            np.float64,
            labels.shape[0],
            elements=st.floats(0, 1e3, allow_nan=False),
        )
    )
    return labels, deltas


class TestAlarmFlagProperties:
    @settings(max_examples=80, deadline=None)
    @given(label_delta_stream(), st.floats(0, 1e3, allow_nan=False))
    def test_monotone_in_tr(self, stream, tr):
        labels, deltas = stream
        at_zero = alarm_flags(labels, deltas, 10, 10, 0.0)
        at_tr = alarm_flags(labels, deltas, 10, 10, tr)
        # Raising t_r can only remove flags, never add them.
        assert not np.any(at_tr & ~at_zero)

    @settings(max_examples=80, deadline=None)
    @given(label_delta_stream(), st.integers(1, 10))
    def test_monotone_in_tc(self, stream, tc):
        labels, deltas = stream
        strict = alarm_flags(labels, deltas, 10, 10, 0.0)
        loose = alarm_flags(labels, deltas, 10, tc, 0.0)
        assert not np.any(strict & ~loose)

    @settings(max_examples=80, deadline=None)
    @given(label_delta_stream())
    def test_flag_requires_ictal_window(self, stream):
        labels, deltas = stream
        flags = alarm_flags(labels, deltas, 10, 10, 0.0)
        # tc = 10 over 10 labels: a flag at i implies the 10 trailing
        # labels (or all labels so far, near the start) are ictal.
        for i in np.flatnonzero(flags):
            lo = max(0, i - 9)
            assert np.all(labels[lo : i + 1] == 1)
            assert i - lo + 1 >= 10 or lo == 0

    @settings(max_examples=80, deadline=None)
    @given(label_delta_stream())
    def test_onsets_are_flagged_and_rising(self, stream):
        labels, deltas = stream
        flags = alarm_flags(labels, deltas, 10, 8, 0.0)
        onsets = flags_to_onsets(flags)
        for idx in onsets:
            assert flags[idx]
            if idx > 0:
                assert not flags[idx - 1]


#: Deltas of any sign and scale: ordinary, huge (sums overflow), tiny
#: (absorbed by any large neighbour) and arbitrary finite floats.
ADVERSARIAL_DELTAS = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(1e250, 1e300),
    st.floats(-1e-250, 1e-250),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def label_chunk(draw, max_size):
    n = draw(st.integers(0, max_size))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    deltas = draw(hnp.arrays(np.float64, n, elements=ADVERSARIAL_DELTAS))
    return labels, deltas


@st.composite
def machine_rows(draw):
    """Per row: its config, the labels it has already seen (its warm-up
    depth) and its next chunk (possibly empty)."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        width = draw(st.sampled_from([1, 4, 10]))
        config = PostprocessConfig(
            postprocess_len=width,
            tc=draw(st.integers(1, width)),
            tr=draw(st.one_of(st.floats(0, 1e3), st.floats(1e250, 1e300))),
        )
        rows.append((config, draw(label_chunk(25)), draw(label_chunk(15))))
    return rows


class TestAlarmBankProperties:
    # Huge deltas overflow the window sums to inf (or inf - inf = nan)
    # identically on both paths; numpy's warning about it is expected.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(machine_rows())
    def test_bank_update_matches_each_row_alone(self, rows):
        solo, banked = [], []
        for config, (labels, deltas), _ in rows:
            machine = AlarmStateMachine(config)
            machine.update(labels, deltas)
            solo.append(machine)
            banked.append(
                AlarmStateMachine(config).restore_state(machine.state_dict())
            )
        flags, rising = AlarmStateMachine.bank(banked).update(
            [new[0] for _, _, new in rows], [new[1] for _, _, new in rows]
        )
        for machine, twin, (_, _, new), row_flags, row_rising in zip(
            solo, banked, rows, flags, rising
        ):
            solo_flags, solo_rising = machine.update(*new)
            assert np.array_equal(row_flags, solo_flags)
            assert np.array_equal(row_rising, solo_rising)
            alone, in_bank = machine.state_dict(), twin.state_dict()
            assert (alone["seen"], alone["active"]) == (
                in_bank["seen"], in_bank["active"])
            assert np.array_equal(alone["tail_labels"], in_bank["tail_labels"])
            assert alone["tail_deltas"].tobytes() == in_bank["tail_deltas"].tobytes()


class TestMergeProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(0, 40),
            elements=st.floats(0, 1e4, allow_nan=False),
        ),
        st.floats(0.1, 100),
    )
    def test_merged_events_respect_refractory(self, times, refractory):
        merged = merge_alarms(times, refractory)
        assert np.all(np.diff(merged) >= refractory)
        # Every merged event is one of the original alarms.
        assert set(merged.tolist()) <= set(np.asarray(times, float).tolist())
        # Never more events than alarms; at least one if any alarm.
        if times.size:
            assert 1 <= merged.size <= times.size
