"""RAM-budget contract of the out-of-core pipeline.

Tier-1 scale: the streamed path's peak (tracemalloc) must be flat in
the recording length while a one-shot encode's grows, and disk-backed
generation must stay bounded by its chunk budget.  The slow-marked test
is the acceptance criterion of the out-of-core pipeline: a 1024-channel
30-minute recording generated to disk and evaluated end to end (train,
streamed predict, alarms) under a 200 MB evaluation-memory ceiling the
in-memory path cannot meet (the float32 recording the batch generator
fills is ~0.94 GB on its own).

``tracemalloc`` counts every traced allocation (numpy registers its
buffers) but *not* memmap pages — which is the point: mapped file pages
are reclaimable cache, not working-set demand.  Peak RSS is not
asserted, because it is a process-lifetime high-water mark; perfbench's
``offline-highchan`` workload reports the streamed path's ``peak_mb``.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.config import LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.data.outofcore import (
    CohortSpec,
    MemberSpec,
    default_member_plans,
    generate_cohort,
)
from repro.data.synthetic import SynthesisParams
from repro.evaluation.runner import (
    finalize_run,
    predict_windows_streamed,
    run_patient,
    tune_run_tr,
)

#: The out-of-core evaluation memory ceiling (ISSUE acceptance).
BUDGET_MB = 200.0


def _peak_mb(fn) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestStreamedPeakIsFlat:
    """Streamed peak ~constant in duration; one-shot peak grows."""

    @pytest.fixture(scope="class")
    def setup(self, tmp_path_factory):
        fs = 256.0
        spec = CohortSpec(
            "mem-probe",
            (MemberSpec("m0", 64, 90.0, seed=5),),
            params=SynthesisParams(fs=fs),
            seed=1,
        )
        root = tmp_path_factory.mktemp("probe")
        recording = generate_cohort(spec, root).member("m0").open()
        detector = LaelapsDetector(
            64, LaelapsConfig(dim=256, fs=fs, seed=9)
        )
        from repro.core.training import TrainingSegments

        detector.fit(
            recording.data[: int(80.0 * fs)],
            TrainingSegments(ictal=((55.0, 70.0),), interictal=(10.0, 40.0)),
        )
        short = recording.data[: int(20.0 * fs)]
        long = recording.data[: int(60.0 * fs)]
        return detector, short, long

    def test_streamed_peak_does_not_grow_with_duration(self, setup):
        detector, short, long = setup
        peak_short = _peak_mb(
            lambda: predict_windows_streamed(detector, short, 2048)
        )
        peak_long = _peak_mb(
            lambda: predict_windows_streamed(detector, long, 2048)
        )
        assert peak_long < 1.4 * peak_short, (peak_short, peak_long)

    def test_in_memory_peak_grows_and_exceeds_streamed(self, setup):
        detector, short, long = setup

        def one_shot(signal):
            return detector.predict_from_windows(detector.encode(signal))

        mem_short = _peak_mb(lambda: one_shot(short))
        mem_long = _peak_mb(lambda: one_shot(long))
        streamed_long = _peak_mb(
            lambda: predict_windows_streamed(detector, long, 2048)
        )
        # The one-shot encode materialises codes + H vectors proportional
        # to the whole span; 3x the duration must show up.
        assert mem_long > 1.8 * mem_short, (mem_short, mem_long)
        assert streamed_long < mem_long, (streamed_long, mem_long)


@pytest.mark.parametrize("n_channels", [16, 32])
def test_run_patient_stays_under_budget(n_channels, tmp_path):
    """run_patient, disk member to predictions, under the ceiling."""
    duration_s = 240.0
    spec = CohortSpec(
        f"budget-{n_channels}",
        (MemberSpec("m0", n_channels, duration_s,
                    default_member_plans(duration_s, 2), seed=n_channels),),
        params=SynthesisParams(fs=256.0),
        seed=13,
    )
    patient = generate_cohort(spec, tmp_path).member("m0").patient()
    runs = []

    def factory(n_electrodes, fs):
        return LaelapsDetector(
            n_electrodes, LaelapsConfig(dim=256, fs=fs, seed=3)
        )

    peak = _peak_mb(
        lambda: runs.append(run_patient(factory, patient, method="laelaps"))
    )
    assert peak < BUDGET_MB, f"{n_channels} ch: eval peak {peak:.0f} MB"
    assert len(runs[0].train_preds) + len(runs[0].test_preds) > 0


class TestGenerationBudget:
    def test_generation_peak_is_chunk_bounded(self, tmp_path):
        spec = CohortSpec(
            "gen-probe",
            (MemberSpec("m0", 64, 300.0, default_member_plans(300.0, 2),
                        seed=2),),
            params=SynthesisParams(fs=256.0),
            seed=3,
        )
        peak = _peak_mb(lambda: generate_cohort(spec, tmp_path))
        assert peak < 150.0, peak


@pytest.mark.slow
class TestHighChannelAcceptance:
    """1024 channels x 30 minutes, end to end, under the 200 MB ceiling."""

    def test_1024_channel_30_minute_member(self, tmp_path):
        fs = 128.0  # keeps the slow run in minutes; channel count is the point
        duration_s = 1800.0
        spec = CohortSpec(
            "hd-1024",
            (MemberSpec("m0", 1024, duration_s,
                        default_member_plans(duration_s, 3), seed=0),),
            params=SynthesisParams(fs=fs),
            seed=0,
        )
        gen_peak = _peak_mb(lambda: generate_cohort(spec, tmp_path))
        data_file = tmp_path / "m0.f32"
        assert data_file.stat().st_size == int(duration_s * fs) * 1024 * 4
        assert gen_peak < BUDGET_MB, f"generation peak {gen_peak:.0f} MB"

        # The in-memory path cannot meet the ceiling at this scale: the
        # float32 array the batch generator fills is ~0.94 GB alone.
        in_memory_floor_mb = int(duration_s * fs) * 1024 * 4 / 1e6
        assert in_memory_floor_mb > 4 * BUDGET_MB

        from repro.data.outofcore import load_cohort

        patient = load_cohort(tmp_path).member("m0").patient()
        results = {}

        def evaluate():
            def factory(n_electrodes, rec_fs):
                return LaelapsDetector(
                    n_electrodes,
                    LaelapsConfig(dim=1_000, fs=rec_fs, seed=7),
                )

            run = run_patient(factory, patient, method="laelaps")
            result = finalize_run(run, tr=tune_run_tr(run))
            results["result"] = result

        eval_peak = _peak_mb(evaluate)
        assert eval_peak < BUDGET_MB, f"evaluation peak {eval_peak:.0f} MB"

        result = results["result"]
        # Both unseen test seizures should raise alarms at this SNR.
        assert result.metrics.n_seizures == 2
        assert result.metrics.n_detected >= 1
        assert len(result.alarm_times) >= 1
        assert np.all(np.diff(result.alarm_times) > 0)
