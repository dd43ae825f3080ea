"""Tests for repro.data.synthetic (the iEEG generator)."""

import numpy as np
import pytest

from repro.data.model import CLINICAL, SUBTLE
from repro.data.synthetic import (
    ClockedEEGSource,
    SeizurePlan,
    SynthesisParams,
    SyntheticIEEGGenerator,
)

FS = 256.0


@pytest.fixture(scope="module")
def params() -> SynthesisParams:
    return SynthesisParams(fs=FS)


class TestSeizurePlan:
    def test_offset(self):
        assert SeizurePlan(10.0, 20.0).offset_s == 30.0

    def test_rejects_negative_onset(self):
        with pytest.raises(ValueError):
            SeizurePlan(-1.0, 5.0)

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            SeizurePlan(1.0, 0.0)


class TestParams:
    def test_rejects_bad_mixing(self):
        with pytest.raises(ValueError):
            SynthesisParams(spatial_mixing=1.0)

    def test_rejects_bad_focal_fraction(self):
        with pytest.raises(ValueError):
            SynthesisParams(ictal_focal_fraction=0.0)


class TestDeterminism:
    def test_same_seed_same_recording(self, params):
        a = SyntheticIEEGGenerator(4, params, seed=9).generate(20.0)
        b = SyntheticIEEGGenerator(4, params, seed=9).generate(20.0)
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_seed_different_recording(self, params):
        a = SyntheticIEEGGenerator(4, params, seed=9).generate(20.0)
        b = SyntheticIEEGGenerator(4, params, seed=10).generate(20.0)
        assert not np.array_equal(a.data, b.data)


class TestBackground:
    @staticmethod
    def _background(n_electrodes, seed, duration_s):
        """A recording with every confounder rate at zero."""
        quiet = SynthesisParams(
            fs=FS, spike_rate_per_hour=0.0, burst_rate_per_hour=0.0,
            drift_rate_per_hour=0.0, pld_rate_per_hour=0.0,
        )
        gen = SyntheticIEEGGenerator(n_electrodes, quiet, seed=seed)
        return gen.generate(duration_s).data.astype(np.float64)

    def test_shape_and_scale(self, params):
        bg = self._background(6, 1, 60.0)
        assert bg.shape == (int(60 * FS), 6)
        assert bg.std() == pytest.approx(params.background_std, rel=0.2)

    def test_spatial_correlation_present(self):
        bg = self._background(4, 2, 60.0)
        corr = np.corrcoef(bg.T)
        off_diag = corr[~np.eye(4, dtype=bool)]
        assert off_diag.mean() > 0.02

    def test_spectrum_is_pink_like(self):
        bg = self._background(1, 3, 120.0)[:, 0]
        spectrum = np.abs(np.fft.rfft(bg)) ** 2
        freqs = np.fft.rfftfreq(bg.size, 1 / FS)
        low = spectrum[(freqs > 0.5) & (freqs < 4)].mean()
        high = spectrum[(freqs > 40) & (freqs < 80)].mean()
        assert low > 10 * high


class TestSeizures:
    def test_annotations_match_plans(self, params):
        gen = SyntheticIEEGGenerator(8, params, seed=4)
        rec = gen.generate(
            120.0,
            [SeizurePlan(40.0, 20.0), SeizurePlan(90.0, 15.0, subtle=True)],
        )
        assert len(rec.seizures) == 2
        assert rec.seizures[0].seizure_type == CLINICAL
        assert rec.seizures[1].seizure_type == SUBTLE
        assert rec.seizures[0].onset_s == 40.0
        assert rec.seizures[1].duration_s == 15.0

    def test_clinical_seizure_raises_amplitude(self, params):
        gen = SyntheticIEEGGenerator(8, params, seed=5)
        rec = gen.generate(120.0, [SeizurePlan(60.0, 30.0)])
        ictal = rec.data[int(70 * FS) : int(85 * FS)]
        inter = rec.data[int(10 * FS) : int(50 * FS)]
        assert ictal.std() > 1.5 * inter.std()

    def test_subtle_seizure_stays_at_background_level(self, params):
        gen = SyntheticIEEGGenerator(8, params, seed=6)
        rec = gen.generate(120.0, [SeizurePlan(60.0, 30.0, subtle=True)])
        ictal = rec.data[int(65 * FS) : int(85 * FS)]
        inter = rec.data[int(10 * FS) : int(50 * FS)]
        assert ictal.std() < 1.5 * inter.std()

    def test_onset_zone_is_stereotyped(self, params):
        # Two seizures of one patient must recruit the same electrodes.
        gen = SyntheticIEEGGenerator(16, params, seed=7)
        rec = gen.generate(
            200.0, [SeizurePlan(60.0, 25.0), SeizurePlan(140.0, 25.0)]
        )
        def ictal_power(lo, hi):
            seg = rec.data[int(lo * FS) : int(hi * FS)]
            return seg.std(axis=0)
        p1 = ictal_power(70, 85)
        p2 = ictal_power(150, 165)
        inter = rec.data[int(10 * FS) : int(50 * FS)].std(axis=0)
        recruited1 = p1 > 1.6 * inter
        recruited2 = p2 > 1.6 * inter
        assert recruited1.sum() >= 4
        # Jaccard overlap of recruited sets close to 1.
        overlap = (recruited1 & recruited2).sum() / max(1, (recruited1 | recruited2).sum())
        assert overlap > 0.6

    def test_seizure_past_end_raises(self, params):
        gen = SyntheticIEEGGenerator(4, params, seed=8)
        with pytest.raises(ValueError):
            gen.generate(50.0, [SeizurePlan(45.0, 10.0)])

    def test_output_dtype_float32(self, params):
        rec = SyntheticIEEGGenerator(2, params, seed=9).generate(10.0)
        assert rec.data.dtype == np.float32


class TestConfounders:
    def test_confounders_do_not_overlap_seizures(self, params):
        # Statistical check: with the keep-out margin, the signal right
        # before a seizure stays near background level.
        gen = SyntheticIEEGGenerator(8, params, seed=10)
        rec = gen.generate(120.0, [SeizurePlan(60.0, 20.0)])
        pre = rec.data[int(56 * FS) : int(59 * FS)]
        assert pre.std() < 3.0 * params.background_std

    def test_rates_scale_event_counts(self):
        quiet = SynthesisParams(
            fs=FS, spike_rate_per_hour=0.0, burst_rate_per_hour=0.0,
            drift_rate_per_hour=0.0,
        )
        busy = SynthesisParams(
            fs=FS, spike_rate_per_hour=0.0, burst_rate_per_hour=0.0,
            drift_rate_per_hour=600.0,
        )
        quiet_rec = SyntheticIEEGGenerator(4, quiet, seed=11).generate(120.0)
        busy_rec = SyntheticIEEGGenerator(4, busy, seed=11).generate(120.0)
        # Drifts add sustained high-amplitude epochs: the tail mass above
        # 3 sigma grows by an order of magnitude.
        tail_quiet = np.mean(np.abs(quiet_rec.data) > 3.0)
        tail_busy = np.mean(np.abs(busy_rec.data) > 3.0)
        assert tail_busy > 5.0 * max(tail_quiet, 1e-6)


class TestClockedEEGSource:
    """The live streaming source: deterministic and chunking-invariant."""

    def _stream(self, source, total, chunk):
        parts = []
        remaining = total
        while remaining > 0:
            n = min(chunk, remaining)
            parts.append(source.next_chunk(n))
            remaining -= n
        return np.concatenate(parts, axis=0)

    def test_same_seed_same_stream(self):
        a = ClockedEEGSource(4, FS, seed=5)
        b = ClockedEEGSource(4, FS, seed=5)
        np.testing.assert_array_equal(
            self._stream(a, 2048, 128), self._stream(b, 2048, 128)
        )
        assert a.injected_onsets_s == b.injected_onsets_s

    def test_chunking_invariance(self):
        # 16 x 128-sample ticks, 4 x 512-sample ticks and one 2048-sample
        # pull must all yield the identical sample stream.
        seed = 21
        fine = self._stream(ClockedEEGSource(3, FS, seed=seed), 2048, 128)
        coarse = self._stream(ClockedEEGSource(3, FS, seed=seed), 2048, 512)
        single = ClockedEEGSource(3, FS, seed=seed).next_chunk(2048)
        np.testing.assert_array_equal(fine, coarse)
        np.testing.assert_array_equal(fine, single)

    def test_different_seed_different_stream(self):
        a = ClockedEEGSource(4, FS, seed=5).next_chunk(512)
        b = ClockedEEGSource(4, FS, seed=6).next_chunk(512)
        assert not np.array_equal(a, b)

    def test_clock_advances_by_samples_over_fs(self):
        source = ClockedEEGSource(2, FS, seed=0)
        source.next_chunk(128)
        assert source.t_s == pytest.approx(128 / FS)
        source.tick(0.5)
        assert source.t_s == pytest.approx(128 / FS + 0.5)

    def test_zero_rate_disables_injection(self):
        source = ClockedEEGSource(4, FS, seed=2, seizure_rate_per_min=0.0)
        data = source.next_chunk(int(30 * FS))
        assert source.injected_onsets_s == ()
        # Pure background: nothing sustained above a few sigma.
        assert np.abs(data).max() < 6.0

    def test_high_rate_injects_recorded_focal_onsets(self):
        source = ClockedEEGSource(4, FS, seed=7, seizure_rate_per_min=6.0)
        data = self._stream(source, int(90 * FS), 128)
        onsets = source.injected_onsets_s
        assert len(onsets) >= 2
        assert all(0.0 <= t <= 90.0 for t in onsets)
        assert list(onsets) == sorted(onsets)
        # Seizures are focal: the onset-zone channels carry visibly more
        # energy than the uninvolved half of the montage.
        per_channel = data.std(axis=0)
        assert per_channel.max() > 1.5 * per_channel.min()

    def test_shape_and_chunk_sizes(self):
        source = ClockedEEGSource(5, FS, seed=1)
        assert source.next_chunk(7).shape == (7, 5)
        assert source.tick(0.5).shape == (128, 5)

    @pytest.mark.parametrize("bad", [
        dict(n_electrodes=0),
        dict(fs=0.0),
        dict(seizure_rate_per_min=-1.0),
    ])
    def test_rejects_invalid_parameters(self, bad):
        kwargs = dict(n_electrodes=4, fs=FS)
        kwargs.update(bad)
        n = kwargs.pop("n_electrodes")
        fs = kwargs.pop("fs")
        with pytest.raises(ValueError):
            ClockedEEGSource(n, fs, **kwargs)
