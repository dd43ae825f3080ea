"""Morphology-module tests.

The regression class pins seeded outputs of the batch generator and
the clocked source, so any drift in the shared waveform helpers or the
chunk renderer (filter coefficients, envelope shapes, draw order)
fails loudly instead of silently changing every recording in the repo.
"""

import numpy as np
import pytest

from repro.data import morphology
from repro.data.synthetic import (
    ClockedEEGSource,
    SeizurePlan,
    SynthesisParams,
    SyntheticIEEGGenerator,
)


class TestSeededOutputRegression:
    """Seeded outputs of the shared chunk renderer.

    Re-captured once, on purpose, when the batch generator and the
    clocked source moved onto the chunk renderer of the disk cohorts:
    the batch background lost its per-recording normalisation (it now
    uses the fixed steady-state gain and the split noise/event
    generators), and the clocked source gained the spatially mixed
    background.  Cohort bytes did not change (pinned in
    ``tests/data/test_outofcore.py``).
    """

    def test_batch_generator_pinned(self):
        rec = SyntheticIEEGGenerator(
            8, SynthesisParams(fs=256.0), seed=42
        ).generate(30.0, [SeizurePlan(12.0, 8.0)])
        assert rec.data.dtype == np.float32
        assert float(rec.data.astype(np.float64).sum()) == pytest.approx(
            -2080.3726574070606, abs=0.0
        )
        assert float(rec.data[1000, 3]) == -0.1401812583208084
        assert float(rec.data[5000, 0]) == -0.19381384551525116

    def test_batch_generator_subtle_pinned(self):
        rec = SyntheticIEEGGenerator(4, None, seed=7).generate(
            20.0, [SeizurePlan(8.0, 5.0, subtle=True)]
        )
        assert float(rec.data.astype(np.float64).sum()) == pytest.approx(
            4379.390868191396, abs=0.0
        )
        assert float(rec.data[2048, 2]) == -2.0112650394439697

    def test_clocked_source_pinned(self):
        source = ClockedEEGSource(
            6, fs=128.0, seed=11, seizure_rate_per_min=4.0
        )
        data = np.concatenate(
            [source.next_chunk(n) for n in (64, 1, 257, 640, 38)], axis=0
        )
        assert float(data.astype(np.float64).sum()) == pytest.approx(
            -1742.8923122742563, abs=0.0
        )
        assert float(data[700, 5]) == -0.9605103731155396
        assert source.injected_onsets_s == (7.7578125,)


class TestPinkNoise:
    def test_stream_matches_monolithic_filtering(self):
        """Chunked filtering with carried state == one-shot filtering."""
        rng = np.random.default_rng(3)
        white = rng.standard_normal((1000, 3))
        zi = morphology.pink_filter_state(3)
        whole, _ = morphology.pink_noise_stream(white, zi)
        zi = morphology.pink_filter_state(3)
        parts = []
        for lo, hi in ((0, 7), (7, 8), (8, 500), (500, 1000)):
            part, zi = morphology.pink_noise_stream(white[lo:hi], zi)
            parts.append(part)
        np.testing.assert_array_equal(np.concatenate(parts, axis=0), whole)

    def test_steady_state_gain_matches_constant(self):
        """PINK_STEADY_STD ≈ the realised std of a long filtered run."""
        rng = np.random.default_rng(1)
        zi = morphology.pink_filter_state(1)
        pink, _ = morphology.pink_noise_stream(
            rng.standard_normal((200_000, 1)), zi
        )
        assert float(pink[1000:].std()) == pytest.approx(
            morphology.PINK_STEADY_STD, rel=0.05
        )


class TestWaveforms:
    def test_chirp_phase_constant_frequency(self):
        fs, f = 256.0, 8.0
        phase = morphology.chirp_phase(100, fs, f)
        np.testing.assert_allclose(
            np.diff(phase), 2 * np.pi * f / fs, rtol=1e-12
        )

    def test_chirp_phase_sweeps_down(self):
        phase = morphology.chirp_phase(1000, 256.0, 8.0, chirp_to_hz=2.0)
        inst = np.diff(phase)
        assert inst[0] > inst[-1] > 0

    def test_rhythm_envelope_shape(self):
        env = morphology.rhythm_envelope(100, 10)
        assert env[0] == 0.0
        assert env[9] == 1.0
        assert env[-1] == pytest.approx(0.2)
        assert np.all((0.0 <= env) & (env <= 1.0))

    def test_asymmetric_wave_is_skewed(self):
        phase = morphology.chirp_phase(10_000, 256.0, 4.0)
        wave = morphology.asymmetric_wave(phase, 0.85)
        rising = np.diff(wave) > 0
        assert 0.7 < rising.mean() < 0.95  # rise ~85 % of the cycle

    def test_ictal_stream_wave_ramps_and_fades(self):
        fs, total = 128.0, 1280
        t = np.arange(total, dtype=np.float64)
        wave = morphology.ictal_stream_wave(t, total, fs, 3.0, 4.0)
        assert np.abs(wave[:10]).max() < np.abs(wave).max() * 0.1
        assert np.abs(wave[-5:]).max() < np.abs(wave).max() * 0.2
        assert np.abs(wave).max() <= 4.0 + 1e-9

    def test_spike_kernel_biphasic_and_gated(self):
        kernel = morphology.spike_kernel(256.0)
        assert kernel is not None
        assert np.abs(kernel).max() == pytest.approx(1.0)
        assert kernel.min() < 0 < kernel.max()
        assert morphology.spike_kernel(16.0) is None  # too coarse

    def test_bandpassed_noise_unit_std(self):
        rng = np.random.default_rng(5)
        shaped = morphology.bandpassed_noise(
            rng.standard_normal((2048, 3)), 256.0
        )
        np.testing.assert_allclose(shaped.std(axis=0), 1.0, rtol=1e-12)

    def test_taper_envelope(self):
        env = morphology.taper_envelope(50, 10)
        assert env[0] == 0.0 and env[-1] == 0.0
        np.testing.assert_array_equal(env[10:40], 1.0)
        np.testing.assert_array_equal(
            morphology.taper_envelope(5, 0), np.ones(5)
        )
