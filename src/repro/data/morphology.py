"""Shared waveform morphology of the synthetic iEEG.

One module owns the signal shapes: the pink-noise background filter,
the asymmetric sawtooth rhythm with its chirp phase and ramp/fade
envelope, the ictal stream wave, the biphasic spike kernel, and the
band-passed noise of subtle seizures.  The chunk renderer of
:mod:`repro.data.synthetic` draws every event from it, so batch
recordings, live streams and disk cohorts carry the same
electrographic signatures.

The pink filter carries its IIR state across chunks and applies the
fixed steady-state gain :data:`PINK_STEADY_STD` instead of normalising
by a realised standard deviation (which would depend on every sample
and could not be computed chunk by chunk).  That makes the output an
exact function of the white-noise draw sequence — the property the
chunking-invariance tests pin down.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sps

# Paul Kellet's economy pink-noise IIR approximation (1/f magnitude).
PINK_B = np.array([0.049922035, -0.095993537, 0.050612699, -0.004408786])
PINK_A = np.array([1.0, -2.494956002, 2.017265875, -0.522189400])
# Steady-state output std of the Kellet filter for unit white input —
# the fixed gain the renderer applies instead of per-chunk
# re-normalisation (which would make output depend on chunk boundaries).
PINK_STEADY_STD = 0.0861


# ----------------------------------------------------------------------
# Pink-noise background
# ----------------------------------------------------------------------


def pink_filter_state(n_channels: int) -> np.ndarray:
    """Initial (zero) IIR state for :func:`pink_noise_stream`."""
    order = max(PINK_A.size, PINK_B.size) - 1
    return np.zeros((order, n_channels))


def pink_noise_stream(
    white: np.ndarray, zi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pink-filter one chunk of white noise, carrying the filter state.

    Returns:
        ``(pink, zi)`` — the *raw* filter output (callers apply the
        :data:`PINK_STEADY_STD` gain) and the state to pass to the next
        chunk.  Feeding the same white sequence in any chunking yields
        the same concatenated output.
    """
    return sps.lfilter(PINK_B, PINK_A, white, axis=0, zi=zi)


# ----------------------------------------------------------------------
# Rhythmic (ictal / confounder) oscillations
# ----------------------------------------------------------------------


def chirp_phase(
    n: int, fs: float, freq_hz: float, chirp_to_hz: float | None = None
) -> np.ndarray:
    """Phase (radians) of a linear chirp from ``freq_hz`` to ``chirp_to_hz``.

    ``chirp_to_hz=None`` gives a constant-frequency rhythm.  The phase
    is a pure function of the window length, so an event's waveform can
    be re-derived for any sub-slice of the event.
    """
    f_end = chirp_to_hz if chirp_to_hz is not None else freq_hz
    inst_freq = np.linspace(freq_hz, f_end, n)
    return 2 * np.pi * np.cumsum(inst_freq) / fs


def rhythm_envelope(n: int, ramp_samples: int) -> np.ndarray:
    """Amplitude envelope of a rhythmic event: linear ramp-in, 20 % fade.

    The envelope also scales the background *suppression* of organised
    discharges — see :class:`repro.data.synthetic._RhythmEvent`.
    """
    ramp = max(1, ramp_samples)
    envelope = np.ones(n)
    envelope[: min(ramp, n)] = np.linspace(0.0, 1.0, min(ramp, n))
    tail = min(max(1, int(0.2 * n)), n)
    envelope[-tail:] *= np.linspace(1.0, 0.2, tail)
    return envelope


def asymmetric_wave(phase: np.ndarray, asymmetry: float) -> np.ndarray:
    """Asymmetric sawtooth oscillation at the given phase.

    ``asymmetry`` is the sawtooth width parameter: 0.5 is a symmetric
    triangle, values toward 1 skew the rise/fall times (the ictal
    signature that produces runs of identical LBP sign bits).
    """
    return sps.sawtooth(phase, width=asymmetry)


def ictal_stream_wave(
    t: np.ndarray,
    total: int,
    fs: float,
    freq_hz: float,
    amplitude: float,
    asymmetry: float = 0.85,
) -> np.ndarray:
    """Ictal waveform of a streamed seizure at samples ``t`` past onset.

    A pure function of the absolute sample offset ``t`` (float64), the
    event length ``total`` and the event parameters — which is what
    makes the live stream chunking-invariant: any chunk overlapping the
    event evaluates exactly the samples it covers.
    """
    phase = 2 * np.pi * freq_hz * t / fs
    wave = asymmetric_wave(phase, asymmetry)
    ramp = max(1, min(int(2.0 * fs), total // 3))
    envelope = np.minimum(t / ramp, 1.0)
    tail = total - int(0.2 * total)
    fade = (total - t) / max(1, total - tail)
    envelope = np.minimum(envelope, np.clip(fade, 0.0, 1.0))
    return amplitude * envelope * wave


# ----------------------------------------------------------------------
# Transients and subtle events
# ----------------------------------------------------------------------


def spike_kernel(fs: float) -> np.ndarray | None:
    """Biphasic epileptiform transient (~70 ms), peak-normalised.

    Returns ``None`` when the sampling rate is too low to resolve the
    transient (fewer than 4 samples across it).
    """
    width = int(0.07 * fs)
    if width < 4:
        return None
    t = np.linspace(-2.5, 2.5, width)
    kernel = -t * np.exp(-(t**2))  # derivative-of-Gaussian shape
    return kernel / np.abs(kernel).max()


def bandpassed_noise(white: np.ndarray, fs: float) -> np.ndarray:
    """4-12 Hz band-passed noise, unit std per column (subtle seizures)."""
    low = 4.0 / (fs / 2.0)
    high = min(12.0 / (fs / 2.0), 0.99)
    b, a = sps.butter(2, [low, high], btype="bandpass")
    shaped = sps.lfilter(b, a, white, axis=0)
    std = shaped.std(axis=0)
    std[std == 0] = 1.0
    return shaped / std


def taper_envelope(n: int, ramp: int) -> np.ndarray:
    """Symmetric linear fade-in/fade-out envelope of a subtle event."""
    envelope = np.ones(n)
    if ramp > 0:
        envelope[:ramp] = np.linspace(0, 1, ramp)
        envelope[-ramp:] = np.linspace(1, 0, ramp)
    return envelope
