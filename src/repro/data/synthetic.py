"""Synthetic long-term iEEG: one chunk renderer, three front ends.

Stands in for the SWEC-ETHZ recordings (see ``docs/paper_map.md`` for
the substitution rationale).  The synthesiser reproduces the signal
properties the paper's pipeline actually consumes:

* **Interictal background** — spatially-correlated 1/f ("pink") noise.
  Its sign-of-difference symbols spread over most LBP codes, giving the
  flattened histogram described in Sec. II-A.
* **Ictal activity** — slower, larger, *asymmetric* rhythmic oscillations
  (a down-chirping sawtooth on a focal electrode subset with a spreading
  onset), which concentrate the LBP histogram on few codes.
* **Interictal confounders** — epileptiform spikes, short rhythmic
  bursts and sustained background drifts (sleep-like slow activity).
  These are what give detectors the *opportunity* to raise false alarms;
  their rates are elevated relative to clinical recordings so that
  false-alarm statistics are measurable on duration-scaled recordings.
* **Subtle seizures** — expert-marked events whose morphology stays at
  background amplitude, modelling the seizures that every method in
  Table I misses (P14 and the missed fraction of P4/P6/P7/P9/P13/P18).

Every synthetic sample is made by one renderer, :class:`_ChunkRenderer`:
pink background plus whichever events overlap the chunk being rendered.
Three front ends drive it —

* :meth:`SyntheticIEEGGenerator.generate` renders chunks into an
  in-RAM float32 array,
* :class:`ClockedEEGSource` renders chunks on a clock, adding a seizure
  event whenever a Poisson onset arrives,
* :func:`repro.data.outofcore.generate_cohort` renders chunks into a
  memmap file

— and the output never depends on the chunking.  Background noise is
drawn strictly per-sample from one generator (row-major, so consecutive
chunks consume consecutive draws) with the pink-filter state carried
across chunks and the fixed :data:`repro.data.morphology.PINK_STEADY_STD`
gain; event parameters come from a second generator; and every event
waveform is a pure function of the absolute sample index, so a chunk
overlapping an event renders exactly the samples it covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data import morphology
from repro.data.model import CLINICAL, SUBTLE, Recording, SeizureEvent

#: Float budget of one render chunk (white + pink + mixed buffers are
#: each this big at most); the default chunk size derives from it so
#: peak rendering memory stays flat in the channel count.
_CHUNK_FLOAT_BUDGET = 4_000_000

#: Mean length of a streamed seizure (jittered ±30 %).
_STREAM_SEIZURE_S = 8.0

#: Dominant rhythm of a streamed seizure (jittered ±10 %).
_STREAM_SEIZURE_HZ = 3.0


@dataclass(frozen=True)
class SeizurePlan:
    """Where and what kind of seizure to synthesise.

    Attributes:
        onset_s: Electrographic onset in seconds.
        duration_s: Seizure duration in seconds.
        subtle: Generate a background-like (undetectable) event.
    """

    onset_s: float
    duration_s: float
    subtle: bool = False

    def __post_init__(self) -> None:
        if self.onset_s < 0 or self.duration_s <= 0:
            raise ValueError(
                f"invalid seizure plan onset={self.onset_s}, "
                f"duration={self.duration_s}"
            )

    @property
    def offset_s(self) -> float:
        """Seizure end in seconds."""
        return self.onset_s + self.duration_s


@dataclass(frozen=True)
class SynthesisParams:
    """Tunable properties of the synthetic iEEG.

    Attributes:
        fs: Sampling rate in Hz.
        background_std: Standard deviation of the interictal background
            (arbitrary amplitude units; everything else is relative).
        spatial_mixing: Fraction of each electrode's background shared
            with a common source (0 = independent channels).
        spike_rate_per_hour: Interictal epileptiform spikes per hour.
        burst_rate_per_hour: Short rhythmic (alpha/spindle-like) bursts
            per hour; 1-4 s long, too short to pass the t_c filter.
        drift_rate_per_hour: Sustained slow-activity drifts per hour;
            10-40 s long — the events that can fool a weak classifier for
            many consecutive windows.
        drift_amplitude: Drift oscillation amplitude relative to the
            background std.
        drift_suppression: Background attenuation under a drift (partial
            — drifts sit *near* the ictal/interictal boundary).
        pld_rate_per_hour: Periodic ictal-like discharges (PLD-like
            epochs) per hour: 8-20 s of rhythmic asymmetric activity
            *inside the patient's seizure-onset zone* at sub-seizure
            intensity.  These are the hardest interictal confounders —
            electrographically "almost a seizure" — and the main source
            of baseline false alarms.
        pld_intensity: PLD amplitude/suppression as a fraction of the
            full ictal values.
        ictal_freq_hz: Dominant seizure rhythm at onset (chirps down).
        ictal_amplitude: Ictal oscillation amplitude relative to the
            background std.
        ictal_focal_fraction: Fraction of electrodes recruited.
        ictal_ramp_s: Amplitude ramp-in time (also the spread time).
        ictal_suppression: Background attenuation under the seizure
            rhythm on recruited electrodes (organised discharges replace
            the broadband background — the property that makes a single
            LBP code predominant, Sec. II-A).
        subtle_amplitude: Amplitude of subtle seizures relative to the
            background std (kept near 1 so they stay invisible).
        confounder_margin_s: Keep-out zone around seizures where no
            confounder is placed.
    """

    fs: float = 512.0
    background_std: float = 1.0
    spatial_mixing: float = 0.35
    spike_rate_per_hour: float = 120.0
    burst_rate_per_hour: float = 40.0
    drift_rate_per_hour: float = 30.0
    drift_amplitude: float = 2.5
    drift_suppression: float = 0.55
    pld_rate_per_hour: float = 30.0
    pld_intensity: float = 0.4
    ictal_freq_hz: float = 6.0
    ictal_amplitude: float = 4.5
    ictal_focal_fraction: float = 0.5
    ictal_ramp_s: float = 3.0
    ictal_suppression: float = 0.85
    subtle_amplitude: float = 1.05
    confounder_margin_s: float = 12.0

    def __post_init__(self) -> None:
        if self.fs <= 0:
            raise ValueError(f"fs must be positive, got {self.fs}")
        if not 0 <= self.spatial_mixing < 1:
            raise ValueError("spatial_mixing must be in [0, 1)")
        if self.ictal_focal_fraction <= 0 or self.ictal_focal_fraction > 1:
            raise ValueError("ictal_focal_fraction must be in (0, 1]")


# ----------------------------------------------------------------------
# Events (pure functions of the absolute sample index)
# ----------------------------------------------------------------------


def _overlap(
    start: int, end: int, chunk: np.ndarray, chunk_start: int
) -> tuple[slice, slice]:
    """``(event samples, chunk rows)`` an event shares with a chunk."""
    lo = max(start, chunk_start)
    hi = min(end, chunk_start + chunk.shape[0])
    return (slice(lo - start, hi - start),
            slice(lo - chunk_start, hi - chunk_start))


@dataclass(frozen=True)
class _SpikeEvent:
    start: int
    wave: np.ndarray  # amplitude-scaled kernel
    electrodes: np.ndarray

    @property
    def end(self) -> int:
        return self.start + self.wave.size

    def apply(self, chunk: np.ndarray, chunk_start: int) -> None:
        sl, rows = _overlap(self.start, self.end, chunk, chunk_start)
        chunk[rows, self.electrodes] += self.wave[sl, None]


@dataclass(frozen=True)
class _RhythmEvent:
    """A windowed rhythmic oscillation (burst/drift/PLD/clinical rhythm).

    ``asymmetry`` is the sawtooth width parameter: 0.5 is a symmetric
    triangle, values toward 1 skew the rise/fall times (the ictal
    signature that produces runs of identical LBP sign bits).
    ``suppression`` attenuates the background under the envelope:
    organised rhythms replace the broadband background on recruited
    electrodes, without which no LBP code could dominate.

    ``apply`` re-derives the event's full phase and envelope (pure
    functions of the event length) and slices the overlap, so rendering
    is independent of how the recording is chunked.
    """

    start: int
    n: int
    fs: float
    freq_hz: float
    chirp_to_hz: float | None
    amplitude: float
    asymmetry: float
    ramp_samples: int
    suppression: float
    electrodes: np.ndarray
    per_electrode: np.ndarray
    phase_offsets: np.ndarray

    @property
    def end(self) -> int:
        return self.start + self.n

    def apply(self, chunk: np.ndarray, chunk_start: int) -> None:
        sl, rows = _overlap(self.start, self.end, chunk, chunk_start)
        phase = morphology.chirp_phase(
            self.n, self.fs, self.freq_hz, self.chirp_to_hz
        )
        envelope = morphology.rhythm_envelope(self.n, self.ramp_samples)
        attenuation = (
            1.0 - self.suppression * envelope[sl]
            if self.suppression > 0 else None
        )
        for k, electrode in enumerate(self.electrodes):
            wave = morphology.asymmetric_wave(
                phase[sl] + self.phase_offsets[k], self.asymmetry
            )
            if attenuation is not None:
                chunk[rows, electrode] *= attenuation
            chunk[rows, electrode] += (
                self.amplitude * self.per_electrode[k] * envelope[sl] * wave
            )


@dataclass(frozen=True)
class _SubtleEvent:
    """Background-amplitude band-passed noise event (marked, invisible).

    The event's noise comes from its *own* seeded generator, re-created
    on every ``apply`` — the event is bounded (seconds), so re-deriving
    its full waveform per overlapping chunk costs little and keeps the
    rendering chunk-invariant.
    """

    start: int
    n: int
    fs: float
    scale: float
    ramp: int
    electrodes: np.ndarray
    noise_seed: tuple[int, ...]

    @property
    def end(self) -> int:
        return self.start + self.n

    def apply(self, chunk: np.ndarray, chunk_start: int) -> None:
        sl, rows = _overlap(self.start, self.end, chunk, chunk_start)
        rng = np.random.default_rng(list(self.noise_seed))
        white = rng.standard_normal((self.n, self.electrodes.size))
        shaped = morphology.bandpassed_noise(white, self.fs) * self.scale
        envelope = morphology.taper_envelope(self.n, self.ramp)
        chunk[rows, self.electrodes] += (
            0.6 * shaped[sl] * envelope[sl, None]
        )


@dataclass(frozen=True)
class _StreamSeizureEvent:
    """A live-stream seizure: the ictal stream wave over the onset zone."""

    start: int
    n: int
    fs: float
    freq_hz: float
    amplitude: float
    electrodes: np.ndarray

    @property
    def end(self) -> int:
        return self.start + self.n

    def apply(self, chunk: np.ndarray, chunk_start: int) -> None:
        sl, rows = _overlap(self.start, self.end, chunk, chunk_start)
        t = np.arange(sl.start, sl.stop, dtype=np.float64)
        wave = morphology.ictal_stream_wave(
            t, self.n, self.fs, self.freq_hz, self.amplitude
        )
        chunk[rows, self.electrodes] += wave[:, None]


# ----------------------------------------------------------------------
# Event planning
# ----------------------------------------------------------------------


def _event_rng(seed: tuple[int, ...]) -> np.random.Generator:
    """The per-event parameter generator of a renderer seed tuple."""
    return np.random.default_rng([*seed, 0xE4E7])


def _block_subset(
    rng: np.random.Generator, n_electrodes: int, fraction: float
) -> np.ndarray:
    """A contiguous random block of electrodes (focal anatomy)."""
    count = max(1, min(n_electrodes, int(round(fraction * n_electrodes))))
    start = int(rng.integers(0, n_electrodes - count + 1))
    return np.arange(start, start + count)


def _event_times(
    rng: np.random.Generator,
    rate_per_hour: float,
    duration_s: float,
    keepout: list[tuple[float, float]],
) -> list[float]:
    """Poisson event times avoiding the seizure keep-out zones."""
    expected = rate_per_hour * duration_s / 3600.0
    count = int(rng.poisson(expected))
    times = []
    for _ in range(count):
        t = float(rng.uniform(0.0, duration_s))
        if any(lo <= t <= hi for lo, hi in keepout):
            continue
        times.append(t)
    return sorted(times)


def _rhythm(
    rng: np.random.Generator,
    fs: float,
    start: int,
    duration: int,
    n_samples: int,
    *,
    freq_hz: float,
    amplitude: float,
    electrodes: np.ndarray,
    asymmetry: float = 0.5,
    chirp_to_hz: float | None = None,
    ramp_s: float = 0.5,
    suppression: float = 0.0,
) -> _RhythmEvent | None:
    n = min(start + duration, n_samples) - start
    if n <= 1:
        return None
    return _RhythmEvent(
        start=start,
        n=n,
        fs=fs,
        freq_hz=freq_hz,
        chirp_to_hz=chirp_to_hz,
        amplitude=amplitude,
        asymmetry=asymmetry,
        ramp_samples=max(1, int(ramp_s * fs)),
        suppression=suppression,
        electrodes=electrodes,
        per_electrode=rng.uniform(0.8, 1.2, size=electrodes.size),
        phase_offsets=rng.uniform(0, 2 * np.pi, size=electrodes.size),
    )


def _plan_events(
    seed: tuple[int, ...],
    n_electrodes: int,
    duration_s: float,
    n_samples: int,
    seizures: Sequence[SeizurePlan],
    p: SynthesisParams,
) -> list:
    """Draw every event of a recording up front, in one fixed order."""
    rng = _event_rng(seed)
    events: list = []
    fs = p.fs
    # The seizure-onset zone is a fixed property of the patient's
    # epileptogenic anatomy: every clinical seizure recruits (nearly)
    # the same electrodes.  This stereotypy is what lets a model
    # trained on one or two seizures generalise to unseen ones.
    onset_zone = _block_subset(rng, n_electrodes, p.ictal_focal_fraction)
    margin = p.confounder_margin_s
    keepout = [
        (plan.onset_s - margin, plan.offset_s + margin) for plan in seizures
    ]

    # Biphasic epileptiform transients (~70 ms) on a small subset.
    kernel = morphology.spike_kernel(fs)
    for t in _event_times(rng, p.spike_rate_per_hour, duration_s, keepout):
        at = int(t * fs)
        if kernel is None or at + kernel.size >= n_samples:
            continue
        amplitude = p.background_std * rng.uniform(3.0, 6.0)
        events.append(_SpikeEvent(
            start=at,
            wave=amplitude * kernel,
            electrodes=_block_subset(rng, n_electrodes, 0.25),
        ))

    # 1-4 s alpha/spindle-like bursts on a small subset.
    for t in _event_times(rng, p.burst_rate_per_hour, duration_s, keepout):
        events.append(_rhythm(
            rng, fs, int(t * fs), int(rng.uniform(1.0, 4.0) * fs), n_samples,
            freq_hz=rng.uniform(8.0, 13.0),
            amplitude=p.background_std * rng.uniform(1.2, 2.2),
            electrodes=_block_subset(rng, n_electrodes, 0.25),
        ))

    # 10-40 s sustained slow-activity (sleep-like) drifts.
    for t in _event_times(rng, p.drift_rate_per_hour, duration_s, keepout):
        events.append(_rhythm(
            rng, fs, int(t * fs), int(rng.uniform(10.0, 40.0) * fs), n_samples,
            freq_hz=rng.uniform(1.5, 3.5),
            amplitude=p.background_std * p.drift_amplitude
            * rng.uniform(0.8, 1.2),
            electrodes=_block_subset(rng, n_electrodes, 0.6),
            asymmetry=0.7,
            ramp_s=2.0,
            suppression=p.drift_suppression,
        ))

    # 8-20 s periodic ictal-like discharges: the seizure's rhythm family
    # in its onset zone at a fraction of its amplitude and suppression —
    # the near-boundary pattern that tempts a detector into a false alarm.
    for t in _event_times(rng, p.pld_rate_per_hour, duration_s, keepout):
        take = max(1, int(0.6 * onset_zone.size))
        lo = int(rng.integers(0, onset_zone.size - take + 1))
        events.append(_rhythm(
            rng, fs, int(t * fs), int(rng.uniform(8.0, 20.0) * fs), n_samples,
            freq_hz=p.ictal_freq_hz * rng.uniform(0.5, 0.8),
            amplitude=p.background_std * p.ictal_amplitude * p.pld_intensity
            * rng.uniform(0.85, 1.15),
            electrodes=onset_zone[lo:lo + take],
            asymmetry=0.8,
            ramp_s=1.5,
            suppression=p.ictal_suppression * p.pld_intensity * 1.5,
        ))

    for idx, plan in enumerate(seizures):
        onset = int(plan.onset_s * fs)
        total = int(plan.duration_s * fs)
        if plan.subtle:
            end = min(onset + total, n_samples)
            if end - onset <= 10:
                continue
            events.append(_SubtleEvent(
                start=onset,
                n=end - onset,
                fs=fs,
                scale=p.background_std * p.subtle_amplitude,
                ramp=min((end - onset) // 4, int(2.0 * fs)),
                electrodes=_block_subset(rng, n_electrodes, 0.2),
                noise_seed=(*seed, 0x5B71E, idx),
            ))
            continue
        # The onset zone, minus occasionally one electrode at the margin
        # (seizure-to-seizure variability is small, not zero), recruited
        # progressively over the ramp time.
        electrodes = onset_zone
        if electrodes.size > 2 and rng.random() < 0.5:
            electrodes = electrodes[:-1]
        delays = np.sort(rng.uniform(0.0, p.ictal_ramp_s, size=electrodes.size))
        freq = p.ictal_freq_hz * rng.uniform(0.95, 1.05)
        for electrode, delay in zip(electrodes, delays):
            events.append(_rhythm(
                rng, fs, onset + int(delay * fs), total - int(delay * fs),
                n_samples,
                freq_hz=freq + 1.5,
                chirp_to_hz=max(1.0, freq - 1.5),
                amplitude=p.background_std * p.ictal_amplitude,
                electrodes=np.array([electrode]),
                asymmetry=0.85,
                ramp_s=min(p.ictal_ramp_s, plan.duration_s / 3),
                suppression=p.ictal_suppression,
            ))

    return [e for e in events if e is not None]


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


class _ChunkRenderer:
    """Sequential chunk renderer: pink background plus overlapping events.

    Args:
        n_electrodes: Channel count of every rendered chunk.
        params: Signal properties (fs, background amplitude, mixing).
        seed: Seed tuple — ``(cohort_seed, member_seed)`` for cohort
            members, ``(seed,)`` otherwise.  Noise and event parameters
            use split generators derived from it, so the per-sample and
            per-event draw sequences can never interleave.
        events: Planned events; ``events`` may be extended between
            chunks (the live stream adds seizures as they arrive).
    """

    def __init__(
        self,
        n_electrodes: int,
        params: SynthesisParams,
        seed: tuple[int, ...],
        events: Sequence = (),
    ) -> None:
        self.n_electrodes = n_electrodes
        self.params = params
        self.events = list(events)
        self._noise_rng = np.random.default_rng([*seed, 0x5EED])
        # One extra filtered column: the shared spatial-mixing source.
        self._zi = morphology.pink_filter_state(n_electrodes + 1)
        self._next = 0

    def render(self, start: int, n: int) -> np.ndarray:
        """Render float64 samples ``[start, start + n)`` (sequential)."""
        if start != self._next:
            raise ValueError(
                f"chunks must be rendered sequentially: expected sample "
                f"{self._next}, got {start}"
            )
        p = self.params
        white = self._noise_rng.standard_normal((n, self.n_electrodes + 1))
        pink, self._zi = morphology.pink_noise_stream(white, self._zi)
        del white
        pink /= morphology.PINK_STEADY_STD
        mix = p.spatial_mixing
        # Mixed in place: the electrode columns become the chunk.
        data = pink[:, :-1]
        data *= np.sqrt(1.0 - mix**2)
        data += mix * pink[:, -1:]
        data *= p.background_std
        hi = start + n
        for event in self.events:
            if event.start < hi and event.end > start:
                event.apply(data, start)
        self._next = hi
        return data


def _default_chunk(n_electrodes: int) -> int:
    return max(1024, min(65536, _CHUNK_FLOAT_BUDGET // (n_electrodes + 1)))


def render_recording(
    out: np.ndarray,
    params: SynthesisParams,
    seed: tuple[int, ...],
    duration_s: float,
    seizures: Sequence[SeizurePlan] = (),
    chunk_samples: int | None = None,
) -> None:
    """Fill ``out`` with one planned recording, chunk by chunk.

    Args:
        out: ``(n_samples, n_electrodes)`` buffer — an in-RAM array or a
            writable memmap; each chunk is cast to its dtype on store.
        params: Signal properties.
        seed: Renderer seed tuple (see :class:`_ChunkRenderer`).
        duration_s: Recording length the events are planned over.
        seizures: Seizure plans inside the recording.
        chunk_samples: Render chunk size; purely a memory/speed knob —
            the output is bit-identical for every value.  Defaults to a
            channel-scaled size keeping peak memory flat.
    """
    n_samples, n_electrodes = out.shape
    step = chunk_samples or _default_chunk(n_electrodes)
    if step < 1:
        raise ValueError(f"chunk_samples must be >= 1, got {step}")
    events = _plan_events(
        seed, n_electrodes, duration_s, n_samples, seizures, params
    )
    renderer = _ChunkRenderer(n_electrodes, params, seed, events)
    for start in range(0, n_samples, step):
        stop = min(start + step, n_samples)
        out[start:stop] = renderer.render(start, stop - start)


class SyntheticIEEGGenerator:
    """Deterministic multichannel iEEG synthesiser.

    Args:
        n_electrodes: Number of channels to generate.
        params: Signal properties; defaults follow the module docstring.
        seed: Seed of the recording — a given ``(n_electrodes, params,
            seed)`` triple always produces the same recording for the
            same duration and seizure plans.
    """

    def __init__(
        self,
        n_electrodes: int,
        params: SynthesisParams | None = None,
        seed: int = 0,
    ) -> None:
        if n_electrodes < 1:
            raise ValueError(f"n_electrodes must be >= 1, got {n_electrodes}")
        self.n_electrodes = n_electrodes
        self.params = params or SynthesisParams()
        self.seed = seed

    def generate(
        self, duration_s: float, seizures: list[SeizurePlan] | None = None
    ) -> Recording:
        """Synthesise a recording.

        Args:
            duration_s: Recording length in seconds.
            seizures: Seizure plans; must fit inside the recording.

        Returns:
            A :class:`repro.data.model.Recording` (float32 data) whose
            annotations mirror the plans.
        """
        p = self.params
        plans = list(seizures or [])
        for plan in plans:
            if plan.offset_s > duration_s:
                raise ValueError(
                    f"seizure at {plan.onset_s} s (duration "
                    f"{plan.duration_s} s) exceeds the recording "
                    f"({duration_s} s)"
                )
        n_samples = int(round(duration_s * p.fs))
        data = np.empty((n_samples, self.n_electrodes), dtype=np.float32)
        render_recording(data, p, (self.seed,), duration_s, plans)
        events = [
            SeizureEvent(
                onset_s=plan.onset_s,
                offset_s=plan.offset_s,
                seizure_type=SUBTLE if plan.subtle else CLINICAL,
            )
            for plan in plans
        ]
        return Recording(
            data=data,
            fs=p.fs,
            seizures=tuple(sorted(events, key=lambda e: e.onset_s)),
        )


class ClockedEEGSource:
    """Sample-rate-driven live iEEG source with stochastic seizures.

    The serving-side front end of the shared renderer: instead of
    planning a whole recording up front it renders the stream chunk by
    chunk, so a load generator can drive thousands of concurrent
    sessions without ever allocating a full recording.  Seizure onsets
    arrive as a Poisson process (exponential inter-arrival times, one
    refractory seizure at a time); each onset adds one event to the
    renderer — a focal asymmetric sawtooth rhythm in the source's fixed
    onset zone — and events that have ended are dropped, so a
    long-running source holds O(1) events.

    Determinism is total *and* chunking-invariant: a given
    ``(n_electrodes, fs, seed, seizure_rate_per_min)`` source emits the
    same sample stream whatever chunk sizes it is asked for (see the
    module docstring).

    Args:
        n_electrodes: Channel count of every emitted chunk.
        fs: Sampling rate in Hz; ``next_chunk(n)`` advances the source
            clock by ``n / fs`` seconds.
        seed: Determines the whole stream.
        seizure_rate_per_min: Mean injected-seizure rate.  0 disables
            injection (stationary background load).
    """

    def __init__(
        self,
        n_electrodes: int,
        fs: float = 256.0,
        *,
        seed: int = 0,
        seizure_rate_per_min: float = 1.0,
    ) -> None:
        if n_electrodes < 1:
            raise ValueError(f"n_electrodes must be >= 1, got {n_electrodes}")
        if seizure_rate_per_min < 0:
            raise ValueError("seizure_rate_per_min must be >= 0")
        params = SynthesisParams(fs=fs)
        self.n_electrodes = n_electrodes
        self.fs = fs
        self.seed = seed
        self.seizure_rate_per_min = seizure_rate_per_min
        self._renderer = _ChunkRenderer(n_electrodes, params, (seed,))
        self._event_rng = _event_rng((seed,))
        self._onset_zone = _block_subset(
            self._event_rng, n_electrodes, params.ictal_focal_fraction
        )
        self._sample = 0
        self._next_onset = self._draw_next_onset(0)
        self._onsets: list[float] = []

    @property
    def t_s(self) -> float:
        """Stream time generated so far, in seconds."""
        return self._sample / self.fs

    @property
    def injected_onsets_s(self) -> tuple[float, ...]:
        """Onset times (s) of the seizures emitted so far."""
        return tuple(self._onsets)

    def _draw_next_onset(self, after_sample: int) -> int | None:
        if self.seizure_rate_per_min <= 0:
            return None
        gap_s = float(
            self._event_rng.exponential(60.0 / self.seizure_rate_per_min)
        )
        return after_sample + max(1, int(round(gap_s * self.fs)))

    def _add_seizure(self, onset: int) -> None:
        p = self._renderer.params
        duration_s = _STREAM_SEIZURE_S * float(
            self._event_rng.uniform(0.7, 1.3)
        )
        freq = _STREAM_SEIZURE_HZ * float(self._event_rng.uniform(0.9, 1.1))
        amp = (p.background_std * p.ictal_amplitude
               * float(self._event_rng.uniform(0.85, 1.15)))
        n = max(2, int(round(duration_s * self.fs)))
        self._renderer.events.append(_StreamSeizureEvent(
            start=onset, n=n, fs=self.fs, freq_hz=freq, amplitude=amp,
            electrodes=self._onset_zone,
        ))
        self._onsets.append(onset / self.fs)
        # Refractory scheduling: the next onset can only follow this
        # seizure's end, so at most one seizure is active at a time.
        self._next_onset = self._draw_next_onset(onset + n)

    def next_chunk(self, n_samples: int) -> np.ndarray:
        """Emit the next ``n_samples`` of the live stream.

        Returns:
            float32 array ``(n_samples, n_electrodes)``.
        """
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        start = self._sample
        end = start + n_samples
        # Add every seizure whose onset this chunk reaches, so
        # arbitrarily long chunks may cover several back to back.
        while self._next_onset is not None and self._next_onset < end:
            self._add_seizure(self._next_onset)
        data = self._renderer.render(start, n_samples)
        self._renderer.events = [
            e for e in self._renderer.events if e.end > end
        ]
        self._sample = end
        return data.astype(np.float32)

    def tick(self, tick_s: float) -> np.ndarray:
        """One tick's worth of samples (``round(tick_s * fs)`` of them)."""
        return self.next_chunk(max(1, int(round(tick_s * self.fs))))
