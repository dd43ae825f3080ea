"""Configuration of the Laelaps detector."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.hdc.engine import (
    AUTO_ENGINE,
    backend_choices,
    resolve_engine_name,
)
from repro.lbp.codes import LBPConfig
from repro.signal.windows import WindowSpec

#: Class label of the between-seizure brain state.
INTERICTAL = 0
#: Class label of the seizure brain state.
ICTAL = 1

#: Paper ceiling for the hypervector dimension (the "golden model").
GOLDEN_DIM = 10_000
#: Paper floor for the hypervector dimension.
MIN_DIM = 1_000

#: Valid ``backend`` values at import time: the engines registered in
#: :mod:`repro.hdc.engine` plus the ``auto`` selector.  Validation
#: follows the *live* registry (an engine registered later is accepted
#: even though this snapshot omits it); ``repro backends`` or
#: :func:`repro.hdc.engine.backend_choices` always reflect the current
#: set.  All engines are bit-exact against each other and hand up the
#: same packed H vectors; they differ only in their kernels and speed.
BACKENDS = backend_choices()


@dataclass(frozen=True)
class LaelapsConfig:
    """All knobs of the Laelaps pipeline with the paper's defaults.

    Attributes:
        dim: Hypervector dimension d in bits.  The paper builds a golden
            model at 10 kbit and shrinks per patient down to 1 kbit
            (mean 4.3 kbit) without performance loss.
        lbp_length: LBP code length l; the paper fixes 6 (codes 4..8
            perform similarly, larger codes increase the minimum window).
        fs: Sampling rate of the preprocessed signal in Hz.
        window_s: Analysis-window length in seconds (1 s).
        step_s: Window hop in seconds (0.5 s) — also the label period.
        postprocess_len: Number of most recent labels the postprocessor
            votes over (10).
        tc: Minimum count of ictal labels inside the postprocessing window
            to flag an alarm (10, i.e. all of them).
        tr: Confidence threshold on the mean delta score of the ictal
            labels; 0 disables it.  Tuned per patient by
            :func:`repro.core.postprocess.tune_tr`.
        seed: Master seed; item-memory seeds are derived from it, so a
            config fully determines the model.
        backend: Name of the compute engine running the pipeline — any
            name registered in :mod:`repro.hdc.engine` (the
            integer-counter reference ``unpacked``, the bit-sliced
            ``packed``, the numba-backed ``packed-native``), the retired
            alias ``packed-fused`` of ``packed``, or ``auto`` (the
            default) to pick the fastest at detector construction.
            Every engine produces bit-identical labels and confidence
            scores; see :data:`BACKENDS` and the ``repro backends``
            command.
    """

    dim: int = GOLDEN_DIM
    lbp_length: int = 6
    fs: float = 512.0
    window_s: float = 1.0
    step_s: float = 0.5
    postprocess_len: int = 10
    tc: int = 10
    tr: float = 0.0
    seed: int = 0x1AE1A95
    backend: str = AUTO_ENGINE

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        resolve_engine_name(self.backend)  # validate against the registry
        LBPConfig(length=self.lbp_length)  # validate
        if self.fs <= 0:
            raise ValueError(f"fs must be positive, got {self.fs}")
        if self.window_s <= 0 or self.step_s <= 0:
            raise ValueError("window_s and step_s must be positive")
        if self.tc < 1 or self.postprocess_len < 1:
            raise ValueError("tc and postprocess_len must be >= 1")
        if self.tc > self.postprocess_len:
            raise ValueError(
                f"tc={self.tc} cannot exceed postprocess_len="
                f"{self.postprocess_len}"
            )
        if self.tr < 0:
            raise ValueError(f"tr must be >= 0, got {self.tr}")
        window = self.window_spec.window_samples
        if window <= (1 << self.lbp_length):
            raise ValueError(
                "analysis window must contain more samples than the LBP "
                f"alphabet size: {window} <= {1 << self.lbp_length} "
                "(Sec. III-A requires every symbol to be able to occur)"
            )

    @property
    def window_spec(self) -> WindowSpec:
        """Window geometry in samples at :attr:`fs`."""
        return WindowSpec.from_seconds(self.window_s, self.step_s, self.fs)

    @property
    def alphabet_size(self) -> int:
        """Number of LBP symbols, ``2 ** lbp_length``."""
        return 1 << self.lbp_length

    @property
    def code_memory_seed(self) -> int:
        """Seed of IM1 (LBP-code vectors)."""
        return self.seed * 2 + 1

    @property
    def electrode_memory_seed(self) -> int:
        """Seed of IM2 (electrode-name vectors)."""
        return self.seed * 2 + 2

    def with_dim(self, dim: int) -> "LaelapsConfig":
        """Copy of this config at another hypervector dimension."""
        return replace(self, dim=dim)

    def with_tr(self, tr: float) -> "LaelapsConfig":
        """Copy of this config with another confidence threshold."""
        return replace(self, tr=tr)

    def with_backend(self, backend: str) -> "LaelapsConfig":
        """Copy of this config on another inference backend."""
        return replace(self, backend=backend)
