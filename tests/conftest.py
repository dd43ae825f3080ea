"""Shared fixtures for the test suite.

Fixtures use reduced dimensions/durations so the whole suite runs in
minutes on one CPU while still exercising every code path: a synthetic
mini-patient with two seizures, a trained small-d Laelaps detector, and
the shared synthesis parameters.
"""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest

from repro.core.config import LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.core.training import TrainingSegments
from repro.data.model import Recording
from repro.data.synthetic import (
    SeizurePlan,
    SynthesisParams,
    SyntheticIEEGGenerator,
)
from repro.hdc.engine import build_engine, engine_names
from repro.hdc.item_memory import ItemMemory
from repro.hdc.native import NATIVE_PURE_PYTHON_ENV
from repro.signal.windows import WindowSpec

#: Shared reduced sampling rate: halves compute, keeps every pipeline
#: invariant (the 1 s window still holds 4x the 64-code LBP alphabet).
TEST_FS = 256.0


@pytest.fixture(scope="session")
def synthesis_params() -> SynthesisParams:
    """Default synthesis parameters at the test sampling rate."""
    return SynthesisParams(fs=TEST_FS)


@pytest.fixture(scope="session")
def mini_recording(synthesis_params: SynthesisParams) -> Recording:
    """300 s, 16-electrode recording with one train + one test seizure."""
    generator = SyntheticIEEGGenerator(16, synthesis_params, seed=42)
    return generator.generate(
        300.0, [SeizurePlan(100.0, 25.0), SeizurePlan(220.0, 25.0)]
    )


@pytest.fixture(scope="session")
def mini_segments() -> TrainingSegments:
    """Training segments matching ``mini_recording``'s first seizure."""
    return TrainingSegments(
        ictal=((100.0, 125.0),), interictal=(40.0, 70.0)
    )


@pytest.fixture(scope="session")
def small_config() -> LaelapsConfig:
    """Laelaps config with a reduced dimension for fast tests, on the
    integer-counter reference engine the parity suites compare against."""
    return LaelapsConfig(dim=1_000, fs=TEST_FS, seed=7, backend="unpacked")


@pytest.fixture(scope="session")
def fitted_detector(
    mini_recording: Recording,
    mini_segments: TrainingSegments,
    small_config: LaelapsConfig,
) -> LaelapsDetector:
    """A Laelaps detector trained on the mini recording."""
    detector = LaelapsDetector(mini_recording.n_electrodes, small_config)
    detector.fit(mini_recording.data, mini_segments)
    return detector


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(1234)


def every_engine(dim: int) -> list:
    """One instance of every registered engine at dimension ``dim``.

    ``packed-native`` runs on its pure-Python kernel twins where numba
    is absent (the environment is only read at construction).
    """
    memories = ItemMemory(2, dim, seed=1), ItemMemory(1, dim, seed=2)
    with mock.patch.dict(os.environ, {NATIVE_PURE_PYTHON_ENV: "1"}):
        return [build_engine(name, *memories, WindowSpec(2, 1))
                for name in engine_names()]
