"""Tests for repro.core.config."""

import pytest

from repro.core.config import GOLDEN_DIM, ICTAL, INTERICTAL, LaelapsConfig


class TestDefaults:
    def test_paper_defaults(self):
        cfg = LaelapsConfig()
        assert cfg.dim == GOLDEN_DIM == 10_000
        assert cfg.lbp_length == 6
        assert cfg.fs == 512.0
        assert cfg.window_s == 1.0
        assert cfg.step_s == 0.5
        assert cfg.tc == 10
        assert cfg.postprocess_len == 10
        assert cfg.tr == 0.0

    def test_labels_distinct(self):
        assert INTERICTAL != ICTAL

    def test_window_spec_samples(self):
        spec = LaelapsConfig().window_spec
        assert spec.window_samples == 512
        assert spec.step_samples == 256

    def test_alphabet_size(self):
        assert LaelapsConfig().alphabet_size == 64


class TestValidation:
    def test_rejects_tiny_dim(self):
        with pytest.raises(ValueError):
            LaelapsConfig(dim=1)

    def test_rejects_bad_lbp_length(self):
        with pytest.raises(ValueError):
            LaelapsConfig(lbp_length=0)

    def test_rejects_tc_above_postprocess_len(self):
        with pytest.raises(ValueError):
            LaelapsConfig(tc=11, postprocess_len=10)

    def test_rejects_negative_tr(self):
        with pytest.raises(ValueError):
            LaelapsConfig(tr=-1.0)

    def test_rejects_window_smaller_than_alphabet(self):
        # Sec. III-A: the window must be able to contain every symbol.
        with pytest.raises(ValueError):
            LaelapsConfig(fs=32.0, window_s=1.0, lbp_length=6)

    def test_rejects_nonpositive_fs(self):
        with pytest.raises(ValueError):
            LaelapsConfig(fs=0.0)


class TestDerivedSeedsAndCopies:
    def test_memory_seeds_differ(self):
        cfg = LaelapsConfig(seed=99)
        assert cfg.code_memory_seed != cfg.electrode_memory_seed

    def test_with_dim(self):
        cfg = LaelapsConfig().with_dim(2_000)
        assert cfg.dim == 2_000
        assert cfg.lbp_length == 6

    def test_with_tr(self):
        cfg = LaelapsConfig().with_tr(55.0)
        assert cfg.tr == 55.0

    def test_with_backend(self):
        cfg = LaelapsConfig().with_backend("packed")
        assert cfg.backend == "packed"
        assert cfg.dim == LaelapsConfig().dim

    def test_default_backend_auto(self):
        assert LaelapsConfig().backend == "auto"

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            LaelapsConfig(backend="simd")

    def test_frozen(self):
        with pytest.raises(Exception):
            LaelapsConfig().dim = 5  # type: ignore[misc]
