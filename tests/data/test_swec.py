"""Tests for the SWEC-ETHZ dataset loader (against synthetic .mat files)."""

import numpy as np
import pytest
from scipy import io as sio

from repro.data.swec import (
    SWEC_FS,
    load_info,
    load_long_term_hours,
    load_short_term,
)


@pytest.fixture()
def short_term_file(tmp_path, rng):
    # 3 min at a reduced rate keeps the file small; channels x samples
    # orientation, as MATLAB exports often are.
    fs = 128.0
    data = rng.standard_normal((8, int(180 * fs))).astype(np.float64)
    path = tmp_path / "ID01_Sz2.mat"
    sio.savemat(path, {"EEG": data})
    return path, fs, data


class TestShortTerm:
    def test_loads_and_orients(self, short_term_file):
        path, fs, data = short_term_file
        rec = load_short_term(path, fs=fs)
        assert rec.data.shape == (data.shape[1], 8)
        np.testing.assert_allclose(rec.data[:, 0], data[0], rtol=1e-6)

    def test_middle_minute_annotation(self, short_term_file):
        path, fs, _ = short_term_file
        rec = load_short_term(path, fs=fs)
        assert len(rec.seizures) == 1
        assert rec.seizures[0].onset_s == 60.0
        assert rec.seizures[0].offset_s == 120.0

    def test_patient_id_from_filename(self, short_term_file):
        path, fs, _ = short_term_file
        assert load_short_term(path, fs=fs).patient_id == "ID01"

    def test_fallback_key(self, tmp_path, rng):
        data = rng.standard_normal((int(180 * 64), 4))
        path = tmp_path / "odd.mat"
        sio.savemat(path, {"signal_matrix": data})
        rec = load_short_term(path, fs=64.0)
        assert rec.data.shape == data.shape

    def test_ambiguous_file_raises(self, tmp_path, rng):
        path = tmp_path / "two.mat"
        sio.savemat(path, {
            "a": rng.standard_normal((10, 4)),
            "b": rng.standard_normal((10, 4)),
        })
        with pytest.raises(ValueError):
            load_short_term(path, fs=64.0)


@pytest.fixture()
def long_term_files(tmp_path, rng):
    fs = 64.0
    hours = []
    for k in range(3):
        data = rng.standard_normal((int(120 * fs), 6))  # "hours" of 2 min
        path = tmp_path / f"ID02_{k + 1}h.mat"
        sio.savemat(path, {"EEG": data})
        hours.append(path)
    info = tmp_path / "ID02_info.mat"
    sio.savemat(info, {
        "fs": np.array([[fs]]),
        "seizure_begin": np.array([[100.0], [250.0]]),
        "seizure_end": np.array([[130.0], [280.0]]),
    })
    return hours, info, fs


class TestLongTerm:
    def test_info_parsing(self, long_term_files):
        _, info, fs = long_term_files
        parsed_fs, seizures = load_info(info)
        assert parsed_fs == fs
        assert seizures == [(100.0, 130.0), (250.0, 280.0)]

    def test_concatenation(self, long_term_files):
        hours, info, fs = long_term_files
        rec = load_long_term_hours(hours, info)
        assert rec.data.shape == (3 * int(120 * fs), 6)
        assert rec.patient_id == "ID02"
        assert len(rec.seizures) == 2

    def test_subset_of_hours_drops_late_seizures(self, long_term_files):
        hours, info, _ = long_term_files
        rec = load_long_term_hours(hours[:2], info)
        # Second seizure at 250-280 s still fits in 240 s? No: dropped
        # if onset >= duration; 250 > 240 -> only the first remains.
        assert len(rec.seizures) == 1
        assert rec.seizures[0].onset_s == 100.0

    def test_mismatched_channels_raise(self, long_term_files, tmp_path, rng):
        hours, info, fs = long_term_files
        bad = tmp_path / "ID02_9h.mat"
        sio.savemat(bad, {"EEG": rng.standard_normal((int(120 * fs), 5))})
        with pytest.raises(ValueError):
            load_long_term_hours([hours[0], bad], info)

    def test_missing_info_variables_raise(self, tmp_path):
        info = tmp_path / "broken_info.mat"
        sio.savemat(info, {"fs": np.array([[64.0]])})
        with pytest.raises(ValueError):
            load_info(info)

    def test_empty_hour_list_raises(self, long_term_files):
        _, info, _ = long_term_files
        with pytest.raises(ValueError):
            load_long_term_hours([], info)

    def test_loaded_recording_feeds_detector(self, long_term_files):
        # The loader's output must plug into the pipeline unmodified.
        from repro.core.config import LaelapsConfig
        from repro.core.detector import LaelapsDetector
        from repro.hdc.backend import packed_words

        hours, info, fs = long_term_files
        rec = load_long_term_hours(hours, info)
        # The 64 Hz test rate needs a shorter code so the 1 s window
        # still exceeds the alphabet (Sec. III-A constraint).
        det = LaelapsDetector(
            rec.n_electrodes,
            LaelapsConfig(dim=1_000, fs=fs, lbp_length=5, seed=1),
        )
        h = det.encode(rec.data[: int(10 * fs)])
        assert h.shape[1] == packed_words(1_000)
