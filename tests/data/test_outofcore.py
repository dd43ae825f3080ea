"""Disk-backed cohort tests: manifest hygiene, determinism, invariance."""

import hashlib
import json

import numpy as np
import pytest

from repro.data.model import CLINICAL, SUBTLE, Recording
from repro.data.outofcore import (
    MANIFEST_NAME,
    CohortSpec,
    DiskCohort,
    MemberSpec,
    default_member_plans,
    generate_cohort,
    load_cohort,
    open_member,
)
from repro.data.synthetic import (
    SeizurePlan,
    SynthesisParams,
    _ChunkRenderer,
    _plan_events,
    _SubtleEvent,
)

_PARAMS = SynthesisParams(fs=128.0)


def _spec(**overrides):
    defaults = dict(
        name="unit",
        members=(
            MemberSpec("m0", 6, 240.0, default_member_plans(240.0, 2),
                       seed=1),
            MemberSpec("m1", 3, 180.0,
                       (SeizurePlan(60.0, 15.0),
                        SeizurePlan(120.0, 15.0, subtle=True)),
                       seed=2),
        ),
        params=_PARAMS,
        seed=7,
    )
    defaults.update(overrides)
    return CohortSpec(**defaults)


class TestSpecs:
    def test_member_spec_validation(self):
        with pytest.raises(ValueError, match="member_id"):
            MemberSpec("", 4, 60.0)
        with pytest.raises(ValueError, match="n_electrodes"):
            MemberSpec("m", 0, 60.0)
        with pytest.raises(ValueError, match="chronological"):
            MemberSpec("m", 4, 300.0,
                       (SeizurePlan(100.0, 10.0), SeizurePlan(50.0, 10.0)))
        with pytest.raises(ValueError, match="exceeds"):
            MemberSpec("m", 4, 60.0, (SeizurePlan(55.0, 10.0),))

    def test_cohort_spec_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            CohortSpec("c", ())
        member = MemberSpec("m", 4, 60.0)
        with pytest.raises(ValueError, match="duplicate"):
            CohortSpec("c", (member, member))

    def test_default_member_plans(self):
        plans = default_member_plans(1800.0, 3)
        assert [p.onset_s for p in plans] == [450.0, 900.0, 1350.0]
        assert all(not p.subtle for p in plans)
        with pytest.raises(ValueError, match="too short"):
            default_member_plans(60.0, 4)
        with pytest.raises(ValueError, match="n_seizures"):
            default_member_plans(600.0, 0)


class TestGeneration:
    def test_chunk_size_is_not_semantic(self, tmp_path):
        """Bit-identical files for ragged, odd and monolithic chunkings."""
        digests = []
        for i, chunk in enumerate((997, 1024, None, 10**9)):
            root = tmp_path / f"c{i}"
            generate_cohort(_spec(), root, chunk_samples=chunk)
            digests.append(tuple(
                (root / f"{m}.f32").read_bytes() for m in ("m0", "m1")
            ))
        assert all(d == digests[0] for d in digests[1:])

    def test_deterministic_under_seed(self, tmp_path):
        generate_cohort(_spec(), tmp_path / "a", chunk_samples=512)
        generate_cohort(_spec(), tmp_path / "b", chunk_samples=2048)
        a = (tmp_path / "a" / "m0.f32").read_bytes()
        b = (tmp_path / "b" / "m0.f32").read_bytes()
        assert a == b
        generate_cohort(_spec(seed=8), tmp_path / "c", chunk_samples=512)
        assert (tmp_path / "c" / "m0.f32").read_bytes() != a

    def test_member_bytes_are_pinned(self, tmp_path):
        """The stored bytes of a member never drift silently.

        The member carries clinical seizures and every confounder family
        (spikes, bursts, drifts, PLDs) but no subtle seizure.  The digest
        was captured before the chunk renderer moved into
        :mod:`repro.data.synthetic`; a change here changes every cohort
        already on disk.
        """
        member = MemberSpec(
            "pin", 4, 240.0,
            (SeizurePlan(80.0, 20.0), SeizurePlan(170.0, 20.0)), seed=6,
        )
        spec = CohortSpec("pin", (member,), params=_PARAMS, seed=5)
        generate_cohort(spec, tmp_path)
        digest = hashlib.sha256((tmp_path / "pin.f32").read_bytes())
        assert digest.hexdigest() == (
            "4e2101385d9eaa1e6dc9e81d91af93eeb7f880cbce722d82e240b83121dd5759"
        )

    def test_seizures_are_visible_in_the_signal(self, tmp_path):
        cohort = generate_cohort(_spec(), tmp_path, chunk_samples=4096)
        rec = cohort.member("m0").open()
        fs = int(_PARAMS.fs)
        onset = int(rec.seizures[0].onset_s) * fs
        ictal = np.abs(rec.data[onset + 2 * fs:onset + 10 * fs]).mean()
        background = np.abs(rec.data[:30 * fs]).mean()
        assert ictal > 1.3 * background


class TestLoading:
    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cohort")
        generate_cohort(_spec(), root)
        return root

    def test_round_trip(self, root):
        cohort = load_cohort(root)
        assert isinstance(cohort, DiskCohort)
        assert cohort.name == "unit" and cohort.fs == 128.0
        assert cohort.seed == 7 and len(cohort) == 2
        m0 = cohort.member("m0")
        assert m0.n_electrodes == 6
        assert m0.duration_s == 240.0
        assert [s.seizure_type for s in m0.seizures] == [CLINICAL, CLINICAL]
        m1 = cohort.member("m1")
        assert [s.seizure_type for s in m1.seizures] == [CLINICAL, SUBTLE]
        assert m1.seizures[0].offset_s == 75.0
        with pytest.raises(KeyError, match="m9"):
            cohort.member("m9")

    def test_open_is_a_memmap_view(self, root):
        rec = open_member(root, "m0")
        assert isinstance(rec, Recording)
        assert isinstance(rec.data, np.memmap)
        assert rec.data.dtype == np.float32
        # slice_time must stay lazy: a view into the same mapped buffer.
        sub = rec.slice_time(10.0, 20.0)
        assert sub.data.base is not None
        assert np.shares_memory(sub.data, rec.data)
        assert sub.n_samples == int(10.0 * rec.fs)

    def test_patient_wrapper(self, root):
        patient = load_cohort(root).member("m0").patient()
        assert patient.n_test_seizures == 1
        assert isinstance(patient.recording.data, np.memmap)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValueError, match="no cohort manifest"):
            load_cohort(tmp_path)

    def test_schema_version_gate(self, root, tmp_path):
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["schema_version"] = 999
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="schema v999"):
            load_cohort(bad)

    def test_missing_key_rejected(self, root, tmp_path):
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        del manifest["members"][0]["n_samples"]
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="n_samples"):
            load_cohort(bad)

    def test_size_mismatch_rejected(self, root, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / MANIFEST_NAME).write_text((root / MANIFEST_NAME).read_text())
        for member in ("m0", "m1"):
            data = (root / f"{member}.f32").read_bytes()
            (bad / f"{member}.f32").write_bytes(data[:-4])
        with pytest.raises(ValueError, match="bytes"):
            load_cohort(bad)

    def test_missing_data_file_rejected(self, root, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / MANIFEST_NAME).write_text((root / MANIFEST_NAME).read_text())
        with pytest.raises(ValueError, match="missing"):
            load_cohort(bad)


class TestSequentialContract:
    def test_out_of_order_render_rejected(self):
        synth = _ChunkRenderer(2, _PARAMS, (0, 0))
        synth.render(0, 100)
        with pytest.raises(ValueError, match="sequentially"):
            synth.render(50, 100)


class TestSubtleSeizureNoise:
    def test_cohort_seed_reaches_the_subtle_noise(self):
        """Cohorts differing only in seed draw different subtle noise."""
        plans = (SeizurePlan(20.0, 10.0, subtle=True),)
        n_samples = int(60.0 * _PARAMS.fs)
        waves = []
        for cohort_seed in (0, 1):
            events = _plan_events(
                (cohort_seed, 3), 5, 60.0, n_samples, plans, _PARAMS
            )
            (event,) = [e for e in events if isinstance(e, _SubtleEvent)]
            chunk = np.zeros((event.n, 5))
            event.apply(chunk, event.start)
            waves.append(chunk[:, event.electrodes])
        assert waves[0].shape == waves[1].shape
        assert np.abs(waves[0]).max() > 0
        assert not np.array_equal(waves[0], waves[1])
