"""Out-of-core synthetic cohorts: disk-backed generation, memmap access.

At modern BCI channel counts (256-2048 electrodes) a 30-minute
recording no longer fits a sane RAM budget.  This module renders
cohort members through the shared chunk renderer of
:mod:`repro.data.synthetic` (:func:`~repro.data.synthetic.render_recording`)
straight into ``np.memmap`` files, with a sidecar JSON manifest, so a
1024-channel member opens in O(1) memory and streams through the
evaluation harness block by block
(:func:`repro.evaluation.runner.predict_windows_streamed`).

Two properties are load-bearing and property-tested:

* **Determinism** — a :class:`CohortSpec` names its realisation
  completely; regenerating with the same spec reproduces the files
  byte for byte.  Each member renders with the seed tuple
  ``(cohort seed, member seed)``.
* **Chunk invariance** — the generation chunk size is a *performance*
  knob, not a semantic one: any chunking produces bit-identical files
  (the renderer's contract, see :mod:`repro.data.synthetic`).

A seizure on disk is therefore the same signal as a seizure from
``SyntheticIEEGGenerator.generate()`` with the same seed tuple.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.data.model import (
    CLINICAL,
    SUBTLE,
    Patient,
    Recording,
    SeizureEvent,
)
from repro.data.synthetic import SeizurePlan, SynthesisParams, render_recording

#: Version gate of the on-disk manifest format.  Bump whenever the key
#: set below changes (enforced by lint rule RPR008).
_MANIFEST_VERSION = 1

#: Sidecar file naming the cohort's every byte.
MANIFEST_NAME = "manifest.json"

#: Raw sample files are little-endian float32, C-order (time, channel).
_MEMBER_DTYPE = np.dtype("<f4")


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MemberSpec:
    """One cohort member: a single recording to synthesise.

    Attributes:
        member_id: Unique name; also the stem of the data file.
        n_electrodes: Channel count.
        duration_s: Recording length in seconds.
        seizures: Seizure plans, chronological and non-overlapping.
        seed: Member-level seed, combined with the cohort seed.
    """

    member_id: str
    n_electrodes: int
    duration_s: float
    seizures: tuple[SeizurePlan, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.member_id or "/" in self.member_id:
            raise ValueError(f"invalid member_id {self.member_id!r}")
        if self.n_electrodes < 1:
            raise ValueError(
                f"n_electrodes must be >= 1, got {self.n_electrodes}"
            )
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        onsets = [plan.onset_s for plan in self.seizures]
        if onsets != sorted(onsets):
            raise ValueError("seizure plans must be chronological")
        for plan in self.seizures:
            if plan.offset_s > self.duration_s:
                raise ValueError(
                    f"seizure at {plan.onset_s} s exceeds the "
                    f"{self.duration_s} s recording"
                )


@dataclass(frozen=True)
class CohortSpec:
    """A complete, regenerable description of a disk-backed cohort.

    Attributes:
        name: Cohort name, recorded in the manifest.
        members: Member recordings to synthesise.
        params: Signal properties (fs, confounder rates, morphology
            amplitudes) shared by every member.
        seed: Cohort-level seed; combined with each member's seed, so
            two cohorts with different seeds are independent
            realisations of the same members.
    """

    name: str
    members: tuple[MemberSpec, ...]
    params: SynthesisParams = field(default_factory=SynthesisParams)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a cohort needs at least one member")
        ids = [m.member_id for m in self.members]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate member ids in {ids}")

    @property
    def fs(self) -> float:
        """Sampling rate in Hz (shared by every member)."""
        return self.params.fs


def default_member_plans(
    duration_s: float, n_seizures: int, seizure_s: float = 20.0
) -> tuple[SeizurePlan, ...]:
    """Evenly-spaced clinical seizure plans for a generated member.

    Onsets sit at ``duration * i / (n + 1)`` so the chronological split
    always finds room for the interictal training segment before the
    first onset and at least one test seizure after the training span.
    """
    if n_seizures < 1:
        raise ValueError(f"n_seizures must be >= 1, got {n_seizures}")
    onsets = [duration_s * (i + 1) / (n_seizures + 1)
              for i in range(n_seizures)]
    if onsets[0] < 45.0:
        raise ValueError(
            f"{duration_s} s is too short for {n_seizures} seizures: the "
            f"first onset ({onsets[0]:.0f} s) leaves no room for the "
            "interictal training segment"
        )
    if onsets[-1] + seizure_s > duration_s:
        raise ValueError("seizures do not fit the recording")
    return tuple(SeizurePlan(onset, seizure_s) for onset in onsets)


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------


def generate_cohort(
    spec: CohortSpec,
    root: str | Path,
    chunk_samples: int | None = None,
) -> "DiskCohort":
    """Synthesise every member of ``spec`` to disk under ``root``.

    Args:
        spec: The cohort to realise.
        root: Target directory (created if missing).  One ``.f32``
            memmap file per member plus :data:`MANIFEST_NAME`.
        chunk_samples: Generation chunk size; purely a memory/speed
            knob — the files are bit-identical for every value.
            Defaults to a channel-scaled size keeping peak generation
            memory flat.

    Returns:
        The :class:`DiskCohort` loaded back through
        :func:`load_cohort`, so every generated file has already passed
        manifest validation.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    members_meta = []
    for member in spec.members:
        n_samples = int(round(member.duration_s * spec.params.fs))
        data_file = f"{member.member_id}.f32"
        mm = np.memmap(
            root / data_file,
            dtype=_MEMBER_DTYPE,
            mode="w+",
            shape=(n_samples, member.n_electrodes),
        )
        render_recording(
            mm, spec.params, (spec.seed, member.seed), member.duration_s,
            member.seizures, chunk_samples,
        )
        mm.flush()
        del mm
        members_meta.append((member, n_samples, data_file))
    write_manifest(root / MANIFEST_NAME, spec, members_meta)
    return load_cohort(root)


def write_manifest(
    path: Path,
    spec: CohortSpec,
    members_meta: list[tuple[MemberSpec, int, str]],
) -> None:
    """Write the sidecar manifest naming every byte of the cohort."""
    payload = {
        "schema_version": _MANIFEST_VERSION,
        "name": spec.name,
        "seed": spec.seed,
        "fs": spec.params.fs,
        "params": asdict(spec.params),
        "members": [
            {
                "member_id": member.member_id,
                "n_electrodes": member.n_electrodes,
                "n_samples": n_samples,
                "duration_s": member.duration_s,
                "seed": member.seed,
                "data_file": data_file,
                "dtype": _MEMBER_DTYPE.str,
                "seizures": [
                    {
                        "onset_s": plan.onset_s,
                        "duration_s": plan.duration_s,
                        "subtle": plan.subtle,
                    }
                    for plan in member.seizures
                ],
            }
            for member, n_samples, data_file in members_meta
        ],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DiskMember:
    """A validated handle on one on-disk member (no data loaded)."""

    member_id: str
    path: Path
    n_electrodes: int
    n_samples: int
    fs: float
    seed: int
    seizures: tuple[SeizureEvent, ...]

    @property
    def duration_s(self) -> float:
        """Recording length in seconds."""
        return self.n_samples / self.fs

    def open(self) -> Recording:
        """Open the member as a memmap-backed :class:`Recording`.

        O(1) memory: the returned recording's ``data`` is a read-only
        ``np.memmap``; slicing (``slice_time``) yields lazy views, and
        pages are only faulted in as the evaluation actually reads them.
        """
        data = np.memmap(
            self.path,
            dtype=_MEMBER_DTYPE,
            mode="r",
            shape=(self.n_samples, self.n_electrodes),
        )
        return Recording(
            data=data,
            fs=self.fs,
            seizures=self.seizures,
            patient_id=self.member_id,
        )

    def patient(self, train_seizures: int = 1) -> Patient:
        """Wrap the member as an evaluation :class:`Patient`."""
        return Patient(
            patient_id=self.member_id,
            recording=self.open(),
            train_seizures=train_seizures,
        )


@dataclass(frozen=True)
class DiskCohort:
    """A loaded cohort manifest: member handles, no sample data."""

    root: Path
    name: str
    fs: float
    seed: int
    params: dict
    members: tuple[DiskMember, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def member(self, member_id: str) -> DiskMember:
        """Look up a member by id."""
        for member in self.members:
            if member.member_id == member_id:
                return member
        raise KeyError(
            f"no member {member_id!r} in cohort {self.name!r} "
            f"(have {[m.member_id for m in self.members]})"
        )


def load_cohort(root: str | Path) -> DiskCohort:
    """Load and validate a cohort manifest written by ``generate_cohort``.

    Raises:
        ValueError: On a missing/garbled manifest, a schema-version
            mismatch, a missing data file, or a data file whose size
            disagrees with the manifest's shape.
    """
    root = Path(root)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ValueError(f"no cohort manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    for key in ("schema_version", "name", "seed", "fs", "params", "members"):
        if key not in manifest:
            raise ValueError(f"manifest {manifest_path} lacks key {key!r}")
    if manifest["schema_version"] != _MANIFEST_VERSION:
        raise ValueError(
            f"manifest schema v{manifest['schema_version']} != "
            f"supported v{_MANIFEST_VERSION}"
        )
    members = []
    for meta in manifest["members"]:
        for key in ("member_id", "n_electrodes", "n_samples", "duration_s",
                    "seed", "data_file", "dtype", "seizures"):
            if key not in meta:
                raise ValueError(
                    f"member entry {meta.get('member_id', '?')!r} lacks "
                    f"key {key!r}"
                )
        if np.dtype(meta["dtype"]) != _MEMBER_DTYPE:
            raise ValueError(
                f"member {meta['member_id']!r}: unsupported dtype "
                f"{meta['dtype']!r}"
            )
        path = root / meta["data_file"]
        if not path.is_file():
            raise ValueError(f"member data file {path} is missing")
        expected = (meta["n_samples"] * meta["n_electrodes"]
                    * _MEMBER_DTYPE.itemsize)
        actual = path.stat().st_size
        if actual != expected:
            raise ValueError(
                f"member data file {path} is {actual} bytes, manifest "
                f"says {expected} ({meta['n_samples']} x "
                f"{meta['n_electrodes']} float32)"
            )
        seizures = tuple(
            SeizureEvent(
                onset_s=s["onset_s"],
                offset_s=s["onset_s"] + s["duration_s"],
                seizure_type=SUBTLE if s["subtle"] else CLINICAL,
            )
            for s in meta["seizures"]
        )
        members.append(DiskMember(
            member_id=meta["member_id"],
            path=path,
            n_electrodes=meta["n_electrodes"],
            n_samples=meta["n_samples"],
            fs=manifest["fs"],
            seed=meta["seed"],
            seizures=seizures,
        ))
    return DiskCohort(
        root=root,
        name=manifest["name"],
        fs=manifest["fs"],
        seed=manifest["seed"],
        params=manifest["params"],
        members=tuple(members),
    )


def open_member(root: str | Path, member_id: str) -> Recording:
    """Open one member of a cohort directory as a memmap Recording."""
    return load_cohort(root).member(member_id).open()
