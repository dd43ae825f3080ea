"""Data substrate: synthetic long-term iEEG and the evaluation cohort.

The paper evaluates on the SWEC-ETHZ dataset (18 drug-resistant epilepsy
patients, 24-128 intracranial electrodes, 2656 h, 116 seizures).  That
dataset is not available in this offline environment, so this package
provides the closest synthetic equivalent:

* :mod:`repro.data.synthetic` generates multichannel iEEG with the two
  documented regimes — interictal broadband 1/f background with a
  flattened LBP-code histogram, and ictal slower/larger/asymmetric
  rhythmic oscillations that concentrate the histogram — plus the
  interictal confounders (spikes, rhythmic bursts, sustained background
  drifts) that make false alarms possible.  One chunk renderer makes
  every sample: batch recordings, live streams and disk cohorts are
  its three front ends;
* :mod:`repro.data.cohort` mirrors Table I patient by patient (electrode
  counts, seizure counts, training-seizure counts) at a configurable
  duration scale;
* :mod:`repro.data.splits` implements the chronological train/test
  protocol of Sec. IV-B;
* :mod:`repro.data.morphology` is the waveform vocabulary (pink noise,
  ictal chirps, spikes) the renderer draws its events from;
* :mod:`repro.data.outofcore` renders disk-backed high-channel cohorts
  into memmap files with a versioned manifest — generation is
  bit-identical for every chunk size, and members open as O(1)-memory
  memmap views (``repro synth`` on the CLI).
"""

from repro.data.cohort import (
    PatientSpec,
    build_cohort,
    cohort_patient_specs,
    synthesize_patient,
)
from repro.data.failures import (
    inject_artifact_bursts,
    kill_electrodes,
    saturate_electrodes,
)
from repro.data.io import load_recording, save_recording
from repro.data.model import Cohort, Patient, Recording, SeizureEvent
from repro.data.outofcore import (
    CohortSpec,
    DiskCohort,
    DiskMember,
    MemberSpec,
    default_member_plans,
    generate_cohort,
    load_cohort,
    open_member,
)
from repro.data.splits import ChronologicalSplit, make_chronological_split
from repro.data.swec import load_long_term_hours, load_short_term
from repro.data.synthetic import (
    SeizurePlan,
    SynthesisParams,
    SyntheticIEEGGenerator,
)

__all__ = [
    "SeizureEvent",
    "Recording",
    "Patient",
    "Cohort",
    "SeizurePlan",
    "SynthesisParams",
    "SyntheticIEEGGenerator",
    "PatientSpec",
    "cohort_patient_specs",
    "build_cohort",
    "synthesize_patient",
    "ChronologicalSplit",
    "make_chronological_split",
    "save_recording",
    "load_recording",
    "kill_electrodes",
    "saturate_electrodes",
    "inject_artifact_bursts",
    "load_short_term",
    "load_long_term_hours",
    "CohortSpec",
    "MemberSpec",
    "DiskCohort",
    "DiskMember",
    "default_member_plans",
    "generate_cohort",
    "load_cohort",
    "open_member",
]
