"""Table I orchestration: every method on every cohort patient.

The harness synthesises one patient at a time (recordings are the large
object; predictions are tiny), runs each method on it, and defers the
postprocessing so the alpha term and the t_r ablation re-use the stored
predictions.  t_r is tuned per patient for Laelaps and fixed to 0 for the
baselines, exactly as in Sec. IV-B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.postprocess import alpha_from_cohort
from repro.data.cohort import (
    DEFAULT_FS,
    DEFAULT_HOURS_SCALE,
    PatientSpec,
    cohort_patient_specs,
    synthesize_patient,
)
from repro.data.splits import split_patient
from repro.evaluation.metrics import (
    DetectionMetrics,
    mean_sensitivity,
    pool_metrics,
)
from repro.evaluation.report import render_table
from repro.evaluation.runner import (
    DetectorFactory,
    PatientResult,
    PatientRun,
    finalize_run,
    run_patient,
    tune_run_tr,
)
from repro.hdc.engine import AUTO_ENGINE

#: Name of the method whose t_r is tuned (all others run at t_r = 0).
LAELAPS = "laelaps"


@dataclass(frozen=True)
class MethodSpec:
    """A method entry of Table I.

    Attributes:
        name: Row-group name (``"laelaps"``, ``"svm"``, ``"cnn"``,
            ``"lstm"``).
        factory: Detector factory ``(n_electrodes, fs) -> detector``.
        tune_tr: Whether the patient-specific t_r rule applies.
    """

    name: str
    factory: DetectorFactory
    tune_tr: bool = False


def default_methods(
    dim: int = 1_000,
    seed: int = 0,
    include: Sequence[str] = (LAELAPS, "svm", "cnn", "lstm"),
    backend: str = AUTO_ENGINE,
) -> list[MethodSpec]:
    """The paper's four methods with sensible reproduction settings.

    Args:
        dim: Hypervector dimension for Laelaps (Table I's tuned models
            average 4.3 kbit; 1 kbit keeps the cohort bench tractable and
            is the paper's own minimum).
        seed: Master seed shared by all stochastic models.
        include: Subset of method names to build.
        backend: Laelaps compute-engine name (any value accepted by
            :class:`~repro.core.config.LaelapsConfig`, including
            ``auto``); the baselines are unaffected.  Every engine
            gives bit-identical Table I rows.
    """
    from repro.baselines.cnn import StftCnnDetector
    from repro.baselines.lstm import LstmDetector
    from repro.baselines.svm import LbpSvmDetector
    from repro.core.config import LaelapsConfig
    from repro.core.detector import LaelapsDetector

    def laelaps_factory(n_electrodes: int, fs: float):
        config = LaelapsConfig(dim=dim, fs=fs, seed=seed + 1, backend=backend)
        return LaelapsDetector(n_electrodes, config)

    def svm_factory(n_electrodes: int, fs: float):
        return LbpSvmDetector(n_electrodes, fs=fs, seed=seed + 2)

    def cnn_factory(n_electrodes: int, fs: float):
        return StftCnnDetector(n_electrodes, fs=fs, seed=seed + 3)

    def lstm_factory(n_electrodes: int, fs: float):
        return LstmDetector(n_electrodes, fs=fs, seed=seed + 4)

    registry = {
        LAELAPS: MethodSpec(LAELAPS, laelaps_factory, tune_tr=True),
        "svm": MethodSpec("svm", svm_factory),
        "cnn": MethodSpec("cnn", cnn_factory),
        "lstm": MethodSpec("lstm", lstm_factory),
    }
    unknown = set(include) - set(registry)
    if unknown:
        raise KeyError(f"unknown methods requested: {sorted(unknown)}")
    return [registry[name] for name in include]


@dataclass
class Table1Result:
    """All per-patient results plus cohort aggregates.

    Attributes:
        results: ``results[method][patient_id]`` -> :class:`PatientResult`.
        runs: Raw runs (kept so ablations can re-postprocess).
        alpha: The cohort alpha used for t_r tuning.
    """

    results: dict[str, dict[str, PatientResult]]
    runs: dict[str, dict[str, PatientRun]] = field(default_factory=dict)
    alpha: float = 0.0

    def methods(self) -> list[str]:
        """Method names in insertion order."""
        return list(self.results.keys())

    def patient_ids(self) -> list[str]:
        """Patient ids in cohort order (from the first method)."""
        first = next(iter(self.results.values()))
        return list(first.keys())

    def per_patient_metrics(self, method: str) -> list[DetectionMetrics]:
        """Metric list of one method over the cohort."""
        return [r.metrics for r in self.results[method].values()]

    def summary(self, method: str) -> dict[str, float]:
        """Cohort aggregates for one method (Table I's "mean" row)."""
        metrics = self.per_patient_metrics(method)
        pooled = pool_metrics(metrics)
        delays = [
            m.mean_delay_s for m in metrics if m.delays_s
        ]
        fdrs = [m.fdr_per_hour for m in metrics if m.interictal_hours > 0]
        return {
            "mean_delay_s": float(np.mean(delays)) if delays else float("nan"),
            "mean_fdr_per_hour": float(np.mean(fdrs)) if fdrs else float("nan"),
            "mean_sensitivity": mean_sensitivity(metrics),
            "detected": float(pooled.n_detected),
            "test_seizures": float(pooled.n_seizures),
            "false_alarms": float(pooled.n_false_alarms),
            "interictal_hours": pooled.interictal_hours,
        }

    def render(self) -> str:
        """Render the per-patient table in the layout of Table I."""
        headers = ["ID", "Elect", "TestSeiz"]
        for method in self.methods():
            headers += [f"{method}:delay", f"{method}:FDR/h", f"{method}:sens%"]
        first_method = self.methods()[0]
        electrodes = {
            pid: run.n_electrodes
            for pid, run in self.runs.get(first_method, {}).items()
        }
        rows = []
        for pid in self.patient_ids():
            any_result = self.results[first_method][pid]
            row: list[object] = [
                pid,
                electrodes.get(pid, "-"),
                any_result.metrics.n_seizures,
            ]
            for method in self.methods():
                m = self.results[method][pid].metrics
                row += [
                    m.mean_delay_s,
                    m.fdr_per_hour,
                    100.0 * m.sensitivity,
                ]
            rows.append(row)
        mean_row: list[object] = ["mean", "-", "-"]
        for method in self.methods():
            s = self.summary(method)
            mean_row += [
                s["mean_delay_s"],
                s["mean_fdr_per_hour"],
                100.0 * s["mean_sensitivity"],
            ]
        rows.append(mean_row)
        return render_table(headers, rows, title="Table I (reproduction)")


def run_table1(
    methods: list[MethodSpec] | None = None,
    specs: tuple[PatientSpec, ...] | None = None,
    hours_scale: float = DEFAULT_HOURS_SCALE,
    fs: float = DEFAULT_FS,
    interictal_lead_s: float = 60.0,
    keep_runs: bool = True,
    progress: Callable[[str], None] | None = None,
) -> Table1Result:
    """Run the full Table I experiment.

    Args:
        methods: Methods to evaluate (default: all four).
        specs: Patient specs (default: the 18-patient cohort).
        hours_scale: Duration scale of the synthetic recordings.
        fs: Sampling rate of the synthetic recordings.
        interictal_lead_s: Lead of the interictal training segment.
        keep_runs: Keep raw runs on the result (needed for ablations).
        progress: Optional callback receiving one line per step.
    """
    methods = methods if methods is not None else default_methods()
    specs = specs or cohort_patient_specs()
    say = progress or (lambda message: None)

    runs: dict[str, dict[str, PatientRun]] = {m.name: {} for m in methods}
    for spec in specs:
        say(f"synthesizing {spec.patient_id} ({spec.n_electrodes} electrodes)")
        patient = synthesize_patient(spec, hours_scale=hours_scale, fs=fs)
        split = split_patient(patient, interictal_lead_s=interictal_lead_s)
        for method in methods:
            say(f"  running {method.name} on {spec.patient_id}")
            runs[method.name][spec.patient_id] = run_patient(
                method.factory, patient, split=split, method=method.name
            )
        del patient  # recordings dominate memory; predictions are tiny

    # Cohort-level alpha from the Laelaps runs (Sec. III-C).
    alpha = 0.0
    tuned = {m.name for m in methods if m.tune_tr}
    pairs = [
        (run.trained_delta_mean, run.heldout_delta_mean)
        for name in tuned
        for run in runs[name].values()
        if run.trained_delta_mean == run.trained_delta_mean
        and run.heldout_delta_mean == run.heldout_delta_mean
    ]
    alpha = alpha_from_cohort(pairs)
    say(f"cohort alpha = {alpha:.1f}")

    results: dict[str, dict[str, PatientResult]] = {}
    for method in methods:
        results[method.name] = {}
        for pid, run in runs[method.name].items():
            tr = tune_run_tr(run, alpha=alpha) if method.tune_tr else 0.0
            results[method.name][pid] = finalize_run(run, tr=tr)
    return Table1Result(
        results=results, runs=runs if keep_runs else {}, alpha=alpha
    )
