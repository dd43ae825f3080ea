"""Cross-engine benchmark matrix.

Every *registered* compute engine, timed on the same whole-recording
workload at d = 2000 and d = 10000 (the golden-model dimension),
reported as windows/s and speedup vs the unpacked reference, and
serialised to the versioned benchmark-record schema
(:mod:`repro.evaluation.benchrec`).  Each engine is timed over
``repeats`` runs and its windows/s recorded as the median with p25/p75
siblings, so a comparison can tell a move from noise.  The committed
repo-root ``BENCH_engine_matrix.json`` is this bench's full-mode output
on the recording host; engines whose optional accelerator is missing
(e.g. ``packed-native`` without numba) are listed with
``available = 0`` instead of being silently dropped.  The
``packed-native`` floor over ``packed`` is a test
(``tests/hdc/test_native.py``); the matrix only records the ratio.

Run directly with ``pytest benchmarks/bench_engine_matrix.py -s``;
``--smoke`` shrinks the sizes for the CI jobs and writes the matrix
record to ``BENCH_engine_matrix.smoke.json`` instead of the committed
baseline.  ``REPRO_BENCH_RECORD_MATRIX`` overrides the output path
either way.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import bench_seconds, smoke_mode
from repro.core.config import GOLDEN_DIM, LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.hdc.backend import random_bits
from repro.hdc.engine import (
    AUTO_ENGINE,
    PACKED_ENGINE,
    PACKED_NATIVE_ENGINE,
    UNPACKED_ENGINE,
    engine_capabilities,
    engine_names,
    resolve_engine_name,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
#: The committed cross-engine matrix baseline this bench writes/compares.
MATRIX_BASELINE_PATH = REPO_ROOT / "BENCH_engine_matrix.json"

FS = 256.0
N_ELECTRODES = 32


def _timed(repeats: int, fn) -> list[float]:
    """Wall seconds of ``repeats`` calls of ``fn``, one per call."""
    elapsed = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed.append(time.perf_counter() - start)
    return elapsed


def _fitted(backend: str, dim: int) -> LaelapsDetector:
    detector = LaelapsDetector(
        N_ELECTRODES,
        LaelapsConfig(dim=dim, fs=FS, seed=7, backend=backend),
    )
    detector.fit_from_windows(
        random_bits((4, dim), np.random.default_rng(1)),
        random_bits((4, dim), np.random.default_rng(2)),
    )
    return detector


def _matrix_dims() -> tuple[int, ...]:
    return (256,) if smoke_mode() else (2_000, GOLDEN_DIM)


def _matrix_output_path() -> Path:
    override = os.environ.get("REPRO_BENCH_RECORD_MATRIX")
    if override:
        return Path(override)
    if smoke_mode():
        return REPO_ROOT / "BENCH_engine_matrix.smoke.json"
    return MATRIX_BASELINE_PATH


def test_engine_matrix_record():
    """Every registered engine on one workload, recorded as a benchrec."""
    from repro.evaluation.benchrec import (
        BenchRecord,
        current_git_sha,
        machine_fingerprint,
        median_with_spread,
        read_record,
        render_comparison,
        write_record,
    )

    caps = {row["name"]: row for row in engine_capabilities()}
    dims = _matrix_dims()
    seconds = bench_seconds(6.0, smoke=2.0)
    repeats = 3 if smoke_mode() else 5
    rng = np.random.default_rng(9)
    signal = rng.standard_normal((int(seconds * FS), N_ELECTRODES))

    metrics: dict[str, float] = {}
    for engine, row in caps.items():
        metrics[f"{engine}_available"] = 1.0 if row["available"] else 0.0
        if not row["available"]:
            print(
                f"\n[engine matrix] {engine!r} unavailable here "
                f"({row['unavailable_reason']}); listed, not timed"
            )

    # Median windows/s per (dim, engine), the basis of every ratio.
    rates: dict[int, dict[str, float]] = {}
    for dim in dims:
        rates[dim] = {}
        reference = None
        for engine in engine_names():
            if not caps[engine]["available"]:
                continue
            detector = _fitted(engine, dim)
            preds = detector.predict(signal)
            assert len(preds) > 0
            if reference is None:
                reference = preds  # the unpacked reference, always first
            else:  # every engine bit-exact before any timing
                np.testing.assert_array_equal(
                    preds.labels, reference.labels
                )
                np.testing.assert_array_equal(
                    preds.distances, reference.distances
                )
            key = f"d{dim}_{engine}_windows_per_s"
            elapsed = _timed(repeats, lambda d=detector: d.predict(signal))
            metrics.update(
                median_with_spread(key, [len(preds) / s for s in elapsed])
            )
            rates[dim][engine] = metrics[key]
        for engine, rate in rates[dim].items():
            speedup = rate / rates[dim][UNPACKED_ENGINE]
            metrics[f"d{dim}_{engine}_speedup_vs_unpacked"] = speedup
        print(f"\n[engine matrix] d={dim}, {seconds:.0f} s of signal:")
        for engine in rates[dim]:
            print(
                f"  {engine:<14} {metrics[f'd{dim}_{engine}_windows_per_s']:>10,.0f} windows/s  "
                f"({metrics[f'd{dim}_{engine}_speedup_vs_unpacked']:.2f}x vs unpacked)"
            )

    # Recorded, not asserted: tests/hdc/test_native.py holds the floor.
    top = dims[-1]
    if PACKED_NATIVE_ENGINE in rates[top]:
        metrics[f"d{top}_native_speedup_vs_packed"] = (
            rates[top][PACKED_NATIVE_ENGINE] / rates[top][PACKED_ENGINE]
        )

    record = BenchRecord(
        name="engine_matrix",
        machine=machine_fingerprint(),
        git_sha=current_git_sha(),
        engine=resolve_engine_name(AUTO_ENGINE),
        config={
            "dims": list(dims),
            "seconds": seconds,
            "n_electrodes": N_ELECTRODES,
            "fs": FS,
            "repeats": repeats,
            "engines": list(engine_names()),
        },
        metrics=metrics,
    )
    out = _matrix_output_path()
    write_record(record, out)
    fresh = read_record(out)  # emit/schema gate: always enforced
    print(f"[engine matrix] record written to {out}")

    if (
        not MATRIX_BASELINE_PATH.exists()
        or out.resolve() == MATRIX_BASELINE_PATH.resolve()
    ):
        return
    baseline = read_record(MATRIX_BASELINE_PATH)  # schema errors hard-fail
    print(render_comparison(baseline, fresh))
    print("[engine matrix] deltas are report-only (runner shapes vary)")
