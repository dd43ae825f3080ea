"""Shared configuration of the benchmark harness.

Heavy experiment benches (Table I and its ablations) run once per
invocation and honour two environment variables:

* ``REPRO_BENCH_SCALE`` — duration-scale divisor of the synthetic
  cohort (default 2880, i.e. one paper-hour becomes 1.25 s).  Use 720
  for the longer runs recorded in EXPERIMENTS.md.
* ``REPRO_BENCH_PATIENTS`` — number of cohort patients (default all 18).

Every bench *prints* the table rows it reproduces; run with ``-s`` to
see them, e.g.::

    pytest benchmarks/ --benchmark-only -s

CI smoke mode
-------------

``pytest benchmarks --smoke`` shrinks every bench to an import-rot
check: the cohort is truncated to two patients, size-aware benches drop
to tiny dimensions/durations (they read ``REPRO_BENCH_SMOKE``, exported
here before collection), and ``pytest-benchmark`` timing loops are
disabled so each benched callable runs exactly once.  The whole
directory finishes in well under two minutes — this is what the CI
benchmark job runs.
"""

from __future__ import annotations

import os

import pytest


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="shrink all benches to a fast import/shape check (CI mode)",
    )


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config: pytest.Config) -> None:
    if not config.getoption("--smoke", default=False):
        return
    # Exported before bench modules import, so module-level sizes that
    # consult smoke_mode()/bench_seconds() see the reduced configuration.
    os.environ["REPRO_BENCH_SMOKE"] = "1"
    os.environ.setdefault("REPRO_BENCH_PATIENTS", "2")
    # Run every benched callable exactly once, without timing loops.
    if hasattr(config.option, "benchmark_disable"):
        config.option.benchmark_disable = True


def smoke_mode() -> bool:
    """Whether the harness runs in CI smoke (import-rot) mode."""
    return os.environ.get("REPRO_BENCH_SMOKE") == "1"


def bench_scale() -> float:
    """Duration-scale divisor for cohort benches."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "2880"))


def bench_patients() -> int:
    """Number of cohort patients to include."""
    return int(os.environ.get("REPRO_BENCH_PATIENTS", "18"))


def bench_seconds(default: float, smoke: float = 2.0) -> float:
    """Synthetic-signal duration for size-aware benches."""
    return smoke if smoke_mode() else default


@pytest.fixture(scope="session")
def cohort_specs():
    """The (possibly truncated) cohort spec list for heavy benches."""
    from repro.data.cohort import cohort_patient_specs

    return cohort_patient_specs()[: bench_patients()]


@pytest.fixture(scope="session")
def table1_result(cohort_specs):
    """One full Table I run shared by the Table I bench and ablations."""
    from repro.evaluation.table1 import default_methods, run_table1

    return run_table1(
        default_methods(dim=1_000),
        cohort_specs,
        hours_scale=1.0 / bench_scale(),
    )
