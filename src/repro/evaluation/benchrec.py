"""Versioned benchmark records: the perf trajectory's file format.

Every committed ``BENCH_*.json`` artifact (and every fresh run that CI
compares against one) is a :class:`BenchRecord`: a schema-versioned
envelope holding the machine fingerprint the numbers were measured on,
the git SHA they were measured at, the compute-engine name, the
harness configuration, and a flat ``{metric: number}`` dict.  Keeping
the envelope strict (``validate_record`` rejects unknown schema
versions and malformed payloads) is what lets CI hard-fail on emit
errors while staying report-only on the numbers themselves — runner
shapes vary, schemas must not.

Reading a record re-validates it, so a stale or hand-edited baseline
fails loudly instead of producing nonsense deltas.  Comparison
(:func:`compare_records`) is per-metric: baseline value, fresh value,
absolute delta and ratio, with one-sided metrics flagged rather than
dropped.  A metric timed over repeats is stored by
:func:`median_with_spread` as its median plus p25/p75 siblings; a
delta on such a metric is *within spread* when the two medians differ
by no more than the baseline's p75 − p25.

Module CLI (used by the CI ``bench-smoke`` job)::

    python -m repro.evaluation.benchrec validate BENCH_engine_matrix.json
    python -m repro.evaluation.benchrec compare BASELINE.json FRESH.json

``validate`` exits non-zero on any schema violation; ``compare`` prints
the per-metric delta table and exits non-zero only when either file
fails validation (deltas are report-only by design).
"""

from __future__ import annotations

import json
import numbers
import os
import platform
import statistics
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: Current schema version of the record envelope.  Bump on any
#: backwards-incompatible change to the field set; readers reject
#: records written under a different version.
SCHEMA_VERSION = 1

#: Required top-level fields and their types (the schema).
_FIELDS: dict[str, type] = {
    "schema_version": int,
    "name": str,
    "machine": dict,
    "git_sha": str,
    "engine": str,
    "config": dict,
    "metrics": dict,
}


class BenchRecordError(ValueError):
    """A benchmark record violates the benchrec schema."""


def machine_fingerprint() -> dict:
    """Fingerprint of the measuring host, stored inside every record.

    Enough to judge whether two records are comparable (core count,
    platform, interpreter and numpy versions) without identifying the
    machine beyond what CI logs already expose.
    """
    import numpy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def current_git_sha(repo_root: str | Path | None = None) -> str:
    """The checked-out commit SHA, or ``"unknown"`` outside a checkout.

    Reads ``.git/HEAD`` directly (following one level of ref
    indirection) so no ``git`` executable is needed on the benchmark
    host or CI runner.
    """
    root = Path(repo_root) if repo_root is not None else _repo_root()
    head = root / ".git" / "HEAD"
    try:
        content = head.read_text().strip()
        if content.startswith("ref: "):
            ref = content[len("ref: "):]
            ref_file = root / ".git" / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            packed = root / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split(" ", 1)[0]
            return "unknown"
        return content
    except OSError:
        return "unknown"


def _repo_root() -> Path:
    """Nearest ancestor of this module holding a ``.git`` directory."""
    path = Path(__file__).resolve()
    for parent in path.parents:
        if (parent / ".git").exists():
            return parent
    return Path.cwd()


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark run under the versioned envelope.

    Attributes:
        name: Harness identity (e.g. ``"load_slo"``) — comparisons
            across different names are refused.
        machine: :func:`machine_fingerprint` of the measuring host.
        git_sha: Commit the numbers were measured at.
        engine: Resolved compute-engine name the run executed on.
        config: Harness configuration (flat JSON-serialisable dict).
        metrics: Flat ``{metric: number}`` dict — the payload tracked
            across the perf trajectory.
        schema_version: Envelope version; see :data:`SCHEMA_VERSION`.
    """

    name: str
    machine: dict
    git_sha: str
    engine: str
    config: dict
    metrics: dict
    schema_version: int = field(default=SCHEMA_VERSION)

    def __post_init__(self) -> None:
        validate_record(asdict(self))


def validate_record(payload: object) -> dict:
    """Check one decoded JSON payload against the benchrec schema.

    Returns:
        The payload itself (typed as a dict) when valid.

    Raises:
        BenchRecordError: On any violation — wrong top-level type,
            missing/extra fields, field-type mismatches, non-numeric
            metric values, or a schema-version mismatch (reported with
            both versions so a migration is obvious).
    """
    if not isinstance(payload, dict):
        raise BenchRecordError(
            f"record must be a JSON object, got {type(payload).__name__}"
        )
    missing = sorted(_FIELDS.keys() - payload.keys())
    if missing:
        raise BenchRecordError(f"record is missing fields: {missing}")
    extra = sorted(payload.keys() - _FIELDS.keys())
    if extra:
        raise BenchRecordError(f"record has unknown fields: {extra}")
    for name, expected in _FIELDS.items():
        value = payload[name]
        # bool is an int subclass; it is never a valid field value here.
        if not isinstance(value, expected) or isinstance(value, bool):
            raise BenchRecordError(
                f"field {name!r} must be {expected.__name__}, got "
                f"{type(value).__name__}"
            )
    version = payload["schema_version"]
    if version != SCHEMA_VERSION:
        raise BenchRecordError(
            f"schema version mismatch: record is v{version}, this reader "
            f"understands v{SCHEMA_VERSION}"
        )
    if not payload["name"]:
        raise BenchRecordError("field 'name' must be non-empty")
    for key, value in payload["metrics"].items():
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise BenchRecordError(
                f"metric {key!r} must be a number, got "
                f"{type(value).__name__}"
            )
    return payload


def write_record(record: BenchRecord, path: str | Path) -> Path:
    """Serialise one validated record to ``path`` (pretty-printed JSON)."""
    path = Path(path)
    payload = validate_record(asdict(record))
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def read_record(path: str | Path) -> BenchRecord:
    """Load and re-validate a record written by :func:`write_record`.

    Raises:
        BenchRecordError: If the file is not valid JSON or violates the
            schema (including a schema-version mismatch).
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchRecordError(f"cannot read record {path}: {exc}") from exc
    validate_record(payload)
    return BenchRecord(**payload)


def _spread_keys(metric: str) -> tuple[str, str]:
    """Names of the p25 and p75 siblings that carry ``metric``'s spread."""
    return f"{metric}_p25", f"{metric}_p75"


def median_with_spread(metric: str, samples) -> dict[str, float]:
    """One metric measured over repeats, as record metrics.

    Returns ``{metric: median, metric_p25: p25, metric_p75: p75}``
    (quartiles by linear interpolation), the form
    :func:`compare_records` reads a baseline's spread from.

    Args:
        metric: Name of the metric.
        samples: At least two measurements of it, one per repeat.
    """
    p25, median, p75 = statistics.quantiles(
        samples, n=4, method="inclusive"
    )
    p25_key, p75_key = _spread_keys(metric)
    return {metric: median, p25_key: p25, p75_key: p75}


@dataclass(frozen=True)
class MetricDelta:
    """One metric's baseline-vs-fresh comparison row.

    ``spread`` is the baseline's p75 − p25 of the metric; None on a
    one-sided row or when the baseline recorded no repeats for it.
    """

    metric: str
    baseline: float | None
    fresh: float | None
    delta: float | None
    ratio: float | None
    spread: float | None = None

    @property
    def one_sided(self) -> bool:
        """The metric exists in only one of the two records."""
        return self.baseline is None or self.fresh is None

    @property
    def within_spread(self) -> bool | None:
        """Whether the medians differ by no more than the spread.

        None when there is no spread to judge by.
        """
        if self.spread is None:
            return None
        return abs(self.delta) <= self.spread


def compare_records(
    baseline: BenchRecord, fresh: BenchRecord
) -> list[MetricDelta]:
    """Per-metric deltas of a fresh run against a committed baseline.

    Metrics present in only one record produce a flagged
    :class:`MetricDelta` (``one_sided``) instead of being dropped —
    a metric silently vanishing from the trajectory is itself a signal.
    The p25/p75 siblings of a repeated metric get no row of their own;
    they fill the ``spread`` of their metric's row.

    Raises:
        BenchRecordError: If the records name different harnesses.
    """
    if baseline.name != fresh.name:
        raise BenchRecordError(
            f"cannot compare records of different harnesses: "
            f"{baseline.name!r} vs {fresh.name!r}"
        )
    metrics = baseline.metrics.keys() | fresh.metrics.keys()
    siblings = {key for metric in metrics for key in _spread_keys(metric)}
    deltas = []
    for metric in sorted(metrics - siblings):
        base = baseline.metrics.get(metric)
        new = fresh.metrics.get(metric)
        if base is None or new is None:
            deltas.append(MetricDelta(metric, base, new, None, None))
            continue
        p25_key, p75_key = _spread_keys(metric)
        spread = (
            baseline.metrics[p75_key] - baseline.metrics[p25_key]
            if {p25_key, p75_key} <= baseline.metrics.keys()
            else None
        )
        ratio = new / base if base else None
        deltas.append(
            MetricDelta(metric, base, new, new - base, ratio, spread)
        )
    return deltas


def context_differences(
    baseline: BenchRecord, fresh: BenchRecord
) -> list[str]:
    """Why two records are not like for like, one line per cause.

    Names every ``config`` key whose value differs (or exists on one
    side only) and a ``cpu_count`` change; empty when the deltas
    compare the same harness configuration on the same host shape.
    """
    missing = object()
    causes = []
    for key in sorted(baseline.config.keys() | fresh.config.keys()):
        base = baseline.config.get(key, missing)
        new = fresh.config.get(key, missing)
        if base != new:
            causes.append(
                f"config {key}: "
                f"{'absent' if base is missing else repr(base)} -> "
                f"{'absent' if new is missing else repr(new)}"
            )
    base_cpus = baseline.machine.get("cpu_count")
    new_cpus = fresh.machine.get("cpu_count")
    if base_cpus != new_cpus:
        causes.append(f"cpu_count: {base_cpus} -> {new_cpus}")
    return causes


def render_comparison(
    baseline: BenchRecord, fresh: BenchRecord
) -> str:
    """Human-readable delta table (what the CI job prints).

    Report-only: a configuration or host-shape mismatch is named in the
    header (:func:`context_differences`) rather than refused, so the
    deltas below it are never read as like for like by accident.  A
    metric with a spread in the baseline is labelled "within spread" or
    "outside spread" (see :attr:`MetricDelta.within_spread`).
    """
    rows = [
        f"[benchrec] {fresh.name}: fresh {fresh.git_sha[:12]} vs "
        f"baseline {baseline.git_sha[:12]} "
        f"(baseline host: {baseline.machine.get('cpu_count', '?')} cores, "
        f"this host: {fresh.machine.get('cpu_count', '?')} cores)"
    ]
    causes = context_differences(baseline, fresh)
    if causes:
        rows.append(
            "  WARNING: not like for like; the deltas below mix contexts:"
        )
        rows.extend(f"    {cause}" for cause in causes)
    deltas = compare_records(baseline, fresh)
    width = max((len(d.metric) for d in deltas), default=0)
    for delta in deltas:
        if delta.one_sided:
            side = "baseline" if delta.fresh is None else "fresh run"
            rows.append(
                f"  {delta.metric:<{width}}  only in {side}"
            )
            continue
        ratio = f"{delta.ratio:.2f}x" if delta.ratio is not None else "n/a"
        verdict = ""
        if delta.within_spread is not None:
            verdict = (
                f"  {'within' if delta.within_spread else 'outside'} "
                f"spread (p75-p25 {delta.spread:.4f})"
            )
        rows.append(
            f"  {delta.metric:<{width}}  {delta.baseline:>12.4f} -> "
            f"{delta.fresh:>12.4f}  ({delta.delta:+.4f}, {ratio}){verdict}"
        )
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.evaluation.benchrec`` — validate / compare.

    Exit status is about *schema health only*: ``validate`` fails on a
    malformed record, ``compare`` fails when either side fails to load.
    Metric regressions never change the exit code here — enforcement
    policy lives in the harnesses, not the file format.
    """
    args = list(sys.argv[1:] if argv is None else argv)
    usage = (
        "usage: python -m repro.evaluation.benchrec validate RECORD.json\n"
        "       python -m repro.evaluation.benchrec compare BASELINE.json "
        "FRESH.json"
    )
    if len(args) == 2 and args[0] == "validate":
        try:
            record = read_record(args[1])
        except BenchRecordError as exc:
            print(f"INVALID: {exc}")
            return 1
        print(
            f"OK: {args[1]} is a valid v{record.schema_version} "
            f"'{record.name}' record with {len(record.metrics)} metrics"
        )
        return 0
    if len(args) == 3 and args[0] == "compare":
        try:
            baseline = read_record(args[1])
            fresh = read_record(args[2])
            print(render_comparison(baseline, fresh))
        except BenchRecordError as exc:
            print(f"INVALID: {exc}")
            return 1
        return 0
    print(usage)
    return 2


if __name__ == "__main__":
    sys.exit(main())
