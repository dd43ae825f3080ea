"""Result sets: one run's metrics with the context needed to compare them.

A result set carries the workload config, seed, run length, trace flag,
``nproc``, the Python and numpy versions and the engine ``auto``
resolved to.  :func:`compare` refuses two sets that differ in any of
these, so a reported delta is always like for like.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

#: Context keys two result sets must share to be compared.
CONTEXT_KEYS = ("workload", "config", "seed", "seconds", "trace", "nproc",
                "python", "numpy", "engine")


class ContextMismatch(ValueError):
    """Two result sets were measured under different conditions."""


def context(workload: str, config: dict, seed: int, seconds: float,
            trace: bool) -> dict:
    """The comparison context of a run on this host."""
    import numpy as np

    from repro.hdc.engine import resolve_engine_name

    return {
        "workload": workload,
        "config": config,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "engine": resolve_engine_name("auto"),
    }


def write(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read(path: str | Path) -> dict:
    payload = json.loads(Path(path).read_text())
    for key in ("context", "result"):
        if key not in payload:
            raise ValueError(f"{path}: not a result set (no {key!r})")
    return payload


def compare(base: dict, head: dict, bounds: dict[str, tuple[str, float]]
            ) -> list[dict]:
    """Per-metric change from ``base`` to ``head``.

    Args:
        base, head: Result sets (:func:`read`).
        bounds: ``name -> (better, bound)`` from ``BENCHMARK.json``;
            metrics without a bound are reported, never judged.

    Raises:
        ContextMismatch: If the sets differ in any :data:`CONTEXT_KEYS`.
    """
    differing = [
        key for key in CONTEXT_KEYS
        if base["context"].get(key) != head["context"].get(key)
    ]
    if differing:
        raise ContextMismatch(
            "result sets are not like for like; they differ in "
            + ", ".join(
                f"{key} ({base['context'].get(key)!r} vs "
                f"{head['context'].get(key)!r})"
                for key in differing
            )
        )
    rows = []
    head_metrics = head["result"]["metrics"]
    for name, entry in base["result"]["metrics"].items():
        if name not in head_metrics:
            continue
        a, b = entry["value"], head_metrics[name]["value"]
        change = (b - a) / a if a else float("nan")
        better, bound = bounds.get(name, ("lower", None))
        worse = change if better == "lower" else -change
        rows.append({
            "name": name,
            "unit": entry["unit"],
            "base": a,
            "head": b,
            "change": change,
            "bound": bound,
            "regressed": bound is not None and worse > bound,
        })
    return rows
