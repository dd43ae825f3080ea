"""Observability surface of the serving stack: metrics + JSON logs.

Two exports, both file-free and side-effect-free so every transport
(the asyncio service, tests, ad-hoc scripts) reads the same numbers:

* :func:`gateway_metrics` — one point-in-time snapshot of a
  :class:`~repro.serve.gateway.ShardedStreamGateway`: per-shard session
  counts, per-session submit-queue depths, and the tick/window counters
  and cumulative-bucket latency histogram of the gateway's
  :class:`~repro.serve.gateway.TickStats`.  Every counter and bucket
  counts up from gateway start and is never reset, so a scraper can
  take rates from it the Prometheus way;
* :class:`JsonLogFormatter` — structured one-JSON-object-per-line
  logging for the service process, machine-parseable the way the
  benchrec records are.

Everything here is read-only over the gateway: a metrics scrape never
advances a stream, takes a lock the tick path needs, or mutates
counters.
"""

from __future__ import annotations

import json
import logging
from itertools import accumulate

#: Histogram bucket upper bounds (seconds) for tick latencies, chosen
#: to bracket the measured trajectory (p50 ~200 ms on the 1-core
#: baseline host, sub-millisecond inline ticks in tests).  Cumulative
#: ``le`` semantics: bucket ``i`` counts every tick <= ``bounds[i]``.
LATENCY_BUCKET_BOUNDS_S = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Attributes every ``logging.LogRecord`` carries; anything else on a
#: record was passed via ``extra=`` and belongs in the JSON payload.
_STANDARD_LOG_ATTRS = frozenset({
    "name", "msg", "args", "levelname", "levelno", "pathname", "filename",
    "module", "exc_info", "exc_text", "stack_info", "lineno", "funcName",
    "created", "msecs", "relativeCreated", "thread", "threadName",
    "processName", "process", "taskName", "message", "asctime",
})


def gateway_metrics(gateway) -> dict:
    """One JSON-serialisable snapshot of a gateway's observable state.

    The dict behind ``GET /metrics``: shard occupancy from
    :meth:`~repro.serve.gateway.ShardedStreamGateway.shard_map`,
    submit-queue depths from
    :meth:`~repro.serve.gateway.ShardedStreamGateway.pending`, and the
    tick counters and latency histogram from the gateway's
    ``tick_stats``.  The histogram is Prometheus-style: ``counts[i]``
    is the number of ticks ``<= bounds_s[i]`` (cumulative), ticks above
    the last bound appear only in ``count``, and ``count`` is
    ``ticks_total``.
    """
    shard_map = gateway.shard_map()
    queue_depths = {
        session_id: gateway.pending(session_id)
        for session_id in gateway.session_ids
    }
    stats = gateway.tick_stats
    return {
        "mode": gateway.mode,
        "workers": len(shard_map),
        "sessions_open": len(gateway),
        "shard_sessions": {
            worker_id: len(sessions)
            for worker_id, sessions in shard_map.items()
        },
        "queue_depths": queue_depths,
        "queued_chunks_total": sum(queue_depths.values()),
        "ticks_total": stats.ticks,
        "windows_total": stats.windows,
        "sessions_ticked_total": stats.sessions_ticked,
        "tick_latency": {
            "bounds_s": list(LATENCY_BUCKET_BOUNDS_S),
            "counts": list(accumulate(stats.bucket_counts)),
            "count": stats.ticks,
            "sum_s": stats.latency_sum_s,
        },
    }


class JsonLogFormatter(logging.Formatter):
    """One JSON object per log line: the service's structured-log shape.

    Fixed keys: ``ts`` (epoch seconds, from the record's own creation
    stamp), ``level``, ``logger`` and ``event`` (the formatted
    message).  Keys passed through ``logging``'s ``extra=`` ride along
    verbatim, so call sites attach structure instead of formatting it
    into the message; non-JSON values degrade to ``str`` rather than
    crash the logging path.
    """

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        for key, value in record.__dict__.items():
            if key in _STANDARD_LOG_ATTRS or key.startswith("_"):
                continue
            payload[key] = value
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


def service_logger(
    name: str = "repro.serve.service",
    *,
    stream=None,
    level: int = logging.INFO,
) -> logging.Logger:
    """A logger emitting :class:`JsonLogFormatter` lines to ``stream``.

    Defaults to stderr (the stream ``logging.StreamHandler`` picks when
    none is given), keeping stdout clean for shells that parse command
    output.  Idempotent per name: re-calling replaces the handler
    instead of stacking duplicates.
    """
    logger = logging.getLogger(name)
    logger.setLevel(level)
    logger.propagate = False
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(JsonLogFormatter())
    logger.addHandler(handler)
    return logger
