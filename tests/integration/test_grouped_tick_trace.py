"""The serving tick stays grouped: perfbench's tracer counts the calls.

Runs the benchmark's serve workload at a toy shape with tracing on and
checks that every layer of the tick is reached and that the traced
bit-sliced kernels run about once per session per tick (the spatial
majority's comparator) plus once per block tile (the window
comparator) — not several times per session, as a per-session
temporal step would make them.
"""

import dataclasses

from perfbench.test_perfbench import TINY_SERVE
from perfbench.workloads import run_serve

LAYERS = ("lbp", "hdc.spatial", "hdc.bitsliced", "hdc.temporal",
          "hdc.associative", "core.postprocess", "core.streaming",
          "core.sessions")


def test_serve_tick_reaches_every_layer_with_grouped_kernels(tmp_path):
    # 16 sessions on 2 shards: a shard's one tile then costs well under
    # one call per session.
    config = dataclasses.replace(TINY_SERVE, n_sessions=16)
    outcome = run_serve(config, 4, 0.2, True, tmp_path)
    assert outcome.correct, (outcome.failed, outcome.attempted)
    layers = outcome.layers
    assert {name: layers[f"{name}.calls"] for name in LAYERS
            if not layers[f"{name}.calls"] > 0} == {}
    assert layers["hdc.bitsliced.calls_per_tick"] < 3 * config.n_sessions
