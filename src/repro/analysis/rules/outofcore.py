"""Out-of-core discipline: the streamed path must never materialise.

The whole point of :mod:`repro.data.outofcore` (whose memmaps the chunk
renderer in :mod:`repro.data.synthetic` fills) and the chunked
inference loop in :mod:`repro.core.streaming` (which
:mod:`repro.evaluation.runner` hands memmap views to) is a RAM bound
that does not scale with recording length or channel count — 1024-channel members are
*views* into memmapped files, touched one chunk at a time.  One careless
``np.asarray(recording.data)`` (or ``.copy()`` / ``.tolist()`` on the
mapped buffer) silently pulls the entire recording into RAM, and every
memory assertion downstream still passes on small CI fixtures while
production-scale cohorts OOM.  This rule makes that class of regression
a lint failure instead of a pager.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import import_aliases, resolve_call_name, walk_calls
from repro.analysis.engine import FileContext, Finding, Rule, register_rule

#: numpy constructors that copy their argument into a fresh in-RAM
#: array (``np.asarray`` only copies for dtype changes, but on a
#: memmapped float32 recording the out-of-core path never needs it —
#: slicing and arithmetic already yield plain ndarrays chunk-wise).
_MATERIALIZERS = frozenset({
    "numpy.array", "numpy.asarray", "numpy.ascontiguousarray",
    "numpy.asfortranarray", "numpy.copy",
})

#: Methods that duplicate the receiver's whole buffer.
_COPY_METHODS = frozenset({"copy", "tolist"})


def _touches_recording_data(node: ast.AST) -> bool:
    """Whether the subtree reaches a ``<obj>.data`` attribute.

    ``.data`` is the recording-payload convention across the codebase
    (:class:`~repro.data.model.Recording` and the memmap views the
    out-of-core loaders hand out), so any materialising call fed from
    one is whole-recording sized by construction.
    """
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "data"
        for sub in ast.walk(node)
    )


@register_rule
class OutOfCoreMaterializationRule(Rule):
    """RPR011 — no whole-recording materialisation off the memmap path."""

    code = "RPR011"
    name = "no-recording-materialization"
    rationale = (
        "The out-of-core contract is O(chunk) evaluation memory at any "
        "channel count: disk-backed members are opened as memmap views "
        "and consumed chunk-by-chunk.  np.array/np.asarray/"
        "np.ascontiguousarray (or .copy()/.tolist()) applied to a "
        "recording's .data buffer drags the whole mapped file into RAM "
        "in one allocation — invisible on small test fixtures, fatal at "
        "1024 channels x 30 minutes.  Slice the view (slice_time, "
        "chunked ranges) and let the chunk loop make the only copies."
    )
    include = (
        "src/repro/data/outofcore.py",
        "src/repro/data/synthetic.py",
        "src/repro/core/streaming.py",
        "src/repro/evaluation/runner.py",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        aliases = import_aliases(ctx.tree)
        for call in walk_calls(ctx.tree):
            dotted = resolve_call_name(call.func, aliases)
            if dotted in _MATERIALIZERS:
                if any(_touches_recording_data(arg) for arg in call.args):
                    yield ctx.finding(
                        self.code, call,
                        f"`{dotted}()` on a recording's `.data` buffer "
                        "materialises the whole memmapped recording in "
                        "RAM; keep it a view and copy per chunk",
                    )
            elif (isinstance(call.func, ast.Attribute)
                    and call.func.attr in _COPY_METHODS
                    and _touches_recording_data(call.func.value)):
                yield ctx.finding(
                    self.code, call,
                    f"`.{call.func.attr}()` on a recording's `.data` "
                    "buffer duplicates the whole mapped file in RAM; "
                    "slice the view and copy per chunk instead",
                )
