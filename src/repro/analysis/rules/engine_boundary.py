"""Engine-boundary purity: backend names live in the registry, period.

PR 5 collapsed every hand-rolled packed-vs-unpacked fork into the
:mod:`repro.hdc.engine` registry.  The refactor only stays collapsed if
no layer above ``hdc/`` re-introduces a backend string of its own — a
``"packed"`` literal in the detector, CLI or persistence code is a new
dispatch fork waiting to drift from the registry.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext, Finding, Rule, register_rule

#: The registered engine names plus the retired ``packed-fused`` alias
#: (mirrored here as data on purpose: this module must lint files
#: without importing them, and the rule should flag the *strings*,
#: wherever the registry goes next).
_ENGINE_LITERALS = frozenset(
    {"packed", "unpacked", "packed-fused",  # repro: noqa[RPR003]
     "packed-native"}  # repro: noqa[RPR003]
)


@register_rule
class EngineLiteralRule(Rule):
    """RPR003 — no backend string literals outside ``repro.hdc``."""

    code = "RPR003"
    name = "engine-literal-outside-hdc"
    rationale = (
        "Backend names are registry keys owned by `repro.hdc.engine`.  A "
        "literal `\"packed\"`/`\"unpacked\"`/`\"packed-native\"` (or "
        "the retired alias `\"packed-fused\"`) anywhere above hdc/ "
        "re-forks the dispatch the registry collapsed and silently "
        "decouples from `engine_names()` when engines are added or "
        "renamed.  Import UNPACKED_ENGINE/PACKED_ENGINE/"
        "PACKED_NATIVE_ENGINE (or resolve the name through the registry) "
        "instead."
    )
    include = ("src/repro/",)
    exclude = ("src/repro/hdc/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        docstrings = ctx.docstring_nodes()
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in _ENGINE_LITERALS
                and id(node) not in docstrings
            ):
                yield ctx.finding(
                    self.code, node,
                    f"backend literal {node.value!r} outside repro.hdc; "
                    "import the name from repro.hdc.engine or resolve it "
                    "through the registry",
                )
