"""Pluggable compute engines: one dispatch point for every backend.

Every layer above :mod:`repro.hdc` used to re-implement the
packed-vs-unpacked fork by hand — the detector branched in its
constructor, trainer and classifier, and the session manager, the
persistence formats, the shard workers and the CLI each carried their
own copy of the switch.  This module collapses all of that into one
object: an engine (a subclass of :class:`_EngineBase`) owns the spatial
and temporal encoders of its representation, feeds and queries the
associative memory, packs queries for the cross-session grouped sweep,
and tags checkpoint payloads — so callers hold an engine and never ask
which domain an H vector lives in.

Engines differ only in their kernels: the encoders, the prototype
accumulator and the grouped sweep.  Below :meth:`_EngineBase.train` and
:meth:`_EngineBase.classify_windows` there is one path — the
associative memory stores packed prototypes and answers packed queries.

Registered engines (:func:`engine_names`):

* ``unpacked`` — uint8 0/1 component arrays, the reference
  integer-counter path;
* ``packed`` — uint64 words end to end (the word layout of the paper's
  GPU kernels, Sec. V-B), batched XOR + popcount queries;
* ``packed-native`` — the packed pipeline with both hot kernels
  (XOR+popcount sweep, carry-save bundling tree) JIT-compiled to
  multithreaded nogil machine code via the optional numba dependency
  (:mod:`repro.hdc.native`); registered even when numba is absent, but
  listed as unavailable and skipped by ``auto``;
* ``auto`` — resolves to the fastest *available* registered engine at
  detector construction (``packed-native`` with numba installed,
  ``packed`` otherwise).

``packed-fused`` — a retired engine that differed from ``packed`` only
by a one-window XOR scratch — survives as a resolve-time alias of
``packed``, so saved models, fleet checkpoints and command lines that
name it keep loading, bit-exactly.

Engines only encode and classify; the chunk loop that turns a long
signal into windows lives above them, in
:func:`repro.core.streaming.predict_chunked`.

All engines are bit-exact against each other; the cross-engine property
suite (``tests/property/test_engine_equivalence.py``) enforces this over
odd dimensions, ragged chunking, mixed-engine session fleets and
mid-stream checkpoint/restore across engine names.
"""

from __future__ import annotations

import numpy as np

from repro.hdc.associative import (
    AssociativeMemory,
    PackedPrototypeAccumulator,
    grouped_classify_packed,
)
from repro.hdc.backend import pack_bits, packed_words, unpack_bits
from repro.hdc.item_memory import ItemMemory
from repro.hdc.ops import BundleAccumulator
from repro.hdc.spatial import SpatialEncoder
from repro.hdc.spatial_packed import PackedSpatialEncoder
from repro.hdc.temporal import TemporalEncoder, WindowBundler
from repro.hdc.temporal_packed import PackedTemporalEncoder
from repro.signal.windows import WindowSpec

#: Registry name of the auto-selecting pseudo-engine.
AUTO_ENGINE = "auto"

#: Registered engine names.  Layers above ``repro.hdc`` must import
#: these (or iterate the registry) instead of spelling the literals —
#: enforced by ``repro lint`` rule RPR003.
UNPACKED_ENGINE = "unpacked"
PACKED_ENGINE = "packed"
PACKED_NATIVE_ENGINE = "packed-native"

#: Retired engine names that still resolve, mapped to their successor.
_ALIASES = {"packed-fused": PACKED_ENGINE}


class EngineUnavailableError(RuntimeError):
    """A registered engine cannot run here (missing optional accelerator).

    Engines stay *listed* even when their optional dependency is absent
    (``repro backends`` shows availability and the reason), but
    constructing one raises this with the remedy in the message.
    """


class _EngineBase:
    """What every registered engine provides to the layers above.

    An engine instance is bound to one detector's item memories and
    window geometry.  Subclasses supply the kernels:

    * the spatial encoder (:attr:`spatial`) and fresh streaming
      temporal encoders (:meth:`temporal_encoder`, whose
      ``state_dict``/``restore_state`` are the streaming-state
      export/import hooks used by checkpoints);
    * the prototype accumulator of their H form (:meth:`accumulator`)
      and how a finalized prototype is stored (:meth:`store`);
    * the cross-session grouped sweep (:attr:`grouped_kernel`);
    * the checkpoint payload tag (:attr:`name` — persisted so a saved
      model reopens on the engine that wrote it).

    This class is the *only* place in the codebase that distinguishes
    window forms by trailing width: every engine accepts both the
    unpacked ``(n, d)`` uint8 and the packed ``(n, words)`` uint64 form
    (so detectors can cross-feed windows encoded on any engine) and
    converts at :meth:`windows_2d`, so training and queries below it
    have no per-form branch.
    """

    #: Registry key; subclasses override.
    name = "base"
    #: Whether H vectors natively live in packed uint64 words.
    native_packed = False
    #: Human-readable native window form, for the capability listing.
    window_form = "?"
    #: One-line capability summary, for the capability listing.
    summary = ""

    def __init__(
        self,
        code_memory: ItemMemory,
        electrode_memory: ItemMemory,
        spec: WindowSpec,
    ) -> None:
        if code_memory.dim != electrode_memory.dim:
            raise ValueError(
                "item memories must share a dimension, got "
                f"{code_memory.dim} and {electrode_memory.dim}"
            )
        self.dim = code_memory.dim
        self.words = packed_words(self.dim)
        self.spec = spec
        self.spatial = self._build_spatial(code_memory, electrode_memory)

    # -- representation hooks (subclasses override) --------------------

    def _build_spatial(self, code_memory, electrode_memory):
        raise NotImplementedError

    def temporal_encoder(self) -> WindowBundler:
        raise NotImplementedError

    def accumulator(self):
        raise NotImplementedError

    def store(self, memory: AssociativeMemory, label: int,
              prototype: np.ndarray) -> None:
        raise NotImplementedError

    # -- the one path into the associative memory ----------------------

    def windows_2d(self, h: np.ndarray) -> np.ndarray:
        """Validate H vectors in either form, returning this engine's form.

        Dispatch is by trailing width: ``d`` columns means unpacked,
        ``packed_words(d)`` columns means packed (the two can never
        coincide for ``d >= 2``).  The 2-D batch comes back packed or
        unpacked to match :attr:`native_packed`.
        """
        arr = np.atleast_2d(np.asarray(h))
        if arr.ndim != 2 or arr.shape[1] not in (self.dim, self.words):
            raise ValueError(
                f"H vectors must have {self.dim} (unpacked) or "
                f"{self.words} (packed) columns, got shape {arr.shape}"
            )
        if arr.shape[1] == self.dim:
            bits = arr.astype(np.uint8, copy=False)
            return pack_bits(bits) if self.native_packed else bits
        words = arr.astype(np.uint64, copy=False)
        return words if self.native_packed else unpack_bits(words, self.dim)

    def pack_queries(self, h: np.ndarray) -> np.ndarray:
        """Validated H vectors as ``(n, words)`` uint64 packed queries."""
        arr = self.windows_2d(h)
        return arr if self.native_packed else pack_bits(arr)

    def train(self, memory: AssociativeMemory, label: int,
              h_vectors: np.ndarray) -> None:
        """Bundle an H batch (either form) into ``label``'s prototype."""
        prototype = self.accumulator().add(self.windows_2d(h_vectors))
        self.store(memory, label, prototype.finalize())

    def classify_windows(
        self, memory: AssociativeMemory, h: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched nearest-prototype sweep over H vectors (either form)."""
        return memory.classify_packed(self.pack_queries(h))

    #: Cross-session grouped-sweep implementation used when every
    #: session of a tick shares this engine; engines with a native
    #: grouped kernel override it (same signature, bit-exact).
    grouped_kernel = staticmethod(grouped_classify_packed)

    # -- capability listing --------------------------------------------

    @classmethod
    def available(cls) -> tuple[bool, str | None]:
        """Whether the engine can be constructed here, with the reason.

        Engines backed by optional accelerators override this; the
        default toolchain (numpy) is always present.
        """
        return True, None

    @classmethod
    def auto_eligible(cls) -> bool:
        """Whether ``auto`` may resolve to this engine on this host."""
        return cls.available()[0]

    @classmethod
    def describe(cls, dim: int = 10_000) -> dict:
        """Capability/word-layout row for the ``repro backends`` CLI."""
        ok, why = cls.available()
        return {
            "name": cls.name,
            "window_form": cls.window_form,
            "width_at_dim": packed_words(dim) if cls.native_packed else dim,
            "available": ok,
            "unavailable_reason": why,
            "summary": cls.summary,
        }


_REGISTRY: dict[str, type[_EngineBase]] = {}


def register_engine(cls: type[_EngineBase]) -> type[_EngineBase]:
    """Class decorator adding an engine to the named registry."""
    _REGISTRY[cls.name] = cls
    return cls


@register_engine
class UnpackedEngine(_EngineBase):
    """Reference integer-counter engine over uint8 component arrays."""

    name = UNPACKED_ENGINE
    window_form = "uint8 (n, d)"
    summary = "reference integer-counter path; one byte per component"

    def _build_spatial(self, code_memory, electrode_memory):
        return SpatialEncoder(code_memory, electrode_memory)

    def temporal_encoder(self) -> TemporalEncoder:
        return TemporalEncoder(self.spatial, self.spec)

    def accumulator(self) -> BundleAccumulator:
        return BundleAccumulator(self.dim)

    def store(self, memory: AssociativeMemory, label: int,
              prototype: np.ndarray) -> None:
        memory.store(label, prototype)


@register_engine
class PackedEngine(_EngineBase):
    """Word-domain engine: uint64 H vectors end to end (Sec. V-B)."""

    name = PACKED_ENGINE
    native_packed = True
    window_form = "uint64 (n, ceil(d/64))"
    summary = "bit-parallel carry-save encoding, batched XOR+popcount sweep"

    def _build_spatial(self, code_memory, electrode_memory):
        return PackedSpatialEncoder(code_memory, electrode_memory)

    def temporal_encoder(self) -> PackedTemporalEncoder:
        return PackedTemporalEncoder(self.spatial, self.spec)

    def accumulator(self) -> PackedPrototypeAccumulator:
        return PackedPrototypeAccumulator(self.dim)

    def store(self, memory: AssociativeMemory, label: int,
              prototype: np.ndarray) -> None:
        memory.store_packed(label, prototype)


#: Fastest-first preference order used by the ``auto`` pseudo-engine;
#: candidates whose :meth:`_EngineBase.auto_eligible` says no on this
#: host (e.g. ``packed-native`` without numba) are skipped.
_AUTO_PREFERENCE = (
    PACKED_NATIVE_ENGINE,
    PACKED_ENGINE,
    UNPACKED_ENGINE,
)


def engine_names() -> tuple[str, ...]:
    """Registered engine names, registration-ordered (without ``auto``)."""
    return tuple(_REGISTRY)


def backend_choices() -> tuple[str, ...]:
    """Every valid ``LaelapsConfig.backend`` value: engines, aliases, ``auto``."""
    return engine_names() + tuple(_ALIASES) + (AUTO_ENGINE,)


def resolve_engine_name(name: str) -> str:
    """Resolve a backend string to a concrete registered engine name.

    ``auto`` resolves to the fastest available engine and a retired
    name to its successor; anything else must be a registered name.

    Raises:
        ValueError: For unknown names, listing the valid choices.
    """
    if name == AUTO_ENGINE:
        for candidate in _AUTO_PREFERENCE:
            if (
                candidate in _REGISTRY
                and _REGISTRY[candidate].auto_eligible()
            ):
                return candidate
    name = _ALIASES.get(name, name)
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown compute engine {name!r}; valid choices are "
            f"{backend_choices()}"
        )
    return name


def build_engine(
    name: str,
    code_memory: ItemMemory,
    electrode_memory: ItemMemory,
    spec: WindowSpec,
) -> _EngineBase:
    """Construct the named engine bound to one detector's memories.

    Args:
        name: A registered engine name, an alias or ``"auto"``.
        code_memory: IM1 — LBP-code atomic vectors.
        electrode_memory: IM2 — electrode-name atomic vectors.
        spec: Window geometry in samples.

    Raises:
        ValueError: For unknown names, listing the valid choices.
        EngineUnavailableError: For a registered engine whose optional
            accelerator is missing on this host.
    """
    return _REGISTRY[resolve_engine_name(name)](
        code_memory, electrode_memory, spec
    )


def engine_capabilities(dim: int = 10_000) -> list[dict]:
    """Capability/word-layout rows for every registered engine.

    The data behind the ``repro backends`` CLI listing: one dict per
    engine (name, native window form, trailing width at ``dim``,
    availability with reason, summary).  The ``auto``
    pseudo-engine is not listed — ask :func:`resolve_engine_name` what
    it currently resolves to.
    """
    return [cls.describe(dim) for cls in _REGISTRY.values()]


# Importing the native module registers the ``packed-native`` engine
# (kept in its own module so the optional numba import stays isolated
# there — lint rule RPR010).  It must come last: native.py imports the
# base classes defined above.
from repro.hdc import native as _native  # noqa: E402,F401
