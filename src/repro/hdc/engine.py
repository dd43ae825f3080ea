"""Pluggable compute engines: one dispatch point for every backend.

No layer above :mod:`repro.hdc` branches on a backend: an engine (a
subclass of :class:`_EngineBase`) is its four kernels, and everything
else is shared:

* :attr:`~_EngineBase.spatial_class` — the spatial encoder;
* :attr:`~_EngineBase.tile_class` — the
  :class:`~repro.hdc.temporal.BlockTile` that runs the temporal block
  step and alone knows the block state's form (integer counts or digit
  planes), checkpoint hooks included;
* :meth:`~_EngineBase.bundle` — one class's H vectors to its packed
  prototype, in one call;
* :attr:`~_EngineBase.grouped_kernel` — the XOR + popcount sweep of
  every H batch, one detector's or a tick's many sessions'.

Above the spatial encoder an H vector has one form on every engine:
packed ``(n, packed_words(d))`` uint64 words, the word layout of the
paper's GPU kernels (Sec. V-B).  The one streaming encoder,
:class:`~repro.hdc.temporal.WindowBundler`, emits it over any tile
class, the associative memory stores and answers it, and
:meth:`_EngineBase.windows` is the one check on H vectors that come
from outside.  The engine name tags checkpoint payloads.

Registered engines (:func:`engine_names`):

* ``unpacked`` — the integer-counter reference: it counts spatial
  records and bundles prototypes in integers and packs each result, so
  it checks the packed kernels independently (read its H vectors with
  :func:`~repro.hdc.backend.unpack_bits`);
* ``packed`` — bit-sliced carry-save encoding (the paper's GPU
  dataflow, Sec. V-B), batched XOR + popcount queries;
* ``packed-native`` — the packed pipeline with both hot kernels
  (XOR+popcount sweep, bit-sliced count) JIT-compiled to
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

from repro.hdc import ops
from repro.hdc.associative import (
    AssociativeMemory,
    bundle_packed,
    grouped_classify_packed,
)
from repro.hdc.backend import pack_bits, packed_words, padding_set, unpack_bits
from repro.hdc.item_memory import ItemMemory
from repro.hdc.spatial import SpatialEncoder
from repro.hdc.spatial_packed import PackedSpatialEncoder
from repro.hdc.temporal import BlockTile, CountBlockTile, WindowBundler
from repro.hdc.temporal_packed import PackedBlockTile
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
    window geometry.  Subclasses supply the four kernels:

    * :attr:`spatial_class`, built once as :attr:`spatial`;
    * :attr:`tile_class`, the block step of every fresh streaming
      encoder (:meth:`temporal_encoder`, whose
      ``state_dict``/``restore_state`` are the streaming-state
      export/import hooks used by checkpoints);
    * :meth:`bundle`, which turns a class's H vectors into its packed
      prototype in one call;
    * the grouped sweep (:attr:`grouped_kernel`);

    plus the checkpoint payload tag (:attr:`name`, persisted so a saved
    model reopens on the engine that wrote it when that engine can run
    on the loading host).

    Every engine's H vectors are packed ``(n, words)`` uint64, so
    windows encoded on any engine feed any other.
    """

    #: Registry key; subclasses override.
    name = "base"
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
        self.spatial = self.spatial_class(code_memory, electrode_memory)

    # -- kernel hooks (subclasses override) ----------------------------

    spatial_class: type
    tile_class: type[BlockTile]

    def temporal_encoder(self) -> WindowBundler:
        """A fresh streaming temporal encoder over :attr:`spatial`."""
        return WindowBundler(self.spatial, self.spec, self.tile_class)

    def bundle(self, h: np.ndarray) -> np.ndarray:
        """The packed ``(words,)`` majority prototype of ``(k, words)`` H."""
        raise NotImplementedError

    # -- the one path into the associative memory ----------------------

    def windows(self, h: np.ndarray) -> np.ndarray:
        """Validate H vectors from outside as a ``(n, words)`` uint64 batch.

        Raises:
            ValueError: For any other dtype or width (unpacked uint8
                bits included), or when a padding bit beyond ``dim``
                is set.
        """
        arr = np.atleast_2d(np.asarray(h))
        if arr.ndim != 2 or arr.shape[1] != self.words or arr.dtype != np.uint64:
            raise ValueError(
                f"H vectors must be packed (n, {self.words}) uint64 words "
                f"(pack_bits), got {arr.dtype} {arr.shape}"
            )
        if padding_set(arr, self.dim):
            raise ValueError("padding bits beyond dim must be zero")
        return arr

    def train(self, memory: AssociativeMemory, label: int,
              h_vectors: np.ndarray) -> None:
        """Bundle a checked H batch (:meth:`windows`) into ``label``'s
        prototype."""
        memory.store_packed(label, self.bundle(h_vectors))

    #: The sweep kernel the one classify stage
    #: (:func:`repro.core.detector.classify_grouped`) runs when every
    #: owner of a batch shares this engine; engines with a native
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
    def describe(cls) -> dict:
        """Capability row for the ``repro backends`` CLI."""
        ok, why = cls.available()
        return {
            "name": cls.name,
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
    """Reference engine: integer counters throughout, packed at the end."""

    name = UNPACKED_ENGINE
    summary = "integer-counter reference; read H with unpack_bits"

    spatial_class = SpatialEncoder
    tile_class = CountBlockTile

    def bundle(self, h: np.ndarray) -> np.ndarray:
        return pack_bits(ops.bundle(unpack_bits(h, self.dim)))


@register_engine
class PackedEngine(_EngineBase):
    """Word-domain engine: bit-sliced kernels end to end (Sec. V-B)."""

    name = PACKED_ENGINE
    summary = "bit-parallel carry-save encoding, batched XOR+popcount sweep"

    spatial_class = PackedSpatialEncoder
    tile_class = PackedBlockTile

    def bundle(self, h: np.ndarray) -> np.ndarray:
        return bundle_packed(h)


#: Fastest-first preference order used by the ``auto`` pseudo-engine;
#: candidates whose :meth:`_EngineBase.auto_eligible` says no on this
#: host (``packed-native`` without numba) are skipped.
_AUTO_PREFERENCE = (PACKED_NATIVE_ENGINE, PACKED_ENGINE)


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


def engine_available(name: str) -> bool:
    """Whether the engine ``name`` resolves to can be constructed here.

    Raises:
        ValueError: For unknown names, listing the valid choices.
    """
    return _REGISTRY[resolve_engine_name(name)].available()[0]


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


def engine_capabilities() -> list[dict]:
    """Capability rows for every registered engine.

    The data behind the ``repro backends`` CLI listing: one dict per
    engine (name, availability with reason, summary).  The ``auto``
    pseudo-engine is not listed — ask :func:`resolve_engine_name` what
    it currently resolves to.
    """
    return [cls.describe() for cls in _REGISTRY.values()]


# Importing the native module registers the ``packed-native`` engine
# (kept in its own module so the optional numba import stays isolated
# there — lint rule RPR010).  It must come last: native.py imports the
# base classes defined above.
from repro.hdc import native as _native  # noqa: E402,F401
