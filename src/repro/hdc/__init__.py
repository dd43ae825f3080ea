"""Hyperdimensional-computing substrate.

Binary hypervectors are represented in two interchangeable forms:

* **unpacked** — ``uint8`` arrays of 0/1 with one byte per component; the
  working representation of the encoders because bundling needs exact
  per-component counters, and
* **packed** — ``uint64`` arrays with 64 components per word (mirroring the
  32-bit word packing of the paper's GPU implementation); the storage and
  similarity-search representation, using hardware popcounts via
  ``numpy.bitwise_count``.

``repro.hdc.ops`` implements the two HD arithmetic operations of the paper
(binding = XOR, bundling = componentwise majority) plus permutation and
Hamming distance; ``repro.hdc.item_memory`` draws the seeded atomic
vectors; ``repro.hdc.spatial``/``repro.hdc.temporal`` implement the Fig. 1
encoder; ``repro.hdc.associative`` is the two-prototype associative memory
(including the grouped cross-session sweep used by the serving layers).
The packed half of the substrate never unpacks: ``repro.hdc.backend``
owns the word layout, ``repro.hdc.bitsliced`` the carry-save counting,
and ``repro.hdc.spatial_packed``/``repro.hdc.temporal_packed`` mirror the
encoders bit-exactly in the word domain.

``repro.hdc.engine`` is the single dispatch point between the forms: a
named registry of engines (``unpacked``, ``packed``, the numba-backed
``packed-native`` and the ``auto`` selector) that every layer above —
detector, streaming, sessions, persistence, serving, CLI — routes
through instead of branching on a backend string or probing array
widths.  Engines differ only in their kernels; the associative memory
they all feed holds packed prototypes and answers packed queries.
"""

from repro.hdc.associative import (
    AssociativeMemory,
    PackedPrototypeAccumulator,
)
from repro.hdc.backend import (
    hamming_distance,
    hamming_distance_packed,
    pack_bits,
    packed_words,
    permute_packed,
    popcount_words,
    random_bits,
    unpack_bits,
)
from repro.hdc.bitsliced import (
    bitsliced_counts,
    planes_add,
    planes_from_counts,
    planes_greater_than,
    planes_to_counts,
)
from repro.hdc.engine import (
    AUTO_ENGINE,
    PackedEngine,
    UnpackedEngine,
    backend_choices,
    build_engine,
    engine_capabilities,
    engine_names,
    register_engine,
    resolve_engine_name,
)
from repro.hdc.item_memory import ItemMemory, bound_table
from repro.hdc.ops import (
    BundleAccumulator,
    bind,
    bundle,
    majority_from_counts,
    normalized_hamming,
    permute,
)
from repro.hdc.spatial import SpatialEncoder
from repro.hdc.spatial_packed import PackedSpatialEncoder
from repro.hdc.temporal import TemporalEncoder, encode_recording
from repro.hdc.temporal_packed import PackedTemporalEncoder

__all__ = [
    "pack_bits",
    "unpack_bits",
    "packed_words",
    "permute_packed",
    "popcount_words",
    "random_bits",
    "hamming_distance",
    "hamming_distance_packed",
    "bitsliced_counts",
    "planes_add",
    "planes_from_counts",
    "planes_greater_than",
    "planes_to_counts",
    "bind",
    "bundle",
    "permute",
    "majority_from_counts",
    "normalized_hamming",
    "BundleAccumulator",
    "ItemMemory",
    "bound_table",
    "SpatialEncoder",
    "PackedSpatialEncoder",
    "TemporalEncoder",
    "encode_recording",
    "PackedTemporalEncoder",
    "AssociativeMemory",
    "PackedPrototypeAccumulator",
    "AUTO_ENGINE",
    "UnpackedEngine",
    "PackedEngine",
    "backend_choices",
    "build_engine",
    "engine_capabilities",
    "engine_names",
    "register_engine",
    "resolve_engine_name",
]
