"""The ``packed-native`` engine: multithreaded, GIL-releasing kernels.

The two hot loops of the packed pipeline — the XOR+popcount sweep of
:func:`repro.hdc.associative.grouped_classify_packed` (which serves
every H batch, one detector's as a group with a single owner), and the
bit-sliced count of :mod:`repro.hdc.bitsliced` — are pure NumPy
everywhere else: single-threaded per process, so a shard worker
cannot scale past one core.  This module re-states both kernels in a
numba-compilable subset of Python and JIT-compiles them with
``@njit(parallel=True, nogil=True, cache=True)``: the sweep `prange`s
over query rows (per-thread argmin, same earliest-stored tie-break as
``np.argmin``), the count `prange`s over word columns (each
column ripples its own carry chain), and both release the GIL so
N shard workers x M threads is a real sizing knob.

numba is an *optional* accelerator.  This module is the only place in
the tree allowed to import it (enforced by ``repro lint`` rule
RPR010), and the import sits behind an availability guard: when numba
is absent the engine still registers — ``repro backends`` lists it
with ``available: no`` and the import error, ``auto`` skips it — and
every kernel falls back to a pure-Python twin of itself (``njit``
becomes the identity decorator, ``prange`` becomes ``range``).  The
fallback is far too slow to serve with, but it lets the bit-exactness
property suite exercise the exact kernel code on numba-free hosts;
set ``REPRO_NATIVE_PURE_PYTHON=1`` to make the engine constructible
there (testing/debug only — ``auto`` never resolves to it without
real numba).

Thread count is controlled by the ``REPRO_NATIVE_THREADS`` env knob
(0 = numba's default), read at engine construction and clamped to the
launch-time maximum; results are thread-count-invariant by
construction (each prange iteration owns its output rows/columns).
"""

from __future__ import annotations

import os

import numpy as np

from repro.hdc.associative import _validate_grouped

# ``planes_add`` is unused here; the name stays importable from this
# module because perfbench's tracer wraps it here.
from repro.hdc.bitsliced import plane_depth, planes_add, planes_greater_than  # noqa: F401
from repro.hdc.engine import (
    PACKED_NATIVE_ENGINE,
    EngineUnavailableError,
    PackedEngine,
    register_engine,
)
from repro.hdc.item_memory import ItemMemory
from repro.hdc.spatial_packed import PackedSpatialEncoder
from repro.hdc.temporal_packed import PackedBlockTile
from repro.signal.windows import WindowSpec

#: Env knob: worker thread count for the native kernels (0 = default).
NATIVE_THREADS_ENV = "REPRO_NATIVE_THREADS"

#: Env knob: allow constructing the engine on its pure-Python kernel
#: twins when numba is absent.  Testing/debug only — orders of
#: magnitude slower than ``packed`` — so ``auto`` ignores it.
NATIVE_PURE_PYTHON_ENV = "REPRO_NATIVE_PURE_PYTHON"

#: Word budget per native spatial tile (about 2 MiB of gathered masks,
#: one core's L2 cache): the kernel re-reads each tile's masks per word
#: column from cache.
_TILE_WORDS = 250_000

_NUMBA_IMPORT_ERROR: str | None
try:  # the availability guard required by lint rule RPR010
    from numba import config as _numba_config
    from numba import get_num_threads as _get_num_threads
    from numba import njit, prange
    from numba import set_num_threads as _set_num_threads
except ImportError as exc:  # pragma: no cover - exercised via monkeypatch
    _NUMBA_IMPORT_ERROR = f"{exc}"
    _numba_config = None
    _get_num_threads = None
    _set_num_threads = None
    prange = range

    def njit(*args, **kwargs):
        """Identity decorator: keep the kernels runnable in pure Python."""
        if args and callable(args[0]) and not kwargs:
            return args[0]

        def wrap(fn):
            return fn

        return wrap
else:
    _NUMBA_IMPORT_ERROR = None


def numba_available() -> bool:
    """Whether the real numba JIT backs the kernels in this process."""
    return _NUMBA_IMPORT_ERROR is None


def numba_unavailable_reason() -> str | None:
    """The numba import error message, or ``None`` when it imported."""
    return _NUMBA_IMPORT_ERROR


def pure_python_forced() -> bool:
    """Whether ``REPRO_NATIVE_PURE_PYTHON`` requests the fallback twins."""
    return os.environ.get(NATIVE_PURE_PYTHON_ENV, "") not in ("", "0")


def native_available() -> tuple[bool, str | None]:
    """Constructibility of the engine: ``(available, reason_if_not)``."""
    if numba_available() or pure_python_forced():
        return True, None
    return False, (
        f"numba import failed ({_NUMBA_IMPORT_ERROR}); install numba or "
        f"set {NATIVE_PURE_PYTHON_ENV}=1 for the slow pure-Python twins"
    )


# -- thread control -----------------------------------------------------


def requested_native_threads() -> int:
    """The ``REPRO_NATIVE_THREADS`` value (0 when unset = default).

    Raises:
        ValueError: When the variable is set but not a non-negative int.
    """
    raw = os.environ.get(NATIVE_THREADS_ENV, "").strip()
    if not raw:
        return 0
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(
            f"{NATIVE_THREADS_ENV} must be a non-negative integer, "
            f"got {raw!r}"
        ) from None
    if n < 0:
        raise ValueError(
            f"{NATIVE_THREADS_ENV} must be a non-negative integer, got {n}"
        )
    return n


def apply_native_threads(n: int | None = None) -> int:
    """Set the kernel thread count, clamped to the launch-time maximum.

    Args:
        n: Requested threads; ``None`` reads :func:`requested_native_threads`
            and ``0`` keeps numba's current default.

    Returns:
        The effective thread count (1 in pure-Python mode).
    """
    if n is None:
        n = requested_native_threads()
    if not numba_available():
        return 1
    if n == 0:
        return int(_get_num_threads())
    # set_num_threads raises above the pool size fixed at numba's import;
    # clamping keeps "ask for 4 on a 1-core host" a no-op, not a crash.
    clamped = max(1, min(n, int(_numba_config.NUMBA_NUM_THREADS)))
    _set_num_threads(clamped)
    return clamped


def configure_native_threads(n: int) -> None:
    """Pin the thread knob process-wide (and for forked children).

    Writes ``REPRO_NATIVE_THREADS`` into the environment *before* worker
    processes are spawned — fork and spawn children both inherit it, so
    one call in the parent sizes every shard worker's kernel pool.
    """
    if n < 0:
        raise ValueError(f"native thread count must be >= 0, got {n}")
    os.environ[NATIVE_THREADS_ENV] = str(n)
    apply_native_threads(n)


# -- kernels ------------------------------------------------------------
#
# Written once in the numba subset and decorated below: under numba
# these compile to parallel, nogil machine code; without it they run
# as-is in pure Python (slow, but the same code path bit for bit).

_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_M127 = np.uint64(0x7F)
_S1 = np.uint64(1)
_S2 = np.uint64(2)
_S4 = np.uint64(4)
_S8 = np.uint64(8)
_S16 = np.uint64(16)
_S32 = np.uint64(32)
_ZERO64 = np.uint64(0)


def _popcount64(x):
    """SWAR popcount of one uint64 word (shift-fold, no multiply)."""
    x = x - ((x >> _S1) & _M1)
    x = (x & _M2) + ((x >> _S2) & _M2)
    x = (x + (x >> _S4)) & _M4
    x = x + (x >> _S8)
    x = x + (x >> _S16)
    x = x + (x >> _S32)
    return np.int64(x & _M127)


def _grouped_sweep_kernel(queries, stack, owners, dists, best):
    """Blocked XOR+popcount sweep: each query row against its owner's block.

    prange over query rows; each row computes its full distance vector
    and its argmin locally (strict ``<`` keeps the earliest-stored
    winner, matching ``np.argmin``), so rows never share mutable state
    and the result is thread-count-invariant.
    """
    n = queries.shape[0]
    c = stack.shape[1]
    w = queries.shape[1]
    for i in prange(n):
        o = owners[i]
        acc = np.int64(0)
        for t in range(w):
            acc += _popcount64(queries[i, t] ^ stack[o, 0, t])
        dists[i, 0] = acc
        best_d = acc
        best_j = 0
        for j in range(1, c):
            acc = np.int64(0)
            for t in range(w):
                acc += _popcount64(queries[i, t] ^ stack[o, j, t])
            dists[i, j] = acc
            if acc < best_d:
                best_d = acc
                best_j = j
        best[i] = best_j


def _count_kernel(masks, planes):
    """Bit-sliced count of a mask stack, prange over word columns.

    ``masks`` is ``(k, cols)``; ``planes`` is ``(depth, cols)`` and
    must arrive zeroed.  Each column ripples its own carry chain
    (digit j absorbs the carry with one XOR, regenerates it with one
    AND), so columns are independent and the planes are bit-exact
    against :func:`repro.hdc.bitsliced.bitsliced_counts`.
    """
    k = masks.shape[0]
    cols = masks.shape[1]
    depth = planes.shape[0]
    for col in prange(cols):
        for t in range(k):
            carry = masks[t, col]
            j = 0
            while carry != _ZERO64 and j < depth:
                regenerated = planes[j, col] & carry
                planes[j, col] = planes[j, col] ^ carry
                carry = regenerated
                j += 1


if numba_available():
    _popcount64 = njit(cache=True, inline="always")(_popcount64)
    _jit = njit(parallel=True, nogil=True, cache=True)
    _grouped_sweep_kernel = _jit(_grouped_sweep_kernel)
    _count_kernel = _jit(_count_kernel)


# -- kernel wrappers (numpy in, numpy out) ------------------------------


def grouped_classify_packed_native(
    queries: np.ndarray,
    prototype_stack: np.ndarray,
    owners: np.ndarray,
    label_table: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Native twin of :func:`repro.hdc.associative.grouped_classify_packed`.

    Same validation, same earliest-stored tie-break, same return shapes;
    the sweep itself pranges over query rows instead of materialising
    the broadcast XOR.
    """
    query_arr, stack, owner_arr, table = _validate_grouped(
        queries, prototype_stack, owners, label_table
    )
    if stack.shape[1] == 0:
        raise ValueError("prototype stack has zero classes")
    q = np.ascontiguousarray(query_arr)
    s = np.ascontiguousarray(stack)
    owners64 = np.ascontiguousarray(owner_arr.astype(np.int64, copy=False))
    dists = np.empty((q.shape[0], s.shape[1]), dtype=np.int64)
    best = np.empty(q.shape[0], dtype=np.int64)
    _grouped_sweep_kernel(q, s, owners64, dists, best)
    return table[owner_arr, best], dists


def native_bitsliced_counts(masks: np.ndarray) -> np.ndarray:
    """Native twin of :func:`repro.hdc.bitsliced.bitsliced_counts`."""
    arr = np.ascontiguousarray(np.asarray(masks, dtype=np.uint64))
    if arr.ndim < 2:
        raise ValueError(f"expected (k, ..., words) masks, got {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("cannot count an empty stack of masks")
    depth = plane_depth(arr.shape[0])
    flat = arr.reshape(arr.shape[0], -1)
    planes = np.zeros((depth, flat.shape[1]), dtype=np.uint64)
    _count_kernel(flat, planes)
    return planes.reshape((depth,) + arr.shape[1:])


def native_bundle_exceeds(masks: np.ndarray, threshold: int) -> np.ndarray:
    """Per-position majority, ``count > threshold``: the native count
    kernel, then the one LSB-first comparator."""
    return planes_greater_than(native_bitsliced_counts(masks), threshold)


# -- encoders and the engine --------------------------------------------


class NativeSpatialEncoder(PackedSpatialEncoder):
    """Packed spatial encoder whose majority runs in the native kernel.

    The count kernel reduces a whole electrode stack per word column,
    so this encoder gathers each sample tile electrode-major,
    ``(n_electrodes, tile, words)`` and contiguous, sized by
    ``_TILE_WORDS`` to stay in L2 cache, instead of streaming triples.
    """

    def encode_packed(
        self, codes: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        arr, out = self._checked(codes, out)
        flat, first_row = self._rows()
        tile = max(1, _TILE_WORDS // (self.n_electrodes * self.words))
        for start in range(0, arr.shape[0], tile):
            stop = min(start + tile, arr.shape[0])
            rows = np.add(first_row[:, None], arr[start:stop].T,
                          dtype=np.intp)
            masks = np.take(flat, rows, axis=0)
            # (n_electrodes, n * words) is a view of the contiguous
            # tile: the kernel reduces axis 0 per word column.
            out[start:stop] = native_bundle_exceeds(
                masks.reshape(self.n_electrodes, -1), self.n_electrodes // 2
            ).reshape(masks.shape[1:])
        return out


class NativeBlockTile(PackedBlockTile):
    """Grouped block step whose slab count is the native kernel (the
    block counter, window adder and comparator stay numpy)."""

    def _add(self, counter, slab: np.ndarray) -> None:
        for digit, plane in enumerate(native_bitsliced_counts(slab)):
            counter.push(digit, plane)


@register_engine
class PackedNativeEngine(PackedEngine):
    """The ``packed`` engine with both hot kernels JIT-parallelised.

    Replaces the bit-sliced counts with the nogil prange kernel above and
    routes every sweep — one memory's or a cross-session group's —
    through the native grouped kernel.
    """

    name = PACKED_NATIVE_ENGINE
    summary = (
        "packed pipeline with numba-parallel nogil XOR+popcount "
        "sweep and carry-save bundling kernels"
    )
    grouped_kernel = staticmethod(grouped_classify_packed_native)

    def __init__(
        self,
        code_memory: ItemMemory,
        electrode_memory: ItemMemory,
        spec: WindowSpec,
    ) -> None:
        ok, why = native_available()
        if not ok:
            raise EngineUnavailableError(
                f"compute engine {self.name!r} is unavailable: {why}"
            )
        super().__init__(code_memory, electrode_memory, spec)
        #: Effective kernel thread count (REPRO_NATIVE_THREADS, clamped).
        self.threads = apply_native_threads()

    @classmethod
    def available(cls) -> tuple[bool, str | None]:
        return native_available()

    @classmethod
    def auto_eligible(cls) -> bool:
        # Without real numba the pure-Python twins are orders of
        # magnitude slower than packed: never auto-select them.
        return numba_available()

    spatial_class = NativeSpatialEncoder
    tile_class = NativeBlockTile
