"""Temporal histogram encoder: bundle spatial records over a window.

The d-bit vector ``H`` estimates the LBP-code histogram of a 1 s analysis
window by bundling the 512 spatial records produced inside it
(Sec. III-B):  ``H = [S_1 + S_2 + ... + S_512]``, recomputed every 0.5 s.

The implementation mirrors the GPU dataflow of Fig. 2: the per-component
sums of the ``S`` vectors are accumulated per 0.5 s *block* and one window
is the sum of adjacent blocks, so a recording of any length streams
through in O(d) memory and every ``S`` is encoded exactly once even though
windows overlap.  :class:`WindowBundler` is the one streaming encoder of
every engine; the engine's :class:`BlockTile` class is the only place
that knows its block state (integer counts here, digit planes in
:mod:`repro.hdc.temporal_packed`) and runs the block step for many
blocks at once: every stream's of a serving tick, in bounded tiles.
Whatever the block state, H vectors leave packed,
``(n_windows, packed_words(d))`` uint64.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.hdc.backend import pack_bits, packed_words
from repro.hdc.ops import majority_from_counts
from repro.signal.windows import WindowSpec


#: Word budget of one grouped block tile: 256 KiB of spatial records
#: (8 blocks of 128 samples x 32 words at d = 2000).  Bounded, so a
#: tick's peak memory does not grow with the number of streams.
_TILE_WORDS = 32_768


class BlockTile:
    """Many streams' 0.5 s blocks, reduced in one pass per tile.

    Row ``r`` of ``records`` ``(step, rows, width)`` holds one block's
    spatial records; :meth:`flush` reduces every staged row at once,
    sums each completed window from its stream's block state and writes
    the H vector into the row its stream reserved.  Subclasses supply
    the record ``dtype`` and :meth:`record_width`, the kernels
    ``_encode(encoder, block, dest)``, ``_reduce(records)`` (per-row
    block state) and ``_windows(lags)`` (packed H vectors of windows
    whose blocks, oldest first, are ``lags``), and the checkpoint
    hooks ``export_block(state, dim)`` (one block's state as its
    canonical ``(d,)`` int64 counts, the same on every engine, so
    checkpoints cross engines) and ``import_block(counts, step)``
    (the inverse, for counts in ``[0, step]``).
    """

    dtype: type = np.uint64

    @staticmethod
    def record_width(dim: int) -> int:
        """Trailing width of one spatial record at dimension ``dim``."""
        return packed_words(dim)

    def __init__(self, encoder: "WindowBundler", max_rows: int) -> None:
        self.spec = encoder.spec
        step, width = self.spec.step_samples, self.record_width(encoder.dim)
        row_bytes = step * width * np.dtype(self.dtype).itemsize
        rows = max(1, min(max_rows, _TILE_WORDS * 8 // row_bytes))
        self.records = np.empty((step, rows, width), dtype=self.dtype)
        self._staged: list[tuple[WindowBundler, np.ndarray, int]] = []

    def stage(self, encoder, block: np.ndarray, out: np.ndarray,
              index: int) -> None:
        """Encode one block into the next free row; ``out[index]`` gets
        the H vector of the window it completes (none if ``index < 0``)."""
        if len(self._staged) == self.records.shape[1]:
            self.flush()
        self._encode(encoder, block, self.records[:, len(self._staged)])
        self._staged.append((encoder, out, index))

    def flush(self) -> None:
        if not self._staged:
            return
        states = self._reduce(self.records[:, : len(self._staged)])
        k = self.spec.window_samples // self.spec.step_samples
        history: dict[int, list[np.ndarray]] = {}
        lags, dests = [], []
        for row, (encoder, out, index) in enumerate(self._staged):
            blocks = history.setdefault(id(encoder), list(encoder._blocks))
            blocks.append(states[row])
            if index >= 0:
                lags.append(blocks[-k:])
                dests.append((out, index))
        if dests:
            windows = self._windows([list(lag) for lag in zip(*lags)])
            for (out, index), window in zip(dests, windows):
                out[index] = window
        for row, (encoder, _, _) in enumerate(self._staged):
            encoder._blocks.append(states[row].copy())
        self._staged.clear()


class BlockTiles:
    """One tick's grouped block step, a :class:`BlockTile` per tile
    class: pass it to every stream's ``feed`` (once each), then flush."""

    def __init__(self, max_rows: int = _TILE_WORDS) -> None:
        self.max_rows = max_rows
        self._tiles: dict[tuple, BlockTile] = {}

    def stage(self, encoder, block: np.ndarray, out: np.ndarray,
              index: int) -> None:
        key = (encoder.tile_class, encoder.spec, encoder.dim)
        if key not in self._tiles:
            self._tiles[key] = encoder.tile_class(encoder, self.max_rows)
        self._tiles[key].stage(encoder, block, out, index)

    def flush(self) -> None:
        """Reduce every staged block, filling the arrays ``feed`` returned."""
        for tile in self._tiles.values():
            tile.flush()


class WindowBundler:
    """Streaming temporal encoder of every engine.

    Buffers per-sample codes across ``feed`` calls and cuts them into
    exact 0.5 s blocks for ``tile_class``, grouped with every other
    stream fed into the same :class:`BlockTiles`.  The live block
    states (whatever ``tile_class`` makes them) are kept here; keeping
    the chunk-boundary bookkeeping in one place is what makes the
    engines provably equivalent under any chunking and grouping.

    Args:
        spatial: The spatial encoder producing per-sample records; must
            expose ``dim``, ``n_electrodes`` and ``n_codes``.
        spec: Window geometry in samples; ``window_samples`` must be an
            integer multiple of ``step_samples`` (the paper uses 512/256)
            so windows tile exactly into blocks.
        tile_class: The engine's :class:`BlockTile` class, matching the
            records ``spatial`` produces.
    """

    def __init__(self, spatial, spec: WindowSpec,
                 tile_class: type[BlockTile]) -> None:
        if spec.window_samples % spec.step_samples != 0:
            raise ValueError(
                "window must be an integer multiple of the step, got "
                f"{spec.window_samples}/{spec.step_samples}"
            )
        self.spatial = spatial
        self.spec = spec
        self.tile_class = tile_class
        self.blocks_per_window = spec.window_samples // spec.step_samples
        self.dim = spatial.dim
        #: Packed word count of one H vector.
        self.words = packed_words(self.dim)
        self.reset()

    def reset(self) -> None:
        """Drop buffered samples and block state (start of a new record)."""
        self._pending = np.zeros((0, self.spatial.n_electrodes), dtype=np.int64)
        self._blocks: deque[np.ndarray] = deque(maxlen=self.blocks_per_window)

    def feed(self, codes: np.ndarray, tiles: BlockTiles | None = None) -> np.ndarray:
        """Push a chunk of per-sample codes; return completed H vectors.

        Args:
            codes: Integer array ``(n_samples, n_electrodes)`` — any chunk
                size; samples are buffered across calls.
            tiles: The tick's shared block step; the returned array is
                then filled by ``tiles.flush()``.

        Returns:
            uint64 array ``(n_new_windows, words)`` of the packed H
            vectors completed by this chunk (possibly empty).
        """
        arr = np.asarray(codes)
        if arr.ndim != 2 or arr.shape[1] != self.spatial.n_electrodes:
            raise ValueError(
                f"expected (n_samples, {self.spatial.n_electrodes}), "
                f"got {arr.shape}"
            )
        if self._pending.size:
            arr = np.concatenate([self._pending, arr], axis=0)
        step = self.spec.step_samples
        n_blocks = arr.shape[0] // step
        self._pending = arr[n_blocks * step :].copy()
        skip = max(0, self.blocks_per_window - 1 - len(self._blocks))
        out = np.empty((max(0, n_blocks - skip), self.words), dtype=np.uint64)
        group = BlockTiles(n_blocks) if tiles is None else tiles
        for j in range(n_blocks):
            group.stage(self, arr[j * step : (j + 1) * step], out, j - skip)
        if tiles is None:
            group.flush()
        return out

    def encode_all(self, codes: np.ndarray) -> np.ndarray:
        """Encode a complete code stream into all its H vectors.

        Equivalent to ``reset()`` followed by one big ``feed``; trailing
        samples that do not fill a block are discarded.
        """
        self.reset()
        return self.feed(codes)

    # ------------------------------------------------------------------
    # Checkpointing (live-stream session state)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Pending codes + block state as plain, engine-independent numpy
        data: :meth:`restore_state` on *any* engine resumes bit-exactly."""
        return {
            "pending": self._pending.copy(),
            "blocks": [self.tile_class.export_block(block, self.dim)
                       for block in self._blocks],
        }

    def restore_state(self, state: dict) -> "WindowBundler":
        """Resume from a :meth:`state_dict` snapshot (or the legacy one
        of pre-registry packed encoders, whose digit planes are decoded).

        A checkpoint is outside input, so everything is checked before
        any state changes.

        Raises:
            ValueError: For pending codes that are not
                ``(n, n_electrodes)`` with ``n < step_samples`` and
                every code in ``[0, n_codes)``, for block counts that
                are not ``(d,)`` in ``[0, step_samples]``, or for more
                blocks than a window holds.
        """
        from repro.hdc.bitsliced import planes_to_counts

        step = self.spec.step_samples
        n_codes = self.spatial.n_codes
        pending = np.asarray(state["pending"], dtype=np.int64)
        if pending.ndim != 2 or pending.shape[1] != self.spatial.n_electrodes:
            raise ValueError(
                f"pending codes must be (n, {self.spatial.n_electrodes}), "
                f"got {pending.shape}"
            )
        if pending.shape[0] >= step:
            raise ValueError(
                f"{pending.shape[0]} pending rows fill a {step}-sample block"
            )
        if pending.size and (pending.min() < 0 or pending.max() >= n_codes):
            raise ValueError(f"pending code out of range [0, {n_codes})")
        blocks = [np.asarray(block) for block in state["blocks"]]
        blocks = [planes_to_counts(b, self.dim)
                  if b.ndim == 2 and b.dtype == np.uint64 else b for b in blocks]
        for block in blocks:
            if block.shape != (self.dim,):
                raise ValueError(
                    f"block state must be ({self.dim},) counts or legacy "
                    f"digit planes, got shape {block.shape}"
                )
            if block.size and (block.min() < 0 or block.max() > step):
                raise ValueError(f"block count out of range [0, {step}]")
        if len(blocks) > self.blocks_per_window:
            raise ValueError(
                f"{len(blocks)} blocks exceed the window's "
                f"{self.blocks_per_window}"
            )
        self.reset()
        self._pending = pending.copy()
        self._blocks.extend(
            self.tile_class.import_block(block.astype(np.int64), step)
            for block in blocks
        )
        return self


class CountBlockTile(BlockTile):
    """Integer-counter block step over unpacked uint8 records; only the
    window majority is packed."""

    dtype = np.uint8

    @staticmethod
    def record_width(dim: int) -> int:
        return dim

    def _encode(self, encoder, block: np.ndarray, dest: np.ndarray) -> None:
        dest[...] = encoder.spatial.encode(block)

    @staticmethod
    def export_block(state: np.ndarray, dim: int) -> np.ndarray:
        return state.astype(np.int64)

    @staticmethod
    def import_block(counts: np.ndarray, step: int) -> np.ndarray:
        return counts.astype(np.int32)

    def _reduce(self, records: np.ndarray) -> np.ndarray:
        return records.sum(axis=0, dtype=np.int32)

    def _windows(self, lags: list[list[np.ndarray]]) -> np.ndarray:
        window_counts = np.sum([np.stack(lag) for lag in lags], axis=0)
        return pack_bits(
            majority_from_counts(window_counts, self.spec.window_samples)
        )
