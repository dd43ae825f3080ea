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
:mod:`repro.hdc.temporal_packed`).  Every tile class runs the one
flush: staged block codes are encoded in sample slabs that stream
straight into the block counter, for many blocks at once (every
stream's of a serving tick, or all of an offline feed's), in bounded
tiles.  Whatever the block state, H vectors leave packed,
``(n_windows, packed_words(d))`` uint64.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.hdc.backend import pack_bits, packed_words
from repro.hdc.ops import majority_from_counts
from repro.signal.windows import WindowSpec


#: Word budget of one slab: 256 KiB of records (8 blocks x 32 words
#: at d = 2000); a tile stages as many codes of its first stream's
#: width.  Bounded, so peak memory does not grow with the streams.
_TILE_WORDS = 32_768


class BlockTile:
    """Many streams' 0.5 s blocks, counted in sample slabs.

    :meth:`stage` keeps runs of one stream's consecutive blocks as codes.
    :meth:`flush` walks them in slabs, samples ``[s0, s0 + k)`` of every
    row in ``(k, rows, width)`` records inside the tile budget: each
    run's part is one spatial call, and the slab's sample planes go
    straight into the block counter.  It then sums each completed window
    from its stream's block states into the row its stream reserved.

    Subclasses supply the record ``dtype`` and :meth:`record_width`; the
    kernels ``_encode(encoder, codes, out)`` (records, into ``out`` if
    it can), ``_counter(rows)``, ``_add(counter, slab)``,
    ``_states(counter)`` (row ``r``'s block state is ``[r]``) and
    ``_windows(lags)`` (packed H vectors of windows whose blocks, oldest
    first, are ``lags``); and the checkpoint hooks
    ``export_block(state, dim)`` (canonical ``(d,)`` int64 counts, the
    same on every engine, so checkpoints cross engines) and
    ``import_block(counts, step)`` (the inverse).
    """

    dtype: type = np.uint64

    @staticmethod
    def record_width(dim: int) -> int:
        """Trailing width of one spatial record at dimension ``dim``."""
        return packed_words(dim)

    def __init__(self, encoder: "WindowBundler", max_rows: int | None) -> None:
        self.spec = encoder.spec
        self.width = self.record_width(encoder.dim)
        self._row_bytes = self.width * np.dtype(self.dtype).itemsize
        budget, step = _TILE_WORDS * 8, self.spec.step_samples
        if max_rows is None:  # every slab holds whole blocks
            max_rows = budget // (step * self._row_bytes)
        self.rows = max(1, min(max_rows, budget // self._row_bytes, budget
                               // (step * encoder.spatial.n_electrodes)))
        self._runs: list[tuple[WindowBundler, np.ndarray, np.ndarray, int]] = []
        self._staged = 0

    def _states(self, counter):
        return counter

    def stage(self, encoder, blocks: np.ndarray, out: np.ndarray,
              first: int) -> None:
        """Keep one stream's consecutive ``(n, step, n_electrodes)``
        block codes; ``out[first + j]`` gets the H vector of the window
        block ``j`` completes (none where ``first + j < 0``)."""
        while len(blocks):
            if self._staged == self.rows:
                self.flush()
            take = min(len(blocks), self.rows - self._staged)
            self._runs.append((encoder, blocks[:take], out, first))
            self._staged += take
            blocks, first = blocks[take:], first + take

    def flush(self) -> None:
        if not self._runs:
            return
        step, rows, width = self.spec.step_samples, self._staged, self.width
        k = max(1, min(step, _TILE_WORDS * 8 // (rows * self._row_bytes)))
        counter = self._counter(rows)
        buffer = np.empty(k * rows * width, dtype=self.dtype)
        for s0 in range(0, step, k):
            n = min(k, step - s0)
            slab = buffer[: n * rows * width].reshape(n, rows, width)
            row = 0
            for encoder, blocks, _, _ in self._runs:
                m, part = len(blocks), blocks[:, s0 : s0 + n]
                # Several rows' codes are copied sample-major, compactly.
                codes = part[0] if m == 1 else part.transpose(1, 0, 2).astype(
                    np.min_scalar_type(encoder.spatial.n_codes - 1), order="C")
                dest = slab[:, row : row + m]
                # The reshape is a view for one row or all of them.
                out = dest.reshape(n * m, width) if m in (1, rows) else None
                records = self._encode(encoder, codes.reshape(n * m, -1), out)
                if records is not out:
                    dest[...] = records.reshape(dest.shape)
                row += m
            self._add(counter, slab)
        states = self._states(counter)
        k = self.spec.window_samples // step
        history: dict[int, list[np.ndarray]] = {}
        lags, dests = [], []
        row_states = iter(states)
        for encoder, blocks, out, first in self._runs:
            past = history.setdefault(id(encoder), list(encoder._blocks))
            for index, state in zip(range(first, first + len(blocks)), row_states):
                past.append(state)
                encoder._blocks.append(state.copy())
                if index >= 0:
                    lags.append(past[-k:])
                    dests.append((out, index))
        if dests:
            windows = self._windows([list(lag) for lag in zip(*lags)])
            for (out, index), window in zip(dests, windows):
                out[index] = window
        self._runs.clear()
        self._staged = 0


class BlockTiles:
    """One tick's grouped block step, a :class:`BlockTile` per tile
    class: pass it to every stream's ``feed`` (once each), then flush.
    ``max_rows`` caps a tile's rows; by default a slab holds whole
    blocks, so each stream's block is one spatial call."""

    def __init__(self, max_rows: int | None = None) -> None:
        self.max_rows = max_rows
        self._tiles: dict[tuple, BlockTile] = {}

    def stage(self, encoder, blocks: np.ndarray, out: np.ndarray,
              first: int) -> None:
        key = (encoder.tile_class, encoder.spec, encoder.dim)
        if key not in self._tiles:
            self._tiles[key] = encoder.tile_class(encoder, self.max_rows)
        self._tiles[key].stage(encoder, blocks, out, first)

    def flush(self) -> None:
        """Count every staged block, filling the arrays ``feed`` returned."""
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
        n_electrodes, n_codes = self.spatial.n_electrodes, self.spatial.n_codes
        if arr.ndim != 2 or arr.shape[1] != n_electrodes:
            raise ValueError(
                f"expected (n_samples, {n_electrodes}), got {arr.shape}"
            )
        if arr.size and (arr.min() < 0 or arr.max() >= n_codes):
            raise ValueError(f"code out of range [0, {n_codes})")
        joined = (np.concatenate([self._pending, arr], axis=0)
                  if self._pending.size else arr)
        step = self.spec.step_samples
        n_blocks = joined.shape[0] // step
        self._pending = joined[n_blocks * step :].copy()
        blocks = joined[: n_blocks * step].reshape(n_blocks, step, n_electrodes)
        if tiles is not None and joined is arr:
            # Encoded at the tick's flush: the caller may reuse ``codes``.
            blocks = blocks.astype(np.min_scalar_type(n_codes - 1))
        skip = max(0, self.blocks_per_window - 1 - len(self._blocks))
        out = np.empty((max(0, n_blocks - skip), self.words), dtype=np.uint64)
        group = BlockTiles(n_blocks) if tiles is None else tiles
        group.stage(self, blocks, out, -skip)
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

    def _encode(self, encoder, codes: np.ndarray,
                out: np.ndarray | None) -> np.ndarray:
        return encoder.spatial.encode(codes)

    @staticmethod
    def export_block(state: np.ndarray, dim: int) -> np.ndarray:
        return state.astype(np.int64)

    @staticmethod
    def import_block(counts: np.ndarray, step: int) -> np.ndarray:
        return counts.astype(np.int32)

    def _counter(self, rows: int) -> np.ndarray:
        return np.zeros((rows, self.width), dtype=np.int32)

    def _add(self, counter: np.ndarray, slab: np.ndarray) -> None:
        counter += slab.sum(axis=0, dtype=np.int32)

    def _windows(self, lags: list[list[np.ndarray]]) -> np.ndarray:
        window_counts = np.sum([np.stack(lag) for lag in lags], axis=0)
        return pack_bits(
            majority_from_counts(window_counts, self.spec.window_samples)
        )
