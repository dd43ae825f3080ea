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
flush: a tile's block codes, staged once in one array, are encoded in
sample slabs that stream straight into the block counter, for many
blocks at once (all of a serving tick's same-shape streams, or all of
an offline feed's blocks) within a fixed budget.  On the packed engines
a slab is one spatial call, whatever streams it holds: every record
gathers from its stream's table in the shared bound-table arena
(:mod:`repro.hdc.spatial_packed`).  Whatever the block state, H vectors
leave packed, ``(n_windows, packed_words(d))`` uint64.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.hdc.backend import pack_bits, packed_words
from repro.hdc.ops import majority_from_counts
from repro.signal.windows import WindowSpec


#: Word budget of a tile: 256 KiB of records per slab (8 blocks x 32
#: words at d = 2000) and as many bytes of staged codes.  Bounded, so
#: peak memory stays bounded however many streams a tick holds.
_TILE_WORDS = 32_768


class BlockTile:
    """Many streams' 0.5 s blocks, counted in sample slabs.

    :meth:`stage` keeps runs of one stream's consecutive blocks;
    :meth:`flush` joins their codes into one ``(rows, step,
    n_electrodes)`` array and walks it in slabs, samples ``[s0, s0 +
    k)`` of every row as ``(k, rows, width)`` records that go straight
    into the block counter.  It then sums each completed window from
    its stream's block states into the row its stream reserved, and
    copies the block states a stream keeps.  A tile's streams share one
    electrode count and alphabet, so a packed slab is one spatial call;
    the integer-counter reference encodes run by run.  An offline feed
    (``max_rows`` given) fills the budget with each slab; a serving
    tile holds every stream the codes budget admits, in slabs of a
    quarter budget: one spatial tile on the packed engines (256 records
    at d = 2000 and 32 sessions), paid for by its compact codes.

    Subclasses supply the record ``dtype`` and :meth:`record_width`; the
    kernels ``_encode(s0, n)`` (the ``(n, rows, width)`` records of
    samples ``[s0, s0 + n)`` of every row of :attr:`codes`; runs are
    ``(encoder, n_blocks, out, first)`` then), ``_counter(rows)``,
    ``_add(counter, slab)``,
    ``_states(counter)`` (row ``r``'s block state is ``[r]``) and
    ``_windows(lags)`` (packed H vectors of windows whose blocks, oldest
    first, are ``lags``); the per-flush hook ``_begin(k)``; and the
    checkpoint hooks
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
        offline = max_rows is not None
        self._slab_bytes = budget if offline else budget // 4
        self.rows = max(1, min(max_rows if offline else budget,
                               budget // self._row_bytes, budget
                               // (step * encoder.spatial.n_electrodes)))
        self._runs: list[tuple] = []
        self._staged = 0
        #: The staged codes, ``(rows, step, n_electrodes)``, while a
        #: flush runs.
        self.codes: np.ndarray | None = None

    def _begin(self, k: int) -> None:
        """Set up a flush whose slabs hold ``k`` samples."""

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
        step, rows = self.spec.step_samples, self._staged
        # The staged codes in one array; the runs then hold no blocks.
        self.codes = (self._runs[0][1] if len(self._runs) == 1
                      else np.concatenate([run[1] for run in self._runs]))
        self._runs = [(encoder, len(blocks), out, first)
                      for encoder, blocks, out, first in self._runs]
        k = max(1, min(step, self._slab_bytes // (rows * self._row_bytes)))
        self._begin(k)
        counter = self._counter(rows)
        for s0 in range(0, step, k):
            self._add(counter, self._encode(s0, min(k, step - s0)))
        self.codes = None
        states = self._states(counter)
        del counter  # its pooled planes, before the windows' counter
        k = self.spec.window_samples // step
        lags, dests, row = [], [], 0
        for encoder, m, out, first in self._runs:  # one run per stream
            mine, row = states[row : row + m], row + m
            past = list(encoder._blocks)
            encoder._blocks.extend(
                state.copy() for state in mine[-encoder._blocks.maxlen :]
            )
            for index, state in enumerate(mine, first):
                past.append(state)
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
    class, electrode count and alphabet: pass it to every stream's
    ``feed`` (once each), then flush.  ``max_rows`` caps a tile's rows
    and gives it offline sizing (see :class:`BlockTile`); by default a
    tile holds every same-shape stream the budget admits."""

    def __init__(self, max_rows: int | None = None) -> None:
        self.max_rows = max_rows
        self._tiles: dict[tuple, BlockTile] = {}

    def stage(self, encoder, blocks: np.ndarray, out: np.ndarray,
              first: int) -> None:
        spatial = encoder.spatial
        key = (encoder.tile_class, encoder.spec, encoder.dim,
               spatial.n_electrodes, spatial.n_codes)
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
        #: Smallest dtype of the alphabet: pending and staged codes.
        self._code_dtype = np.min_scalar_type(spatial.n_codes - 1)
        #: Smallest dtype of a block count in ``[0, step_samples]``.
        self._count_dtype = np.min_scalar_type(spec.step_samples)
        self.reset()

    def reset(self) -> None:
        """Drop buffered samples and block state (start of a new record)."""
        self._pending = np.zeros((0, self.spatial.n_electrodes),
                                 dtype=self._code_dtype)
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
        self._pending = joined[n_blocks * step :].astype(self._code_dtype)
        blocks = joined[: n_blocks * step].reshape(n_blocks, step, n_electrodes)
        if tiles is not None:
            # Encoded at the tick's flush, from a compact copy: the
            # caller may reuse ``codes``, and no block pins ``joined``.
            blocks = blocks.astype(self._code_dtype)
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
        data: :meth:`restore_state` on *any* engine resumes bit-exactly.

        Block counts come in the narrowest unsigned dtype that holds
        ``step_samples`` (uint8 at the paper's 128-sample step)."""
        return {
            "pending": self._pending.copy(),
            "blocks": [
                self.tile_class.export_block(block, self.dim)
                .astype(self._count_dtype)
                for block in self._blocks
            ],
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
        self._pending = pending.astype(self._code_dtype)
        self._blocks.extend(
            self.tile_class.import_block(block.astype(np.int64), step)
            for block in blocks
        )
        return self


class CountBlockTile(BlockTile):
    """Integer-counter block step over unpacked uint8 records; only the
    window majority is packed."""

    dtype = np.uint8

    def __init__(self, encoder: "WindowBundler", max_rows: int | None) -> None:
        # One spatial call per run and slab: a serving tile keeps the
        # rows whose whole blocks fill one slab, so a block is one call.
        if max_rows is None:
            max_rows = (_TILE_WORDS * 8
                        // (encoder.spec.step_samples * encoder.dim))
        super().__init__(encoder, max_rows)

    @staticmethod
    def record_width(dim: int) -> int:
        return dim

    def _encode(self, s0: int, n: int) -> np.ndarray:
        # The reference: one spatial call per run, copied into the slab.
        slab = np.empty((n, len(self.codes), self.width), dtype=self.dtype)
        row = 0
        for encoder, m, _, _ in self._runs:
            codes = self.codes[row : row + m, s0 : s0 + n].transpose(1, 0, 2)
            records = encoder.spatial.encode(codes.reshape(n * m, -1))
            slab[:, row : row + m] = records.reshape(n, m, -1)
            row += m
        return slab

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
