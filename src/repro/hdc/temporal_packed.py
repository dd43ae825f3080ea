"""Packed block step: window bundling without leaving the bit domain.

The packed engines' :class:`~repro.hdc.temporal.BlockTile`: one spatial
call writes each sample slab of a tile's blocks as uint64 words (every
record gathering from its stream's slot of the bound-table arena), and
the slab's sample planes go straight into one carry-save counter
(:class:`~repro.hdc.bitsliced.CarrySaveCounter`) whose digit planes are
the blocks' states.  A window adds its blocks' digit planes at their
own digits in a second counter, and the majority is the LSB-first
comparator — the Fig. 2 dataflow with no unpacked intermediate and no
record buffer, bit-exact against the integer-counter tile.  Every block
state is ``plane_depth(step)`` digit planes deep, live or restored from
a checkpoint.
"""

from __future__ import annotations

import numpy as np

# ``bitsliced_counts`` and ``planes_add`` are unused here; the names
# stay importable from this module because perfbench's tracer wraps
# them here.
from repro.hdc.bitsliced import (
    CarrySaveCounter,
    bitsliced_counts,  # noqa: F401
    plane_depth,
    planes_add,  # noqa: F401
    planes_from_counts,
    planes_greater_than,
    planes_to_counts,
)
from repro.hdc.temporal import BlockTile


class PackedBlockTile(BlockTile):
    """Bit-sliced block step over packed uint64 records."""

    def _encode(self, slab: np.ndarray, s0: int) -> None:
        # One spatial call for the whole slab: records in (sample, row)
        # order, each gathering from its stream's bound table.
        n, rows = slab.shape[:2]
        spatial = self._runs[0][0].spatial
        codes = np.empty((n, rows, spatial.n_electrodes),
                         dtype=np.min_scalar_type(spatial.n_codes - 1))
        row_bases = np.empty(rows, dtype=np.intp)
        row = longest = 0
        for encoder, blocks, _, _ in self._runs:
            m = len(blocks)
            codes[:, row : row + m] = blocks[:, s0 : s0 + n].transpose(1, 0, 2)
            row_bases[row : row + m] = encoder.spatial.base
            row, longest = row + m, max(longest, m)
        # Rows that all share the first stream's table need no bases.
        bases = (None if (row_bases == spatial.base).all()
                 else np.tile(row_bases, n))
        spatial.encode_packed(codes.reshape(n * rows, -1),
                              slab.reshape(n * rows, self.width), bases,
                              tile=n * longest)

    @staticmethod
    def export_block(state: np.ndarray, dim: int) -> np.ndarray:
        return planes_to_counts(state, dim)

    @staticmethod
    def import_block(counts: np.ndarray, step: int) -> np.ndarray:
        # The depth the counter gives a live block, so every state stacks.
        return planes_from_counts(counts, counts.shape[-1], plane_depth(step))

    def _counter(self, rows: int) -> CarrySaveCounter:
        return CarrySaveCounter((rows, self.width))

    def _add(self, counter: CarrySaveCounter, slab: np.ndarray) -> None:
        counter.add(slab)

    def _states(self, counter: CarrySaveCounter) -> np.ndarray:
        # (rows, depth, words): row r's block state is [r].
        depth = plane_depth(self.spec.step_samples)
        return np.stack(counter.planes(depth), axis=1)

    def _windows(self, lags: list[list[np.ndarray]]) -> np.ndarray:
        counter = CarrySaveCounter((len(lags[0]), self.width))
        for lag in lags:
            for digit, plane in enumerate(np.stack(lag, axis=1)):
                counter.push(digit, plane)
        return planes_greater_than(counter.planes(),
                                   self.spec.window_samples // 2)
