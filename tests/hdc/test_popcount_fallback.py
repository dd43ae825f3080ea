"""The numpy<2 popcount fallback stays bit-exact with the fast path.

``repro.hdc.backend`` selects ``numpy.bitwise_count`` when it exists
and a byte-lookup table otherwise.  CI runs numpy >= 2, so the fallback
would never execute — this suite monkeypatches the selected ``_popcount``
to the lookup implementation and drives the packed-parity checks
(distances, associative queries, the full detector pipeline on every
packed engine) through it.
"""

import numpy as np
import pytest

import repro.hdc.backend as backend_module
from repro.core.config import LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.hdc.associative import AssociativeMemory
from repro.hdc.backend import (
    _popcount_lookup,
    hamming_distance,
    hamming_distance_packed,
    pack_bits,
    popcount_words,
    random_bits,
)


@pytest.fixture()
def lookup_popcount(monkeypatch):
    """Force every popcount in the packed stack onto the lookup table."""
    monkeypatch.setattr(backend_module, "_popcount", _popcount_lookup)


def test_probe_selects_bitwise_count_on_modern_numpy():
    if not hasattr(np, "bitwise_count"):
        pytest.skip("numpy < 2.0: the fallback is the selected path")
    assert backend_module._popcount is np.bitwise_count


class TestLookupCorrectness:
    def test_matches_python_bin_count(self, lookup_popcount):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**64, size=(5, 7), dtype=np.uint64)
        expected = np.vectorize(lambda w: bin(int(w)).count("1"))(words)
        np.testing.assert_array_equal(popcount_words(words), expected)

    def test_edge_words(self, lookup_popcount):
        words = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        np.testing.assert_array_equal(
            popcount_words(words), np.array([0, 1, 1, 64])
        )


class TestPackedParityThroughLookup:
    """The packed-parity suite's core checks, on the lookup path."""

    @pytest.mark.parametrize("dim", [1, 63, 64, 65, 129, 200])
    def test_hamming_distance_parity(self, lookup_popcount, dim):
        rng = np.random.default_rng(dim)
        a = random_bits((6, dim), rng)
        b = random_bits((6, dim), rng)
        np.testing.assert_array_equal(
            hamming_distance_packed(pack_bits(a), pack_bits(b)),
            hamming_distance(a, b),
        )

    @pytest.mark.parametrize("dim", [63, 65, 200])
    def test_associative_queries_parity(self, lookup_popcount, dim):
        rng = np.random.default_rng(dim + 1)
        memory = AssociativeMemory(dim)
        protos = random_bits((2, dim), rng)
        memory.store(0, protos[0])
        memory.store(1, protos[1])
        queries = random_bits((9, dim), rng)
        dists_u = hamming_distance(queries[:, None, :], protos)
        labels_p, dists_p = memory.classify_packed(pack_bits(queries))
        np.testing.assert_array_equal(labels_p, np.argmin(dists_u, axis=1))
        np.testing.assert_array_equal(dists_p, dists_u)

    @pytest.mark.parametrize("engine", ["packed", "packed-fused"])
    def test_full_pipeline_parity(self, lookup_popcount, engine):
        """The word-domain engine, by name and by retired alias, equals
        the unpacked reference."""
        rng = np.random.default_rng(11)
        signal = rng.standard_normal((4 * 128, 4))
        predictions = {}
        for backend in ("unpacked", engine):
            detector = LaelapsDetector(
                4, LaelapsConfig(dim=129, fs=128.0, seed=5, backend=backend)
            )
            detector.fit_from_windows(
                pack_bits(random_bits((3, 129), np.random.default_rng(1))),
                pack_bits(random_bits((3, 129), np.random.default_rng(2))),
            )
            predictions[backend] = detector.predict(signal)
        np.testing.assert_array_equal(
            predictions[engine].labels, predictions["unpacked"].labels
        )
        np.testing.assert_array_equal(
            predictions[engine].distances,
            predictions["unpacked"].distances,
        )
        assert len(predictions[engine]) > 0
