"""Fixture-backed tests for every registered ``repro lint`` rule.

Each rule code owns a table of :class:`Fixture` snippets — violating,
clean, and out-of-scope variants — and the generic tests below run the
whole table: violations are found (and fail the exit code), clean and
out-of-scope code is silent, every violating line can be suppressed
inline, and every violation can be sanctioned by a baseline entry.
``tests/analysis/test_meta.py`` asserts this table covers every
registered rule code, so adding a rule without fixtures fails CI.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.analysis import LintResult, lint_paths, lint_source
from repro.analysis.baseline import Baseline, BaselineEntry

# Built by concatenation so this file's own raw lines never contain a
# suppression comment (the parser is line-based and tests/ is linted).
NOQA = "# repro: " + "noqa"


@dataclass(frozen=True)
class Fixture:
    """One snippet: where it pretends to live and what to expect."""

    path: str
    source: str
    violates: bool


FIXTURES: dict[str, tuple[Fixture, ...]] = {
    # -- RPR000: engine hygiene (syntax errors; suppression hygiene has
    #    dedicated tests in test_engine.py) ----------------------------
    "RPR000": (
        Fixture("src/repro/core/x.py", "def f(:\n", True),
        Fixture("src/repro/core/x.py", "x = 1\n", False),
    ),
    # -- RPR001: no global RNG state ----------------------------------
    "RPR001": (
        Fixture(
            "src/repro/core/x.py",
            "import numpy as np\n"
            "\n"
            "\n"
            "def f():\n"
            "    np.random.seed(0)\n"
            "    return np.random.rand(4)\n",
            True,
        ),
        Fixture(
            "tests/core/test_x.py",
            "import random\n"
            "\n"
            "\n"
            "def f():\n"
            "    return random.choice([1, 2])\n",
            True,
        ),
        Fixture(
            "src/repro/core/x.py",
            "from numpy.random import RandomState\n"
            "\n"
            "\n"
            "def f():\n"
            "    return RandomState(0)\n",
            True,
        ),
        Fixture(
            "src/repro/core/x.py",
            "import numpy as np\n"
            "\n"
            "\n"
            "def f(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.integers(0, 2, size=8)\n",
            False,
        ),
        # A *local* called `random` must not false-positive: only
        # import-bound names resolve.
        Fixture(
            "src/repro/core/x.py",
            "def f(random):\n"
            "    return random()\n",
            False,
        ),
    ),
    # -- RPR002: wall clocks only in loadgen/benchmarks ---------------
    "RPR002": (
        Fixture(
            "src/repro/core/x.py",
            "import time\n"
            "\n"
            "\n"
            "def stamp():\n"
            "    return time.time()\n",
            True,
        ),
        Fixture(
            "examples/x.py",
            "from datetime import datetime\n"
            "\n"
            "\n"
            "def stamp():\n"
            "    return datetime.now()\n",
            True,
        ),
        Fixture(
            "src/repro/core/x.py",
            "import time\n"
            "\n"
            "\n"
            "def measure():\n"
            "    return time.perf_counter()\n",
            False,
        ),
        # The sanctioned wall-clock homes are carved out of the scope.
        Fixture(
            "src/repro/serve/loadgen.py",
            "import time\n"
            "\n"
            "\n"
            "def stamp():\n"
            "    return time.time()\n",
            False,
        ),
        Fixture(
            "benchmarks/bench_x.py",
            "import time\n"
            "\n"
            "\n"
            "def stamp():\n"
            "    return time.time()\n",
            False,
        ),
    ),
    # -- RPR003: engine literals stay inside repro.hdc ----------------
    "RPR003": (
        Fixture(
            "src/repro/core/x.py",
            'DEFAULT_BACKEND = "packed"\n',
            True,
        ),
        Fixture(
            "src/repro/serve/x.py",
            'def f(name):\n'
            '    return name == "packed-fused"\n',
            True,
        ),
        Fixture(
            "src/repro/core/x.py",
            "from repro.hdc.engine import UNPACKED_ENGINE\n"
            "\n"
            "DEFAULT_BACKEND = UNPACKED_ENGINE\n",
            False,
        ),
        # The registry's home may spell its own names.
        Fixture(
            "src/repro/hdc/x.py",
            'NAMES = ("packed", "unpacked")\n',
            False,
        ),
        # Docstrings are prose, not dispatch.
        Fixture(
            "src/repro/core/x.py",
            'def f():\n'
            '    "packed"\n'
            '    return 1\n',
            False,
        ),
    ),
    # -- RPR004: no module-level mutable state in serve/ --------------
    "RPR004": (
        Fixture(
            "src/repro/serve/x.py",
            "_CACHE = {}\n",
            True,
        ),
        Fixture(
            "src/repro/serve/x.py",
            "import threading\n"
            "\n"
            "_LOCK = threading.Lock()\n",
            True,
        ),
        Fixture(
            "src/repro/serve/x.py",
            "import collections\n"
            "\n"
            "_COUNTS = collections.defaultdict(int)\n",
            True,
        ),
        Fixture(
            "src/repro/serve/x.py",
            "import types\n"
            "\n"
            "_TABLE = types.MappingProxyType({'a': 1})\n"
            "_NAMES = ('a', 'b')\n"
            "_LIMIT = 8\n",
            False,
        ),
        # Same state outside serve/ is not this rule's business.
        Fixture(
            "src/repro/evaluation/x.py",
            "_CACHE = {}\n",
            False,
        ),
    ),
    # -- RPR005: no blocking I/O in the serve tick path ---------------
    "RPR005": (
        Fixture(
            "src/repro/serve/x.py",
            "def tick():\n"
            "    print('tick')\n",
            True,
        ),
        Fixture(
            "src/repro/serve/worker.py",
            "import time\n"
            "\n"
            "\n"
            "def tick():\n"
            "    time.sleep(0.1)\n",
            True,
        ),
        Fixture(
            "src/repro/serve/x.py",
            "import sys\n"
            "\n"
            "\n"
            "def tick():\n"
            "    sys.stdout.write('x')\n",
            True,
        ),
        # time.sleep outside the tick-path files is pacing, not a stall.
        Fixture(
            "src/repro/serve/x.py",
            "import time\n"
            "\n"
            "\n"
            "def pace():\n"
            "    time.sleep(0.1)\n",
            False,
        ),
        # A blocking sleep on the service event loop freezes every
        # connection the loop serves, /healthz included.
        Fixture(
            "src/repro/serve/service.py",
            "import time\n"
            "\n"
            "\n"
            "async def handle():\n"
            "    time.sleep(0.1)\n",
            True,
        ),
        # The awaitable form yields the loop; that is the sanctioned fix.
        Fixture(
            "src/repro/serve/service.py",
            "import asyncio\n"
            "\n"
            "\n"
            "async def handle():\n"
            "    await asyncio.sleep(0.1)\n",
            False,
        ),
        Fixture(
            "src/repro/evaluation/x.py",
            "def report():\n"
            "    print('fine outside serve/')\n",
            False,
        ),
    ),
    # -- RPR006: structured errors only across pipes ------------------
    "RPR006": (
        Fixture(
            "src/repro/serve/x.py",
            "def run(conn, work):\n"
            "    try:\n"
            "        work()\n"
            "    except Exception as exc:\n"
            "        conn.send(('error', exc))\n",
            True,
        ),
        Fixture(
            "src/repro/serve/x.py",
            "import traceback\n"
            "\n"
            "\n"
            "def run(conn, work):\n"
            "    try:\n"
            "        work()\n"
            "    except Exception as exc:\n"
            "        conn.send(\n"
            "            ('error', f'{type(exc).__name__}: {exc}\\n'\n"
            "             f'{traceback.format_exc()}')\n"
            "        )\n",
            False,
        ),
        Fixture(
            "src/repro/serve/x.py",
            "def run(conn, work):\n"
            "    try:\n"
            "        work()\n"
            "    except Exception as exc:\n"
            "        conn.send(('error', str(exc)))\n",
            False,
        ),
        # Pipe discipline is a serve/ contract; elsewhere is out of scope.
        Fixture(
            "src/repro/evaluation/x.py",
            "def run(conn, work):\n"
            "    try:\n"
            "        work()\n"
            "    except Exception as exc:\n"
            "        conn.send(('error', exc))\n",
            False,
        ),
    ),
    # -- RPR007: checkpoint keys written must be read back ------------
    "RPR007": (
        Fixture(
            "src/repro/core/persistence.py",
            "_FORMAT_VERSION = 1\n"
            "\n"
            "\n"
            "def save_model(model):\n"
            "    return {'dim': model.dim, 'orphan': 1}\n"
            "\n"
            "\n"
            "def load_model(payload):\n"
            "    return payload['dim']\n",
            True,
        ),
        Fixture(
            "src/repro/core/persistence.py",
            "_FORMAT_VERSION = 1\n"
            "\n"
            "\n"
            "def save_model(model):\n"
            "    return {'dim': model.dim, 'seed': model.seed}\n"
            "\n"
            "\n"
            "def load_model(payload):\n"
            "    return payload['dim'], payload.get('seed')\n",
            False,
        ),
        # Writer/reader symmetry is only enforced in the schema files.
        Fixture(
            "src/repro/core/x.py",
            "def save_model(model):\n"
            "    return {'orphan': 1}\n",
            False,
        ),
    ),
    # -- RPR008: key-set changes must bump the schema version ---------
    "RPR008": (
        # The fingerprint is always-on in schema files (the baseline
        # acknowledges it); a missing *_VERSION constant is violating
        # in its own right.
        Fixture(
            "src/repro/evaluation/benchrec.py",
            "def save_record(record):\n"
            "    return {'name': record.name}\n"
            "\n"
            "\n"
            "def load_record(payload):\n"
            "    return payload['name']\n",
            True,
        ),
        Fixture(
            "src/repro/evaluation/benchrec.py",
            "SCHEMA_VERSION = 1\n"
            "\n"
            "\n"
            "def save_record(record):\n"
            "    return {'name': record.name}\n"
            "\n"
            "\n"
            "def load_record(payload):\n"
            "    return payload['name']\n",
            True,  # the fingerprint itself, pending acknowledgement
        ),
        Fixture(
            "src/repro/core/x.py",
            "def save_record(record):\n"
            "    return {'name': record.name}\n",
            False,
        ),
    ),
    # -- RPR009: packed-domain entry points pin their dtypes ----------
    "RPR009": (
        Fixture(
            "src/repro/hdc/bitsliced.py",
            "import numpy as np\n"
            "\n"
            "\n"
            "def planes_to_counts(planes):\n"
            "    return planes.sum(axis=0)\n",
            True,
        ),
        Fixture(
            "src/repro/hdc/bitsliced.py",
            "import numpy as np\n"
            "\n"
            "\n"
            "def planes_to_counts(planes):\n"
            "    planes = np.asarray(planes, dtype=np.uint64)\n"
            "    return planes.sum(axis=0)\n",
            False,
        ),
        # Forwarding to a validating sibling satisfies the contract ...
        Fixture(
            "src/repro/hdc/associative.py",
            "import numpy as np\n"
            "\n"
            "\n"
            "class Memory:\n"
            "    def distances(self, h_vectors):\n"
            "        h_vectors = np.asarray(h_vectors, dtype=np.uint8)\n"
            "        return h_vectors\n"
            "\n"
            "    def classify(self, h_vectors):\n"
            "        return self.distances(h_vectors)\n",
            False,
        ),
        # ... but forwarding to a non-validating one does not.
        Fixture(
            "src/repro/hdc/associative.py",
            "class Memory:\n"
            "    def distances(self, h_vectors):\n"
            "        return h_vectors\n"
            "\n"
            "    def classify(self, h_vectors):\n"
            "        return self.distances(h_vectors)\n",
            True,
        ),
        # Same code outside the packed-domain files: out of scope.
        Fixture(
            "src/repro/hdc/ops.py",
            "def f(planes):\n"
            "    return planes.sum(axis=0)\n",
            False,
        ),
    ),
    # -- RPR010: optional accelerators import in one guarded place ----
    "RPR010": (
        # A bare accelerator import outside the guarded module.
        Fixture(
            "src/repro/core/detector.py",
            "import numba\n",
            True,
        ),
        # from-imports count too, and so do future accelerators.
        Fixture(
            "src/repro/serve/loadgen.py",
            "from cupy import asarray\n",
            True,
        ),
        # Even the guarded module may not import unguarded.
        Fixture(
            "src/repro/hdc/native.py",
            "from numba import njit\n",
            True,
        ),
        # The sanctioned form: guarded import inside native.py.
        Fixture(
            "src/repro/hdc/native.py",
            "try:\n"
            "    from numba import njit, prange\n"
            "except ImportError:\n"
            "    prange = range\n",
            False,
        ),
        # A guard elsewhere does not help: isolation is per-module.
        Fixture(
            "src/repro/core/detector.py",
            "try:\n"
            "    import numba\n"
            "except ImportError:\n"
            "    numba = None\n",
            True,
        ),
        # Ordinary imports are out of scope everywhere.
        Fixture(
            "src/repro/core/detector.py",
            "import numpy as np\n"
            "from repro.hdc import native\n",
            False,
        ),
    ),
    # -- RPR011: no whole-recording materialisation out-of-core -------
    "RPR011": (
        # np.asarray on a recording's mapped buffer pulls it into RAM.
        Fixture(
            "src/repro/evaluation/runner.py",
            "import numpy as np\n"
            "\n"
            "\n"
            "def f(recording):\n"
            "    return np.asarray(recording.data)\n",
            True,
        ),
        # Copying constructors count even nested in an expression.
        Fixture(
            "src/repro/data/outofcore.py",
            "import numpy as np\n"
            "\n"
            "\n"
            "def f(rec):\n"
            "    return np.ascontiguousarray(rec.data[:, ::2])\n",
            True,
        ),
        # So do buffer-duplicating methods on the mapped view.
        Fixture(
            "src/repro/evaluation/runner.py",
            "def f(recording):\n"
            "    return recording.data.copy()\n",
            True,
        ),
        # The sanctioned shape: slice the view, copy per chunk only.
        Fixture(
            "src/repro/data/outofcore.py",
            "import numpy as np\n"
            "\n"
            "\n"
            "def f(rec, start, n):\n"
            "    chunk = rec.data[start:start + n]\n"
            "    return np.abs(chunk).mean(axis=0)\n",
            False,
        ),
        # Materialising something that is not a recording is fine.
        Fixture(
            "src/repro/data/outofcore.py",
            "import numpy as np\n"
            "\n"
            "\n"
            "def f(electrode):\n"
            "    return np.array([electrode])\n",
            False,
        ),
        # The chunk renderer fills the cohort memmaps: in scope.
        Fixture(
            "src/repro/data/synthetic.py",
            "import numpy as np\n"
            "\n"
            "\n"
            "def f(recording):\n"
            "    return np.asarray(recording.data)\n",
            True,
        ),
        # The chunked inference loop is on the memmap path too.
        Fixture(
            "src/repro/core/streaming.py",
            "def f(recording):\n"
            "    return recording.data.tolist()\n",
            True,
        ),
        # Out of scope: the in-memory cohort builder may materialise.
        Fixture(
            "src/repro/data/cohort.py",
            "import numpy as np\n"
            "\n"
            "\n"
            "def f(recording):\n"
            "    return np.asarray(recording.data)\n",
            False,
        ),
    ),
}

_ALL = [
    pytest.param(code, fixture, id=f"{code}-{i}-{fixture.path}")
    for code, fixtures in sorted(FIXTURES.items())
    for i, fixture in enumerate(fixtures)
]
_VIOLATING = [
    pytest.param(code, fixture, id=f"{code}-{i}")
    for code, fixtures in sorted(FIXTURES.items())
    for i, fixture in enumerate(fixtures)
    if fixture.violates and code != "RPR000"
]


def _codes(findings, code):
    return [f for f in findings if f.code == code]


class TestFixtureTable:
    @pytest.mark.parametrize("code,fixture", _ALL)
    def test_expected_outcome(self, code, fixture):
        findings = lint_source(fixture.source, fixture.path)
        hits = _codes(findings, code)
        if fixture.violates:
            assert hits, f"expected a {code} finding in {fixture.path}"
            for f in hits:
                assert f.path == fixture.path
                assert f.line >= 1
                assert f.message
        else:
            assert not hits, [f.render() for f in hits]

    @pytest.mark.parametrize("code,fixture", _VIOLATING)
    def test_violation_fails_the_exit_code(self, code, fixture):
        findings = lint_source(fixture.source, fixture.path)
        result = LintResult(findings=findings, files=1)
        assert result.exit_code == 1

    @pytest.mark.parametrize("code,fixture", _VIOLATING)
    def test_inline_suppression_silences_the_line(self, code, fixture):
        findings = lint_source(fixture.source, fixture.path)
        line = _codes(findings, code)[0].line
        lines = fixture.source.splitlines()
        lines[line - 1] += f"  {NOQA}[{code}]"
        suppressed = lint_source("\n".join(lines) + "\n", fixture.path)
        assert not [
            f for f in _codes(suppressed, code) if f.line == line
        ], "suppression did not silence the flagged line"
        # A *used* suppression is hygienic: no RPR000 about it.
        assert not [
            f for f in suppressed if f.code == "RPR000" and f.line == line
        ]

    @pytest.mark.parametrize("code,fixture", _VIOLATING)
    def test_baseline_sanctions_the_finding(self, code, fixture, tmp_path):
        target = tmp_path / fixture.path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(fixture.source)
        raw = lint_paths([target], root=tmp_path)
        entries = [
            BaselineEntry(code=f.code, path=f.path, match=f.message,
                          reason="fixture: sanctioned for the test")
            for f in raw.findings
        ]
        baseline = Baseline(entries, path="lint-baseline.json")
        result = lint_paths([target], baseline=baseline, root=tmp_path)
        assert result.exit_code == 0
        assert all(f.baselined for f in result.findings)
        assert len(result.findings) == len(raw.findings)


class TestSchemaFingerprint:
    def test_fingerprint_tracks_the_key_set(self):
        base = (
            "SCHEMA_VERSION = 1\n"
            "\n"
            "\n"
            "def save_record(record):\n"
            "    return {'name': record.name}\n"
            "\n"
            "\n"
            "def load_record(payload):\n"
            "    return payload['name']\n"
        )
        grown = base.replace(
            "{'name': record.name}",
            "{'name': record.name, 'engine': record.engine}",
        ).replace(
            "payload['name']",
            "(payload['name'], payload['engine'])",
        )
        path = "src/repro/evaluation/benchrec.py"
        msg_a = [f for f in lint_source(base, path) if f.code == "RPR008"]
        msg_b = [f for f in lint_source(grown, path) if f.code == "RPR008"]
        assert len(msg_a) == len(msg_b) == 1
        # A key-set change changes the message, which un-matches the
        # committed baseline entry — that is the version-bump tripwire.
        assert msg_a[0].message != msg_b[0].message

    def test_fingerprint_is_stable_across_runs(self):
        source = (
            "SCHEMA_VERSION = 3\n"
            "\n"
            "\n"
            "def save_record(record):\n"
            "    return {'name': record.name}\n"
            "\n"
            "\n"
            "def load_record(payload):\n"
            "    return payload['name']\n"
        )
        path = "src/repro/core/persistence.py"
        first = lint_source(source, path)
        second = lint_source(source, path)
        assert first == second
