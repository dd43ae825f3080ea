"""Tests for the command-line interface."""

import pytest

from repro.cli import COMMANDS, command_names, main
from repro.data.cohort import PatientSpec


class TestHardwareCommands:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "laelaps" in out and "lstm" in out

    def test_fig3_default_electrodes(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "64 electrodes" in out

    def test_fig3_custom_electrodes(self, capsys):
        assert main(["fig3", "--electrodes", "32"]) == 0
        assert "32 electrodes" in capsys.readouterr().out

    def test_scaling(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "scaling" in out.lower()
        assert "128e" in out


class TestTable1Command(object):
    def test_reduced_run(self, capsys, monkeypatch):
        # Patch the cohort down to one tiny patient so the CLI path runs
        # in seconds.
        import repro.evaluation.table1 as table1_module

        tiny = (
            PatientSpec("PX", n_electrodes=4, n_seizures=2,
                        recording_hours=0.05, train_seizures=1, seed=3),
        )
        monkeypatch.setattr(
            table1_module, "cohort_patient_specs", lambda: tiny
        )
        code = main([
            "table1", "--scale", "1", "--methods", "laelaps",
            "--dim", "1000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PX" in out
        assert "laelaps" in out


class TestBackendsCommand:
    def test_lists_every_registered_engine(self, capsys):
        from repro.hdc.engine import engine_names

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in engine_names():
            assert name in out
        assert "auto" in out  # reports what the selector resolves to
        assert "bit-identical" in out

    def test_dim_option_is_rejected(self, capsys):
        # Every engine shares one word layout, so there is no width to
        # report at a dimension.
        with pytest.raises(SystemExit) as exc_info:
            main(["backends", "--dim", "130"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --dim" in capsys.readouterr().err

    def test_unknown_backend_value_exits_2_naming_choices(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["sessions", "--backend", "gpu"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        for name in ("unpacked", "packed", "packed-fused", "auto"):
            assert name in err


class TestServingCommands:
    def test_sessions_demo_tiny(self, capsys):
        assert main([
            "sessions", "--patients", "2", "--seconds", "90",
            "--dim", "256",
        ]) == 0
        out = capsys.readouterr().out
        assert "patient-00" in out and "windows/s" in out

    def test_serve_demo_tiny_inline(self, capsys):
        assert main([
            "serve", "--patients", "2", "--workers", "2",
            "--mode", "inline", "--seconds", "90", "--dim", "256",
        ]) == 0
        out = capsys.readouterr().out
        assert "shard w0" in out
        assert "checkpoint" in out
        assert "windows/s" in out

    def test_loadtest_tiny_with_record_and_check(self, capsys, tmp_path):
        from repro.evaluation.benchrec import read_record

        out_path = tmp_path / "load.json"
        assert main([
            "loadtest", "--sessions", "4", "--workers", "2",
            "--mode", "inline", "--ticks", "6", "--dim", "256",
            "--out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "tick_latency_p99_ms" in out
        assert "backpressure_onset_chunks" in out
        record = read_record(out_path)  # schema-valid on disk
        assert record.name == "load_slo"
        # --check against the record just written: deltas all 1.00x-ish,
        # printed report-only.
        assert main([
            "loadtest", "--sessions", "4", "--workers", "2",
            "--mode", "inline", "--ticks", "6", "--dim", "256",
            "--check", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "report-only" in out
        assert "throughput_windows_per_s" in out

    @pytest.mark.parametrize("baseline", ["missing", "other_harness"])
    def test_loadtest_check_refuses_bad_baseline_before_running(
        self, baseline, capsys, tmp_path, monkeypatch
    ):
        from repro.evaluation.benchrec import (
            BenchRecord,
            machine_fingerprint,
            write_record,
        )

        path = tmp_path / "baseline.json"
        if baseline == "other_harness":
            write_record(BenchRecord(
                name="engine_matrix", machine=machine_fingerprint(),
                git_sha="0" * 40, engine="packed", config={}, metrics={},
            ), path)

        def never(*args, **kwargs):
            raise AssertionError("the load test ran before --check failed")

        monkeypatch.setattr("repro.serve.loadgen.run_load_test", never)
        assert main(["loadtest", "--check", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert str(path) in err


class TestLintCommand:
    def test_clean_tree_exits_zero(self, capsys, tmp_path, monkeypatch):
        clean = tmp_path / "src" / "repro" / "clean.py"
        clean.parent.mkdir(parents=True)
        clean.write_text("import numpy as np\n\n\ndef f(rng):\n"
                         "    return rng.integers(0, 2)\n")
        monkeypatch.chdir(tmp_path)  # no default baseline in scope
        assert main(["lint", "src"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_violation_exits_one_with_location(self, capsys, tmp_path,
                                               monkeypatch):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\n\n\ndef f():\n"
                       "    return np.random.rand(3)\n")
        monkeypatch.chdir(tmp_path)  # relativize paths in the output
        assert main(["lint", "src"]) == 1
        out = capsys.readouterr().out
        assert "src/repro/bad.py:5" in out
        assert "RPR001" in out

    def test_json_format_is_round_trippable(self, capsys, tmp_path,
                                            monkeypatch):
        import json

        from repro.analysis import result_from_json

        clean = tmp_path / "ok.py"
        clean.write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)  # no default baseline in scope
        assert main(["lint", "ok.py", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        result = result_from_json(payload)
        assert result.files == 1
        assert result.exit_code == 0

    def test_missing_explicit_baseline_exits_two(self, capsys, tmp_path):
        clean = tmp_path / "ok.py"
        clean.write_text("x = 1\n")
        code = main(["lint", str(clean), "--baseline",
                     str(tmp_path / "nope.json")])
        assert code == 2
        assert "baseline file not found" in capsys.readouterr().err

    def test_repo_tree_is_clean_under_committed_baseline(self, capsys):
        # The merged tree must lint clean: the same invocation CI gates on.
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out


class TestSynthCommand:
    def test_generates_a_loadable_cohort(self, capsys, tmp_path):
        out_dir = tmp_path / "cohort"
        code = main([
            "synth", "--out", str(out_dir), "--channels", "4,8",
            "--minutes", "2", "--seizures", "1", "--fs", "128",
            "--seed", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "m0004" in out and "m0008" in out
        assert "manifest" in out

        from repro.data.outofcore import load_cohort

        cohort = load_cohort(out_dir)
        assert [m.n_electrodes for m in cohort] == [4, 8]
        assert cohort.fs == 128.0 and cohort.seed == 5
        assert all(len(m.seizures) == 1 for m in cohort)

    def test_chunk_samples_is_not_semantic(self, capsys, tmp_path):
        for chunk, sub in (("512", "a"), ("4096", "b")):
            assert main([
                "synth", "--out", str(tmp_path / sub), "--channels", "4",
                "--minutes", "2", "--seizures", "1", "--fs", "128",
                "--chunk-samples", chunk,
            ]) == 0
        capsys.readouterr()
        a = (tmp_path / "a" / "m0004.f32").read_bytes()
        b = (tmp_path / "b" / "m0004.f32").read_bytes()
        assert a == b

    def test_invalid_plan_exits_two(self, capsys, tmp_path):
        code = main([
            "synth", "--out", str(tmp_path / "c"), "--channels", "8",
            "--minutes", "1", "--seizures", "3",
        ])
        assert code == 2
        assert "too short" in capsys.readouterr().err

    def test_malformed_channels_exits_two(self, capsys, tmp_path):
        code = main([
            "synth", "--out", str(tmp_path / "c"), "--channels", "8,x",
        ])
        assert code == 2
        assert "--channels" in capsys.readouterr().err


class TestArgumentErrors:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_registry_is_the_single_source(self):
        # Names are unique, non-empty, and every entry documents itself.
        names = command_names()
        assert len(names) == len(set(names))
        assert "lint" in names
        for spec in COMMANDS:
            assert spec.help, f"{spec.name} has no help line"
            assert callable(spec.handler)

    def test_unknown_command_exits_nonzero_with_choices(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["fig9"])
        assert exc_info.value.code != 0
        err = capsys.readouterr().err
        assert "fig9" in err
        # The error names every valid sub-command so the fix is obvious.
        for command in command_names():
            assert command in err

    def test_help_enumerates_all_commands(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--help"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        for command in command_names():
            assert command in out
        # One-line descriptions ride along in the listing (argparse may
        # wrap them, so compare whitespace-normalized).
        flat = " ".join(out.split())
        for spec in COMMANDS:
            assert spec.help in flat
