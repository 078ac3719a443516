"""CLI tests (generate / stats / detect subcommands)."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def workload_csv(tmp_path):
    path = tmp_path / "workload.csv"
    code = main(
        [
            "generate",
            "--kind", "taxi",
            "--objects", "50",
            "--horizon", "16",
            "--seed", "1",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--kind", "brinkhoff", "--out", "x.csv"]
        )
        assert args.kind == "brinkhoff"
        assert args.objects == 200

    def test_unknown_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate", "--kind", "mystery", "--out", "x.csv"]
            )


class TestGenerate:
    def test_writes_csv(self, workload_csv):
        header = workload_csv.read_text().splitlines()[0]
        assert header == "oid,x,y,time,last_time"

    def test_group_fraction_override(self, tmp_path, capsys):
        out = tmp_path / "no_groups.csv"
        main(
            [
                "generate", "--kind", "geolife", "--objects", "30",
                "--horizon", "10", "--group-fraction", "0.0",
                "--out", str(out),
            ]
        )
        assert out.exists()


class TestStats:
    def test_prints_table(self, workload_csv, capsys):
        assert main(["stats", "--input", str(workload_csv)]) == 0
        output = capsys.readouterr().out
        assert "# trajectories" in output
        assert "epsilon at 0.06%" in output


class TestPlugins:
    def test_lists_every_axis(self, capsys):
        assert main(["plugins"]) == 0
        output = capsys.readouterr().out
        for kind in (
            "backend", "clustering_kernel", "enumeration_kernel", "enumerator"
        ):
            assert kind in output
        for name in ("serial", "process", "fba", "vba", "baseline"):
            assert name in output

    def test_kind_filter(self, capsys):
        assert main(["plugins", "--kind", "backend"]) == 0
        output = capsys.readouterr().out
        assert "serial" in output
        assert "enumeration_kernel" not in output

    def test_capability_markers_shown(self, capsys):
        main(["plugins", "--kind", "enumeration_kernel"])
        output = capsys.readouterr().out
        assert "needs-bitmap" in output

    def test_pattern_family_axis_listed(self, capsys):
        assert main(["plugins", "--kind", "pattern_family"]) == 0
        output = capsys.readouterr().out
        for name in ("strict", "evolving", "predictive"):
            assert name in output
        assert "evolving-groups" in output
        assert "predicts-patterns" in output

    def test_forming_state_marker_on_enumerators(self, capsys):
        main(["plugins", "--kind", "enumerator"])
        output = capsys.readouterr().out
        assert "forming-state" in output

    def test_unknown_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plugins", "--kind", "sink"])


class TestDetect:
    def test_detects_patterns(self, workload_csv, capsys):
        code = main(
            [
                "detect",
                "--input", str(workload_csv),
                "--m", "3", "--k", "5", "--l", "2", "--g", "2",
                "--min-pts", "3",
                "--maximal-only",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "maximal patterns" in output
        assert "snapshots; avg latency" in output

    def test_enumerator_choice(self, workload_csv, capsys):
        for enumerator in ("baseline", "fba", "vba"):
            code = main(
                [
                    "detect",
                    "--input", str(workload_csv),
                    "--m", "3", "--k", "5",
                    "--min-pts", "3",
                    "--enumerator", enumerator,
                    "--limit", "3",
                ]
            )
            assert code == 0

    def test_backend_choice(self, workload_csv, capsys):
        for backend in ("serial", "process"):
            code = main(
                [
                    "detect",
                    "--input", str(workload_csv),
                    "--m", "3", "--k", "5",
                    "--min-pts", "3",
                    "--backend", backend, "--workers", "2",
                    "--limit", "3",
                ]
            )
            assert code == 0
            assert f"backend: {backend}" in capsys.readouterr().out

    def test_backend_process_matches_serial(self, workload_csv, capsys):
        outputs = {}
        for backend in ("serial", "process"):
            main(
                [
                    "detect",
                    "--input", str(workload_csv),
                    "--m", "3", "--k", "5", "--min-pts", "3",
                    "--backend", backend, "--workers", "2",
                    "--limit", "1000",
                ]
            )
            out = capsys.readouterr().out
            # Compare the pattern listing (lines before the backend note).
            outputs[backend] = [
                line for line in out.splitlines() if line.startswith("  {")
            ]
        assert outputs["serial"] == outputs["process"]
        assert outputs["serial"], "the workload must produce patterns"

    def test_retired_thread_backend_is_refused(self, workload_csv, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "detect",
                    "--input", str(workload_csv),
                    "--m", "3", "--k", "5", "--min-pts", "3",
                    "--backend", "parallel",
                ]
            )
        err = capsys.readouterr().err
        assert "invalid choice: 'parallel'" in err
        assert "'serial', 'process'" in err

    def test_batch_size_matches_per_point(self, workload_csv, capsys):
        """The columnar reader (--batch-size N) and the per-point path
        (--batch-size 0) print the identical pattern listing."""
        outputs = {}
        for batch_size in ("0", "37"):
            code = main(
                [
                    "detect",
                    "--input", str(workload_csv),
                    "--m", "3", "--k", "5", "--min-pts", "3",
                    "--batch-size", batch_size,
                    "--limit", "1000",
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            outputs[batch_size] = [
                line for line in out.splitlines() if line.startswith("  {")
            ]
        assert outputs["0"] == outputs["37"]

    def test_kernel_choice(self, workload_csv, capsys):
        outputs = {}
        for kernel in ("python", "numpy"):
            code = main(
                [
                    "detect",
                    "--input", str(workload_csv),
                    "--m", "3", "--k", "5", "--min-pts", "3",
                    "--kernel", kernel,
                    "--limit", "1000",
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert f"kernel: {kernel}" in out
            outputs[kernel] = [
                line for line in out.splitlines() if line.startswith("  {")
            ]
        assert outputs["python"] == outputs["numpy"]

    def test_enum_kernel_choice(self, workload_csv, capsys):
        outputs = {}
        for kernel in ("python", "numpy"):
            code = main(
                [
                    "detect",
                    "--input", str(workload_csv),
                    "--m", "3", "--k", "5", "--min-pts", "3",
                    "--enum-kernel", kernel,
                    "--limit", "1000",
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert f"enumeration kernel: {kernel}" in out
            outputs[kernel] = [
                line for line in out.splitlines() if line.startswith("  {")
            ]
        assert outputs["python"] == outputs["numpy"]

    def test_enum_kernel_rejects_baseline(self, capsys):
        """The batched bitmap kernel has no BA form; clean error."""
        code = main(
            [
                "detect", "--input", "does-not-matter.csv",
                "--enum-kernel", "numpy", "--enumerator", "baseline",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "no bitmap form" in err

    def test_unknown_enum_kernel_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["detect", "--input", "x.csv", "--enum-kernel", "fortran"]
            )

    def test_pattern_family_runs(self, workload_csv, capsys):
        for family in ("evolving", "predictive"):
            code = main(
                [
                    "detect", "--input", str(workload_csv),
                    "--m", "3", "--k", "5", "--min-pts", "3",
                    "--pattern-family", family, "--limit", "3",
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert f"pattern family: {family}" in out

    def test_predictive_rejects_baseline(self, capsys):
        """Scoring needs forming state; the BA enumerator has none."""
        code = main(
            [
                "detect", "--input", "does-not-matter.csv",
                "--pattern-family", "predictive",
                "--enumerator", "baseline",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "forming-state enumerator" in err

    def test_unknown_pattern_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["detect", "--input", "x.csv", "--pattern-family", "fuzzy"]
            )

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["detect", "--input", "x.csv", "--kernel", "fortran"]
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["detect", "--input", "x.csv", "--backend", "quantum"]
            )

    def test_output_json_emits_event_lines(self, workload_csv, capsys):
        import json

        code = main(
            [
                "detect",
                "--input", str(workload_csv),
                "--m", "3", "--k", "5", "--min-pts", "3",
                "--output", "json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        payloads = [json.loads(line) for line in out.splitlines()]
        kinds = {p["kind"] for p in payloads}
        assert "watermark" in kinds
        assert payloads[-1]["kind"] == "summary"
        assert payloads[-1]["backend"] == "serial"
        # no human-readable prose in json mode
        assert "snapshots; avg latency" not in out

    def test_output_json_matches_text_pattern_count(self, workload_csv, capsys):
        import json

        main(
            [
                "detect", "--input", str(workload_csv),
                "--m", "3", "--k", "5", "--min-pts", "3",
                "--output", "json",
            ]
        )
        payloads = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        confirmed = [p for p in payloads if p["kind"] == "pattern"]
        assert payloads[-1]["patterns"] == len(confirmed)

    def test_unknown_output_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["detect", "--input", "x.csv", "--output", "xml"]
            )

    def test_json_export(self, workload_csv, tmp_path, capsys):
        import json

        out = tmp_path / "patterns.json"
        code = main(
            [
                "detect",
                "--input", str(workload_csv),
                "--m", "3", "--k", "5", "--min-pts", "3",
                "--json-out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert isinstance(payload, list)
        if payload:
            assert {"objects", "witnesses", "first_detected_at"} <= set(
                payload[0]
            )
