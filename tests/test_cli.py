"""Tests for the command-line interface (python -m repro)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["summary", "nosuchbench"])

    def test_bad_target_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["pinpoints", "art", "--target", "128u"]
            )


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gcc" in out and "wupwise" in out
        assert out.count("\n") >= 22  # header + 21 benchmarks

    def test_summary(self, capsys):
        assert main(["summary", "art"]) == 0
        out = capsys.readouterr().out
        assert "mappable points" in out
        assert "32u" in out and "64o" in out
        assert "speedup errors" in out

    def test_summary_detail(self, capsys):
        assert main(["summary", "art", "--detail"]) == 0
        out = capsys.readouterr().out
        assert "memory system, art/32u" in out
        assert "DRAM MPKI" in out
        assert "miss rate" in out

    def test_pinpoints_writes_files(self, tmp_path, capsys):
        assert main([
            "pinpoints", "art", "--target", "32o",
            "--output", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "simulation points" in out
        assert (tmp_path / "art_32o.simpoints").exists()
        assert (tmp_path / "art_32o.weights").exists()

    def test_regions_writes_file(self, tmp_path, capsys):
        assert main(["regions", "art", "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "mappable" in out
        assert (tmp_path / "art.regions").exists()

    def test_figures_json_export(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "results.json"
        assert main([
            "figures", "--benchmarks", "art", "--json", str(out_path),
        ]) == 0
        assert out_path.exists()
        payload = json.loads(out_path.read_text())
        assert set(payload["figures"]) == {
            "figure1", "figure2", "figure3", "figure4", "figure5",
        }
        assert "art" in payload["benchmarks"]

    def test_figures_subset(self, capsys):
        assert main(["figures", "--benchmarks", "art"]) == 0
        out = capsys.readouterr().out
        assert "Memory System Configuration" in out
        assert "Number of SimPoints" in out
        assert "Speedup error, cross platform" in out
        # gcc/apsi tables are skipped when those benchmarks are absent.
        assert "phase comparison" not in out

    def test_sweep_prints_one_row_per_size(self, capsys):
        assert main([
            "sweep", "art", "--sizes", "30000,60000",
            "--no-cache", "--jobs", "1",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "art: interval-size sweep (speedup 32u->32o)"
        assert "VLI speedup err" in lines[1]
        assert [line.split()[0] for line in lines[3:]] == [
            "30,000", "60,000",
        ]
