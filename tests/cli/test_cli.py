"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_range_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])

    @pytest.mark.parametrize(
        "argv",
        [["table", "4", "--procs", "2"], ["stats", "table6", "--procs", "2"]],
        ids=["sweep-flags", "stats"],
    )
    def test_procs_flag_is_gone(self, argv, capsys):
        # Sweeps run in one process; process sharding has no flag.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "--procs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "4"],
            ["figure", "2"],
            ["export", "out"],
            ["score"],
            ["stats", "table6"],
            ["serve"],
            ["faults"],
            ["campaign", "run", "scenario.yaml"],
        ],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_jobs_flag_is_gone(self, argv, capsys):
        # Sweeps run in the calling thread; there is no thread-pool flag.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestCommands:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "sg2044" in out and "RVV v1.0.0" in out

    def test_table5(self, capsys):
        assert main(["table", "5"]) == 0
        assert "Sophon SG2044" in capsys.readouterr().out

    def test_table4_csv(self, capsys):
        assert main(["table", "4", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("Benchmark,")

    def test_figure1(self, capsys):
        assert main(["figure", "1"]) == 0
        assert "STREAM" in capsys.readouterr().out

    def test_npb_ep_class_s(self, capsys):
        assert main(["npb", "ep", "--npb-class", "S"]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_predict(self, capsys):
        assert main(["predict", "sg2044", "is", "--threads", "64"]) == 0
        out = capsys.readouterr().out
        assert "Mop/s" in out and "dominant" in out

    def test_cg_study(self, capsys):
        assert main(["cg-study"]) == 0
        assert "slowdown" in capsys.readouterr().out

    def test_stream(self, capsys):
        assert main(["stream", "--elements", "100000"]) == 0
        assert "GB/s" in capsys.readouterr().out


class TestExplorationCommands:
    def test_ablate(self, capsys):
        assert main(["ablate", "ep", "--threads", "64"]) == 0
        out = capsys.readouterr().out
        assert "clock" in out and "memory" in out

    def test_cluster(self, capsys):
        assert main(["cluster", "sg2044", "ep", "--sockets", "1", "4"]) == 0
        assert "socket" in capsys.readouterr().out

    def test_roofline(self, capsys):
        assert main(["roofline", "sg2044"]) == 0
        out = capsys.readouterr().out
        assert "ridge" in out and "compute-bound" in out

    def test_export(self, capsys, tmp_path):
        assert main(["export", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "table4.csv" in out and "figure2.csv" in out

    def test_score(self, capsys):
        assert main(["score"]) == 0
        out = capsys.readouterr().out
        assert "anchored" in out and "emergent" in out

    @pytest.mark.parametrize(
        "argv", [["faults"], ["faults", "--fault-seed", "7"]], ids=["default", "seed7"]
    )
    def test_faults_converges_bit_identical(self, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "verdict: bit-identical" in out
        assert "grid: 24 configs" in out


class TestStatsCommand:
    def test_stats_text_tree(self, capsys):
        assert main(["stats", "table6"]) == 0
        out = capsys.readouterr().out
        assert "schema v1" in out
        assert "table6 x1" in out
        assert "sweep.configs_requested" in out

    def test_stats_json(self, capsys):
        import json

        assert main(["stats", "figure5", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1
        assert report["counters"]["harness.figures_built"] == 1
        assert report["spans"]["children"][0]["name"] == "figure5"

    def test_stats_accepts_loose_spellings(self, capsys):
        assert main(["stats", "t1"]) == 0
        assert "table1 x1" in capsys.readouterr().out

    def test_stats_rejects_nonsense(self, capsys):
        assert main(["stats", "bogus"]) == 2
        assert "unrecognised artifact" in capsys.readouterr().err

    def test_stats_rejects_unknown_number(self, capsys):
        assert main(["stats", "table99"]) == 2
        assert "no such artifact" in capsys.readouterr().err

    def test_stats_leaves_telemetry_disabled(self):
        from repro import obs

        assert main(["stats", "table1"]) == 0
        assert not obs.is_enabled()

    def test_table_telemetry_flag_writes_report(self, capsys, tmp_path):
        import json

        path = tmp_path / "report.json"
        assert main(["table", "6", "--telemetry", str(path)]) == 0
        report = json.loads(path.read_text())
        assert report["version"] == 1
        assert report["counters"]["harness.tables_built"] == 1
        assert "timings" in report
