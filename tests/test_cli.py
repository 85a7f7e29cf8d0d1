"""Tests for the command-line interface (the Dashboard / NeuraViz stand-in)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.dataset == "cora"
        assert args.config == "Tile-16"
        assert args.eviction == "rolling"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_invalid_eviction_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--eviction", "never"])

    def test_backend_and_impl_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.backend == "cycle"
        assert args.impl == "numpy"
        args = build_parser().parse_args(["batch"])
        assert args.backend == "analytic"

    def test_invalid_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--backend", "quantum"])

    def test_invalid_impl_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--impl", "fortran"])

    def test_session_flag_defaults(self):
        for command in ("run", "gcn", "sweep", "batch"):
            args = build_parser().parse_args([command])
            assert args.executor == "serial"
            assert args.workers is None
            assert args.cache_dir is None

    def test_invalid_executor_rejected(self):
        for command in ("run", "batch"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--executor", "gpu"])

    def test_unknown_backend_rejected_on_every_subcommand(self):
        for command in ("run", "gcn", "sweep", "batch"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--backend", "quantum"])


class TestCommands:
    def test_datasets_lists_both_suites(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "facebook" in out
        assert "cora" in out
        assert "Table-1" in out and "GNN" in out

    def test_bloat_selected_datasets(self, capsys):
        code = main(["bloat", "--datasets", "facebook", "wiki-Vote",
                     "--max-nodes", "96"])
        assert code == 0
        out = capsys.readouterr().out
        assert "facebook" in out and "wiki-Vote" in out
        assert "bloat_percent" in out

    def test_run_small_workload(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--max-nodes", "80",
                     "--config", "Tile-4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "wiki-Vote" in out
        assert "True" in out  # verified column

    def test_run_with_output_dir(self, tmp_path, capsys):
        code = main(["--output-dir", str(tmp_path), "run", "--dataset",
                     "wiki-Vote", "--max-nodes", "64", "--config", "Tile-4",
                     "--no-verify"])
        assert code == 0
        saved = list(tmp_path.glob("run_*.csv"))
        assert len(saved) == 1
        assert "cycles" in saved[0].read_text()

    def test_gcn_command(self, capsys):
        code = main(["gcn", "--dataset", "cora", "--max-nodes", "80",
                     "--config", "Tile-4", "--feature-dim", "8",
                     "--hidden-dim", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "aggregation_cycles" in out

    def test_sweep_command_raw(self, capsys):
        code = main(["sweep", "--dataset", "wiki-Vote", "--max-nodes", "64",
                     "--raw"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Tile-4" in out and "Tile-64" in out

    def test_run_analytic_backend(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--max-nodes", "96",
                     "--config", "Tile-4", "--backend", "analytic"])
        assert code == 0
        out = capsys.readouterr().out
        assert "analytic" in out
        assert "cycles" in out

    def test_run_functional_backend(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--max-nodes", "64",
                     "--config", "Tile-4", "--backend", "functional"])
        assert code == 0
        out = capsys.readouterr().out
        assert "functional" in out
        assert "partial_products" in out

    def test_gcn_analytic_backend(self, capsys):
        code = main(["gcn", "--dataset", "cora", "--max-nodes", "64",
                     "--config", "Tile-4", "--feature-dim", "8",
                     "--hidden-dim", "4", "--backend", "analytic"])
        assert code == 0
        assert "aggregation_cycles" in capsys.readouterr().out

    def test_batch_command_shares_compile_cache(self, capsys):
        code = main(["batch", "--datasets", "wiki-Vote", "--repeat", "3",
                     "--max-nodes", "64", "--config", "Tile-4",
                     "--backend", "analytic"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cache_hits" in out
        assert "wiki-Vote#2" in out

    def test_batch_with_output_dir(self, tmp_path, capsys):
        code = main(["--output-dir", str(tmp_path), "batch", "--datasets",
                     "wiki-Vote", "--max-nodes", "64", "--config", "Tile-4"])
        assert code == 0
        saved = list(tmp_path.glob("batch_*.csv"))
        assert len(saved) == 1
        assert "partial_products" in saved[0].read_text()


class TestSessionIntegration:
    """The CLI routes every workload subcommand through a Session."""

    def test_unknown_config_is_a_clean_error(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--max-nodes", "64",
                     "--config", "Tile-99", "--backend", "analytic"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Tile-99" in err

    def test_unknown_dataset_is_a_clean_error(self, capsys):
        code = main(["run", "--dataset", "no-such-graph", "--max-nodes", "64",
                     "--config", "Tile-4", "--backend", "analytic"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_cache_dir_is_a_clean_error(self, tmp_path, capsys):
        blocker = tmp_path / "occupied"
        blocker.write_text("x")
        code = main(["run", "--dataset", "wiki-Vote", "--max-nodes", "64",
                     "--config", "Tile-4", "--backend", "analytic",
                     "--cache-dir", str(blocker)])
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_warm_cache_dir_reports_cache_hit(self, tmp_path, capsys):
        argv = ["run", "--dataset", "wiki-Vote", "--max-nodes", "64",
                "--config", "Tile-4", "--backend", "analytic",
                "--cache-dir", str(tmp_path / "programs")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "False" in cold  # first invocation compiles
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "True" in warm  # second invocation hits the disk cache
        assert list((tmp_path / "programs").glob("*.pkl"))

    def test_run_reports_wall_time_and_cache_columns(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--max-nodes", "64",
                     "--config", "Tile-4", "--backend", "analytic"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cache_hit" in out
        assert "wall_time_s" in out

    def test_sharded_run_reports_shard_columns(self, capsys):
        argv = ["run", "--dataset", "wiki-Vote", "--max-nodes", "80",
                "--config", "Tile-4", "--backend", "analytic",
                "--shards", "3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "shards" in out
        assert "partial_products" in out

    @pytest.mark.parametrize("argv", [
        ["sweep", "--dataset", "wiki-Vote", "--max-nodes", "64"],
        ["gcn", "--dataset", "cora", "--max-nodes", "64", "--config",
         "Tile-4", "--feature-dim", "8", "--hidden-dim", "4"],
        ["batch", "--datasets", "wiki-Vote", "cora", "--max-nodes", "64",
         "--config", "Tile-4"],
    ], ids=["sweep", "gcn", "batch"])
    def test_analytic_subcommands_exit_zero(self, argv, capsys):
        assert main(argv + ["--backend", "analytic"]) == 0
        assert capsys.readouterr().out.strip()

    def test_sweep_prints_the_sweep_result_output(self, capsys):
        from repro.arch.config import all_spgemm_configs
        from repro.core import Session, SweepSpec
        from repro.datasets import load_dataset
        from repro.viz.export import format_table

        assert main(["sweep", "--dataset", "wiki-Vote", "--max-nodes", "64",
                     "--backend", "analytic"]) == 0
        out = capsys.readouterr().out
        adjacency = load_dataset("wiki-Vote", max_nodes=64,
                                 seed=0).adjacency_csr()
        with Session("Tile-4", backend="analytic") as session:
            table = session.run(SweepSpec(
                a=adjacency,
                configs=[c.name for c in all_spgemm_configs()])).output
        rows = [{"config": name, **{k: round(v, 3) for k, v in m.items()}}
                for name, m in table.items()]
        assert out.strip() == format_table(rows)

    def test_batch_prints_job_rows_and_one_summary_row(self, capsys):
        assert main(["batch", "--datasets", "wiki-Vote", "--repeat", "2",
                     "--max-nodes", "64", "--config", "Tile-4",
                     "--backend", "analytic"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # Two tables: header, separator, body rows.
        separators = [i for i, line in enumerate(lines) if "-+-" in line]
        assert len(separators) == 2
        job_header = [c.strip() for c in lines[separators[0] - 1].split("|")]
        job_rows = lines[separators[0] + 1:separators[1] - 1]
        summary_header = [c.strip()
                          for c in lines[separators[1] - 1].split("|")]
        summary_rows = lines[separators[1] + 1:]
        assert job_header[:6] == ["label", "kind", "config", "backend",
                                  "executor", "cycles"]
        assert [row.split("|")[0].strip() for row in job_rows] == \
            ["wiki-Vote#0", "wiki-Vote#1"]
        assert len(summary_rows) == 1
        assert summary_header[:2] == ["label", "kind"]
        assert {"jobs", "total_cycles", "total_partial_products",
                "total_energy_j", "cache_hits"} <= set(summary_header)
        summary = dict(zip(summary_header,
                           (c.strip() for c in summary_rows[0].split("|"))))
        assert summary["kind"] == "batch"
        assert summary["jobs"] == "2"
        assert summary["cache_hits"] == "1"

    def test_batch_thread_executor(self, capsys):
        code = main(["batch", "--datasets", "wiki-Vote", "--repeat", "2",
                     "--max-nodes", "64", "--config", "Tile-4",
                     "--executor", "thread", "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "thread" in out
        assert "wall_time_s" in out


class TestMultiChipCommand:
    def test_multichip_run_reports_chip_columns(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--max-nodes", "80",
                     "--config", "Tile-4", "--backend", "multichip",
                     "--chips", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "chips" in out
        assert "shard_skew" in out
        assert "multichip" in out

    def test_chips_without_multichip_backend_is_a_clean_error(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--max-nodes", "64",
                     "--config", "Tile-4", "--backend", "analytic",
                     "--chips", "4"])
        assert code == 2
        assert "multichip" in capsys.readouterr().err

    def test_chip_backend_without_multichip_is_a_clean_error(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--max-nodes", "64",
                     "--config", "Tile-4", "--backend", "cycle",
                     "--chip-backend", "analytic"])
        assert code == 2
        assert "--chip-backend requires" in capsys.readouterr().err

    def test_multichip_backend_listed(self):
        args = build_parser().parse_args(["run", "--backend", "multichip",
                                          "--chips", "4",
                                          "--chip-backend", "cycle"])
        assert args.backend == "multichip"
        assert args.chips == 4
        assert args.chip_backend == "cycle"


class TestCacheCommand:
    def test_stats_on_empty_dir(self, tmp_path, capsys):
        code = main(["cache", "stats", "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "entries" in out
        assert str(tmp_path) in out

    def test_stats_then_clear_round_trip(self, tmp_path, capsys):
        assert main(["run", "--dataset", "wiki-Vote", "--max-nodes", "64",
                     "--config", "Tile-4", "--backend", "analytic",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "| 1 " in out or "| 1" in out  # one cached program
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.pkl"))

    def test_stats_on_missing_dir_does_not_create_it(self, tmp_path, capsys):
        missing = tmp_path / "never-created"
        assert main(["cache", "stats", "--cache-dir", str(missing)]) == 0
        assert "entries" in capsys.readouterr().out
        assert not missing.exists()

    def test_clear_missing_dir_is_a_noop(self, tmp_path, capsys):
        missing = tmp_path / "never-created"
        assert main(["cache", "clear", "--cache-dir", str(missing)]) == 0
        assert "nothing to clear" in capsys.readouterr().out
        assert not missing.exists()

    def test_cache_requires_an_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "defrag"])


class TestServeCommand:
    def test_serve_flag_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8077
        assert args.backend == "analytic"
        assert args.max_batch == 8
        assert args.max_delay_ms == 5.0
        assert args.queue_depth == 256
        assert args.request_timeout == 60.0
        assert args.no_coalesce is False

    def test_serve_accepts_multichip_fleet(self):
        args = build_parser().parse_args(
            ["serve", "--backend", "multichip", "--chips", "4",
             "--port", "0", "--max-batch", "16"])
        assert args.chips == 4
        assert args.port == 0

    def test_serve_chips_without_multichip_is_a_clean_error(self, capsys):
        assert main(["serve", "--chips", "4", "--port", "0"]) == 2
        assert "multichip" in capsys.readouterr().err
