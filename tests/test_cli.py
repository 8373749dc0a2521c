"""Tests for the command-line interface (static tables and cheap ablations only)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_table_command(self):
        args = build_parser().parse_args(["table", "1"])
        assert args.command == "table" and args.number == 1

    def test_figure_command_with_options(self):
        args = build_parser().parse_args(
            ["figure", "8", "--pes", "16", "--benchmarks", "Alex-6", "NT-We"]
        )
        assert args.command == "figure"
        assert args.number == 8
        assert args.pes == 16
        assert args.benchmarks == ["Alex-6", "NT-We"]

    def test_invalid_table_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])

    def test_invalid_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "1", "--benchmarks", "Alex-99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_command_options(self):
        args = build_parser().parse_args(
            ["run", "--engine", "cycle", "--rows", "32", "--cols", "48", "--batch", "4"]
        )
        assert args.command == "run"
        assert args.engine == "cycle"
        assert (args.rows, args.cols, args.batch) == (32, 48, 4)

    def test_run_rejects_unknown_engine(self):
        for engine in ("verilog", "rtl"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "--engine", engine])

    def test_experiment_run_command_options(self):
        args = build_parser().parse_args(
            ["experiment", "run", "fig8_fifo_depth", "--set", "scale=64", "--jobs", "4"]
        )
        assert args.command == "experiment"
        assert args.experiment_command == "run"
        assert args.name == "fig8_fifo_depth"
        assert args.overrides == ["scale=64"]
        assert args.jobs == 4


class TestVersionAndUnknownCommands:
    def test_version_flag_prints_version_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        import repro

        assert out.strip() == f"repro-eie {repro.__version__}"

    def test_engine_list_prints_every_registered_engine(self, capsys):
        assert main(["engine", "list"]) == 0
        out = capsys.readouterr().out
        engines = out.splitlines()[1:]
        assert engines == ["cycle", "functional"]

    def test_unknown_command_exits_2_with_one_line_hint(self, capsys):
        assert main(["bogus-command"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown command 'bogus-command'" in err
        assert "experiment" in err  # the hint names the valid commands


class TestExperimentCommands:
    def test_experiment_list_names_every_registered_experiment(self, capsys):
        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig8_fifo_depth", "table4_wallclock", "ablation_partitioning"):
            assert name in out

    def test_experiment_describe_emits_default_spec_json(self, capsys):
        assert main(["experiment", "describe", "fig8_fifo_depth"]) == 0
        description = json.loads(capsys.readouterr().out)
        assert description["name"] == "fig8_fifo_depth"
        assert description["axes"] == ["fifo_depth"]
        assert description["default_spec"]["grid"]["fifo_depth"] == [
            1, 2, 4, 8, 16, 32, 64, 128, 256
        ]

    def test_experiment_describe_unknown_name_exits_2(self, capsys):
        assert main(["experiment", "describe", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_run_with_overrides_and_jobs(self, capsys):
        assert main([
            "experiment", "run", "fig8_fifo_depth",
            "--set", "scale=64", "--set", "workloads=Alex-7",
            "--set", "grid.fifo_depth=[1,8]", "--set", "config.num_pes=16",
            "--jobs", "2",
        ]) == 0
        captured = capsys.readouterr()
        assert "Load-balance efficiency vs FIFO depth:" in captured.out
        assert "Alex-7-x64" in captured.out
        assert "2 points" not in captured.out  # run summary goes to stderr
        assert "jobs=2" in captured.err

    def test_experiment_run_from_spec_file_writes_results(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "experiment": "fig9_sram_width",
            "workloads": ["Alex-7"],
            "scale": 64,
            "grid": {"width_bits": [32, 64]},
            "config": {"num_pes": 16},
        }))
        results_dir = tmp_path / "results"
        assert main([
            "experiment", "run", "--spec", str(spec_path),
            "--results-dir", str(results_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "Spmat SRAM width sweep:" in out
        assert (results_dir / "fig9_sram_width.txt").exists()
        stored = json.loads((results_dir / "fig9_sram_width.json").read_text())
        assert stored["provenance"]["spec"]["scale"] == 64
        assert len(stored["records"]) == 2

    def test_experiment_run_without_name_or_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["experiment", "run"])

    def test_experiment_run_rejects_bad_set_syntax(self):
        with pytest.raises(SystemExit):
            main(["experiment", "run", "table1_energy", "--set", "noequals"])

    def test_experiment_run_rejects_unknown_spec_key(self, capsys):
        assert main(["experiment", "run", "table1_energy", "--set", "bogus=1"]) == 2
        assert "no field 'bogus'" in capsys.readouterr().err

    def test_experiment_run_missing_spec_file_exits_2_without_traceback(self, capsys):
        assert main(["experiment", "run", "--spec", "/nonexistent/spec.json"]) == 2
        assert "repro-eie:" in capsys.readouterr().err

    def test_set_values_parse_json_lists_commas_and_quoted_strings(self):
        from repro.cli import _parse_override

        assert _parse_override("grid.fifo_depth=[1,8]") == ("grid.fifo_depth", [1, 8])
        assert _parse_override("workloads=Alex-6,NT-We") == (
            "workloads", ["Alex-6", "NT-We"]
        )
        assert _parse_override("scale=64") == ("scale", 64)
        # A JSON-quoted string keeps its commas (no list splitting).
        assert _parse_override('params.label="a, b"') == ("params.label", "a, b")

    @pytest.mark.parametrize(
        "module, experiment",
        [
            ("repro.experiments.reliability_catalog", "reliability_pareto"),
            ("repro.experiments.models_catalog", "model_storage"),
            ("repro.experiments.models_catalog", "model_speedup"),
        ],
    )
    def test_documented_set_hints_resolve_to_registered_models(self, module, experiment):
        """Every ``--set`` hint in a catalog docstring works as typed in a shell."""
        import importlib
        import re
        import shlex

        from repro.cli import _experiment_spec_from_args
        from repro.experiments.runner import ExperimentRunner
        from repro.models.registry import ModelRegistry

        hints = re.findall(r"``(--set [^`]+)``", importlib.import_module(module).__doc__)
        assert hints
        for hint in hints:
            args = build_parser().parse_args(
                ["experiment", "run", experiment, *shlex.split(hint)]
            )
            spec = _experiment_spec_from_args(args, "run")
            _, _, _, points = ExperimentRunner().resolve(spec)
            assert points
            for point in points:
                ModelRegistry.get(point["model"])

    def test_scale_on_fixed_workload_commands_prints_a_note(self, capsys):
        assert main(["table", "1", "--scale", "64"]) == 0
        captured = capsys.readouterr()
        assert "--scale has no effect" in captured.err
        assert "DRAM" in captured.out  # the table still renders normally


class TestStaticCommands:
    """Commands that do not build full-size workloads (fast enough for unit tests)."""

    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        out = capsys.readouterr().out
        assert "DRAM" in out and "640" in out

    def test_table2(self, capsys):
        assert main(["table", "2"]) == 0
        assert "spmat_read" in capsys.readouterr().out

    def test_table3(self, capsys):
        assert main(["table", "3"]) == 0
        out = capsys.readouterr().out
        assert "Alex-6" in out and "NT-LSTM" in out

    def test_summary(self, capsys):
        assert main(["summary", "--pes", "64"]) == 0
        out = capsys.readouterr().out
        assert "Peak GOP/s" in out
        assert "64" in out

    def test_figure10(self, capsys):
        assert main(["figure", "10"]) == 0
        out = capsys.readouterr().out
        assert "int16" in out and "int8" in out

    def test_codebook_ablation(self, capsys):
        assert main(["ablation", "codebook-bits"]) == 0
        assert "RMS error" in capsys.readouterr().out

    def test_run_functional_engine(self, capsys):
        assert main(["run", "--engine", "functional", "--rows", "24", "--cols", "36",
                     "--pes", "4", "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "functional" in out
        assert "Matches dense reference" in out and "True" in out

    def test_run_cycle_engine(self, capsys):
        assert main(["run", "--engine", "cycle", "--rows", "24", "--cols", "36",
                     "--pes", "4", "--batch", "3"]) == 0
        out = capsys.readouterr().out
        assert "Cycles (total)" in out

    def test_run_rejects_bad_sizes(self):
        with pytest.raises(SystemExit):
            main(["run", "--rows", "0", "--cols", "8", "--pes", "1"])

    def test_run_negative_seed_is_a_one_line_error(self, capsys):
        assert main(["run", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "seed must be a non-negative integer, got -1" in err


class TestModelCommands:
    def test_model_list_names_every_registered_model(self, capsys):
        assert main(["model", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("alexnet_fc", "vgg_fc", "neuraltalk_lstm"):
            assert name in out

    def test_model_describe_emits_spec_and_nodes_json(self, capsys):
        assert main(["model", "describe", "neuraltalk_lstm"]) == 0
        description = json.loads(capsys.readouterr().out)
        assert description["default_spec"]["params"]["mode"] == "per_gate"
        assert description["default_build"]["num_nodes"] == 4

    def test_model_describe_unknown_name_exits_2(self, capsys):
        assert main(["model", "describe", "resnet"]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_model_run_cycle_engine_reports_per_node_and_totals(self, capsys):
        assert main(["model", "run", "neuraltalk_lstm", "--engine", "cycle",
                     "--scale", "32", "--pes", "4"]) == 0
        out = capsys.readouterr().out
        for gate in ("gate_input", "gate_forget", "gate_output", "gate_cell"):
            assert gate in out
        assert "Total cycles" in out
        assert "Energy (uJ" in out

    def test_model_run_functional_engine_checks_reference(self, capsys):
        assert main(["model", "run", "alexnet_fc", "--engine", "functional",
                     "--scale", "64", "--pes", "4", "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "Matches decoded dense reference" in out and "True" in out

    def test_model_run_stacked_lstm_via_param(self, capsys):
        assert main(["model", "run", "neuraltalk_lstm", "--engine", "cycle",
                     "--scale", "32", "--pes", "4", "--param", "mode=stacked"]) == 0
        out = capsys.readouterr().out
        assert "gates_stacked" in out

    def test_model_compress_reports_storage(self, capsys):
        assert main(["model", "compress", "vgg_fc", "--scale", "64", "--pes", "4"]) == 0
        out = capsys.readouterr().out
        assert "Compression ratio" in out
        assert "VGG-6-x64" in out

    def test_model_run_from_npz_import(self, capsys, tmp_path):
        import numpy as np

        path = tmp_path / "imported.npz"
        rng = np.random.default_rng(0)
        w0 = rng.normal(size=(16, 24))
        w0[rng.random((16, 24)) >= 0.3] = 0.0
        w0[0, 0] = 0.5
        w1 = rng.normal(size=(8, 16))
        w1[rng.random((8, 16)) >= 0.3] = 0.0
        w1[0, 0] = 0.5
        np.savez(path, **{"fc6.weight": w0, "fc7.weight": w1})
        assert main(["model", "run", "--npz", str(path), "--engine", "cycle",
                     "--pes", "4"]) == 0
        out = capsys.readouterr().out
        assert "fc6" in out and "fc7" in out and "Total cycles" in out

    def test_model_rejects_name_and_npz_together(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["model", "run", "alexnet_fc", "--npz", str(tmp_path / "x.npz")])

    def test_model_rejects_registry_flags_with_npz(self, tmp_path):
        with pytest.raises(SystemExit, match="no effect"):
            main(["model", "run", "--npz", str(tmp_path / "x.npz"), "--scale", "16"])
        with pytest.raises(SystemExit, match="no effect"):
            main(["model", "compress", "--npz", str(tmp_path / "x.npz"),
                  "--param", "mode=stacked"])

    def test_model_requires_name_or_npz(self):
        with pytest.raises(SystemExit):
            main(["model", "run"])

    def test_model_unknown_name_exits_2(self, capsys):
        assert main(["model", "run", "resnet", "--pes", "4"]) == 2
        assert "unknown model" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_model_non_finite_scale_exits_2_with_one_line(self, capsys, scale):
        assert main(["model", "compress", "alexnet_fc", "--scale", scale]) == 2
        err = capsys.readouterr().err
        assert "scale must be a finite number > 0" in err
        assert len(err.strip().splitlines()) == 1


class TestCacheAndExecutorCli:
    def test_executor_and_no_store_flags_parse(self):
        args = build_parser().parse_args([
            "experiment", "run", "fig8_fifo_depth",
            "--jobs", "4", "--executor", "processes", "--no-store",
        ])
        assert args.executor == "processes"
        assert args.no_store is True

    def test_unknown_executor_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["experiment", "run", "fig8_fifo_depth", "--executor", "gpu"]
            )

    def test_experiment_run_processes_matches_serial_output(self, capsys):
        argv_tail = [
            "--set", "scale=64", "--set", "workloads=Alex-7,NT-We",
            "--set", "grid.fifo_depth=[1,8]", "--set", "config.num_pes=16",
        ]
        assert main(["experiment", "run", "fig8_fifo_depth", *argv_tail]) == 0
        serial = capsys.readouterr().out
        assert main([
            "experiment", "run", "fig8_fifo_depth",
            "--jobs", "2", "--executor", "processes", *argv_tail,
        ]) == 0
        assert capsys.readouterr().out == serial

    def test_cache_info_and_clear_roundtrip(self, capsys, tmp_path, monkeypatch):
        store_dir = tmp_path / "cli-store"
        monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert str(store_dir) in out and "Entries" in out

        # A tiny synthetic run populates the store through the session layer.
        assert main([
            "run", "--engine", "functional",
            "--rows", "24", "--cols", "36", "--pes", "4", "--batch", "2",
        ]) == 0
        capsys.readouterr()
        assert len(list((store_dir / "layers").glob("*.npz"))) == 1

        assert main(["cache", "clear"]) == 0
        assert "removed 1 artifact store entry" in capsys.readouterr().out
        assert list((store_dir / "layers").glob("*.npz")) == []

    def test_cache_sweep_and_lifetime_rows(self, capsys, tmp_path, monkeypatch):
        import os
        import time

        from repro.store import ArtifactStore

        store_dir = tmp_path / "cli-store"
        monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))
        orphan = store_dir / "layers" / ".crashed.1.tmp"
        orphan.parent.mkdir(parents=True)
        orphan.write_bytes(b"leftovers")
        old = time.time() - 2 * ArtifactStore.STALE_TMP_SECONDS
        os.utime(orphan, (old, old))

        assert main(["cache", "sweep"]) == 0
        assert "swept 1 stale temp file" in capsys.readouterr().out
        assert not orphan.exists()

        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "Swept tmp (lifetime)" in out
        assert "Stored (lifetime)" in out
        assert "Corrupt (lifetime)" in out

    def test_no_store_skips_the_store(self, capsys, tmp_path, monkeypatch):
        store_dir = tmp_path / "cli-store-disabled"
        monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))
        assert main([
            "model", "compress", "alexnet_fc",
            "--scale", "64", "--pes", "8", "--no-store",
        ]) == 0
        capsys.readouterr()
        assert not (store_dir / "layers").exists()

    def test_store_env_gate_disables_cli_store(self, capsys, tmp_path, monkeypatch):
        store_dir = tmp_path / "cli-store-gated"
        monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))
        monkeypatch.setenv("REPRO_STORE", "0")
        assert main([
            "run", "--engine", "functional",
            "--rows", "24", "--cols", "36", "--pes", "4", "--batch", "2",
        ]) == 0
        capsys.readouterr()
        assert not (store_dir / "layers").exists()


class TestServeCli:
    def test_serve_flags_parse(self):
        args = build_parser().parse_args([
            "serve", "--models", "neuraltalk_lstm", "alexnet_fc",
            "--engine", "cycle", "--max-batch", "32", "--max-wait-us", "500",
            "--queue-depth", "64", "--pes", "8", "--port", "9999",
        ])
        assert args.command == "serve"
        assert args.serve_command is None  # daemon mode
        assert args.models == ["neuraltalk_lstm", "alexnet_fc"]
        assert (args.max_batch, args.max_wait_us, args.queue_depth) == (32, 500.0, 64)
        assert args.port == 9999

    def test_serve_bench_flags_parse(self):
        args = build_parser().parse_args([
            "serve", "bench", "--connect", "127.0.0.1:8123",
            "--rate", "100", "200", "--requests", "50", "--verify",
        ])
        assert args.serve_command == "bench"
        assert args.connect == "127.0.0.1:8123"
        assert args.rate == [100.0, 200.0]
        assert args.requests == 50
        assert args.verify is True

    def test_serve_bench_rejects_bad_connect(self):
        with pytest.raises(SystemExit):
            main(["serve", "bench", "--connect", "nonsense", "--requests", "5"])

    @pytest.mark.parametrize("port", ["0", "65536", "99999"])
    def test_serve_bench_rejects_out_of_range_port(self, port):
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(["serve", "bench", "--connect", f"127.0.0.1:{port}", "--requests", "5"])

    def test_serve_bench_in_process_with_verify(self, capsys):
        assert main([
            "serve", "bench", "--models", "neuraltalk_lstm",
            "--scale", "64", "--pes", "8", "--rate", "500",
            "--requests", "20", "--no-store", "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "Open-loop serving benchmark" in out
        assert "bit-identical to the offline run_model path" in out

    def test_serve_bench_unknown_model_exits(self, capsys):
        with pytest.raises(SystemExit, match="does not serve"):
            main([
                "serve", "bench", "--models", "neuraltalk_lstm",
                "--scale", "64", "--pes", "8", "--model", "vgg_fc",
                "--requests", "5", "--no-store",
            ])

    def test_serve_bench_closed_loop_flag_parses(self):
        args = build_parser().parse_args([
            "serve", "bench", "--requests", "10", "--closed-loop", "4",
        ])
        assert args.closed_loop == 4
        args = build_parser().parse_args(["serve", "bench", "--requests", "10"])
        assert args.closed_loop is None

    def test_serve_bench_closed_loop_in_process_with_verify(self, capsys):
        assert main([
            "serve", "bench", "--models", "neuraltalk_lstm",
            "--scale", "64", "--pes", "8", "--closed-loop", "4",
            "--requests", "16", "--no-store", "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "Closed-loop serving benchmark" in out
        assert "Workers" in out
        assert "bit-identical to the offline run_model path" in out

    def test_serve_bench_rejects_bad_closed_loop(self):
        with pytest.raises(SystemExit, match="closed-loop"):
            main([
                "serve", "bench", "--models", "neuraltalk_lstm",
                "--scale", "64", "--requests", "5",
                "--closed-loop", "0", "--no-store",
            ])


class TestServeFleetCli:
    def test_serve_chaos_flag_parses_for_the_daemon(self):
        args = build_parser().parse_args(["serve", "--chaos", "--port", "7471"])
        assert args.serve_command is None
        assert args.chaos is True
        args = build_parser().parse_args(["serve"])
        assert args.chaos is False

    def test_serve_status_flags_parse(self):
        args = build_parser().parse_args([
            "serve", "status", "--connect", "127.0.0.1:7471",
        ])
        assert args.serve_command == "status"
        assert args.connect == "127.0.0.1:7471"

    def test_serve_status_rejects_bad_connect(self):
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(["serve", "status", "--connect", "nonsense"])

    @pytest.mark.parametrize("port", ["0", "65536", "99999", "\u00b2"])
    def test_serve_status_rejects_out_of_range_port(self, port):
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(["serve", "status", "--connect", f"127.0.0.1:{port}"])

    def test_serve_fleet_flags_parse(self):
        args = build_parser().parse_args([
            "serve", "fleet", "--models", "neuraltalk_lstm", "--workers", "4",
            "--scale", "64", "--chaos",
        ])
        assert args.serve_command == "fleet"
        assert args.workers == 4
        assert args.chaos is True
        assert args.port == 0  # ephemeral worker ports by default

    def test_serve_fleet_rejects_bad_workers(self):
        with pytest.raises(SystemExit, match="workers"):
            main(["serve", "fleet", "--workers", "0"])

    def test_serve_chaos_flags_parse(self):
        args = build_parser().parse_args([
            "serve", "chaos", "--models", "neuraltalk_lstm", "--scale", "64",
            "--workers", "3", "--kills", "2", "--stalls", "1",
            "--corruptions", "1", "--chaos-seed", "5", "--verify",
        ])
        assert args.serve_command == "chaos"
        assert (args.workers, args.kills, args.stalls, args.corruptions) == (3, 2, 1, 1)
        assert args.chaos_seed == 5
        assert args.verify is True
        assert args.closed_loop == 8  # closed-loop concurrency default

    def test_serve_chaos_rejects_bad_counts(self):
        with pytest.raises(SystemExit, match="workers"):
            main(["serve", "chaos", "--workers", "0"])
        with pytest.raises(SystemExit, match="requests"):
            main(["serve", "chaos", "--requests", "0"])

    def test_serve_worker_args_round_trip(self):
        """Every serve_common flag survives the fleet → worker re-encoding."""
        from repro.cli import _serve_worker_args

        args = build_parser().parse_args([
            "serve", "fleet", "--models", "neuraltalk_lstm", "alexnet_fc",
            "--engine", "functional", "--scale", "64", "--seed", "9",
            "--pes", "4", "--fifo-depth", "16", "--density", "0.25",
            "--max-batch", "8", "--max-wait-us", "500", "--queue-depth", "64",
            "--no-store",
        ])
        worker = _serve_worker_args(args, chaos=True)
        reparsed = build_parser().parse_args(["serve", *worker])
        assert reparsed.models == ["neuraltalk_lstm", "alexnet_fc"]
        assert reparsed.engine == "functional"
        assert reparsed.scale == 64.0
        assert reparsed.seed == 9
        assert reparsed.pes == 4 and reparsed.fifo_depth == 16
        assert reparsed.density == 0.25
        assert reparsed.max_batch == 8 and reparsed.max_wait_us == 500.0
        assert reparsed.queue_depth == 64
        assert reparsed.no_store
        assert reparsed.chaos is True


SHARD_ARGV = [
    "--set", "scale=64", "--set", "workloads=Alex-7",
    "--set", "grid.fifo_depth=[1,8]", "--set", "config.num_pes=16",
]


class TestShardCli:
    def test_shard_flags_parse(self):
        args = build_parser().parse_args([
            "experiment", "run", "fig8_fifo_depth",
            "--shard-id", "2", "--shard-count", "4",
        ])
        assert (args.shard_id, args.shard_count) == (2, 4)
        args = build_parser().parse_args([
            "experiment", "merge", "fig8_fifo_depth", "--shard-count", "4",
        ])
        assert args.experiment_command == "merge"
        assert args.shard_count == 4
        args = build_parser().parse_args([
            "shard", "plan", "fig8_fifo_depth", "--shard-count", "3",
        ])
        assert args.command == "shard" and args.shard_command == "plan"

    def test_bad_shard_id_exits_2_with_typed_message(self, capsys, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        assert main([
            "experiment", "run", "fig8_fifo_depth", *SHARD_ARGV,
            "--shard-id", "5", "--shard-count", "3",
        ]) == 2
        err = capsys.readouterr().err
        assert "shard id must satisfy 0 <= id < 3" in err

    def test_half_given_coordinates_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        assert main([
            "experiment", "run", "fig8_fifo_depth", *SHARD_ARGV, "--shard-id", "0",
        ]) == 2
        assert "give both or neither" in capsys.readouterr().err

    def test_bad_shard_count_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        assert main([
            "shard", "plan", "fig8_fifo_depth", *SHARD_ARGV, "--shard-count", "0",
        ]) == 2
        assert "shard count must be >= 1" in capsys.readouterr().err

    def test_merge_without_partials_no_recompute_exits_2(self, capsys, tmp_path,
                                                         monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        assert main([
            "experiment", "merge", "fig8_fifo_depth", *SHARD_ARGV,
            "--shard-count", "3", "--no-recompute",
        ]) == 2
        err = capsys.readouterr().err
        assert "absent from the store" in err

    def test_shard_commands_need_an_enabled_store(self, capsys, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        monkeypatch.setenv("REPRO_STORE", "0")
        assert main([
            "experiment", "run", "fig8_fifo_depth", *SHARD_ARGV,
            "--shard-id", "0", "--shard-count", "2",
        ]) == 2
        assert "store" in capsys.readouterr().err

    def test_shard_run_merge_matches_serial_output(self, capsys, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        assert main(["experiment", "run", "fig8_fifo_depth", *SHARD_ARGV]) == 0
        serial = capsys.readouterr().out
        for shard_id in range(3):
            assert main([
                "experiment", "run", "fig8_fifo_depth", *SHARD_ARGV,
                "--shard-id", str(shard_id), "--shard-count", "3",
            ]) == 0
            capsys.readouterr()
        assert main([
            "experiment", "merge", "fig8_fifo_depth", *SHARD_ARGV,
            "--shard-count", "3",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial
        assert "3 shard hits, 0 recomputed" in captured.err

    def test_shard_plan_and_status_render(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        assert main([
            "shard", "plan", "fig8_fifo_depth", *SHARD_ARGV, "--shard-count", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 points over 2 shards" in out and "In store" in out
        assert main([
            "shard", "status", "fig8_fifo_depth", *SHARD_ARGV, "--shard-count", "2",
        ]) == 0
        assert "0/2 shards" in capsys.readouterr().out

    def test_cache_info_shows_budget_and_kind_breakdown(self, capsys, tmp_path,
                                                        monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        monkeypatch.setenv("REPRO_STORE_BUDGET_BYTES", "8192")
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "Size budget (KiB)" in out and "8.0" in out
        assert "Per artifact kind" in out
        for kind in ("layers", "models", "shards"):
            assert kind in out
