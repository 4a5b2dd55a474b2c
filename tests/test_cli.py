"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestCompileCommand:
    def test_compile_decode_block(self, tmp_path, capsys):
        exit_code = main(["compile", "--model", "gpt2", "--mode", "decode",
                          "--kv-len", "32", "--out", str(tmp_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "gpt2" in out
        assert (tmp_path / "kernel.cpp").exists()
        assert (tmp_path / "link.cfg").exists()
        assert (tmp_path / "host.cpp").exists()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["model"] == "gpt2"
        assert report["fused_groups"] == 1

    def test_compile_prefill_without_output_dir(self, capsys):
        exit_code = main(["compile", "--model", "qwen", "--mode", "prefill",
                          "--seq-len", "16"])
        assert exit_code == 0
        assert "qwen" in capsys.readouterr().out

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["compile", "--model", "opt"])

    @pytest.mark.parametrize("flags", [["--tile-size", "0"], ["--unroll", "-3"],
                                       ["--mode", "prefill", "--seq-len", "0"],
                                       ["--kv-len", "0"]])
    def test_non_positive_size_rejected(self, flags, capsys):
        assert main(["compile", *flags]) == 2
        err = capsys.readouterr().err
        assert f"{flags[-2]} must be at least 1" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("mode,flag,needs", [
        ("decode", "--seq-len", "--mode prefill"),
        ("prefill", "--kv-len", "--mode decode")])
    def test_flag_of_the_other_mode_rejected(self, mode, flag, needs,
                                             capsys):
        """--seq-len shapes only a prefill block and --kv-len only a
        decode block; given to the other mode it is an error, not a
        silently ignored flag."""
        assert main(["compile", "--mode", mode, flag, "4096"]) == 2
        err = capsys.readouterr().err
        assert flag in err and needs in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--tile-size", "--unroll"])
    def test_explore_rejects_explicit_sizes(self, flag, capsys):
        assert main(["compile", "--explore", flag, "8"]) == 2
        assert "--explore picks" in capsys.readouterr().err

    def test_explicit_sizes_reach_the_tiling_space(self, monkeypatch):
        from repro import cli
        seen = {}
        compile_block = cli.StreamTensorCompiler.compile

        def capture(self, graph, config=None):
            seen["options"] = self.options
            return compile_block(self, graph, config)

        monkeypatch.setattr(cli.StreamTensorCompiler, "compile", capture)
        assert main(["compile", "--kv-len", "16", "--tile-size", "8",
                     "--unroll", "32"]) == 0
        assert (seen["options"].default_tile_size,
                seen["options"].overall_unroll_size) == (8, 32)


class TestServeSimCommand:
    def test_serves_poisson_workload(self, capsys):
        exit_code = main(["serve-sim", "--model", "gpt2", "--devices", "2",
                          "--requests", "8", "--arrival-rate", "20"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "cluster report: gpt2, router round_robin (fixed fleet, " \
               "peak 2 replica(s))" in out
        assert "8/8 completed" in out
        assert "tok/s" in out
        assert "sequential baseline" in out

    def test_json_report(self, tmp_path, capsys):
        report_path = tmp_path / "serve.json"
        exit_code = main(["serve-sim", "--requests", "4", "--devices", "1",
                          "--no-baseline", "--json", str(report_path)])
        assert exit_code == 0
        payload = json.loads(report_path.read_text())
        assert payload["completed"] == 4
        assert payload["fleet_tokens_per_s"] > 0
        assert "speedup_vs_sequential" not in payload

    def test_scheduler_flags_accepted(self, capsys):
        exit_code = main(["serve-sim", "--requests", "4", "--max-batch", "2",
                          "--token-budget", "64", "--no-chunked-prefill",
                          "--cold-start", "--no-baseline"])
        assert exit_code == 0
        assert "completed" in capsys.readouterr().out

    def test_kv_flags_drive_memory_pressure(self, tmp_path, capsys):
        report_path = tmp_path / "kv.json"
        exit_code = main(["serve-sim", "--requests", "16", "--arrival-rate",
                          "100", "--kv-capacity-mb", "16", "--block-size",
                          "16", "--watermark", "0.9", "0.7", "--no-baseline",
                          "--json", str(report_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "kv cache:" in out
        assert "preemption(s)" in out
        assert "peak util 0%" not in out
        payload = json.loads(report_path.read_text())
        assert payload["completed"] == 16
        assert payload["preemptions"] >= 1
        assert sum(replica["preemptions"] for replica in payload["replicas"]) \
            == payload["preemptions"]

    def test_kv_flags_default_to_unmanaged(self, capsys):
        exit_code = main(["serve-sim", "--requests", "4", "--no-baseline"])
        assert exit_code == 0
        assert "kv cache:" not in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--block-size", "32"],
                                       ["--watermark", "0.5", "0.4"],
                                       ["--block-size", "32", "--watermark",
                                        "0.5", "0.4"]])
    def test_kv_pool_flags_require_kv_capacity(self, flags, capsys):
        """--block-size/--watermark must not be silently dropped on an
        unmanaged run."""
        exit_code = main(["serve-sim", "--requests", "4", "--no-baseline",
                          *flags])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert flags[0] in err and "--kv-capacity-mb" in err

    def test_kv_pool_defaults_with_kv_capacity(self, tmp_path, capsys):
        """Without --block-size/--watermark a managed run keeps the
        documented 16-token blocks and 0.95/0.80 watermarks."""
        paths = [tmp_path / "default.json", tmp_path / "explicit.json"]
        base = ["serve-sim", "--requests", "16", "--arrival-rate", "100",
                "--kv-capacity-mb", "16", "--no-baseline"]
        assert main([*base, "--json", str(paths[0])]) == 0
        assert main([*base, "--block-size", "16", "--watermark", "0.95",
                     "0.80", "--json", str(paths[1])]) == 0
        assert paths[0].read_text() == paths[1].read_text()

    def test_invalid_watermarks_rejected(self, capsys):
        exit_code = main(["serve-sim", "--requests", "4", "--kv-capacity-mb",
                          "64", "--watermark", "0.5", "0.9", "--no-baseline"])
        assert exit_code == 2
        assert "watermark" in capsys.readouterr().err

    def test_policy_flags_accepted(self, capsys):
        exit_code = main(["serve-sim", "--requests", "8", "--devices", "2",
                          "--policy", "shortest_prompt",
                          "--router", "least_queue",
                          "--preemption", "largest_kv",
                          "--priority-levels", "3", "--no-baseline"])
        assert exit_code == 0
        assert "8/8 completed" in capsys.readouterr().out

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve-sim", "--requests", "4", "--policy", "lifo"])

    def test_prefix_cache_flags_report_hit_rate(self, tmp_path, capsys):
        report_path = tmp_path / "prefix.json"
        exit_code = main(["serve-sim", "--requests", "8", "--arrival-rate",
                          "40", "--kv-capacity-mb", "256", "--prefix-cache",
                          "--shared-prefix", "64", "--devices", "1",
                          "--no-baseline", "--json", str(report_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "prefix cache:" in out
        payload = json.loads(report_path.read_text())
        assert payload["completed"] == 8
        assert payload["prefix_hit_rate"] > 0

    def test_prefix_cache_requires_kv_capacity(self, capsys):
        exit_code = main(["serve-sim", "--requests", "4", "--prefix-cache",
                          "--no-baseline"])
        assert exit_code == 2
        assert "--kv-capacity-mb" in capsys.readouterr().err

    def test_help_documents_every_serve_sim_flag(self, capsys):
        """`repro serve-sim --help` must describe every flag it accepts."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-sim", "--help"])
        assert excinfo.value.code == 0
        help_text = capsys.readouterr().out
        for flag in ["--model", "--devices", "--requests", "--arrival-rate",
                     "--seed", "--max-batch", "--token-budget",
                     "--no-chunked-prefill", "--kv-capacity-mb",
                     "--block-size", "--watermark", "--cold-start",
                     "--no-baseline", "--json", "--policy", "--router",
                     "--preemption", "--priority-levels", "--prefix-cache",
                     "--shared-prefix"]:
            assert flag in help_text, f"{flag} missing from --help"


class TestServeClusterCommand:
    def test_serves_fixed_fleet(self, capsys):
        exit_code = main(["serve-cluster", "--model", "gpt2", "--replicas",
                          "2", "--requests", "8", "--arrival-rate", "20"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "cluster report: gpt2" in out
        assert "8/8 completed" in out
        assert "replica-seconds" in out

    def test_json_report(self, tmp_path, capsys):
        report_path = tmp_path / "cluster.json"
        exit_code = main(["serve-cluster", "--requests", "6", "--replicas",
                          "2", "--arrival-rate", "20",
                          "--json", str(report_path)])
        assert exit_code == 0
        payload = json.loads(report_path.read_text())
        assert payload["completed"] == 6
        assert payload["fleet_tokens_per_s"] > 0
        assert len(payload["replicas"]) == 2
        assert payload["replica_count_timeline"]

    def test_router_choices_accepted(self, capsys):
        for router in ["round_robin", "least_queue", "least_kv_pressure",
                       "prefix_affinity"]:
            exit_code = main(["serve-cluster", "--requests", "4",
                              "--router", router, "--arrival-rate", "20"])
            assert exit_code == 0
        assert "completed" in capsys.readouterr().out

    def test_trace_shapes_accepted(self, capsys):
        for trace in ["poisson", "diurnal", "flash_crowd"]:
            exit_code = main(["serve-cluster", "--requests", "6",
                              "--trace", trace, "--arrival-rate", "10"])
            assert exit_code == 0
        assert "completed" in capsys.readouterr().out

    def test_autoscale_reports_slo_attainment(self, tmp_path, capsys):
        report_path = tmp_path / "auto.json"
        exit_code = main(["serve-cluster", "--requests", "16",
                          "--replicas", "1", "--arrival-rate", "40",
                          "--autoscale", "--slo-ttft-ms", "500",
                          "--warmup-s", "0.2", "--max-replicas", "3",
                          "--json", str(report_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "autoscaled" in out
        assert "slo:" in out
        payload = json.loads(report_path.read_text())
        assert payload["autoscaled"] is True
        assert payload["slo"]["ttft_ms"] == 500.0

    def test_prefix_cache_requires_kv_capacity(self, capsys):
        exit_code = main(["serve-cluster", "--requests", "4",
                          "--prefix-cache"])
        assert exit_code == 2
        assert "--kv-capacity-mb" in capsys.readouterr().err

    def test_slo_requires_autoscale(self, capsys):
        exit_code = main(["serve-cluster", "--requests", "4",
                          "--slo-ttft-ms", "500"])
        assert exit_code == 2
        assert "--autoscale" in capsys.readouterr().err

    def test_block_size_requires_kv_capacity(self, capsys):
        exit_code = main(["serve-cluster", "--requests", "4",
                          "--block-size", "32"])
        assert exit_code == 2
        assert "--kv-capacity-mb" in capsys.readouterr().err

    def test_autoscaler_flags_require_autoscale(self, capsys):
        """--warmup-s etc. must not be silently dropped without
        --autoscale."""
        exit_code = main(["serve-cluster", "--requests", "4",
                          "--warmup-s", "5"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "--warmup-s" in err and "--autoscale" in err

    def test_trace_shape_flags_require_matching_trace(self, capsys):
        """--burst-rate on a diurnal trace (etc.) must not be silently
        dropped."""
        exit_code = main(["serve-cluster", "--requests", "4",
                          "--trace", "diurnal", "--burst-rate", "50"])
        assert exit_code == 2
        assert "--burst-rate" in capsys.readouterr().err
        exit_code = main(["serve-cluster", "--requests", "4",
                          "--peak-rate", "40"])
        assert exit_code == 2
        assert "--peak-rate" in capsys.readouterr().err

    def test_priority_levels_reach_the_trace(self, capsys):
        exit_code = main(["serve-cluster", "--requests", "8",
                          "--arrival-rate", "40", "--policy", "priority",
                          "--preemption", "lowest_priority",
                          "--priority-levels", "3"])
        assert exit_code == 0
        assert "8/8 completed" in capsys.readouterr().out

    def test_invalid_autoscale_bounds_rejected(self, capsys):
        exit_code = main(["serve-cluster", "--requests", "4", "--autoscale",
                          "--min-replicas", "3", "--max-replicas", "2"])
        assert exit_code == 2
        assert "max_replicas" in capsys.readouterr().err

    def test_prefix_cache_with_affinity_router(self, tmp_path, capsys):
        report_path = tmp_path / "affinity.json"
        exit_code = main(["serve-cluster", "--requests", "8", "--replicas",
                          "2", "--arrival-rate", "40", "--router",
                          "prefix_affinity", "--kv-capacity-mb", "256",
                          "--prefix-cache", "--shared-prefix", "64",
                          "--prefix-groups", "4",
                          "--json", str(report_path)])
        assert exit_code == 0
        payload = json.loads(report_path.read_text())
        assert payload["completed"] == 8
        assert payload["prefix_hit_rate"] > 0
        # Several groups spread across the fleet: both replicas serve.
        assert all(r["requests_completed"] > 0
                   for r in payload["replicas"])

    def test_prefix_groups_requires_shared_prefix(self, capsys):
        exit_code = main(["serve-cluster", "--requests", "4",
                          "--prefix-groups", "2"])
        assert exit_code == 2
        assert "--shared-prefix" in capsys.readouterr().err

    def test_disaggregated_fleet_reports_handoff(self, tmp_path, capsys):
        report_path = tmp_path / "disagg.json"
        exit_code = main(["serve-cluster", "--requests", "16",
                          "--arrival-rate", "30", "--disaggregate",
                          "--prefill-replicas", "1", "--decode-replicas",
                          "2", "--kv-transfer-gbs", "16",
                          "--json", str(report_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "disaggregated" in out
        assert "kv hand-off" in out
        payload = json.loads(report_path.read_text())
        assert payload["completed"] == 16
        section = payload["disaggregation"]
        assert section["prefill_replicas"] == 1
        assert section["decode_replicas"] == 2
        assert section["kv_migrations"] > 0

    def test_disaggregate_flags_require_disaggregate(self, capsys):
        for flag, value in [("--prefill-replicas", "2"),
                            ("--decode-replicas", "2"),
                            ("--kv-transfer-gbs", "8")]:
            exit_code = main(["serve-cluster", "--requests", "4",
                              flag, value])
            assert exit_code == 2
            err = capsys.readouterr().err
            assert flag in err and "--mode disaggregated" in err

    def test_replicas_conflicts_with_disaggregate(self, capsys):
        exit_code = main(["serve-cluster", "--requests", "4",
                          "--disaggregate", "--replicas", "3"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "--prefill-replicas" in err

    def test_slo_tpot_requires_autoscale_and_disaggregate(self, capsys):
        exit_code = main(["serve-cluster", "--requests", "4",
                          "--disaggregate", "--slo-tpot-ms", "15"])
        assert exit_code == 2
        assert "--autoscale" in capsys.readouterr().err
        exit_code = main(["serve-cluster", "--requests", "4",
                          "--autoscale", "--slo-tpot-ms", "15"])
        assert exit_code == 2
        assert "--mode disaggregated" in capsys.readouterr().err

    def test_disaggregated_autoscaled_run(self, capsys):
        exit_code = main(["serve-cluster", "--requests", "24",
                          "--arrival-rate", "40", "--disaggregate",
                          "--prefill-replicas", "1", "--decode-replicas",
                          "1", "--autoscale", "--max-replicas", "3",
                          "--warmup-s", "0.2", "--slo-tpot-ms", "15"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "autoscaled, disaggregated" in out
        assert "24/24 completed" in out

    def test_kv_pressure_high_reaches_the_decode_autoscaler(self, capsys):
        exit_code = main(["serve-cluster", "--requests", "24",
                          "--arrival-rate", "40", "--disaggregate",
                          "--prefill-replicas", "1", "--decode-replicas",
                          "1", "--autoscale", "--max-replicas", "3",
                          "--warmup-s", "0.2", "--kv-capacity-mb", "24",
                          "--kv-pressure-high", "0.5"])
        assert exit_code == 0
        assert "24/24 completed" in capsys.readouterr().out

    def test_kv_pressure_high_requires_kv_capacity(self, capsys):
        exit_code = main(["serve-cluster", "--requests", "4",
                          "--disaggregate", "--autoscale",
                          "--kv-pressure-high", "0.8"])
        assert exit_code == 2
        assert "--kv-capacity-mb" in capsys.readouterr().err

    def test_mode_disaggregated_equals_disaggregate_flag(self, tmp_path,
                                                         capsys):
        reports = []
        for flags in (["--disaggregate"], ["--mode", "disaggregated"]):
            report_path = tmp_path / f"{flags[-1]}.json"
            exit_code = main(["serve-cluster", "--requests", "12",
                              "--arrival-rate", "30",
                              "--prefill-replicas", "1",
                              "--decode-replicas", "1",
                              "--json", str(report_path)] + flags)
            assert exit_code == 0
            capsys.readouterr()
            reports.append(report_path.read_text())
        assert reports[0] == reports[1]

    def test_streamed_handoff_reported(self, tmp_path, capsys):
        report_path = tmp_path / "streamed.json"
        exit_code = main(["serve-cluster", "--requests", "12",
                          "--arrival-rate", "30", "--mode", "disaggregated",
                          "--prefill-replicas", "1", "--decode-replicas",
                          "1", "--kv-transfer-gbs", "0.05",
                          "--kv-stream-chunks", "4",
                          "--json", str(report_path)])
        assert exit_code == 0
        assert "kv streaming" in capsys.readouterr().out
        payload = json.loads(report_path.read_text())
        streaming = payload["disaggregation"]["kv_streaming"]
        assert streaming["chunks_per_migration"] == 4
        assert streaming["chunks_landed"] \
            == 4 * payload["disaggregation"]["kv_migrations"]

    def test_hybrid_mode_runs_and_validates(self, capsys):
        exit_code = main(["serve-cluster", "--requests", "12",
                          "--arrival-rate", "30", "--mode", "hybrid",
                          "--prefill-token-cap", "64"])
        assert exit_code == 0
        assert "12/12 completed" in capsys.readouterr().out
        exit_code = main(["serve-cluster", "--requests", "4",
                          "--mode", "hybrid"])
        assert exit_code == 2
        assert "--prefill-token-cap" in capsys.readouterr().err

    def test_prefill_token_cap_requires_hybrid_mode(self, capsys):
        exit_code = main(["serve-cluster", "--requests", "4",
                          "--prefill-token-cap", "64"])
        assert exit_code == 2
        assert "--mode hybrid" in capsys.readouterr().err
        exit_code = main(["serve-cluster", "--requests", "4",
                          "--mode", "disaggregated",
                          "--prefill-token-cap", "64"])
        assert exit_code == 2
        assert "--mode hybrid" in capsys.readouterr().err

    def test_kv_stream_chunks_requires_disaggregated_mode(self, capsys):
        exit_code = main(["serve-cluster", "--requests", "4",
                          "--kv-stream-chunks", "4"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "--kv-stream-chunks" in err and "disaggregated" in err
        exit_code = main(["serve-cluster", "--requests", "4",
                          "--mode", "hybrid", "--prefill-token-cap", "8",
                          "--kv-stream-chunks", "4"])
        assert exit_code == 2
        assert "--kv-stream-chunks" in capsys.readouterr().err

    def test_mode_conflicts_with_disaggregate_shorthand(self, capsys):
        exit_code = main(["serve-cluster", "--requests", "4",
                          "--mode", "unified", "--disaggregate"])
        assert exit_code == 2
        assert "shorthand" in capsys.readouterr().err

    def test_invalid_stream_chunks_rejected(self, capsys):
        exit_code = main(["serve-cluster", "--requests", "4",
                          "--mode", "disaggregated",
                          "--kv-stream-chunks", "0"])
        assert exit_code == 2
        assert "kv_stream_chunks" in capsys.readouterr().err

    def test_help_documents_every_serve_cluster_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-cluster", "--help"])
        assert excinfo.value.code == 0
        help_text = capsys.readouterr().out
        for flag in ["--model", "--replicas", "--router", "--requests",
                     "--trace", "--arrival-rate", "--peak-rate", "--period",
                     "--burst-rate", "--burst-start", "--burst-duration",
                     "--multi-turn", "--think-time", "--tool-calls",
                     "--tool-wait",
                     "--seed", "--autoscale", "--slo-ttft-ms",
                     "--slo-tpot-ms", "--kv-pressure-high",
                     "--min-replicas", "--max-replicas",
                     "--warmup-s",
                     "--control-interval", "--max-batch", "--token-budget",
                     "--policy", "--preemption", "--priority-levels",
                     "--kv-capacity-mb",
                     "--block-size", "--prefix-cache", "--shared-prefix",
                     "--prefix-groups", "--mode", "--disaggregate",
                     "--prefill-replicas", "--decode-replicas",
                     "--kv-transfer-gbs", "--kv-stream-chunks",
                     "--prefill-token-cap", "--faults", "--max-retries",
                     "--json"]:
            assert flag in help_text, f"{flag} missing from --help"

    def test_fault_plan_reports_recovery(self, tmp_path, capsys):
        report_path = tmp_path / "faulted.json"
        exit_code = main(["serve-cluster", "--replicas", "3",
                          "--requests", "12", "--arrival-rate", "60",
                          "--faults", "crash@0.2:1,slow@0.1:0x2.0+1",
                          "--json", str(report_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "faults:" in out
        payload = json.loads(report_path.read_text())
        assert payload["faults"]["crashes"] == 1
        assert payload["faults"]["slow_nodes"] == 1
        assert payload["manifest"]["faults"]["max_retries"] == 3
        assert any(row["crashed"] for row in payload["replicas"])

    def test_unfaulted_report_has_no_fault_section(self, tmp_path):
        report_path = tmp_path / "clean.json"
        assert main(["serve-cluster", "--replicas", "2", "--requests", "4",
                     "--json", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert "faults" not in payload
        assert "faults" not in payload["manifest"]

    def test_max_retries_requires_faults(self, capsys):
        assert main(["serve-cluster", "--requests", "4",
                     "--max-retries", "2"]) == 2
        assert "--max-retries" in capsys.readouterr().err

    def test_malformed_fault_spec_rejected(self, capsys):
        assert main(["serve-cluster", "--requests", "4",
                     "--faults", "crash@oops"]) == 2
        err = capsys.readouterr().err
        assert "fault" in err
        assert "Traceback" not in err

    def test_out_of_range_fault_target_rejected(self, capsys):
        """A hand-written fault aimed past the fleet's largest size is an
        error, not a silent no-op."""
        assert main(["serve-cluster", "--replicas", "2", "--requests", "4",
                     "--faults", "crash@1:99"]) == 2
        err = capsys.readouterr().err
        assert "replica 99" in err and "at most 2" in err
        assert "Traceback" not in err
        # The bound is the fleet's maximum: --max-replicas under
        # --autoscale, prefill + decode pools when disaggregated.
        assert main(["serve-cluster", "--replicas", "2", "--requests", "4",
                     "--autoscale", "--max-replicas", "4",
                     "--faults", "slow@0.1:3x2.0+1"]) == 0
        assert main(["serve-cluster", "--replicas", "2", "--requests", "4",
                     "--autoscale", "--max-replicas", "4",
                     "--faults", "crash@1:4"]) == 2
        assert main(["serve-cluster", "--mode", "disaggregated",
                     "--prefill-replicas", "1", "--decode-replicas", "2",
                     "--requests", "4", "--faults", "crash@1:2"]) == 0
        assert main(["serve-cluster", "--mode", "disaggregated",
                     "--prefill-replicas", "1", "--decode-replicas", "2",
                     "--requests", "4", "--faults", "crash@1:3"]) == 2
        capsys.readouterr()

    def test_conversational_traces_run(self, capsys):
        for shape, flag, value in [("multi_turn", "--multi-turn", "3"),
                                   ("tool_use", "--tool-calls", "2")]:
            exit_code = main(["serve-cluster", "--replicas", "2",
                              "--requests", "12", "--trace", shape,
                              flag, value])
            assert exit_code == 0
            assert "completed" in capsys.readouterr().out

    def test_conversational_flags_require_matching_trace(self, capsys):
        assert main(["serve-cluster", "--requests", "4",
                     "--think-time", "2.0"]) == 2
        assert "--think-time" in capsys.readouterr().err
        assert main(["serve-cluster", "--requests", "4",
                     "--trace", "multi_turn", "--tool-wait", "0.1"]) == 2
        assert "--tool-wait" in capsys.readouterr().err

    def test_conversational_traces_reject_shape_flags(self, capsys):
        assert main(["serve-cluster", "--requests", "8",
                     "--trace", "multi_turn",
                     "--shared-prefix", "64"]) == 2
        assert "--shared-prefix" in capsys.readouterr().err


class TestSharedServingFlags:
    """Flags serve-sim and serve-cluster define, and validate, once."""

    @pytest.mark.parametrize("command", ["serve-sim", "serve-cluster"])
    @pytest.mark.parametrize("flag,value", [("--priority-levels", "0"),
                                            ("--priority-levels", "-3"),
                                            ("--shared-prefix", "-1")])
    def test_out_of_range_count_rejected(self, command, flag, value,
                                         capsys):
        """A priority-level count below 1 or a negative shared prefix is
        an error, not a silent single-tier, prefix-free run."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--requests", "4", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "at least" in err


class TestOneServingStack:
    """serve-sim is a fixed-fleet cluster run: the same report as
    serve-cluster, plus the sequential-baseline extras."""

    def test_serve_sim_and_serve_cluster_report_the_same_keys(
            self, tmp_path, capsys):
        shared = ["--requests", "8", "--arrival-rate", "20", "--seed", "3"]
        sim, cluster = tmp_path / "sim.json", tmp_path / "cluster.json"
        assert main(["serve-sim", "--devices", "2", *shared,
                     "--json", str(sim)]) == 0
        assert main(["serve-cluster", "--replicas", "2", *shared,
                     "--json", str(cluster)]) == 0
        capsys.readouterr()
        sim_payload = json.loads(sim.read_text())
        cluster_payload = json.loads(cluster.read_text())
        baseline = {"sequential_tokens_per_s", "speedup_vs_sequential"}
        assert baseline <= set(sim_payload)
        assert set(sim_payload) - baseline == set(cluster_payload)
        for key in baseline:
            del sim_payload[key]
        assert sim_payload == cluster_payload

    @pytest.mark.parametrize("value", ["least_loaded", "kv_aware"])
    def test_placement_is_retired_for_router(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-sim", "--requests", "4", "--placement", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--placement" in err and "--router" in err


class TestTraceCommand:
    def _write_trace(self, tmp_path):
        """Record a real Chrome trace via a serve-cluster run."""
        trace_path = tmp_path / "run.trace.json"
        assert main(["serve-cluster", "--replicas", "2", "--requests", "6",
                     "--arrival-rate", "40",
                     "--trace-out", str(trace_path)]) == 0
        return trace_path

    def test_summarize_roundtrip(self, tmp_path, capsys):
        trace_path = self._write_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace_path)]) == 0
        assert "e2e" in capsys.readouterr().out

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        exit_code = main(["trace", "summarize",
                          str(tmp_path / "nope.json")])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("content", ["", "{", '{"traceEvents": 1}',
                                         "[]", "null",
                                         '{"traceEvents": [42]}'])
    def test_empty_or_truncated_trace_is_a_clean_error(
            self, tmp_path, capsys, content):
        """A 0-byte file, a truncated write, or valid JSON that is not a
        Chrome trace must exit 2 with a one-line diagnostic, never a
        traceback."""
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        exit_code = main(["trace", "summarize", str(bad)])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert "Traceback" not in err


class TestReproduceCommand:
    def test_missing_bench_dir_is_a_clean_error(self, tmp_path, capsys):
        exit_code = main(["reproduce", "--bench-dir",
                          str(tmp_path / "missing")])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "not found" in err

    def test_help_documents_reproduce_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["reproduce", "--help"])
        assert excinfo.value.code == 0
        help_text = capsys.readouterr().out
        for flag in ["--check", "--filter", "--bench-dir"]:
            assert flag in help_text, f"{flag} missing from --help"


class TestEvaluateCommand:
    def test_single_experiment(self, capsys):
        exit_code = main(["evaluate", "--experiment", "figure10a"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Figure 10a" in out
        assert "llama" in out

    def test_table7(self, capsys):
        assert main(["evaluate", "--experiment", "table7"]) == 0
        assert "hidden_size" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "--experiment", "figure99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])
