"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestQuality:
    def test_grid_quality(self, capsys):
        code = main(["quality", "--family", "grid", "--width", "8", "--height", "8",
                     "--parts", "8", "--delta", "3", "--fast"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ALL BOUNDS HOLD" in out

    def test_adaptive_without_delta(self, capsys):
        code = main(["quality", "--family", "hypercube", "--dimension", "4",
                     "--parts", "4", "--fast"])
        out = capsys.readouterr().out
        assert code == 0
        assert "adaptive" in out

    def test_unknown_family(self):
        with pytest.raises(SystemExit):
            main(["quality", "--family", "nonsense"])

    def test_provider_flag_baseline(self, capsys):
        code = main(["quality", "--family", "grid", "--width", "6", "--height", "6",
                     "--parts", "4", "--delta", "3", "--fast",
                     "--provider", "baseline"])
        out = capsys.readouterr().out
        assert code == 0
        assert "provider = baseline" in out

    def test_provider_flag_certifying_verifies_bounds(self, capsys):
        code = main(["quality", "--family", "grid", "--width", "6", "--height", "6",
                     "--parts", "4", "--delta", "3", "--fast",
                     "--provider", "certifying"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ALL BOUNDS HOLD" in out

    def test_unknown_provider_rejected(self):
        with pytest.raises(SystemExit):
            main(["quality", "--family", "grid", "--provider", "psychic"])


class TestLowerBound:
    def test_default_instance(self, capsys):
        code = main(["lowerbound", "--delta-prime", "5", "--diameter-prime", "20",
                     "--fast"])
        out = capsys.readouterr().out
        assert code == 0
        assert "measured quality" in out


class TestMst:
    def test_ktree_mst(self, capsys):
        code = main(["mst", "--family", "ktree", "--n", "64", "--k", "2",
                     "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "identical MSTs: True" in out

    def test_scheduler_flag_reaches_simulated_construction(self, capsys):
        code = main(["mst", "--family", "ktree", "--n", "32", "--k", "2",
                     "--seed", "3", "--provider", "theorem31-simulated",
                     "--scheduler", "dense"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scheduler: dense" in out
        assert "identical MSTs: True" in out

    def test_latency_model_reports_virtual_time(self, capsys):
        code = main(["mst", "--family", "wheel", "--n", "65", "--seed", "3",
                     "--scheduler", "event", "--latency-model", "seeded-jitter"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scheduler: event" in out
        assert "latency model: seeded-jitter" in out
        assert "virtual time" in out
        assert "identical MSTs: True" in out

    def test_latency_model_rejected_by_lockstep_scheduler(self):
        with pytest.raises(SystemExit, match="requires scheduler='event'"):
            main(["mst", "--family", "grid", "--width", "4", "--height", "4",
                  "--scheduler", "dense", "--latency-model", "seeded-jitter"])

    def test_unknown_latency_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["mst", "--family", "grid", "--width", "4", "--height", "4",
                  "--latency-model", "bogus"])

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            main(["mst", "--family", "ktree", "--n", "32", "--k", "2",
                  "--scheduler", "bogus"])

    def test_removed_sharded_scheduler_rejected_with_registry(self):
        from repro.congest.engine import available_schedulers

        with pytest.raises(SystemExit) as info:
            main(["mst", "--family", "ktree", "--n", "32", "--k", "2",
                  "--scheduler", "sharded"])
        message = str(info.value.code)
        assert "unknown scheduler 'sharded'" in message
        assert ", ".join(available_schedulers()) in message

    def test_removed_async_scheduler_rejected_with_registry(self):
        from repro.congest.engine import available_schedulers

        with pytest.raises(SystemExit) as info:
            main(["mst", "--family", "wheel", "--n", "17", "--seed", "3",
                  "--scheduler", "async", "--latency-model", "seeded-jitter"])
        assert str(info.value.code) == (
            "unknown scheduler 'async'; registered schedulers: "
            + ", ".join(available_schedulers())
        )

    def test_provider_flag_baseline(self, capsys):
        code = main(["mst", "--family", "ktree", "--n", "32", "--k", "2",
                     "--seed", "3", "--provider", "baseline"])
        out = capsys.readouterr().out
        assert code == 0
        assert "provider: baseline" in out
        assert "identical MSTs: True" in out


class TestCertify:
    def test_grid_certify(self, capsys):
        code = main(["certify", "--family", "grid", "--width", "8", "--height", "8",
                     "--parts", "8", "--initial-delta", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "case I" in out
        assert "distributed check (event)" in out

    def test_certify_scheduler_flags(self, capsys):
        code = main(["certify", "--family", "grid", "--width", "6", "--height", "6",
                     "--parts", "6", "--initial-delta", "3",
                     "--scheduler", "dense"])
        out = capsys.readouterr().out
        assert code == 0
        assert "distributed check (dense)" in out

    def test_certify_non_certifying_provider_reports_honestly(self, capsys):
        code = main(["certify", "--family", "grid", "--width", "6", "--height", "6",
                     "--parts", "6", "--provider", "baseline"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no certification ledger" in out
        assert "no witness needed" not in out
        assert "distributed check (event)" in out

    def test_certify_initial_delta_rejected_by_provider_that_ignores_it(self):
        with pytest.raises(SystemExit, match="does not read option.*initial_delta"):
            main(["certify", "--family", "grid", "--width", "6", "--height", "6",
                  "--parts", "6", "--provider", "greedy", "--initial-delta", "2"])

    def test_certify_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            main(["certify", "--family", "grid", "--width", "6", "--height", "6",
                  "--scheduler", "nonsense"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestServe:
    def test_grid_serve_multiplexes_region_jobs(self, capsys):
        code = main(["serve", "--family", "grid", "--width", "6", "--height", "6",
                     "--jobs", "3", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 scoped SSSP job(s)" in out
        for index in range(3):
            assert f"sssp-region-{index}: completed at tick" in out
        assert "aggregate:" in out
        assert "jobs=3" in out

    def test_serve_with_latency_and_inflight_cap(self, capsys):
        code = main(["serve", "--family", "grid", "--width", "6", "--height", "6",
                     "--jobs", "4", "--seed", "3",
                     "--latency-model", "seeded-jitter", "--max-inflight", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "latency model seeded-jitter" in out
        assert "max inflight 2" in out
        assert out.count("completed at tick") == 4

    def test_serve_rejects_non_virtual_time_scheduler(self):
        with pytest.raises(SystemExit, match="virtual-time"):
            main(["serve", "--family", "grid", "--width", "6", "--height", "6",
                  "--scheduler", "dense"])

    def test_serve_rejects_removed_async_scheduler_with_registry(self):
        with pytest.raises(SystemExit, match="unknown scheduler 'async'; registered"):
            main(["serve", "--family", "grid", "--width", "6", "--height", "6",
                  "--scheduler", "async"])

    def test_serve_rejects_zero_jobs(self):
        with pytest.raises(SystemExit, match="--jobs"):
            main(["serve", "--family", "grid", "--width", "6", "--height", "6",
                  "--jobs", "0"])

    def test_serve_rejects_unknown_latency_model(self):
        with pytest.raises(SystemExit, match="unknown latency model 'nope'"):
            main(["serve", "--family", "grid", "--width", "4", "--height", "4",
                  "--latency-model", "nope"])

    def test_rejects_non_finite_latency_parameter(self):
        with pytest.raises(SystemExit, match="contention weight must be finite"):
            main(["mst", "--family", "wheel", "--n", "17", "--seed", "3",
                  "--latency-model", "contention:nan"])

    def test_serve_rejects_zero_max_inflight(self):
        with pytest.raises(SystemExit, match="--max-inflight"):
            main(["serve", "--family", "grid", "--width", "4", "--height", "4",
                  "--max-inflight", "0"])

    @pytest.mark.parametrize("command", ["quality", "certify"])
    def test_rejects_zero_parts(self, command):
        with pytest.raises(SystemExit, match="--parts must be >= 1"):
            main([command, "--family", "grid", "--width", "4", "--height", "4",
                  "--parts", "0"])


class TestRegistry:
    def test_registry_lists_every_extension_surface(self, capsys):
        code = main(["registry"])
        out = capsys.readouterr().out
        assert code == 0
        for heading in (
            "schedulers:", "latency models:", "shortcut providers:",
            "lint rules:",
        ):
            assert heading in out
        for name in ("dense", "event", "vectorized"):
            assert f"  {name}" in out
        assert "  theorem31-centralized" in out
        assert "PROTO-JOB" in out
