import json
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from hetcap import (InvalidTopologyError, ScenarioConfig, ScenarioFormatError,
                    ScenarioValidationError, dbm_to_watts, emit_benchmark_csv,
                    emit_breakdown_csv, emit_sweep_csv, load_scenario,
                    load_topology, save_topology, watts_to_dbm)
from hetcap.cli import main
from hetcap.config import SWEEP_COLUMNS


class TestUnitConversion:
    @pytest.mark.parametrize("dbm,watts", [
        (46.0, 39.810717055),
        (35.0, 3.1622776602),
        (23.0, 0.1995262315),
        (-120.0, 1e-15),
    ])
    def test_dbm_to_watts(self, dbm, watts):
        assert dbm_to_watts(dbm) == pytest.approx(watts, rel=1e-9)

    def test_roundtrip(self):
        for dbm in (-120.0, 0.0, 23.0, 46.0):
            assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm)

    def test_silent_transmitter(self):
        assert watts_to_dbm(0.0) == float("-inf")
        assert dbm_to_watts(watts_to_dbm(0.0)) == 0.0
        with pytest.raises(ValueError):
            watts_to_dbm(-1.0)


class TestScenarioDefaults:
    def test_reference_values(self):
        cfg = ScenarioConfig()
        assert cfg.macro_power_dbm == 46.0
        assert cfg.pico_power_dbm == 35.0
        assert cfg.ue_power_dbm == 23.0
        assert cfg.path_loss_exponent == 3.0
        assert cfg.noise_dbm == -120.0
        assert cfg.hard_core_m == 180.0
        assert cfg.pico_radius_m == 90.0
        assert cfg.frame_time_s * cfg.bandwidth_hz == pytest.approx(90.0)

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n\n")
        assert load_scenario(str(path)) == ScenarioConfig()

    def test_omitted_pico_power_defaults_to_35_dbm(self, tmp_path):
        path = tmp_path / "partial.txt"
        path.write_text("density_per_km2 = 7\n")
        cfg = load_scenario(str(path))
        assert dbm_to_watts(cfg.pico_power_dbm) == pytest.approx(3.1623, rel=1e-4)
        assert cfg.density_per_km2 == 7.0


class TestScenarioParsing:
    def test_hard_core_violation_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("hard_core_m = 100\npico_radius_m = 90\n")
        with pytest.raises(ScenarioValidationError, match="hard_core_m"):
            load_scenario(str(path))

    @pytest.mark.parametrize("text", [
        "macro_radius_m = 0",
        "macro_radius_m = nan",
        "pico_radius_m = 0",
        "pico_radius_m = 1000\nhard_core_m = 2000",
        "hard_core_m = 179",
        "density_per_km2 = -1",
        "path_loss_exponent = -1",
        "duplex_mode = xd",
        "eta = 1.5",
        "eta = nan",
        "kappa = -0.5",
        "theta_per_bit = 0",
        "theta_per_bit = nan",
        "frame_time_s = 0",
        "frame_time_s = nan",
        "bandwidth_hz = -1",
        "bandwidth_hz = nan",
        "trials = 0",
    ])
    def test_each_invariant_rejected_with_path(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text + "\n")
        with pytest.raises(ScenarioValidationError,
                           match=f"^{re.escape(str(path))}: "):
            load_scenario(str(path))

    def test_unknown_key_with_line_context(self, tmp_path):
        path = tmp_path / "weird.txt"
        path.write_text("macro_radius_m = 1000\nmystery = 3\n")
        with pytest.raises(ScenarioFormatError, match=":2"):
            load_scenario(str(path))

    def test_bad_value_with_line_context(self, tmp_path):
        path = tmp_path / "badvalue.txt"
        path.write_text("trials = many\n")
        with pytest.raises(ScenarioFormatError, match=":1"):
            load_scenario(str(path))

    def test_eta_db_converted_linearly(self, tmp_path):
        path = tmp_path / "eta.txt"
        path.write_text("eta_db = -80\n")
        assert load_scenario(str(path)).eta == pytest.approx(1e-8)

    def test_eta_given_twice_rejected(self, tmp_path):
        path = tmp_path / "twice.txt"
        path.write_text("eta_db = -80\neta = 1e-8\n")
        with pytest.raises(ScenarioFormatError, match="not both"):
            load_scenario(str(path))

    def test_roundtrip(self, tmp_path):
        cfg = ScenarioConfig(density_per_km2=12.5, eta=3.3e-7, trials=777,
                             duplex_mode="hd", theta_per_bit=2.5e-3)
        path = tmp_path / "cfg.txt"
        path.write_text("".join(f"{f.name} = {getattr(cfg, f.name)}\n"
                                for f in fields(cfg)))
        assert load_scenario(str(path)) == cfg


class TestTopologyFiles:
    def test_roundtrip(self, tmp_path, sparse_topology):
        path = tmp_path / "topo.txt"
        save_topology(sparse_topology, str(path))
        loaded = load_topology(str(path))
        assert loaded.tagged_index == sparse_topology.tagged_index
        assert loaded.hard_core_distance == sparse_topology.hard_core_distance
        assert len(loaded.small_cells) == len(sparse_topology.small_cells)
        for a, b in zip(loaded.small_cells, sparse_topology.small_cells):
            assert a.center == pytest.approx(b.center)
            assert a.power == pytest.approx(b.power, rel=1e-12)

    @pytest.mark.parametrize("macro_x, cell_x, accepted", [
        (900.0, -850.0, False),   # cell 1750 m from the macro BS
        (5000.0, 5400.0, True),   # whole deployment shifted by 5 km
    ])
    def test_macro_disk_centred_on_macro_bs(self, tmp_path, macro_x, cell_x,
                                            accepted):
        path = tmp_path / "shifted.txt"
        path.write_text(f"macro_radius_m = 1000\nmacro_x_m = {macro_x}\n"
                        "macro_power_dbm = 46\nhard_core_m = 180\n"
                        "tagged_index = 0\n"
                        f"cell = {cell_x} 0 90 35 3\n")
        if accepted:
            assert load_topology(str(path)).macro_bs.position == (macro_x, 0.0)
        else:
            with pytest.raises(InvalidTopologyError, match="macro boundary"):
                load_topology(str(path))

    def test_missing_key_reported(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("macro_radius_m = 1000\n")
        with pytest.raises(ScenarioFormatError, match="missing key"):
            load_topology(str(path))

    HEADER = ("macro_radius_m = 1000\nmacro_power_dbm = 46\nhard_core_m = 180\n"
              "tagged_index = 0\n")

    @pytest.mark.parametrize("line,message", [
        ("hard_core_m = 18o", "bad value '18o' for hard_core_m"),
        ("tagged_index = 0.5", "bad value '0.5' for tagged_index"),
        ("cell = 0 0 9o 35 3", "bad value '9o' for cell"),
        ("macro_alpah = 4.0", "unknown key 'macro_alpah'"),
    ])
    def test_bad_line_located(self, tmp_path, line, message):
        path = tmp_path / "topo.txt"
        path.write_text(self.HEADER + "cell = 0 0 90 35 3\n" + line + "\n")
        with pytest.raises(ScenarioFormatError) as caught:
            load_topology(str(path))
        assert str(caught.value) == f"{path}:6: {message}"

    def test_non_physical_cell_refused(self, tmp_path):
        path = tmp_path / "topo.txt"
        path.write_text(self.HEADER + "cell = 0 0 -90 35 3\n")
        with pytest.raises(InvalidTopologyError,
                           match="cell 0 radius must be finite and >= 0, got -90.0"):
            load_topology(str(path))

    def test_mixed_cells_resave_byte_identical(self, tmp_path):
        path, again = tmp_path / "topo.txt", tmp_path / "again.txt"
        path.write_text(self.HEADER.replace("= 0\n", "= 1\n")
                        + "cell = -250.5 10.25 60 30 3.5\n"
                        + "cell = 120 -80 90 35 3\n"
                        + "cell = 400 300 45.5 -inf 2.5\n")
        topology = load_topology(str(path))
        np.testing.assert_array_equal(topology.radius, [60.0, 90.0, 45.5])
        np.testing.assert_array_equal(topology.alpha, [3.5, 3.0, 2.5])
        assert topology.power[2] == 0.0
        save_topology(topology, str(path))
        save_topology(load_topology(str(path)), str(again))
        assert again.read_bytes() == path.read_bytes()
        assert "cell = 120.0 -80.0 90.0 35.0 3.0\n" in path.read_text()


class TestResultEmission:
    def _small_sweep(self, sparse_topology):
        from conftest import NOISE, P_UE
        from hetcap import QoSConfig, sweep_eta

        return sweep_eta(sparse_topology, QoSConfig(1e-3, 0.5e-3, 180e3),
                         NOISE, P_UE, [-60.0, -40.0, -20.0], trials=2000,
                         seed=3)

    def test_sweep_csv_schema(self, tmp_path, sparse_topology):
        sweep = self._small_sweep(sparse_topology)
        out = tmp_path / "sweep.csv"
        emit_sweep_csv(sweep, str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 4  # header + 3 grid points
        assert json.loads((tmp_path / "sweep.csv.meta.json").read_text())[
            "seed"] == 3

    def test_sweep_csv_deterministic(self, tmp_path, sparse_topology):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_sweep_csv(self._small_sweep(sparse_topology), str(out1))
        emit_sweep_csv(self._small_sweep(sparse_topology), str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_breakdown_csv(self, tmp_path, two_cell_topology, fd_duplex):
        from hetcap import total_mean_interference

        breakdown = total_mean_interference(two_cell_topology, fd_duplex)
        out = tmp_path / "breakdown.csv"
        emit_breakdown_csv(breakdown, str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "interferer_id,type,mean_watts"
        assert lines[-1].startswith("total,total,")

    def test_breakdown_csv_labels(self, tmp_path, sparse_topology, fd_duplex):
        from hetcap import total_mean_interference

        breakdown = total_mean_interference(sparse_topology, fd_duplex)
        out = tmp_path / "breakdown.csv"
        emit_breakdown_csv(breakdown, str(out))
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        cells = [str(j) for j in sparse_topology.others.tolist()]
        assert [r[0] for r in rows] == ["macro", *cells, *cells, "total"]
        assert [r[1] for r in rows] == (["bs"] * (len(cells) + 1)
                                        + ["ue"] * len(cells) + ["total"])
        watts = [*breakdown.per_bs.tolist(), *breakdown.per_ue.tolist(),
                 breakdown.total]
        assert [r[2] for r in rows] == [f"{w:.10g}" for w in watts]

    def test_benchmark_csv_single_row(self, tmp_path):
        from hetcap import BenchmarkReport

        report = BenchmarkReport(1.5, 0.1, 10000, 5000, 16, 1.0)
        out = tmp_path / "bench.csv"
        emit_benchmark_csv(report, str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "exact_seconds,lb_seconds,speedup,M"
        assert lines[1] == "1.5,0.1,15,16"


@pytest.fixture
def quick_scenario(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("density_per_km2 = 5\ntrials = 2000\n"
                    "topology_seed = 7\ntrial_seed = 7\n")
    return str(path)


class TestCli:
    @pytest.mark.parametrize("command,options", [
        ("generate", ["--scenario", "--seed", "--out"]),
        ("sweep", ["--scenario", "--seed", "--trials", "--workers", "--out",
                   "--eta-from", "--eta-to", "--eta-step"]),
        ("validate", ["--scenario", "--seed", "--trials"]),
        ("bench", ["--scenario", "--seed", "--out", "--target-se", "--mode"]),
        ("limits", ["--scenario", "--seed", "--trials", "--workers", "--mode"]),
    ])
    def test_help_lists_only_the_options_read(self, capsys, command, options):
        with pytest.raises(SystemExit) as caught:
            main([command, "--help"])
        assert caught.value.code == 0
        help_text = capsys.readouterr().out
        assert re.findall(r"^ +(--[a-z-]+)", help_text, re.M) == options

    @pytest.mark.parametrize("command,option,value", [
        ("generate", "--trials", "100"),
        ("generate", "--workers", "2"),
        ("validate", "--workers", "2"),
        ("validate", "--out", "validate.txt"),
        ("bench", "--trials", "100"),
        ("bench", "--workers", "2"),
        ("limits", "--out", "limits.txt"),
    ])
    def test_option_not_read_is_a_usage_error(self, capsys, command, option,
                                              value):
        with pytest.raises(SystemExit) as caught:
            main([command, option, value])
        assert caught.value.code == 2
        assert f"unrecognized arguments: {option} {value}" in \
            capsys.readouterr().err

    def test_generate(self, quick_scenario, tmp_path, capsys):
        out = tmp_path / "topo.txt"
        assert main(["generate", "--scenario", quick_scenario,
                     "--out", str(out)]) == 0
        topology = load_topology(str(out))
        assert len(topology.small_cells) > 0
        assert "small cells" in capsys.readouterr().out

    def test_sweep_writes_csv(self, quick_scenario, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--scenario", quick_scenario, "--out", str(out),
                     "--eta-from", "-60", "--eta-to", "-40", "--eta-step", "10"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert "gain" in capsys.readouterr().out

    def test_sweep_deterministic_across_workers(self, quick_scenario, tmp_path):
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        main(["sweep", "--scenario", quick_scenario, "--out", str(out1),
              "--eta-from", "-60", "--eta-to", "-50", "--eta-step", "5",
              "--workers", "1", "--trials", "20000"])
        main(["sweep", "--scenario", quick_scenario, "--out", str(out2),
              "--eta-from", "-60", "--eta-to", "-50", "--eta-step", "5",
              "--workers", "3", "--trials", "20000"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_limits(self, quick_scenario, capsys):
        assert main(["limits", "--scenario", quick_scenario,
                     "--trials", "50000"]) == 0
        out = capsys.readouterr().out
        assert "mean rate" in out
        assert "theta" in out

    def test_limits_simulates_once_for_both_modes(self, quick_scenario,
                                                  monkeypatch, capsys):
        from hetcap import capacity

        simulate = capacity.simulate_components
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(capacity, "simulate_components", counted)
        assert main(["limits", "--scenario", quick_scenario]) == 0
        assert len(calls) == 1
        # the output of one simulation per mode, which drew the same trials
        assert capsys.readouterr().out == (
            "theta = 1.000e-03 1/bit, guarantee bound 7.702e-03 -> ok\n"
            "hd: EC(theta=1e-6) = 222.539, mean rate = 222.546 bits/block, "
            "rel diff 3.46e-05\n"
            "fd: EC(theta=1e-6) = 439.333, mean rate = 439.363 bits/block, "
            "rel diff 6.93e-05\n")

    @pytest.mark.parametrize("mode,status", [
        ("hd", "guarantee bound 1.540e-02 -> ok"),
        ("fd", "guarantee bound 7.702e-03 -> warn: bound exceeded"),
        ("both", "guarantee bound 7.702e-03 -> warn: bound exceeded")])
    def test_limits_guarantee_follows_mode(self, tmp_path, capsys, mode,
                                           status):
        # half duplex halves the exponent, so its guarantee is twice as wide
        path = tmp_path / "scenario.txt"
        path.write_text("theta_per_bit = 1.2e-2\ntrials = 500\n")
        main(["limits", "--scenario", str(path), "--mode", mode])
        first = capsys.readouterr().out.splitlines()[0]
        assert first == f"theta = 1.200e-02 1/bit, {status}"

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("hard_core_m = 10\n")
        assert main(["generate", "--scenario", str(bad)]) == 1

    @pytest.mark.filterwarnings("ignore::hetcap.SaturationWarning")
    def test_oversized_region_exit_code(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        big.write_text("macro_radius_m = 1000000\ndensity_per_km2 = 50\n")
        assert main(["generate", "--scenario", str(big)]) == 1
        assert "MAX_PARENTS" in capsys.readouterr().err

    def test_silent_tagged_cell_sweep_exit_code(self, tmp_path, capsys):
        # a silent tagged cell is valid, but its HD capacity is 0, so the
        # FD/HD gain is 0/0: a validation failure, not a runtime error
        silent = tmp_path / "silent.txt"
        silent.write_text("pico_power_dbm = -inf\ntrials = 200\n")
        assert main(["sweep", "--scenario", str(silent),
                     "--out", str(tmp_path / "sweep.csv")]) == 1
        assert "HD capacity is 0 at eta" in capsys.readouterr().err
        # a sweep that exits 1 leaves no output behind
        assert not (tmp_path / "sweep.csv").exists()
        assert not (tmp_path / "sweep.csv.meta.json").exists()

    def test_silent_tagged_cell_limits_exit_code(self, tmp_path, capsys):
        # a silent tagged cell has mean rate 0, so the loose-QoS limit
        # EC/rate is 0/0: a validation failure, not a runtime error
        silent = tmp_path / "silent.txt"
        silent.write_text("pico_power_dbm = -inf\ntrials = 200\n")
        assert main(["limits", "--scenario", str(silent)]) == 1
        assert "mean rate is 0" in capsys.readouterr().err

    def test_oversized_eta_grid_exit_code(self, tmp_path, capsys):
        assert main(["sweep", "--eta-step", "1e-7",
                     "--out", str(tmp_path / "sweep.csv")]) == 1
        assert "points above" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("no equals sign here\n")
        assert main(["limits", "--scenario", str(bad)]) == 1

    def test_bench_smoke(self, quick_scenario, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--scenario", quick_scenario, "--mode", "fd",
                     "--out", str(out), "--target-se", "2.0"])
        assert code == 0
        assert "speedup" in capsys.readouterr().out
        assert out.read_text().startswith("exact_seconds")

    def test_validate_smoke(self, quick_scenario, capsys):
        assert main(["validate", "--scenario", quick_scenario]) == 0
        assert "validation passed" in capsys.readouterr().out

    def test_validate_reports_skipped_deployments(self, quick_scenario,
                                                  monkeypatch, capsys):
        from hetcap import TaylorValidityError, capacity

        bound = capacity.ec_lower_bound
        calls = []

        def first_call_raises(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise TaylorValidityError("series cap reached")
            return bound(*args, **kwargs)

        monkeypatch.setattr(capacity, "ec_lower_bound", first_call_raises)
        assert main(["validate", "--scenario", quick_scenario]) == 0
        out = capsys.readouterr().out
        assert "  skipped 1 deployment (TaylorValidityError)\n" in out
        assert "validation passed" in out
        assert "deployment 10:" in out

    def test_import_leaves_integrate_and_optimize_unloaded(self, tmp_path):
        # scipy takes ~0.4 s to import and no command needs it: the import,
        # a README sweep, ``generate`` and ``validate`` (whose oracle is
        # numpy quadrature) load no scipy module at all
        import hetcap

        code = ("import sys, hetcap, hetcap.cli\n"
                "from hetcap.cli import main\n"
                "assert main(['sweep', '--eta-from', '-80', '--eta-to', '0', "
                "'--eta-step', '2.5', '--out', 'sweep.csv']) == 0\n"
                "assert main(['generate', '--out', 'topology.txt']) == 0\n"
                "assert main(['validate', '--trials', '500']) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        src = str(pathlib.Path(hetcap.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, cwd=tmp_path).stdout
        assert out.strip().splitlines()[-1] == "[]"
