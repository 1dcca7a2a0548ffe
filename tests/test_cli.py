import argparse
import errno
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

import spikesim.cli
from spikesim import ModelParams, State, __version__, build_oneunit, integrate, simulate
from spikesim import io, jump
from spikesim.cli import (
    OPTION_DEFAULTS,
    RunConfig,
    UsageError,
    analyse_group,
    build_parser,
    main,
    preset,
    simulate_run,
)
from spikesim.jump import engine
from spikesim.lyapunov import AUTO_BOX_CAP


@pytest.fixture
def out(tmp_path):
    return tmp_path


class TestIO:
    def test_ode_csv_round_trip(self, fig1_params, out):
        traj = integrate(fig1_params, State(0.01, 0.01), t_end=1.0, dt=1e-2)
        path = out / "ds.csv"
        io.write_ode_csv(path, traj)
        meta, columns = io.read_trajectory_csv(path)
        assert meta["alpha"] == "0.01"
        assert meta["mode"] == "ds"
        assert "version" in meta
        assert np.array_equal(columns["t"], traj.t)
        assert np.array_equal(columns["n"], traj.n)

    def test_jump_csv_round_trip(self, fig1_params, out):
        spec = build_oneunit(fig1_params)
        traj = simulate(spec, spec.lattice_state(0.0, 0.0), max_jumps=50, seed=9)
        path = out / "jump.csv"
        io.write_jump_csv(path, traj)
        meta, columns = io.read_trajectory_csv(path)
        assert meta["mode"] == "oneunit"
        assert meta["seed"] == "9"
        assert len(columns["t"]) == 51  # initial row + events
        # Only the numeric columns are read back.
        assert list(columns) == ["t", "r", "n"] and "channel" not in meta
        assert np.array_equal(columns["t"][1:], traj.times)
        assert np.array_equal(columns["r"], traj.step_r())
        assert np.array_equal(columns["n"], traj.step_n())

    def test_csv_is_locale_independent(self, fig1_params, out):
        traj = integrate(fig1_params, State(0.01, 0.01), t_end=0.1, dt=1e-2)
        path = out / "ds.csv"
        io.write_ode_csv(path, traj)
        text = path.read_bytes().decode()
        assert "," in text and ";" not in text
        assert "\r" not in text

    def test_json_rejects_non_finite_numbers(self, fig1_params, out):
        with pytest.raises(ValueError):
            io.write_json(out / "r.json", {"value": math.nan}, fig1_params)
        assert list(out.iterdir()) == []  # no half-written file

    def test_json_with_int_pairs_rejects_non_finite_numbers(self, fig1_params, out):
        with pytest.raises(ValueError):
            io.write_json(out / "r.json", {"set_A": [[0, 0], [1, 2]], "value": math.inf},
                          fig1_params)
        assert list(out.iterdir()) == []

    def test_json_with_an_int_pair_array_rejects_non_finite_numbers(self, fig1_params, out):
        with pytest.raises(ValueError):
            io.write_json(out / "r.json", {"set_A": np.array([[0, 0], [1, 2]]),
                                           "value": math.inf}, fig1_params)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("payload", [
        {"set_A": np.array([[0.0, 1.0]])},
        {"set_A": np.array([[0, 1]], dtype=np.int32)},
        {"set_A": np.array([[0, 1, 2]])},
        {"set_A": np.array([0, 1])},
        {"set_A": np.empty((0, 3), dtype=np.int64)},
        {"nested": {"set_A": np.array([[0, 1]])}},
        {1: np.array([[0, 1]])},
    ], ids=["float", "int32", "triple", "flat", "empty_triple", "nested", "int_key"])
    def test_json_refuses_any_other_array(self, fig1_params, out, payload):
        # Only an int64 (m, 2) array under a top-level str key is written;
        # the encoder refuses every other array, before the file is opened.
        with pytest.raises(TypeError):
            io.write_json(out / "r.json", payload, fig1_params)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("payload", [
        {"set_A": []},
        {"set_A": [[0, 0]]},
        {"set_A": [[0, 0], [3, -1], [2**70, 5]], "after": [1, 2]},
        {"first": [[1, 2]], "second": [[3, 4]], "s\u00e9t\n\"A\"": [[5, 6]]},
        # Not a list of int pairs, so the encoder writes each of these.
        {"set_A": [[True, 1]]},
        {"set_A": [[1.0, 2]]},
        {"set_A": [[1, 2, 3]]},
        {"set_A": [(1, 2)]},
        {"set_A": [[1, 2], []]},
        # Only a top-level list is written by the join; no string holds
        # what a member line holds.
        {"nested": {"set_A": [[1, 2]]}, "set_A": [[4, 5]], "deep": [[[1, 2]]]},
        {"text": '\n  "set_A": []', "set_A": [[1, 2]]},
        # An int64 (m, 2) array is written as its list of pairs.
        {"set_A": np.empty((0, 2), dtype=np.int64)},
        {"set_A": np.array([[3, 4]])},
        {"set_A": np.array([[0, 0], [3, -1], [2**31, 5], [-2**40, 2**62]]),
         "after": [1, 2], "second": np.arange(8).reshape(4, 2)},
        {"text": '\n  "set_A": []', "set_A": np.array([[1, 2]])},
    ], ids=["empty", "one", "many", "three_keys", "bool", "float", "triple", "tuple",
            "ragged", "nested", "member_text", "array_empty", "array_one", "array_many",
            "array_member_text"])
    def test_json_is_the_stdlib_encoding(self, fig1_params, out, payload):
        io.write_json(out / "r.json", payload, fig1_params)
        assert (out / "r.json").read_text() == _stdlib_json(payload, fig1_params)

    def test_json_embeds_params_and_version(self, fig1_params, out):
        path = out / "r.json"
        io.write_json(path, {"hello": 1}, fig1_params)
        doc = json.loads(path.read_text())
        assert doc["params"]["alpha"] == 0.01
        assert doc["version"]
        assert doc["hello"] == 1


def _stdlib_json(payload: dict, params: ModelParams | None) -> str:
    """What ``io.write_json`` must write: the stdlib encoder's text, with each
    top-level array (a drift report's ``set_A``) as its list."""
    doc = {"version": __version__}
    if params is not None:
        doc["params"] = {"alpha": params.alpha, "beta": params.beta, "gamma": params.gamma,
                         "p": params.p, "z": params.z}
    payload = {key: value.tolist() if isinstance(value, np.ndarray) else value
               for key, value in payload.items()}
    return json.dumps({**doc, **payload}, indent=2, allow_nan=False) + "\n"


class TestRun:
    def test_ds_run_writes_csv(self, fig1_params, out):
        config = RunConfig(params=fig1_params, mode="ds", initial=State(0.01, 0.01),
                           t_end=1.0, dt=1e-2, label="demo")
        written = list(analyse_group([config], simulate_run(config), out))
        assert written == [out / "demo.csv"]
        header = [
            line for line in written[0].read_text().splitlines()
            if not line.startswith("#")
        ][0]
        assert header == "t,r,n"

    def test_oneunit_run_with_analyses(self, fig1_params, out):
        config = RunConfig(
            params=fig1_params, mode="oneunit", initial=State(0.0, 0.0),
            t_end=3000.0, seed=2, a0=10.0, thr=10.0, label="stats",
        )
        written = list(analyse_group([config], simulate_run(config), out))
        names = {p.name for p in written}
        assert names == {"stats_survival.csv", "stats_pairs.csv", "stats_report.json"}
        report = json.loads((out / "stats_report.json").read_text())
        assert report["spikes"]["count"] > 0
        assert report["spikes"]["tail_fit"]["lambda_hat"] > 0
        assert "correlation" in report

    def test_lln_reference_reported(self, fig1_params, out):
        config = RunConfig(
            params=fig1_params, mode="global", n_units=20,
            initial=State(0.01, 0.01), t_end=5.0, seed=3,
            lln_reference=True, label="lln",
        )
        list(analyse_group([config], simulate_run(config), out))
        report = json.loads((out / "lln_report.json").read_text())
        assert report["lln_sup_distance"] > 0


class TestCLI:
    def test_ds_command(self, out):
        path = out / "traj.csv"
        code = main([
            "ds", "--alpha", "0.01", "--beta", "1", "--gamma", "100", "--p", "7",
            "--r0", "0.01", "--n0", "0.01", "--t-end", "1", "--dt", "0.01",
            "--out", str(path),
        ])
        assert code == 0
        meta, columns = io.read_trajectory_csv(path)
        assert columns["t"][-1] == pytest.approx(1.0)

    def test_stability_command(self, out):
        path = out / "stab.json"
        code = main([
            "stability", "--alpha", "0.01", "--beta", "1", "--gamma", "100",
            "--p", "7", "--out", str(path),
        ])
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["regime"] == "StableFocus"
        assert doc["fixed_point"]["n"] == 7.0

    def test_simulate_deterministic_files(self, out):
        args = [
            "simulate", "--mode", "oneunit", "--seed", "42", "--t-end", "50",
            "--r0", "0", "--n0", "0",
        ]
        a, b = out / "a.csv", out / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_flag_is_usage_error(self, out, capsys):
        assert main(["ds", "--frobnicate", "1", "--out", str(out / "x.csv")]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_parameters_are_usage_error(self, out, capsys):
        code = main([
            "stability", "--beta", "-1", "--out", str(out / "x.json"),
        ])
        assert code == 1
        assert "invalid parameter" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["stability", "--alpha", "nan"],
        ["simulate", "--mode", "oneunit", "--gamma", "inf", "--t-end", "1"],
    ])
    def test_non_finite_parameters_are_usage_error(self, out, capsys, argv):
        path = out / "x.out"
        assert main(argv + ["--out", str(path)]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("levels, message", [
        (["--thr", "-1"], "thr must be finite and >= 0"),
        (["--thr", "nan"], "thr must be finite and >= 0"),
        (["--a0", "0"], "a0 must be finite and > 0"),
        (["--a0", "inf", "--thr", "10"], "a0 must be finite and > 0"),
    ])
    def test_simulate_out_of_range_level_is_usage_error(self, out, capsys, levels, message):
        code = main(["simulate", "--mode", "oneunit", "--t-end", "1", *levels,
                     "--out", str(out / "path.csv")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []  # no trajectory and no report

    @pytest.mark.parametrize("levels", [["--a0", "0"], ["--a0", "10", "--thr", "-1"]])
    def test_analyze_out_of_range_level_is_usage_error(self, fig1_params, out, capsys, levels):
        spec = build_oneunit(fig1_params)
        io.write_jump_csv(out / "p.csv", simulate(spec, spec.lattice_state(0.0, 0.0),
                                                  t_end=5.0, seed=1))
        code = main(["analyze", "--input", str(out / "p.csv"), *levels,
                     "--out", str(out / "a.json"), "--pairs-out", str(out / "pairs.csv")])
        assert code == 1
        assert "must be finite" in capsys.readouterr().err
        assert sorted(path.name for path in out.iterdir()) == ["p.csv"]

    def test_analyze_without_pairs_writes_note(self, fig1_params, out):
        spec = build_oneunit(fig1_params)
        traj = simulate(spec, spec.lattice_state(0.0, 0.0), t_end=1.0, seed=11)
        csv_path = out / "short.csv"
        io.write_jump_csv(csv_path, traj)
        report_path = out / "analysis.json"
        code = main([
            "analyze", "--input", str(csv_path), "--a0", "10", "--thr", "10",
            "--out", str(report_path), "--pairs-out", str(out / "pairs.csv"),
        ])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert "3 pairs" in doc["correlation"]["note"]

    def test_simulate_without_pairs_writes_note(self, out):
        code = main([
            "simulate", "--mode", "oneunit", "--seed", "11", "--t-end", "1",
            "--r0", "0", "--n0", "0", "--a0", "10", "--thr", "10",
            "--out", str(out / "short.csv"),
        ])
        assert code == 0
        doc = json.loads((out / "short_report.json").read_text())
        assert "3 pairs" in doc["correlation"]["note"]

    def test_unwritable_path_is_runtime_error(self, out, capsys):
        code = main([
            "stability", "--out", str(out / "missing_dir" / "x.json"),
        ])
        assert code == 2
        assert "runtime error" in capsys.readouterr().err

    def test_unknown_preset_is_usage_error(self, out):
        assert main(["preset", "fig9", "--outdir", str(out)]) == 1

    def test_lyapunov_command(self, out):
        path = out / "drift.json"
        code = main([
            "lyapunov", "--mode", "oneunit", "--alpha", "0.01", "--beta", "1",
            "--gamma", "100", "--p", "7", "--epsilon", "0.1",
            "--box-kr", "100", "--box-kn", "100", "--out", str(path),
        ])
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["passed"] is True
        assert doc["violations"] == []

    def test_analyze_command(self, fig1_params, out):
        spec = build_oneunit(fig1_params)
        traj = simulate(spec, spec.lattice_state(0.0, 0.0), t_end=2000.0, seed=11)
        csv_path = out / "traj.csv"
        io.write_jump_csv(csv_path, traj)
        report_path = out / "analysis.json"
        code = main([
            "analyze", "--input", str(csv_path), "--a0", "10", "--thr", "10",
            "--out", str(report_path), "--pairs-out", str(out / "pairs.csv"),
        ])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["spikes"]["count"] > 0
        assert (out / "pairs.csv").exists()

    def test_env_override(self, out, monkeypatch):
        monkeypatch.setenv("SPIKESIM_GAMMA", "1")
        path = out / "stab.json"
        assert main(["stability", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["params"]["gamma"] == 1.0
        assert doc["regime"] == "StableNode"

    def test_flag_beats_env_beats_config(self, out, monkeypatch):
        config = out / "run.cfg"
        config.write_text("gamma=2\nalpha=0.5\n")
        path = out / "stab.json"
        assert main(["stability", "--config", str(config), "--out", str(path)]) == 0
        assert json.loads(path.read_text())["params"]["gamma"] == 2.0

        monkeypatch.setenv("SPIKESIM_GAMMA", "3")
        assert main(["stability", "--config", str(config), "--out", str(path)]) == 0
        assert json.loads(path.read_text())["params"]["gamma"] == 3.0

        assert main([
            "stability", "--config", str(config), "--gamma", "4",
            "--out", str(path),
        ]) == 0
        doc = json.loads(path.read_text())
        assert doc["params"]["gamma"] == 4.0
        assert doc["params"]["alpha"] == 0.5  # from the file, untouched by env

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert engine() in ("compiled", "python")
        assert capsys.readouterr().out == f"spikesim {__version__} (jump engine: {engine()})\n"

    @pytest.mark.skipif(engine() != "compiled", reason="no compiled library here")
    def test_version_names_the_check_that_refused_the_build(self, tmp_path):
        # A build whose formatter check fails, in a private cache: the
        # refusal names the formatter, and so does --version, both in the
        # process that refused the build and in a later one that finds the
        # refusal and builds nothing.
        code = ("import sys\n"
                "from spikesim import cli, io\n"
                "if sys.argv[1] == 'fail':\n"
                "    io._formatter_agrees = lambda format_rows: False\n"
                "sys.exit(cli.main(['--version']))\n")
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(spikesim.cli.__file__).parents[1]),
                          os.environ.get("PYTHONPATH")])))
        outs = [subprocess.run([sys.executable, "-c", code, run], env=env, capture_output=True,
                               text=True, check=True, timeout=120).stdout
                for run in ("fail", "again")]
        assert outs == [f"spikesim {__version__} (jump engine: python; refused: formatter)\n"] * 2
        (refused,) = (tmp_path / "spikesim").iterdir()
        assert refused.suffix == ".refused" and refused.read_text() == "formatter\n"

    def test_lyapunov_auto_box_with_a_zero_extent(self, out):
        # Unpumped with a fast leak: the exceptional set's analytic extent
        # along kn is 0, and the auto-sized box is one state deep there.
        path = out / "ly.json"
        assert main(["lyapunov", "--mode", "oneunit", "--gamma", "100", "--beta", "0.01",
                     "--p", "0", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["analytic_extent"][1] == 0
        assert doc["scan_box"] == [1024, 1]

    @pytest.mark.parametrize("argv", [
        ["--mode", "oneunit", "--alpha", "1e-320", "--box-kr", "5", "--box-kn", "5"],
        ["--mode", "oneunit", "--gamma", "1e300"],
        ["--mode", "meanfield", "--gamma", "1e300"],
        ["--mode", "oneunit", "--epsilon", "1e308"],
    ], ids=["alpha 1e-320", "oneunit gamma 1e300", "meanfield gamma 1e300", "epsilon 1e308"])
    def test_lyapunov_extent_that_overflows(self, out, argv):
        # The analytic extent along kr overflows: that axis is unbounded, so
        # the auto box takes the cap there and A is not shown contained.
        path = out / "ly.json"
        code = main(["lyapunov", *argv, "--out", str(path)])
        doc = json.loads(path.read_text())
        assert code == (0 if doc["passed"] else 2)
        assert doc["analytic_extent"][0] is None and not doc["contained"]
        if "--box-kr" not in argv:
            assert doc["scan_box"][0] == AUTO_BOX_CAP


OUT = "<out>"  # stands for the output path (or directory) of each command below

OUT_OF_RANGE = {
    "simulate --max-jumps -5": (["simulate", "--mode", "oneunit", "--max-jumps", "-5"],
                                "max_jumps must be >= 0"),
    "simulate --n-units 0": (["simulate", "--mode", "global", "--n-units", "0", "--t-end", "1"],
                             "n_units must be a positive integer"),
    "simulate --t-end -1": (["simulate", "--mode", "oneunit", "--t-end", "-1"],
                            "t_end must be finite and > 0"),
    "simulate --t-end nan": (["simulate", "--mode", "oneunit", "--t-end", "nan"],
                             "t_end must be finite and > 0"),
    "simulate --t-end inf": (["simulate", "--mode", "oneunit", "--t-end", "inf"],
                             "t_end must be finite and > 0"),
    "simulate --r0 -1": (["simulate", "--mode", "oneunit", "--t-end", "1", "--r0", "-1"],
                         "physical state must be finite and non-negative"),
    "simulate --r0 nan": (["simulate", "--mode", "meanfield", "--t-end", "1", "--r0", "nan"],
                          "physical state must be finite and non-negative"),
    "simulate --seed -1": (["simulate", "--mode", "oneunit", "--t-end", "1", "--seed", "-1"],
                           "seed must be >= 0"),
    # At gamma 100, r0 = 1e17 is lattice index 1e19, past int64, and
    # r0 = 1e307 is an index past the largest float.
    "simulate --r0 1e17": (["simulate", "--mode", "oneunit", "--r0", "1e17", "--n0", "1",
                            "--max-jumps", "5"],
                           "is past lattice index 2**62"),
    "simulate --r0 1e307": (["simulate", "--mode", "oneunit", "--r0", "1e307",
                             "--max-jumps", "5"],
                            "is past lattice index 2**62"),
    # At gamma 1e-310 the r unit 1/gamma is past the largest float, and so
    # is N = 1e400.
    **{f"simulate {mode} --gamma 1e-310": (
        ["simulate", "--mode", mode, "--gamma", "1e-310", "--t-end", "1"],
        "lattice unit r_unit = inf is not a finite float above 0")
       for mode in ("oneunit", "meanfield", "global")},
    "simulate --n-units 1e400": (
        ["simulate", "--mode", "global", "--n-units", "1" + "0" * 400, "--t-end", "1"],
        "n_units must be finite as a float"),
    "ds --dt 0": (["ds", "--t-end", "1", "--dt", "0"], "dt must satisfy 0 < dt <= t_end"),
    "ds --t-end inf": (["ds", "--t-end", "inf"], "t_end must be finite and > 0"),
    # 1e300 steps: past the int64 step count of the RK4 loops.
    "ds --dt 1e-300": (["ds", "--t-end", "1", "--dt", "1e-300"],
                       "t_end / dt must be below 2**63 steps, got 1e+300"),
    "ds --r0 nan": (["ds", "--t-end", "1", "--r0", "nan"],
                    "initial state must be finite and non-negative"),
    "lyapunov --epsilon 0": (["lyapunov", "--mode", "oneunit", "--epsilon", "0"],
                             "epsilon must be finite and > 0"),
    "lyapunov --epsilon nan": (["lyapunov", "--mode", "oneunit", "--epsilon", "nan"],
                               "epsilon must be finite and > 0"),
    "lyapunov --box-kr 0": (["lyapunov", "--mode", "oneunit", "--box-kr", "0", "--box-kn", "10"],
                            "scan box must be at least 1x1"),
    # The condition fails at gamma 0.5, so nothing is scanned; the box is
    # checked all the same.
    "lyapunov inconclusive --box-kr -5": (
        ["lyapunov", "--mode", "oneunit", "--gamma", "0.5", "--box-kr", "-5", "--box-kn", "-5"],
        "scan box must be at least 1x1"),
    "preset --t-end -1": (["preset", "fig5", "--t-end", "-1", "--outdir", OUT],
                          "t_end must be finite and > 0"),
    # fig1's first run integrates the ODE, which needs no seed.
    "preset --seed -1": (["preset", "fig1", "--seed", "-1", "--t-end", "1", "--outdir", OUT],
                         "seed must be >= 0"),
    "simulate --lln-reference --t-end 0.0005": (
        ["simulate", "--mode", "oneunit", "--t-end", "0.0005", "--lln-reference"],
        "dt must satisfy 0 < dt <= t_end"),
    # A jump count alone bounds the run, so there is no horizon to compare over.
    "simulate --lln-reference without a horizon": (
        ["simulate", "--mode", "global", "--n-units", "10", "--max-jumps", "100",
         "--lln-reference"],
        "--lln-reference needs a horizon (--t-end)"),
    "stability --p 0 --alpha 0": (["stability", "--p", "0", "--alpha", "0"],
                                  "stationary point undefined"),
    "stability z overflows": (["stability", "--alpha", "1e308", "--beta", "1e308", "--gamma", "1",
                               "--p", "1e308"], "z = beta*p + alpha must be finite"),
    "lyapunov meanfield --p 0 --alpha 0": (
        ["lyapunov", "--mode", "meanfield", "--p", "0", "--alpha", "0"],
        "stationary point undefined"),
    # The rates overflow: a drift outside A is NaN, or inf in the mean field.
    "lyapunov oneunit nan drift": (
        ["lyapunov", "--mode", "oneunit", "--alpha", "0.01", "--beta", "1e-308", "--gamma",
         "3e-308", "--p", "7", "--box-kr", "5", "--box-kn", "5"],
        "the drift at (kr, kn) = (0, 4) is nan, not a finite float"),
    "lyapunov meanfield inf drift": (
        ["lyapunov", "--mode", "meanfield", "--alpha", "0.01", "--beta", "1e-308", "--gamma",
         "3e-308", "--p", "7", "--box-kr", "5", "--box-kn", "5"],
        "the drift at (kr, kn) = (0, 1) is inf, not a finite float"),
}


@pytest.mark.parametrize("case", list(OUT_OF_RANGE))
def test_out_of_range_argument_is_usage_error(out, capsys, case):
    argv, message = OUT_OF_RANGE[case]
    argv = argv if OUT in argv else argv + ["--out", OUT]
    code = main([str(out / "run") if arg == OUT else arg for arg in argv])
    assert code == 1
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []  # nothing written


def test_a_report_json_cannot_hold_leaves_no_file(out, capsys):
    # At gamma 1e-310 an eigenvalue overflows to -inf, which JSON cannot hold.
    assert main(["stability", "--gamma", "1e-310", "--out", str(out / "s.json")]) == 2
    assert "not JSON compliant" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_stability_at_an_alpha_whose_gamma2_is_inf_leaves_no_file(out, capsys):
    # Below alpha ~ 5e-162, gamma2 is inf, which JSON cannot hold.
    assert main(["stability", "--alpha", "1e-200", "--out", str(out / "s.json")]) == 2
    assert "not JSON compliant" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("kernel", ["in use", "python"])
def test_event_times_that_overflow_are_usage_error(out, capsys, monkeypatch, kernel):
    # At a total rate of 5e-324 every waiting time overflows to inf.
    if kernel == "python":
        monkeypatch.setattr(jump, "_compiled_run", lambda: None)
    code = main(["simulate", "--mode", "oneunit", "--alpha", "0", "--p", "5e-324", "--r0", "0",
                 "--n0", "0", "--max-jumps", "3", "--seed", "0", "--out", str(out / "run.csv")])
    assert code == 1
    assert "event time inf is not finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []  # nothing written


# An output flag whose file the run would not write, judged on the levels
# the run resolves (the environment's included).
UNWRITTEN_OUTPUT = {
    "simulate --pairs-out without --thr": (
        ["simulate", "--mode", "oneunit", "--t-end", "200", "--a0", "10", "--pairs-out", "p.csv"],
        {}, "--pairs-out writes nothing without both --a0 and --thr"),
    "simulate --survival-out without --a0": (
        ["simulate", "--mode", "oneunit", "--t-end", "200", "--survival-out", "s.csv"],
        {"SPIKESIM_THR": "0"}, "--survival-out writes nothing without --a0"),
    "simulate --report-out without a level": (
        ["simulate", "--mode", "oneunit", "--t-end", "200", "--report-out", "r.json"],
        {}, "--report-out writes nothing without --a0, --thr or --lln-reference"),
    "analyze --pairs-out without --a0": (
        ["analyze", "--input", "in.csv", "--thr", "0", "--pairs-out", "p.csv"],
        {}, "--pairs-out writes nothing without both --a0 and --thr"),
}


@pytest.mark.parametrize("case", list(UNWRITTEN_OUTPUT))
def test_output_that_nothing_writes_is_usage_error(fig1_params, out, capsys, monkeypatch, case):
    argv, env, message = UNWRITTEN_OUTPUT[case]
    spec = build_oneunit(fig1_params)
    io.write_jump_csv(out / "in.csv", simulate(spec, spec.lattice_state(0.0, 0.0),
                                                t_end=5.0, seed=1))
    monkeypatch.chdir(out)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv + ["--out", "a.csv"]) == 1
    assert message in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["in.csv"]


# Two files of one command, written or read, that resolve to one path.
SIMULATE = ["simulate", "--mode", "oneunit", "--t-end", "200", "--a0", "10"]
ANALYZE = ["analyze", "--input", "in.csv", "--a0", "10", "--thr", "10"]
SAME_FILE = {
    "simulate --report-out is --out": SIMULATE + ["--out", "x.csv", "--report-out", "x.csv"],
    "simulate --report-out is ./--out": SIMULATE + ["--out", "./x.csv", "--report-out", "x.csv"],
    "simulate --survival-out is the default report": SIMULATE + [
        "--out", "x2.csv", "--survival-out", "x2_report.json"],
    "simulate --survival-out is the default report beside --out": SIMULATE + [
        "--out", "sub/x2.csv", "--survival-out", "sub/x2_report.json"],
    "simulate --out is --config": SIMULATE + ["--config", "c.cfg", "--out", "c.cfg"],
    "analyze --out is --input": ANALYZE + ["--out", "in.csv"],
    "analyze --pairs-out is --input": ANALYZE + ["--out", "r.json", "--pairs-out", "in.csv"],
    "analyze --pairs-out is --out": ANALYZE + ["--out", "r.json", "--pairs-out", "./r.json"],
    "stability --out is --config": ["stability", "--config", "c.cfg", "--out", "c.cfg"],
    "ds --out is --config": ["ds", "--config", "c.cfg", "--out", "c.cfg"],
    "lyapunov --out is --config": ["lyapunov", "--mode", "oneunit", "--config", "c.cfg",
                                   "--out", "c.cfg"],
}


@pytest.mark.parametrize("case", list(SAME_FILE))
def test_two_files_of_a_command_at_one_path_is_usage_error(fig1_params, out, capsys,
                                                           monkeypatch, case):
    spec = build_oneunit(fig1_params)
    io.write_jump_csv(out / "in.csv", simulate(spec, spec.lattice_state(0.0, 0.0),
                                                t_end=5.0, seed=1))
    (out / "c.cfg").write_text("beta = 1\n")
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    monkeypatch.chdir(out)
    assert main(SAME_FILE[case]) == 1
    assert "would be both the" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


# The levels a simulate run can set, and whether each output flag's file is
# written, given the level flags set.
LEVELS = {"none": [], "a0 10": ["--a0", "10"], "a0 1000": ["--a0", "1000"],
          "thr": ["--thr", "10"], "a0 10 thr": ["--a0", "10", "--thr", "10"],
          "a0 1000 thr": ["--a0", "1000", "--thr", "10"]}
WRITTEN = {"--survival-out": lambda given: "--a0" in given,
           "--pairs-out": lambda given: {"--a0", "--thr"} <= given,
           "--report-out": bool}


@pytest.mark.parametrize("lln", [False, True], ids=["", "lln"])
@pytest.mark.parametrize("flag", list(WRITTEN))
@pytest.mark.parametrize("levels", list(LEVELS))
def test_an_accepted_output_flag_names_a_file_the_run_writes(out, monkeypatch, levels, flag, lln):
    level_flags = LEVELS[levels] + (["--lln-reference"] if lln else [])
    monkeypatch.chdir(out)
    code = main(["simulate", "--mode", "oneunit", "--t-end", "50", "--seed", "1", *level_flags,
                 flag, "named", "--out", "q.csv"])
    if WRITTEN[flag]({arg for arg in level_flags if arg.startswith("--")}):
        assert code == 0
        assert {"named", "q.csv"} <= {path.name for path in out.iterdir()}
    else:
        assert code == 1
        assert list(out.iterdir()) == []


def test_survival_with_no_spike_above_a0_is_its_header(out):
    assert main(["simulate", "--mode", "oneunit", "--t-end", "50", "--seed", "1",
                 "--a0", "1000", "--survival-out", str(out / "s.csv"),
                 "--out", str(out / "q.csv")]) == 0
    assert _data_rows(out / "s.csv") == ["a,survival"]
    report = json.loads((out / "q_report.json").read_text())
    assert report["spikes"]["count"] == 0


def test_levels_from_config_and_environment_enable_the_outputs(out, monkeypatch):
    (out / "run.cfg").write_text("a0 = 10\n")
    monkeypatch.setenv("SPIKESIM_THR", "10")
    assert main(["simulate", "--mode", "oneunit", "--t-end", "200",
                 "--config", str(out / "run.cfg"),
                 "--out", str(out / "a.csv"), "--pairs-out", str(out / "p.csv"),
                 "--survival-out", str(out / "s.csv"), "--report-out", str(out / "r.json")]) == 0
    assert {"p.csv", "s.csv", "r.json"} <= {path.name for path in out.iterdir()}


class TestOptionSources:
    """A config key or value, or an environment value, that cannot be used
    is a usage error naming the key and where it came from."""

    ARGV = ["simulate", "--mode", "oneunit", "--t-end", "1"]

    def test_unknown_config_key(self, out, capsys):
        config = out / "run.cfg"
        config.write_text("gama=3\n")
        path = out / "stab.json"
        assert main(["stability", "--config", str(config), "--out", str(path)]) == 1
        assert f"config file {config}: unknown key 'gama'" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("key, value, typ", [("seed", "abc", "int"), ("gamma", "abc", "float")])
    def test_non_numeric_config_value(self, out, capsys, key, value, typ):
        config = out / "run.cfg"
        config.write_text(f"{key}={value}\n")
        code = main(self.ARGV + ["--config", str(config), "--out", str(out / "p.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"config file {config}: {key}={value!r} is not a valid {typ}" in err
        assert sorted(path.name for path in out.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("key, value, typ", [("seed", "x", "int"), ("gamma", "abc", "float")])
    def test_non_numeric_environment_value(self, out, capsys, monkeypatch, key, value, typ):
        monkeypatch.setenv(f"SPIKESIM_{key.upper()}", value)
        assert main(self.ARGV + ["--out", str(out / "p.csv")]) == 1
        err = capsys.readouterr().err
        assert f"environment variable SPIKESIM_{key.upper()}: {key}={value!r}" in err
        assert f"is not a valid {typ}" in err
        assert list(out.iterdir()) == []


class TestMaxJumpsSources:
    """max_jumps resolves like every option, and bounds the run alone unless
    some source also sets a horizon."""

    ARGV = ["simulate", "--mode", "oneunit"]

    def _events(self, out, argv) -> int:
        path = out / "p.csv"
        assert main(self.ARGV + argv + ["--out", str(path)]) == 0
        _meta, columns = io.read_trajectory_csv(path)
        return len(columns["t"]) - 1  # the first row is the initial state

    def test_config_file(self, out):
        config = out / "run.cfg"
        config.write_text("max_jumps=5\n")
        assert self._events(out, ["--config", str(config)]) == 5

    def test_environment(self, out, monkeypatch):
        monkeypatch.setenv("SPIKESIM_MAX_JUMPS", "5")
        assert self._events(out, []) == 5

    def test_horizon_from_config_file_still_bounds_the_run(self, out):
        config = out / "run.cfg"
        config.write_text("t_end=0.5\n")
        path = out / "p.csv"
        assert main(self.ARGV + ["--config", str(config), "--max-jumps", "1000",
                                 "--out", str(path)]) == 0
        meta, columns = io.read_trajectory_csv(path)
        assert float(meta["t_end"]) == 0.5
        assert 0 < len(columns["t"]) - 1 < 1000


    def test_a_path_the_jump_count_stops_ends_at_its_last_event(self, out):
        # This path's last event, an absorption, takes n from 14 to 13, so a
        # plateau at or below 13 opens there.  Held to the horizon asked for
        # (t = 1e6) rather than to the last event, the path would show a
        # fourth plateau that it never had.
        assert main(self.ARGV + ["--gamma", "2", "--seed", "7", "--max-jumps", "50",
                                 "--t-end", "1e6", "--out", str(out / "p.csv")]) == 0
        meta, columns = io.read_trajectory_csv(out / "p.csv")
        assert meta["terminated_by"] == "MaxJumps"
        assert float(meta["t_end"]) == columns["t"][-1] < 10.0
        assert list(columns["n"][-2:]) == [14.0, 13.0]
        assert main(["analyze", "--input", str(out / "p.csv"), "--thr", "13",
                     "--out", str(out / "a.json")]) == 0
        assert json.loads((out / "a.json").read_text())["plateaus"]["count"] == 3

    def test_lln_reference_past_the_last_event_leaves_no_file(self, out, capsys):
        assert main(["simulate", "--mode", "global", "--n-units", "10", "--max-jumps", "50",
                     "--t-end", "20", "--lln-reference", "--out", str(out / "p.csv")]) == 2
        assert "requested [0, 20.0]" in capsys.readouterr().err
        assert list(out.iterdir()) == []

def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (subs,) = [action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction)]
    return subs.choices


def _declared(sub: argparse.ArgumentParser) -> list[str]:
    """The table options a command takes, in the order of its flags."""
    return [action.dest for action in sub._actions if action.dest in OPTION_DEFAULTS]


def test_every_table_option_is_a_flag_of_its_type():
    declared = set()
    for command, sub in _subcommands().items():
        for name in _declared(sub):
            action = next(action for action in sub._actions if action.dest == name)
            assert action.type is OPTION_DEFAULTS[name][0], (command, name)
            assert action.option_strings == ["--" + name.replace("_", "-")], (command, name)
            declared.add(name)
    assert declared == set(OPTION_DEFAULTS)  # no config key that nothing reads


# A value of each table option that is not its default, and the other
# arguments of each command that resolves options, on tiny horizons and
# boxes.  preset resolves none: its --seed and --t-end are flag-only.
OPTION_VALUES = {"alpha": "0.02", "beta": "0.5", "gamma": "50", "p": "3", "n_units": "3",
                 "seed": "5", "t_end": "20", "max_jumps": "40", "r0": "0.5", "n0": "0.25",
                 "a0": "2", "thr": "1", "dt": "0.01", "epsilon": "0.2"}
INPUT = "<input>"  # stands for a jump CSV that analyze reads
COMMAND_ARGV = {
    "ds": ["ds", "--out", "ds.csv"],
    "stability": ["stability", "--out", "s.json"],
    "simulate": ["simulate", "--mode", "global", "--out", "p.csv"],
    "analyze": ["analyze", "--input", INPUT, "--out", "r.json", "--pairs-out", "pairs.csv"],
    "lyapunov": ["lyapunov", "--mode", "oneunit", "--box-kr", "20", "--box-kn", "20",
                 "--out", "d.json"],
}
OPTION_ROUTES = [
    (command, name, route)
    for command, sub in _subcommands().items() if command != "preset"
    for name in _declared(sub)
    for route in (["environment", "config"] if "--config" in sub._option_string_actions
                  else ["environment"])
]


@pytest.mark.parametrize("command, name, route", OPTION_ROUTES,
                         ids=["-".join(case) for case in OPTION_ROUTES])
def test_every_source_of_an_option_writes_what_its_flag_writes(
        fig1_params, tmp_path, monkeypatch, command, name, route):
    spec = build_oneunit(fig1_params)
    io.write_jump_csv(tmp_path / "in.csv", simulate(spec, spec.lattice_state(0.0, 0.0),
                                                    t_end=200.0, seed=1))
    argv = [str(tmp_path / "in.csv") if arg == INPUT else arg for arg in COMMAND_ARGV[command]]
    # Every other option the command takes is set by its flag, except a jump
    # count beside a horizon under test: its run stops before t_end, and so
    # covers only up to its last event whatever t_end is.
    argv += [arg for other in _declared(_subcommands()[command])
             if other != name and (name, other) != ("t_end", "max_jumps")
             for arg in ("--" + other.replace("_", "-"), OPTION_VALUES[other])]
    (tmp_path / "run.cfg").write_text(f"{name}={OPTION_VALUES[name]}\n")

    def written(source: str, extra: list[str], env: dict[str, str]):
        (tmp_path / source).mkdir()
        monkeypatch.chdir(tmp_path / source)
        with monkeypatch.context() as patch:
            for key, value in env.items():
                patch.setenv(key, value)
            code = main(argv + extra)
        return code, {path.name: path.read_bytes() for path in Path.cwd().iterdir()}

    flag = written("flag", ["--" + name.replace("_", "-"), OPTION_VALUES[name]], {})
    assert flag[0] in (0, 2) and flag[1]  # lyapunov exits 2 on a failed scan
    if route == "environment":
        assert written(route, [], {f"SPIKESIM_{name.upper()}": OPTION_VALUES[name]}) == flag
    else:
        assert written(route, ["--config", str(tmp_path / "run.cfg")], {}) == flag
    assert written("unset", [], {}) != flag  # the option changes what is written


# Each report command, and the set_A pairs of its report (None: no set_A).
JSON_REPORTS = {
    "drift_no_pairs": (["lyapunov", "--mode", "oneunit", "--gamma", "0.5"], 0),
    "drift_one_pair": (["lyapunov", "--mode", "oneunit", "--alpha", "0.5", "--gamma", "2",
                        "--p", "0", "--box-kr", "50", "--box-kn", "50"], 1),
    "drift_many_pairs": (["lyapunov", "--mode", "meanfield", "--box-kr", "300",
                          "--box-kn", "300"], 2408),
    "stability": (["stability"], None),
    "analyze": (["analyze", "--input", INPUT, "--a0", "2", "--thr", "1",
                 "--pairs-out", "pairs.csv"], None),
}


@pytest.mark.parametrize("case", list(JSON_REPORTS))
def test_report_json_is_the_stdlib_encoding(out, monkeypatch, case):
    argv, pairs = JSON_REPORTS[case]
    if INPUT in argv:
        assert main(["simulate", "--mode", "oneunit", "--t-end", "200",
                     "--out", str(out / "p.csv")]) == 0
    files = {INPUT: out / "p.csv", "pairs.csv": out / "pairs.csv"}
    argv = [str(files.get(arg, arg)) for arg in argv]
    written = []
    write_json = io.write_json
    monkeypatch.setattr(io, "write_json", lambda path, payload, params=None: (
        written.append((payload, params)), write_json(path, payload, params)))
    assert main(argv + ["--out", str(out / "r.json")]) == 0
    ((payload, params),) = written
    assert (out / "r.json").read_text() == _stdlib_json(payload, params)
    assert len(payload.get("set_A", ())) == (pairs or 0)


class TestParserReuse:
    """Every main call parses with one parser, built on the first call; no
    call's flags, environment or errors reach the next."""

    ARGV = ["lyapunov", "--mode", "oneunit", "--box-kr", "20", "--box-kn", "20", "--out"]

    def test_the_parser_is_built_once(self, out, monkeypatch):
        builds = []
        monkeypatch.setattr(spikesim.cli, "build_parser",
                            lambda: builds.append(1) or build_parser())
        spikesim.cli._parser.cache_clear()
        assert main(self.ARGV + [str(out / "a.json")]) == 0
        assert main(["stability", "--out", str(out / "s.json")]) == 0
        assert main(["stability", "--frobnicate", "--out", str(out / "x.json")]) == 1
        assert builds == [1]

    def test_a_flag_does_not_outlive_its_call(self, out):
        spikesim.cli._parser.cache_clear()
        assert main(self.ARGV + [str(out / "first.json")]) == 0
        assert main(self.ARGV + [str(out / "flag.json"), "--epsilon", "0.5"]) == 0
        assert main(self.ARGV + [str(out / "again.json")]) == 0
        assert json.loads((out / "flag.json").read_text())["epsilon"] == 0.5
        assert (out / "again.json").read_bytes() == (out / "first.json").read_bytes()

    def test_environment_set_between_calls_is_read(self, out, monkeypatch):
        assert main(self.ARGV + [str(out / "before.json")]) == 0
        assert main(self.ARGV + [str(out / "flag.json"), "--epsilon", "0.5"]) == 0
        monkeypatch.setenv("SPIKESIM_EPSILON", "0.5")
        assert main(self.ARGV + [str(out / "env.json")]) == 0
        assert json.loads((out / "before.json").read_text())["epsilon"] == 0.1
        assert (out / "env.json").read_bytes() == (out / "flag.json").read_bytes()

    @pytest.mark.parametrize("bad", [
        ["lyapunov", "--mode", "global"],  # rejected by the parser
        ["lyapunov", "--mode", "oneunit", "--box-kr", "20"],  # rejected after parsing
    ], ids=["parse", "resolve"])
    def test_a_usage_error_leaves_the_next_call_whole(self, out, capsys, bad):
        assert main(bad + ["--out", str(out / "bad.json")]) == 1
        assert main(self.ARGV + [str(out / "good.json")]) == 0
        assert not (out / "bad.json").exists() and (out / "good.json").exists()


class TestAnalyzeRejectsMalformedInput:
    def _analyze(self, fig1_params, out, rows, header=True):
        """``analyze`` of an ODE CSV whose data rows are replaced by ``rows``,
        and whose column-header line is dropped unless ``header``."""
        io.write_ode_csv(out / "p.csv", integrate(fig1_params, State(0.01, 0.01), 1.0, dt=0.5))
        lines = [line for line in (out / "p.csv").read_text().splitlines()
                 if line.startswith("#") or header and line == "t,r,n"]
        (out / "p.csv").write_text("\n".join(lines + rows) + "\n")
        return main(["analyze", "--input", str(out / "p.csv"), "--a0", "1", "--thr", "0.5",
                     "--out", str(out / "a.json")])

    def test_times_going_backwards(self, fig1_params, out, capsys):
        code = self._analyze(fig1_params, out, ["0,0.01,0.01", "1,0.02,2", "0.5,0.03,3"])
        assert code == 1
        assert "times go backwards" in capsys.readouterr().err
        assert sorted(path.name for path in out.iterdir()) == ["p.csv"]

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, fig1_params, out, capsys, column, value):
        rows = [["0", "0.01", "0.01"], ["1", "0.02", "2"], ["2", "0.03", "3"]]
        rows[1][column] = value
        code = self._analyze(fig1_params, out, [",".join(row) for row in rows])
        assert code == 1
        assert f"column {'trn'[column]} holds a value that is not finite" in capsys.readouterr().err
        assert sorted(path.name for path in out.iterdir()) == ["p.csv"]

    @pytest.mark.parametrize("rows, header, message", [
        (["0,0.01,0.01", "1.0,1.0,x,leak"], True, "could not convert string 'x'"),
        (["0,0.01,0.01", "0.0,1.0"], True, "invalid column index 2"),
        # Past the first block of rows the error search hands loadtxt.
        ([f"{i}.0,0.01,0.01" for i in range(5000)] + ["5000.0,1.0,x"], True,
         "could not convert string 'x'"),
        ([], False, "no header line found"),
    ], ids=["not a number", "too few cells", "not a number past a block", "no header line"])
    def test_malformed_file(self, fig1_params, out, capsys, monkeypatch, rows, header, message):
        errors = []
        # With the compiled reader where it is available, then without it.
        for reader in (io._compiled_reader, lambda: None):
            monkeypatch.setattr(io, "_compiled_reader", reader)
            code = self._analyze(fig1_params, out, rows, header)
            assert code == 1
            errors.append(capsys.readouterr().err)
            assert sorted(path.name for path in out.iterdir()) == ["p.csv"]
        where = f"{out / 'p.csv'}: "
        if rows:  # the bad row's line in the file, counted from 1
            where += f"line {(out / 'p.csv').read_text().splitlines().index(rows[-1]) + 1}: "
        assert f"spikesim: error: {where}{message}" in errors[0]
        assert errors[1] == errors[0]

    def test_equal_consecutive_times_are_legal(self, fig1_params, out):
        # Two jump events may share a time.
        code = self._analyze(fig1_params, out, ["0,0.01,0.01", "1,0.02,2", "1,0.03,3", "2,0,0"])
        assert code == 0
        assert json.loads((out / "a.json").read_text())["spikes"]["count"] == 1


def _data_rows(path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


class TestAnalyzeRoutesAgree:
    """``simulate --a0/--thr`` and ``analyze`` of the CSV it writes report the
    same statistics."""

    ANALYSED = ("spikes", "plateaus", "correlation")

    def _analyze(self, csv_path, report_path, pairs_path=None, level="10") -> dict:
        argv = ["analyze", "--input", str(csv_path), "--a0", level, "--thr", level,
                "--out", str(report_path)]
        if pairs_path is not None:
            argv += ["--pairs-out", str(pairs_path)]
        assert main(argv) == 0
        return json.loads(report_path.read_text())

    def test_plateau_open_at_the_horizon(self, out):
        # This path ends in a plateau after its last event; it is cut at the
        # horizon, not at the last event time.
        assert main([
            "simulate", "--mode", "oneunit", "--gamma", "2", "--seed", "57",
            "--t-end", "300", "--a0", "10", "--thr", "10", "--out", str(out / "p.csv"),
        ]) == 0
        inline = json.loads((out / "p_report.json").read_text())
        analysed = self._analyze(out / "p.csv", out / "a.json")
        assert inline["plateaus"]["count"] == 285
        for key in self.ANALYSED:
            assert analysed[key] == inline[key]

    @pytest.mark.parametrize("mode, n_units, gamma, initial, seed, t_end", [
        ("global", 10, 100.0, State(0.01, 0.01), 11, 80.0),
        ("meanfield", 1, 100.0, State(0.01, 0.01), 4, 80.0),
        ("oneunit", 1, 2.0, State(0.0, 0.0), 3, 40.0),
    ])
    def test_spike_open_at_the_horizon(self, out, mode, n_units, gamma, initial, seed, t_end):
        config = RunConfig(
            params=ModelParams(alpha=0.01, beta=1.0, gamma=gamma, p=7.0), mode=mode,
            n_units=n_units, initial=initial, t_end=t_end, seed=seed,
            a0=10.0, thr=10.0, out=str(out / "path.csv"), label="path",
        )
        # The last spike is still open.
        assert simulate_run(config).collect().step_n()[-1] > 10.0
        list(analyse_group([config], simulate_run(config), out))
        inline = json.loads((out / "path_report.json").read_text())
        analysed = self._analyze(out / "path.csv", out / "a.json", out / "a_pairs.csv")
        assert inline["correlation"]["n"] >= 3
        for key in self.ANALYSED:
            assert analysed[key] == inline[key]
        assert _data_rows(out / "a_pairs.csv") == _data_rows(out / "path_pairs.csv")

    def test_ode_path_analysed_in_process(self, fig1_params, out):
        # analyse_group reads an ODE path as linear between its samples, as
        # analyze reads the CSV it writes.
        config = RunConfig(params=fig1_params, mode="ds", initial=State(0.01, 0.01),
                           t_end=200.0, dt=1e-2, a0=8.0, thr=8.0, label="ode")
        list(analyse_group([config], simulate_run(config), out))
        inline = json.loads((out / "ode_report.json").read_text())
        analysed = self._analyze(out / "ode.csv", out / "a.json", out / "a_pairs.csv", level="8")
        assert inline["correlation"]["n"] >= 3
        for key in self.ANALYSED:
            assert analysed[key] == inline[key]
        assert _data_rows(out / "a_pairs.csv") == _data_rows(out / "ode_pairs.csv")

    def test_ode_path_ends_at_its_last_sample(self, fig1_params, out):
        traj = integrate(fig1_params, State(0.01, 0.01), t_end=1.0, dt=1e-2)
        io.write_ode_csv(out / "ds.csv", traj)
        analysed = self._analyze(out / "ds.csv", out / "a.json")
        assert analysed["plateaus"]["count"] == 1  # n stays below 10 throughout

    def _jump_csv(self, fig1_params, path):
        spec = build_oneunit(fig1_params)
        io.write_jump_csv(path, simulate(spec, spec.lattice_state(0.0, 0.0), t_end=5.0, seed=1))
        return path.read_text().splitlines()

    def test_horizon_before_last_sample_is_usage_error(self, fig1_params, out, capsys):
        lines = self._jump_csv(fig1_params, out / "p.csv")
        lines = [("# t_end=1.0" if line.startswith("# t_end=") else line) for line in lines]
        (out / "p.csv").write_text("\n".join(lines) + "\n")
        code = main(["analyze", "--input", str(out / "p.csv"), "--a0", "10",
                     "--out", str(out / "a.json")])
        assert code == 1
        assert "precedes the last sample" in capsys.readouterr().err
        assert not (out / "a.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("t_end", "abc"), ("t_end", "inf"), ("t_end", "nan"), ("alpha", "abc"), ("gamma", "inf"),
    ])
    def test_header_that_is_not_a_finite_number_is_usage_error(
        self, fig1_params, out, capsys, key, value
    ):
        lines = self._jump_csv(fig1_params, out / "p.csv")
        lines = [(f"# {key}={value}" if line.startswith(f"# {key}=") else line)
                 for line in lines]
        (out / "p.csv").write_text("\n".join(lines) + "\n")
        code = main(["analyze", "--input", str(out / "p.csv"), "--a0", "10",
                     "--out", str(out / "a.json")])
        assert code == 1
        assert f"header {key}={value!r} is not a finite number" in capsys.readouterr().err
        assert not (out / "a.json").exists()

    def test_no_data_rows_is_usage_error(self, fig1_params, out, capsys):
        lines = self._jump_csv(fig1_params, out / "p.csv")
        header_end = lines.index("t,r,n,channel") + 1
        (out / "p.csv").write_text("\n".join(lines[:header_end]) + "\n")
        code = main(["analyze", "--input", str(out / "p.csv"), "--a0", "10",
                     "--out", str(out / "a.json")])
        assert code == 1
        assert "no data rows" in capsys.readouterr().err


class TestPresets:
    def test_fig1_plan(self):
        runs = preset("fig1")
        assert [c.mode for c in runs] == ["ds", "global", "global"]
        assert [c.n_units for c in runs][1:] == [10, 50]
        assert all(c.params.gamma == 100.0 for c in runs)
        assert all(c.initial == State(0.01, 0.01) for c in runs)

    def test_fig2_plan_is_gamma_2(self):
        assert all(c.params.gamma == 2.0 for c in preset("fig2"))

    def test_fig6_plan(self):
        runs = preset("fig6")
        assert [c.mode for c in runs] == ["oneunit", "oneunit"]
        assert [(c.params.gamma, c.a0) for c in runs] == [(100.0, 10.0), (2.0, 20.0)]

    def test_fig7_plan_has_both_plateau_definitions(self):
        runs = preset("fig7")
        assert {(c.params.gamma, c.thr) for c in runs} == {
            (100.0, 0.0), (100.0, 10.0), (2.0, 0.0), (2.0, 10.0)
        }

    def test_unknown_name(self):
        with pytest.raises(UsageError):
            preset("fig9")

    def test_preset_execution_with_overrides(self, out):
        code = main([
            "preset", "fig5", "--outdir", str(out), "--seed", "5",
            "--t-end", "5",
        ])
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [
            "fig5_oneunit_gamma100_seed5.csv",
            "fig5_oneunit_gamma2_seed5.csv",
        ]
        meta, _ = io.read_trajectory_csv(out / "fig5_oneunit_gamma2_seed5.csv")
        assert meta["seed"] == "5"

    def test_fig6_memory_does_not_grow_with_the_horizon(self, out):
        # fig6 writes no path, so its runs are streamed through their
        # statistics: at horizon 4e5 each path is about 14 M events, past
        # the 10 M cap of a path held in memory, in the peak RSS of 1e5.
        code = ("import resource, sys\n"
                "from spikesim.cli import main\n"
                "assert main(['preset', 'fig6', '--outdir', sys.argv[1], '--t-end', sys.argv[2]])"
                " == 0\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(spikesim.cli.__file__).parents[1]),
                          os.environ.get("PYTHONPATH")])))
        peak_kb = {}
        for horizon in ("1e5", "4e5"):
            result = subprocess.run([sys.executable, "-c", code, str(out / horizon), horizon],
                                    env=env, capture_output=True, text=True, check=True,
                                    timeout=120)
            peak_kb[horizon] = int(result.stdout.split()[-1])
        report = json.loads((out / "4e5" / "fig6_oneunit_gamma100_report.json").read_text())
        assert report["n_events"] > jump.DEFAULT_MAX_EVENTS
        assert report["terminated_by"] == "TimeHorizon"
        assert peak_kb["4e5"] - peak_kb["1e5"] <= 5 * 1024


class TestPresetDeduplication:
    def test_fig7_simulates_each_path_once(self, out, monkeypatch, path_csv_copies):
        # A path is streamed (simulate_chunks) and scanned for all of its
        # levels in one pass (spikes._scan_path, scan_levels' pass).
        calls, detections = [], []
        engine = spikesim.cli.simulate_chunks
        monkeypatch.setattr(spikesim.cli, "simulate_chunks", lambda *args, **kwargs: (
            calls.append(kwargs["seed"]) or engine(*args, **kwargs)))
        scan = spikesim.cli._scan_path
        monkeypatch.setattr(spikesim.cli, "_scan_path", lambda path, a0s, thrs, gap: (
            detections.append((len(a0s), len(thrs))) or scan(path, a0s, thrs, gap)))
        shared, alone = out / "shared", out / "alone"
        assert main(["preset", "fig7", "--outdir", str(shared), "--t-end", "300"]) == 0
        assert len(calls) == 2
        # Both plateau levels of a path pair with the spikes of one detection.
        assert detections == [(1, 2)] * 2

        for config in preset("fig7"):
            config = replace(config, t_end=300.0)
            list(analyse_group([config], simulate_run(config), alone))
        assert len(calls) == 2 + 4
        assert detections == [(1, 2)] * 2 + [(1, 1)] * 4
        names = sorted(p.name for p in shared.iterdir())
        assert names == sorted(p.name for p in alone.iterdir())
        assert len(names) == 12  # survival, pairs and report for each of 4 runs
        for name in names:
            assert (shared / name).read_bytes() == (alone / name).read_bytes()

    def test_path_key_ignores_analysis_settings(self):
        thr0, thr10 = preset("fig7")[:2]
        assert thr0.path_key() == thr10.path_key()
        assert thr0.path_key() != replace(thr0, seed=2).path_key()
        # An ODE path and its CSV depend on none of a jump run's settings,
        # while a jump run's key keeps them all, and dt, which its LLN
        # reference integrates at.
        fig1_ds, fig3_ds = preset("fig1")[0], preset("fig3")[0]
        assert fig1_ds.path_key() == replace(fig3_ds, seed=6, n_units=50,
                                             max_jumps=10).path_key()
        assert fig1_ds.path_key() != replace(fig1_ds, dt=1e-2).path_key()
        for change in ({"seed": 2}, {"n_units": 2}, {"max_jumps": 10}, {"dt": 1e-2}):
            assert thr0.path_key() != replace(thr0, **change).path_key()

    @staticmethod
    def _count_runs(monkeypatch) -> dict[str, int]:
        """Count the ODE and jump paths run from now on: a stream made but
        never iterated is no run."""
        runs = {"ode": 0, "jump": 0}
        for kind, stream in (("ode", spikesim.cli.OdeStream), ("jump", jump.JumpStream)):
            def counted(self, kind=kind, chunks=stream.__iter__):
                runs[kind] += 1
                return chunks(self)

            monkeypatch.setattr(stream, "__iter__", counted)
        return runs

    def test_fig3_copies_the_ode_paths_of_fig1_and_fig2(self, out, monkeypatch,
                                                        path_csv_copies):
        runs = self._count_runs(monkeypatch)
        for name in ("fig1", "fig2", "fig3"):
            assert main(["preset", name, "--outdir", str(out / "one"), "--t-end", "20"]) == 0
        assert runs["ode"] == 2
        io._COMMITTED.clear()
        assert main(["preset", "fig3", "--outdir", str(out / "fresh"), "--t-end", "20"]) == 0
        assert runs["ode"] == 4
        fresh = sorted(p.name for p in (out / "fresh").iterdir())
        assert len(fresh) == 4
        for name in fresh:
            assert (out / "one" / name).read_bytes() == (out / "fresh" / name).read_bytes()
        assert ((out / "one" / "fig3_ds_gamma2.csv").read_bytes()
                == (out / "one" / "fig2_ds.csv").read_bytes())

    @pytest.mark.parametrize("ctime", ["seen", "unseen"])
    @pytest.mark.parametrize("change", ["none", "appended", "rewritten", "deleted", "replaced",
                                        "hard_linked"])
    def test_a_path_csv_changed_since_it_was_written_is_not_copied(self, out, monkeypatch,
                                                                   path_csv_copies, change,
                                                                   ctime):
        runs = self._count_runs(monkeypatch)
        if ctime == "unseen":
            # As where a change made in the clock tick of the commit leaves
            # the change time as it was.
            monkeypatch.setattr(io, "_IDENTITY",
                                attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns"))
        source, copy = out / "source.csv", out / "copy.csv"
        argv = ["ds", "--t-end", "20", "--out"]
        assert main([*argv, str(source)]) == 0
        written = source.read_bytes()
        if change == "appended":
            with open(source, "ab") as fh:
                fh.write(b"1,2,3\n")
        elif change == "rewritten":
            with open(source, "r+b") as fh:
                fh.write(written[:-2].replace(b"0", b"1") + b"9\n")
            assert source.stat().st_size == len(written) and source.read_bytes() != written
        elif change == "deleted":
            source.unlink()
        elif change == "replaced":
            (out / "new.csv").write_bytes(b"another file\n")
            os.replace(out / "new.csv", source)
        elif change == "hard_linked":
            os.link(source, out / "link.csv")
        assert main([*argv, str(copy)]) == 0
        assert runs["ode"] == (1 if change == "none" else 2)
        assert copy.read_bytes() == written
        assert not list(out.glob(".*"))

    def test_a_path_csv_is_stamped_after_its_last_write(self, out, monkeypatch,
                                                        path_csv_copies):
        # With a modification time the process read after the last write,
        # not the kernel's stamp of that write, which a rewrite in the same
        # clock tick could repeat, leaving the size and times as they were.
        monkeypatch.setattr(io.time, "time_ns", lambda: 10**18 + 1)
        assert main(["ds", "--t-end", "20", "--out", str(out / "ds.csv")]) == 0
        assert (out / "ds.csv").stat().st_mtime_ns == 10**18 + 1

    @pytest.mark.parametrize("target", ["device", "hard_linked"])
    def test_a_path_csv_written_through_a_device_or_a_link_is_not_copied(self, out, monkeypatch,
                                                                          path_csv_copies, target):
        # Such a file is written through its name, unchanged since: neither
        # a device, whose reads are no path, nor a file another name writes.
        runs = self._count_runs(monkeypatch)
        argv = ["ds", "--t-end", "20", "--out"]
        source = Path(os.devnull) if target == "device" else out / "source.csv"
        if target == "hard_linked":
            source.write_bytes(b"")
            os.link(source, out / "link.csv")
        assert main([*argv, str(source)]) == 0
        assert main([*argv, str(out / "copy.csv")]) == 0
        assert runs["ode"] == 2
        io._COMMITTED.clear()
        assert main([*argv, str(out / "fresh.csv")]) == 0
        assert (out / "copy.csv").read_bytes() == (out / "fresh.csv").read_bytes()

    def test_a_run_with_a_level_or_an_lln_reference_is_never_copied(self, out, monkeypatch,
                                                                    path_csv_copies):
        runs = self._count_runs(monkeypatch)
        argv = ["simulate", "--mode", "oneunit", "--gamma", "2", "--t-end", "50", "--out"]
        assert main([*argv, str(out / "path.csv")]) == 0
        assert main([*argv, str(out / "a0.csv"), "--a0", "2"]) == 0
        assert main([*argv, str(out / "thr.csv"), "--thr", "2"]) == 0
        assert main([*argv, str(out / "lln.csv"), "--lln-reference"]) == 0
        assert runs == {"ode": 1, "jump": 4}  # the ODE path is the LLN reference
        # A jump path's CSV is copied too, its header as the run ended.
        assert main([*argv, str(out / "copy.csv")]) == 0
        assert runs == {"ode": 1, "jump": 4}
        for name in ("a0.csv", "thr.csv", "lln.csv", "copy.csv"):
            assert (out / name).read_bytes() == (out / "path.csv").read_bytes()

    def test_each_path_csv_of_a_group_is_a_whole_copy(self, out, monkeypatch, path_csv_copies):
        runs = self._count_runs(monkeypatch)
        assert main(["ds", "--t-end", "20", "--out", str(out / "ds.csv")]) == 0
        group = [replace(preset("fig1")[0], t_end=20.0, label=label) for label in "ab"]
        assert list(analyse_group(group, simulate_run(*group), out)) == [out / "a.csv",
                                                                        out / "b.csv"]
        assert runs["ode"] == 1
        assert (out / "a.csv").read_bytes() == (out / "b.csv").read_bytes() == (
            out / "ds.csv").read_bytes()

    def test_a_copy_that_fails_leaves_no_file(self, out, monkeypatch, path_csv_copies, capsys):
        argv = ["ds", "--t-end", "20", "--out"]
        assert main([*argv, str(out / "source.csv")]) == 0
        (out / "copy.csv").write_bytes(b"an old file\n")
        copies = []

        def no_space(source, target):
            copies.append(target)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(io, "_copy_rest", no_space)
        assert main([*argv, str(out / "copy.csv")]) == 2
        assert len(copies) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert (out / "copy.csv").read_bytes() == b"an old file\n"
        assert sorted(p.name for p in out.iterdir()) == ["copy.csv", "source.csv"]

    def test_a_preset_run_twice_into_one_outdir_writes_the_same_files(self, out, monkeypatch,
                                                                      path_csv_copies):
        runs = self._count_runs(monkeypatch)
        argv = ["preset", "fig1", "--outdir", str(out), "--t-end", "20"]
        assert main(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv) == 0
        assert runs == {"ode": 1, "jump": 2}
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first
