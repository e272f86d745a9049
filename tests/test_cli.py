"""End-to-end command-line runs, exit codes, and reproducibility."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from simplexlms import lms, signals
from simplexlms.cli import main
from simplexlms.complexes import grown_complex
from simplexlms.files import load_complex, save_complex
from simplexlms.harness import emit_results, run_mode
from simplexlms.lms import to_db


def run_cli(args):
    return main([str(a) for a in args])


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.fixture()
def complex_file(tmp_path):
    path = tmp_path / "complex.txt"
    code = run_cli(
        [
            "generate-complex",
            "--nodes", 9, "--edge-prob", 0.5, "--fill-prob", 0.6, "--seed", 3,
            "--complex-out", path,
        ]
    )
    assert code == 0
    return path


def test_generate_complex_writes_loadable_file(complex_file):
    c = load_complex(complex_file)
    assert c.num_vertices == 9
    assert c.num_edges > 0


def test_run_lms_end_to_end(tmp_path, complex_file):
    out = tmp_path / "result.json"
    code = run_cli(
        [
            "run-lms", "--complex-file", complex_file, "--order", 1,
            "--mu", 1e-3, "--horizon", 100, "--realizations", 2,
            "--signal-var", 0.1, "--noise-var", 1e-4, "--seed", 7,
            "--out", out,
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["msd"]) == 101
    assert payload["metadata"]["version"]


def test_run_lms_reproducible_bytes(tmp_path, complex_file):
    args = [
        "run-lms", "--complex-file", complex_file, "--order", 1,
        "--mu", 1e-3, "--horizon", 50, "--realizations", 2,
        "--signal-var", 0.1, "--noise-var", 1e-4, "--seed", 7,
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(args + ["--out", out1]) == 0
    assert run_cli(args + ["--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_file_with_flag_override(tmp_path, complex_file):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "complex_file": str(complex_file),
                "order": 1,
                "mu": 1e-3,
                "horizon": 40,
                "realizations": 1,
                "signal_var": 0.1,
                "noise_var": 1e-4,
                "seed": 1,
            }
        )
    )
    out = tmp_path / "r.json"
    assert run_cli(["run-lms", "--config", config, "--horizon", 60, "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["msd"]) == 61  # flag wins over the file value
    assert payload["config"]["horizon"] == 60


def test_missing_key_exits_2(complex_file):
    assert run_cli(["run-lms", "--complex-file", complex_file, "--order", 1]) == 2


def test_bad_config_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["run-lms", "--config", bad]) == 2


def test_divergent_run_exits_3(complex_file):
    code = run_cli(
        [
            "run-lms", "--complex-file", complex_file, "--order", 2,
            "--mu", 10.0, "--horizon", 200, "--realizations", 2,
            "--signal-var", 1.0, "--noise-var", 1e-4, "--seed", 7,
        ]
    )
    assert code == 3


@pytest.mark.parametrize("flags", [["--horizon", 300],
                                   ["--horizon", 300, "--out", "result.json"],
                                   ["--horizon", 2000]],
                         ids=["deviation-overflows", "deviation-overflows-out", "taps-overflow"])
def test_divergence_verdict_does_not_depend_on_out_or_horizon(tmp_path, capsys, monkeypatch,
                                                              flags):
    # an unstable step on 250 edges: the recorded deviation overflows before
    # the taps do, and either way both realizations diverge, with no numpy
    # warning and no file; each walk stops within a chunk of its first
    # non-finite step, whatever the horizon
    path = tmp_path / "complex.txt"
    save_complex(grown_complex(60, 250, 80, 0), path)
    flags = [tmp_path / f if f == "result.json" else f for f in flags]
    steps, stream, step = [], lms.generate_stream, lms.lms_step

    def counted_stream(*args):
        steps.append(0)
        return stream(*args)

    def counted_step(*args):
        steps[-1] += 1
        return step(*args)

    monkeypatch.setattr(lms, "generate_stream", counted_stream)
    monkeypatch.setattr(lms, "lms_step", counted_step)
    assert run_cli(["run-lms", "--complex-file", path, "--order", 2, "--mu", 1e-5,
                    "--realizations", 2, "--noise-var", 1e-3, *flags]) == 3
    assert capsys.readouterr() == ("", "divergence: all realizations diverged, at steps 175, 183\n")
    assert list(tmp_path.iterdir()) == [path]
    assert len(steps) == 2
    assert all(n <= first + signals._MIN_WINDOW_ROWS for n, first in zip(steps, (175, 183))), steps


DIVERGED_STEPS = [175, 183, 184, 180, 179, 182, 177, 184, 180, 178, 183, 181, 184, 179, 182,
                  186, 183, 181, 179, 181, 180, 182, 180, 176, 181, 179, 179, 184, 181, 178]


@pytest.mark.parametrize("horizon, code, err", [
    (300, 3, f"divergence: all realizations diverged, at steps {str(DIVERGED_STEPS)[1:-1]}\n"),
    (5, 0, "run-lms: no theory report: step-size fails the mean-stability bound\n"),
], ids=["diverges", "completes"])
@pytest.mark.filterwarnings("error")
def test_unstable_run_lms_reports_in_one_stderr_line(capsys, horizon, code, err):
    # the step-size fails the mean-stability bound: no warning, one line either way
    assert run_cli(["run-lms", "--nodes", 60, "--edges", 250, "--triangles", 80, "--order", 2,
                    "--mu", 1e-5, "--seed", 0, "--horizon", horizon]) == code
    assert capsys.readouterr().err == err


@pytest.mark.filterwarnings("error")
def test_cut_off_network_reports_its_theory_in_one_stderr_line(tmp_path, capsys):
    # two agents cut off from the other two: the combination is reducible, no
    # triangle excites an upper tap, and rho(B) is 1
    path, out = tmp_path / "complex.txt", tmp_path / "dist.json"
    path.write_text("4\n1 2\n3 4\n", encoding="utf-8")
    assert run_cli(["run-distributed", "--complex-file", path, "--order", 1, "--mu", 0.1,
                    "--horizon", 50, "--out", out]) == 0
    stdout, err = capsys.readouterr()
    assert stdout == "run-distributed: tail deviation -0.31 dB\n"
    rho = re.fullmatch(r"run-distributed: theory not stable: rho_b (\S+), failing hypotheses: "
                       r"irreducible, some_local_moment_nonsingular\n", err)
    assert rho and abs(float(rho[1]) - 1.0) < 1e-9, err
    theory = json.loads(out.read_text())["theory"]
    assert theory["failed_hypotheses"] == ["irreducible", "some_local_moment_nonsingular"]
    assert (theory["stable"], theory["hypotheses_hold"]) == (False, False)


@pytest.mark.filterwarnings("error")
def test_unstable_step_network_reports_its_theory_in_one_stderr_line(tmp_path, capsys):
    # montecarlo's network at a step-size above every local bound: the deviation
    # grows by hundreds of dB in 30 rounds and stays finite, so nothing diverges
    path = tmp_path / "complex.txt"
    save_complex(grown_complex(11, 15, 10, 0), path)
    assert run_cli(["run-distributed", "--complex-file", path, "--order", 1, "--mu", 0.7,
                    "--horizon", 30, "--realizations", 2]) == 0
    stdout, err = capsys.readouterr()
    assert stdout == "run-distributed: tail deviation 451.51 dB\n"
    rho = re.fullmatch(r"run-distributed: theory not stable: rho_b (\S+), failing hypotheses: "
                       r"stepsizes_within_local_bounds\n", err)
    assert rho and abs(float(rho[1]) - 6.94) < 5e-3, err


@pytest.mark.parametrize("flags", [[], ["--distributed"]], ids=["centralized", "distributed"])
@pytest.mark.filterwarnings("error")
def test_ar_divergence_prints_one_stderr_line(capsys, flags):
    assert run_cli(["ar-train", "--surrogate-seed", 2, "--order", 2, "--mu", 1e3, *flags]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"divergence: non-finite [a-z ]+ at training step \d+\n", err), err


@pytest.mark.filterwarnings("error")
def test_diverging_topology_inference_exits_3(capsys, complex_file):
    # a NaN indicator is a divergence, not an indicator outside [0, 1]: one line, exit 3
    capsys.readouterr()
    assert run_cli(["infer-topology", "--complex-file", complex_file, "--order", 2,
                    "--mu1", 1e3, "--mu2", 1e-2, "--lambda0", 0.1, "--lambda1", 0.1,
                    "--horizon", 200, "--realizations", 2, "--signal-var", 0.005,
                    "--noise-var", 1e-4, "--seed", 2]) == 3
    assert capsys.readouterr() == ("", "divergence: all realizations diverged, at steps 35, 35\n")


def test_infeasible_sampling_exits_4(complex_file):
    code = run_cli(
        [
            "design-sampling", "--complex-file", complex_file, "--order", 1,
            "--mu", 1e-4, "--alpha", 0.5, "--gamma", 1e-6,
            "--signal-var", 0.001, "--noise-var", 1e-6,
        ]
    )
    assert code == 4


def test_design_sampling_end_to_end(tmp_path, complex_file):
    out = tmp_path / "design.json"
    code = run_cli(
        [
            "design-sampling", "--complex-file", complex_file, "--order", 1,
            "--mu", 1e-2, "--alpha", 0.98, "--gamma", 1e-3,
            "--signal-var", 0.12, "--noise-var", 1e-6,
            "--out", out,
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert min(payload["slacks"].values()) >= -1e-6


def test_infer_topology_end_to_end(tmp_path, complex_file):
    out = tmp_path / "infer.json"
    code = run_cli(
        [
            "infer-topology", "--complex-file", complex_file, "--order", 2,
            "--mu1", 1e-2, "--mu2", 1e-2, "--lambda0", 0.1, "--lambda1", 0.1,
            "--horizon", 800, "--realizations", 2, "--signal-var", 0.005,
            "--noise-var", 1e-4, "--seed", 2, "--out", out,
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["recovery_rate"][-1] == 1.0


def test_run_distributed_with_agent_traces(tmp_path, complex_file):
    out = tmp_path / "dist.json"
    comb_out = tmp_path / "comb.csv"
    code = run_cli(
        [
            "run-distributed", "--complex-file", complex_file, "--order", 1,
            "--mu", 1e-2, "--horizon", 100, "--realizations", 2,
            "--signal-var", 0.1, "--noise-var", 1e-5, "--seed", 4,
            "--emit-agent-traces", "--combination-out", comb_out,
            "--out", out,
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert "agent_msd" in payload
    assert comb_out.exists()
    header = comb_out.read_text().splitlines()[0]
    assert header == "i,l,a_il"


def test_unstable_network_writes_strict_json(tmp_path):
    # grown_complex(11, 11, 5, seed=0) holds two agents cut off from the rest
    # whose upper taps are never excited, so rho(B) is 1 up to rounding
    complex_path = tmp_path / "complex.txt"
    assert run_cli(
        [
            "generate-complex", "--nodes", 11, "--edges", 11, "--triangles", 5,
            "--seed", 0, "--complex-out", complex_path,
        ]
    ) == 0
    out = tmp_path / "dist.json"
    code = run_cli(
        [
            "run-distributed", "--complex-file", complex_path, "--order", 2,
            "--mu", 1e-3, "--horizon", 50, "--realizations", 1,
            "--signal-var", 1.0, "--noise-var", 1e-4, "--rule", "uniform",
            "--out", out,
        ]
    )
    assert code == 0

    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert payload["theory"]["stable"] is False
    assert payload["theory"]["msd_per_agent"] is None
    assert payload["theory"]["msd_per_agent_db"] is None


# each mode's keys of a short, noise-free run; every mode but ar-train, which
# trains on the surrogate, also reads the complex file
STREAM_KNOBS = {"order": 1, "horizon": 20, "realizations": 1, "signal_var": 0.1, "seed": 2}
SIMULATION_KNOBS = {
    "design-sampling": {"order": 1, "signal_var": 0.1, "seed": 2,
                        "mu": 1e-2, "alpha": 0.98, "gamma": 1e-3},
    "run-lms": {**STREAM_KNOBS, "mu": 1e-3},
    "run-distributed": {**STREAM_KNOBS, "mu": 1e-3},
    "infer-topology": {**STREAM_KNOBS, "mu1": 1e-2, "mu2": 1e-2, "lambda0": 0.1, "lambda1": 0.1},
    "ar-train": {"order": 1, "seed": 2, "mu": 1e-4, "surrogate": {"seed": 1}},
    "generate-complex": {"order": 1, "seed": 2},
}


def run_simulation(tmp_path, complex_file, mode, *flags, **values):
    """Run a simulation mode on a short, noise-free config with ``values`` merged in."""
    config = tmp_path / "config.json"
    files = {} if mode == "ar-train" else {"complex_file": str(complex_file)}
    config.write_text(json.dumps({**files, **SIMULATION_KNOBS[mode], **values}))
    return run_cli([mode, "--config", config, *flags])


@pytest.mark.parametrize("mode", ["run-lms", "run-distributed"])
def test_zero_deviation_writes_strict_json(tmp_path, complex_file, mode):
    # no noise (the default noise_var 0): the theoretical deviation is exactly 0
    out = tmp_path / "result.json"
    assert run_simulation(tmp_path, complex_file, mode, "--out", out) == 0
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    theory = payload["theory"]
    # each trajectory is written once, as floats: its dB view is derived where it is read
    assert "msd_db" not in payload
    assert len(payload["msd"]) == 21
    assert all(isinstance(msd, float) for msd in payload["msd"])
    if mode == "run-lms":
        assert theory["msd_exact"] == 0 and theory["msd_exact_db"] is None
        # the theory dB is written once, not per row
        assert "records" not in payload
    else:
        assert theory["stable"] is True
        assert theory["msd_per_agent"] == 0 and theory["msd_per_agent_db"] is None


def test_zero_deviation_csv_cell_is_empty(tmp_path, complex_file):
    out = tmp_path / "result.csv"
    assert run_simulation(tmp_path, complex_file, "run-lms", "--format", "csv", "--out", out) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "iteration,msd_db,msd_theory_db"
    assert len(rows) == 22 and all(row.endswith(",") for row in rows[1:])


def test_run_distributed_csv_rows(tmp_path, complex_file):
    out = tmp_path / "result.csv"
    assert run_simulation(tmp_path, complex_file, "run-distributed", "--noise-var", 1e-4,
                          "--format", "csv", "--out", out) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "iteration,msd_db"
    assert len(rows) == 22
    assert [row.split(",")[0] for row in rows[1:]] == [str(k) for k in range(21)]
    assert all(np.isfinite(float(row.split(",")[1])) for row in rows[1:])


@pytest.mark.parametrize("mode", ["run-lms", "run-distributed"])
def test_csv_db_column_is_derived_from_the_trajectory(tmp_path, complex_file, mode):
    # the JSON result holds the trajectory once; the CSV's msd_db column is to_db
    # over the whole of it, in the bytes of a writer handed the dB list itself
    json_out, csv_out = tmp_path / "result.json", tmp_path / "result.csv"
    for out, fmt in ((json_out, "json"), (csv_out, "csv")):
        assert run_simulation(tmp_path, complex_file, mode, "--noise-var", 1e-4,
                              "--format", fmt, "--out", out) == 0
    payload = json.loads(json_out.read_text())
    msd = np.array(payload["msd"])
    assert "msd_db" not in payload and msd.size == 21 and np.all(msd > 0)
    header, theory = "iteration,msd_db", ""
    if mode == "run-lms":
        header, theory = header + ",msd_theory_db", f",{payload['theory']['msd_exact_db']!r}"
    rows = csv_out.read_text().splitlines()
    assert rows == [header] + [f"{k},{db!r}{theory}" for k, db in enumerate(to_db(msd).tolist())]
    np.testing.assert_array_equal([float(row.split(",")[1]) for row in rows[1:]],
                                  10 * np.log10(msd))


def test_underflowing_deviation_has_no_db(tmp_path, capsys):
    # a stable noise-free run whose deviation underflows to 0: the dB of a value
    # that is not positive is null in JSON, an empty CSV cell and n/a in the summary
    path = tmp_path / "complex.txt"
    assert run_cli(["generate-complex", "--nodes", 8, "--edge-prob", 0.5, "--fill-prob", 0.5,
                    "--seed", 1, "--complex-out", path]) == 0
    run = ["run-lms", "--complex-file", path, "--order", 1, "--mu", 0.01, "--signal-var", 1,
           "--horizon", 40000, "--realizations", 1, "--seed", 1]
    json_out, csv_out = tmp_path / "result.json", tmp_path / "result.csv"
    capsys.readouterr()
    assert run_cli(run + ["--out", json_out]) == 0
    assert run_cli(run + ["--format", "csv", "--out", csv_out]) == 0
    assert capsys.readouterr() == ("run-lms: steady-state deviation n/a\n" * 2, "")
    payload = json.loads(json_out.read_text(), parse_constant=_reject_constant)
    msd = np.array(payload["msd"])
    assert payload["steady_state_db"] is None
    assert msd[0] > 0 and msd[-1] == 0 and np.all(msd >= 0)
    rows = [row.split(",") for row in csv_out.read_text().splitlines()[1:]]
    assert len(rows) == msd.size
    assert [db == "" for _, db, _ in rows] == (msd == 0).tolist()
    assert all(float(db) == to_db(m) for (_, db, _), m in zip(rows, msd) if m > 0)
    assert run_cli(["analyze", "--results", json_out]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["steady_state_db"] is None and "gap_db" not in summary  # no theory dB
    json_out.write_text(json.dumps({"msd": [1.0, 0.0], "theory": {"msd_exact_db": -30.0}}))
    assert run_cli(["analyze", "--results", json_out]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["steady_state_db"] is None and summary["theory_db"] == -30.0
    assert summary["gap_db"] is None


def test_non_finite_result_value_exits_5(tmp_path, capsys, monkeypatch):
    # strict JSON cannot hold NaN: a one-line numerical failure, and no file is left
    from simplexlms import cli

    def nan_payload(mode, values):
        return {"metadata": {"mode": mode}, "steady_state_db": float("nan")}

    monkeypatch.setattr(cli, "run_mode", nan_payload)
    out = tmp_path / "result.json"
    message = "numerical failure: Out of range float values are not JSON compliant: nan\n"
    assert run_cli(["run-lms", "--out", out]) == 5
    assert capsys.readouterr() == ("", message)
    assert list(tmp_path.iterdir()) == []
    out.write_text("kept")
    assert run_cli(["run-lms", "--out", out]) == 5
    assert capsys.readouterr() == ("", message)
    assert out.read_text() == "kept" and list(tmp_path.iterdir()) == [out]


@pytest.fixture()
def no_run(monkeypatch):
    import simplexlms.cli

    def fail(*args, **kwargs):
        raise AssertionError("the run started before the output was checked")

    monkeypatch.setattr(simplexlms.cli, "run_mode", fail)


@pytest.mark.parametrize("mode", ["design-sampling", "generate-complex", "analyze"])
def test_csv_without_row_table_exits_2(tmp_path, capsys, no_run, mode):
    out = tmp_path / "result.csv"
    assert run_cli([mode, "--format", "csv", "--out", out]) == 2
    assert f"mode '{mode}' has no CSV row table" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_exits_2_before_the_run(tmp_path, complex_file, capsys, no_run, where):
    out = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
    assert run_simulation(tmp_path, complex_file, "run-lms", "--out", out) == 2
    assert f"cannot write {out}" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["run-lms", "run-distributed", "infer-topology"])
@pytest.mark.parametrize("flag, value", [
    ("--realizations", 0), ("--realizations", -1), ("--horizon", -1), ("--order", -1),
])
def test_bad_counts_exit_2(tmp_path, complex_file, capsys, mode, flag, value):
    assert run_simulation(tmp_path, complex_file, mode, flag, value) == 2
    assert f"'{flag[2:]}' must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("mode, values, message", [
    ("run-lms", {"coeff_scale": 0}, "'coeff_scale' must be positive"),
    ("run-lms", {"mu": float("nan")}, "'mu' must be positive"),
    ("run-distributed", {"coeff_scale": 0}, "'coeff_scale' must be positive"),
    ("run-distributed", {"mu": 0}, "'mu' must be positive"),
    ("run-distributed", {"mu": [1e-3, 0.0]}, "'mu' must be positive"),
    ("infer-topology", {"coeff_magnitude": 0}, "'coeff_magnitude' must be positive"),
    ("infer-topology", {"lambda0": 0.4, "lambda1": 0.4}, "threshold ordering violated"),
    ("design-sampling", {"alpha": 1.5}, "alpha must lie in (0, 1)"),
    ("design-sampling", {"alpha": float("nan")}, "alpha must lie in (0, 1)"),
    ("design-sampling", {"p_max": 2.0}, "p_max must lie in [0, 1]"),
    ("design-sampling", {"p_max": float("nan")}, "p_max must lie in [0, 1]"),
    ("design-sampling", {"tol": -1}, "'tol' must be finite and nonnegative"),
    ("design-sampling", {"tol": float("nan")}, "'tol' must be finite and nonnegative"),
    ("design-sampling", {"max_iter": 0}, "'max_iter' must be at least 1"),
    ("design-sampling", {"max_iter": -5}, "'max_iter' must be at least 1"),
    ("design-sampling", {"gamma": float("inf")}, "'gamma' must be positive and finite"),
    ("design-sampling", {"signal_var": float("inf")}, "'signal_var' must be positive and finite"),
    ("design-sampling", {"noise_var": float("nan")}, "noise variances must be finite"),
    ("design-sampling", {"signal_var": 1e308, "noise_var": 1e-3},
     "the moment basis must be finite"),
    ("ar-train", {"order": -1}, "'order' must be at least 0"),
    ("ar-train", {"epochs": 0}, "'epochs' must be at least 1"),
    ("ar-train", {"surrogate": {"seed": 1, "order": -2}}, "'surrogate.order' must be at least 0"),
    # every noise spec is checked after its draw, and NaN fails the range checks
    ("run-lms", {"noise_var": {"choices": [-0.001]}}, "noise variances must be finite"),
    ("run-lms", {"noise_var": {"low": -1e-3, "high": -1e-4}}, "noise variances must be finite"),
    ("run-lms", {"noise_var": {"choices": [float("nan")]}}, "noise variances must be finite"),
    ("run-lms", {"noise_var": {"low": float("nan"), "high": 1e-3}},
     "noise variances must be finite"),
    ("run-distributed", {"noise_var": {"low": -1e-3, "high": 1e-3, "log": True}},
     "noise variances must be finite"),
    ("design-sampling", {"noise_var": {"choices": [-0.001]}}, "noise variances must be finite"),
    ("design-sampling", {"noise_var": {"low": -1e-3, "high": -1e-4}},
     "noise variances must be finite"),
    ("design-sampling", {"noise_var": {"choices": [float("nan")]}},
     "noise variances must be finite"),
    ("run-lms", {"p": float("nan")}, "sampling probabilities must lie in [0, 1]"),
    ("run-distributed", {"p": float("nan")}, "sampling probabilities must lie in [0, 1]"),
    ("infer-topology", {"p": float("nan")}, "sampling probabilities must lie in [0, 1]"),
    ("infer-topology", {"noise_var": {"choices": [-0.001]}}, "noise variances must be finite"),
    # noise specs that are empty, not numeric or of the wrong length
    ("run-lms", {"noise_var": {"choices": []}}, "noise choices must be a nonempty list"),
    ("design-sampling", {"noise_var": {"choices": []}}, "noise choices must be a nonempty list"),
    ("run-lms", {"noise_var": {"choices": [1e-3, "abc"]}}, "noise choices must be numbers"),
    ("run-lms", {"noise_var": {"low": "abc", "high": 1e-3}}, "noise bounds must be numbers"),
    ("run-distributed", {"noise_var": {"low": 1e-4, "high": "abc", "log": True}},
     "noise bounds must be numbers"),
    ("run-lms", {"noise_var": "abc"}, "noise variances must be numbers"),
    ("design-sampling", {"noise_var": "abc"}, "noise variances must be numbers"),
    ("run-lms", {"noise_var": [1e-3, 1e-4]}, "noise variances must be one number or"),
    ("infer-topology", {"noise_var": [1e-3, 1e-4]}, "noise variances must be one number or"),
    # knobs that are not numbers, or not whole numbers where a count is read
    ("run-lms", {"seed": "abc"}, "config key 'seed' must be a number"),
    ("run-lms", {"seed": -1}, "config key 'seed' must be at least 0"),
    ("run-lms", {"mu": "x"}, "config key 'mu' must be a number"),
    ("run-lms", {"mu": [1e-3, 1e-3]}, "config key 'mu' must be one number"),
    ("run-lms", {"horizon": 50.5}, "config key 'horizon' must be a whole number"),
    ("run-distributed", {"realizations": "two"}, "config key 'realizations' must be a number"),
    ("run-lms", {"p": "abc"}, "config key 'p' must be numbers"),
    ("run-lms", {"p": [0.5, 0.5]}, "config key 'p' must be one number or"),
    ("run-lms", {"noise_var": 1e-3, "p": {"lowest_noise_fraction": "x"}},
     "config key 'lowest_noise_fraction' must be a number"),
    ("infer-topology", {"lambda0": "x"}, "config key 'lambda0' must be a number"),
    ("design-sampling", {"tol": "x"}, "config key 'tol' must be a number"),
    ("design-sampling", {"seed": 1.5}, "config key 'seed' must be a whole number"),
    ("ar-train", {"surrogate": {"seed": "abc"}}, "config key 'surrogate.seed' must be a number"),
    ("generate-complex", {"seed": 2.5}, "config key 'seed' must be a whole number"),
    # a combination rule from the config file, which the flag's choices do not check
    ("run-distributed", {"rule": "foo"}, "unknown combination rule 'foo'"),
    # switches take JSON true or false only: the string "false" is not false
    ("run-distributed", {"emit_agent_traces": "false"},
     "config key 'emit_agent_traces' must be true or false"),
    ("ar-train", {"distributed": "false"}, "config key 'distributed' must be true or false"),
    ("ar-train", {"surrogate": {"seed": 1, "with_upper": "false"}},
     "config key 'surrogate.with_upper' must be true or false"),
    ("generate-complex", {"with_upper": 0, "series_out": os.devnull},
     "config key 'with_upper' must be true or false"),
    # ar-train keys that are not the shape the mode reads
    ("ar-train", {"surrogate": 5}, "config key 'surrogate' must be an object"),
    ("ar-train", {"train_count": "abc"}, "config key 'train_count' must be a number"),
    ("ar-train", {"train_count": 30.5}, "config key 'train_count' must be a whole number"),
    # the surrogate's train/test split is fixed, so a train_count would be ignored
    ("ar-train", {"train_count": 100}, "'train_count' applies only to a series file"),
    # per-edge and per-agent lists name their key and the edge count
    ("design-sampling", {"p_max": "abc"}, "config key 'p_max' must be numbers"),
    ("design-sampling", {"p_max": [0.5, 0.5]},
     "config key 'p_max' must be one number or 19, one per edge"),
    ("run-distributed", {"mu": [0.01, 0.02]}, "config key 'mu' must be one number or 19, one per edge"),
    # JSON strings and booleans are not numbers, at any depth of a list
    ("run-lms", {"order": "2"}, "config key 'order' must be a number"),
    ("run-lms", {"realizations": True}, "config key 'realizations' must be a number"),
    ("run-lms", {"mu": "1e-2"}, "config key 'mu' must be a number"),
    ("run-distributed", {"mu": [1e-3, True]}, "config key 'mu' must be numbers"),
    ("run-distributed", {"mu": [[1e-3], ["1e-3"]]}, "config key 'mu' must be numbers"),
    ("design-sampling", {"p_max": [0.5, False]}, "config key 'p_max' must be numbers"),
    ("run-lms", {"noise_var": {"choices": [1e-3, True]}}, "noise choices must be numbers"),
    ("run-lms", {"noise_var": {"low": True, "high": 1e-3}}, "noise bounds must be numbers"),
    ("run-lms", {"noise_var": [[1e-3], [False]]}, "noise variances must be numbers"),
])
def test_bad_knobs_exit_2(tmp_path, complex_file, capsys, monkeypatch, mode, values, message):
    from simplexlms import harness

    def no_run(*args, **kwargs):
        raise AssertionError("the run started before the config was checked")

    monkeypatch.setattr(harness, "run_inference", no_run)
    monkeypatch.setattr(harness, "solve_sampling", no_run)
    assert run_simulation(tmp_path, complex_file, mode, **values) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("mode, values, key", [
    ("generate-complex", {"complex_outt": "c.txt"}, "complex_outt"),
    ("run-lms", {"signal_variance": 1e300}, "signal_variance"),
    ("run-lms", {"nosie_var": 1e-3}, "nosie_var"),
    ("design-sampling", {"horizon": 20}, "horizon"),
    ("infer-topology", {"lambda_0": 0.1}, "lambda_0"),
    ("run-distributed", {"emit_agent_trace": True}, "emit_agent_trace"),
    ("ar-train", {"epoch": 2}, "epoch"),
    ("analyze", {"result_file": "r.json"}, "result_file"),
    # nested objects: a misspelled key is not dropped, a mixed complex is not resolved
    ("run-lms", {"noise_var": {"low": 1e-4, "high": 1e-2, "lgo": True}}, "noise_var.lgo"),
    ("run-lms", {"p": {"lowest_noise_fraction": 0.5, "extra": 1}}, "p.extra"),
    ("ar-train", {"surrogate": {"seed": 1, "ordr": 2}}, "surrogate.ordr"),
    ("generate-complex", {"complex": {"vertices": 8, "edges": 10, "triangles": 2,
                                      "edge_prob": 0.5, "fill_prob": 0.5}}, "complex.edges"),
])
def test_undeclared_key_exits_2(tmp_path, complex_file, capsys, monkeypatch, mode, values, key):
    from simplexlms import harness

    def no_run(cfg):
        raise AssertionError("the run started before the config was checked")

    monkeypatch.setitem(harness.MODES, mode, no_run)
    out = tmp_path / "result.json"
    if mode == "analyze":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"results_file": str(tmp_path / "in.json"), **values}))
        code = run_cli([mode, "--config", config, "--out", out])
    else:
        code = run_simulation(tmp_path, complex_file, mode, "--out", out, **values)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"'{key}'" in err and f"mode '{mode}'" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, unknown", [
    # a prefix of a flag is not that flag: `--p` is not `--p-max`, nor `--real`
    # `--realizations`, so a typo never sets another key
    (["design-sampling", "--p", "0.5"], "--p"),
    (["run-lms", "--real", "5", "--sig", "2"], "--real"),
])
def test_abbreviated_flag_exits_2(capsys, no_run, argv, unknown):
    with pytest.raises(SystemExit) as stop:
        run_cli(argv)
    assert stop.value.code == 2
    assert f"unrecognized arguments: {unknown}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--complex-file", "--series-file"])
def test_ar_train_surrogate_with_input_files_exits_2(tmp_path, complex_file, capsys, flag):
    # the surrogate brings its own complex and series, so a file given beside it would be ignored
    out = tmp_path / "ar.json"
    assert run_simulation(tmp_path, complex_file, "ar-train", flag, complex_file, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"mode 'ar-train' takes config key '{flag[2:].replace('-', '_')}' only without" in err
    assert not out.exists()


# The options of every subcommand as the parser spelled them before it was generated
# from the key table: option, the config key it sets, and its type, choices or switch.
STREAM_OPTIONS = [
    ("--complex-file", "complex_file", str), ("--order", "order", int),
    ("--horizon", "horizon", int), ("--realizations", "realizations", int),
    ("--signal-var", "signal_var", float), ("--noise-var", "noise_var", float),
    ("--p", "p", float),
]
RULES = ("uniform", "metropolis")
PARENT_OPTIONS = {
    "generate-complex": [
        ("--nodes", "complex.vertices", int), ("--edge-prob", "complex.edge_prob", float),
        ("--fill-prob", "complex.fill_prob", float), ("--edges", "complex.edges", int),
        ("--triangles", "complex.triangles", int), ("--complex-out", "complex_out", str),
        ("--series-out", "series_out", str),
    ],
    "run-lms": [*STREAM_OPTIONS, ("--mu", "mu", float)],
    "design-sampling": [
        ("--complex-file", "complex_file", str), ("--order", "order", int),
        ("--signal-var", "signal_var", float), ("--noise-var", "noise_var", float),
        ("--mu", "mu", float), ("--alpha", "alpha", float), ("--gamma", "gamma", float),
        ("--p-max", "p_max", float), ("--tol", "tol", float), ("--max-iter", "max_iter", int),
    ],
    "infer-topology": [
        *STREAM_OPTIONS, ("--mu1", "mu1", float), ("--mu2", "mu2", float),
        ("--lambda0", "lambda0", float), ("--lambda1", "lambda1", float),
        ("--remove-triangles", "remove_triangles", int),
    ],
    "run-distributed": [
        *STREAM_OPTIONS, ("--mu", "mu", float), ("--rule", "rule", RULES),
        ("--emit-agent-traces", "emit_agent_traces", "switch"),
        ("--combination-out", "combination_out", str),
    ],
    "ar-train": [
        ("--complex-file", "complex_file", str), ("--series-file", "series_file", str),
        ("--train-count", "train_count", int), ("--surrogate-seed", "surrogate.seed", int),
        ("--order", "order", int), ("--mu", "mu", float),
        ("--variant", "variant", ("topo", "edge-laplacian-baseline")),
        ("--epochs", "epochs", int), ("--distributed", "distributed", "switch"),
        ("--rule", "rule", RULES),
    ],
    "analyze": [("--results", "results_file", str)],
}


@pytest.mark.parametrize("mode", list(PARENT_OPTIONS))
def test_generated_parser_keeps_every_option(mode):
    import argparse

    from simplexlms import cli

    parser = cli.build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction)).choices[mode]
    actions = {option: action for action in sub._actions for option in action.option_strings}
    args = parser.parse_args([mode, "--config", "c.json", "--out", "o.json", "--format", "csv"])
    assert (args.config, args.out, args.format) == ("c.json", "o.json", "csv")
    assert list(actions["--format"].choices) == ["json", "csv"]
    for option, key, kind in [("--seed", "seed", int), *PARENT_OPTIONS[mode]]:
        action = actions[option]
        if kind == "switch":
            assert isinstance(action, argparse._StoreTrueAction)
            argv, expected = [option], True
        elif isinstance(kind, tuple):
            assert isinstance(action, argparse._StoreAction) and action.type is None
            assert tuple(action.choices) == kind
            argv, expected = [option, kind[-1]], kind[-1]
        else:
            assert isinstance(action, argparse._StoreAction) and action.choices is None
            assert action.type is (None if kind is str else kind)
            argv, expected = [option, "3"], kind("3")
        value = cli._collect_values(parser.parse_args([mode, *argv]))
        for part in key.split("."):
            value = value[part]
        assert value == expected and type(value) is type(expected), option
    with pytest.raises(SystemExit) as stop:
        cli.main([mode, "--help"])
    assert stop.value.code == 0


def test_readme_key_table_matches_the_code():
    # every (mode, key) the README documents is declared, every declared one is
    # documented, and each documented flag is the flag the parser generates
    from simplexlms import cli, harness

    def declared(table, prefix=""):
        for key, (parser, *_) in table.items():
            yield prefix + key
            if isinstance(parser, harness._Object):
                for nested in parser.tables:
                    yield from declared(nested, f"{prefix}{key}.")

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    header = "| key | modes | check | default | flag |\n|---|---|---|---|---|\n"
    rows = readme.split(header, 1)[1].split("\n\n", 1)[0].splitlines()
    documented, flags = set(), {}
    for row in rows:
        keys, modes, _, _, flag = (cell.strip() for cell in row.strip("|").split("|"))
        keys, flag = re.findall(r"`([^`]+)`", keys), re.findall(r"`(--[^`]+)`", flag)
        for mode in list(harness.KEYS) if modes == "all" else modes.split(", "):
            documented |= {(mode, key) for key in keys}
            flags.update({(mode, key): option for key, option in zip(keys, flag)})
    assert documented == {(mode, key) for mode, table in harness.KEYS.items()
                          for key in declared(table)}
    assert flags == {(mode, key): "--" + option.replace("_", "-")
                     for mode, table in harness.KEYS.items()
                     for option, key, _ in cli._flags(table)}


@pytest.mark.parametrize("error", [np.linalg.LinAlgError("Singular matrix"),
                                   FloatingPointError("overflow encountered in multiply")],
                         ids=["LinAlgError", "FloatingPointError"])
def test_stray_numerical_error_exits_5(tmp_path, complex_file, capsys, monkeypatch, error):
    # an error no check turned into a verdict: one line, no traceback
    from simplexlms import harness

    def failing(cfg):
        raise error

    monkeypatch.setitem(harness.MODES, "run-lms", failing)
    assert run_simulation(tmp_path, complex_file, "run-lms") == 5
    assert capsys.readouterr().err == f"numerical failure: {type(error).__name__}: {error}\n"


def test_linear_algebra_error_inside_a_library_call_exits_5(tmp_path, complex_file, capsys,
                                                           monkeypatch):
    # a LinAlgError is a ValueError, but a numerical failure, not a rejected input
    from simplexlms import harness

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(harness, "run_experiment", failing)
    assert run_simulation(tmp_path, complex_file, "run-lms") == 5
    assert capsys.readouterr().err == "numerical failure: LinAlgError: Singular matrix\n"


@pytest.mark.parametrize("mode", ["run-lms", "run-distributed", "infer-topology"])
def test_overflowing_signal_scale_exits_2(tmp_path, complex_file, capsys, mode):
    # a configuration error, found where the closed-form moments are built:
    # not a divergence verdict, nor a linear-algebra traceback
    assert run_simulation(tmp_path, complex_file, mode, signal_var=1e308, noise_var=1e-3) == 2
    assert "the moment basis must be finite" in capsys.readouterr().err


def edgeless_config(tmp_path, mode):
    edgeless = tmp_path / "edgeless.txt"
    edgeless.write_text("3\n")
    # a snapshot series of no edges: the header and the snapshot column alone
    series = tmp_path / "edgeless.csv"
    series.write_text("n\n" + "".join(f"{n}\n" for n in range(12)))
    knobs = {key: value for key, value in SIMULATION_KNOBS[mode].items() if key != "surrogate"}
    if mode == "ar-train":
        knobs["series_file"] = str(series)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"complex_file": str(edgeless), **knobs}))
    return config


@pytest.mark.parametrize("mode", ["design-sampling", "run-lms", "run-distributed",
                                  "infer-topology", "ar-train"])
def test_edgeless_complex_exits_2(tmp_path, capsys, mode):
    # no edges to estimate over: an empty result (a recovery of 1.00, or test
    # errors of 0.0) would read as a success
    out = tmp_path / "result.json"
    assert run_cli([mode, "--config", edgeless_config(tmp_path, mode), "--out", out]) == 2
    assert "edge set is empty" in capsys.readouterr().err
    assert not out.exists()


def test_complex_without_triangle_candidates_exits_2(tmp_path, capsys):
    # edges but no three pairwise adjacent vertices: no triangle to recover, and a
    # recovery of 1.00 over an empty support would read as a success
    path = tmp_path / "path.txt"
    path.write_text("3\n1 2\n2 3\n")
    out = tmp_path / "result.json"
    assert run_simulation(tmp_path, path, "infer-topology", "--out", out) == 2
    assert capsys.readouterr().err == f"config error: {path} has no triangle candidates\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["generate-complex", "infer-topology"])
def test_negative_vertex_count_exits_2(tmp_path, capsys, mode):
    negative = tmp_path / "negative.txt"
    negative.write_text("-3\n")
    assert run_simulation(tmp_path, negative, mode) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "vertex count -3" in err and str(negative) in err


def test_ar_train_with_surrogate_and_csv(tmp_path):
    out = tmp_path / "ar.csv"
    code = run_cli(
        [
            "ar-train", "--surrogate-seed", 1, "--order", 3, "--mu", 1e-4,
            "--variant", "topo", "--epochs", 5, "--format", "csv", "--out", out,
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "snapshot,test_error"
    assert len(lines) == 39


def test_ar_train_from_files(tmp_path):
    from simplexlms.datasets import traffic_surrogate
    from simplexlms.files import save_complex, write_edge_series

    ds = traffic_surrogate(seed=2)
    complex_path = tmp_path / "c.txt"
    series_path = tmp_path / "s.csv"
    save_complex(ds.complex, complex_path)
    write_edge_series(series_path, ds.series)
    out = tmp_path / "ar.json"
    code = run_cli(
        [
            "ar-train", "--complex-file", complex_path, "--series-file", series_path,
            "--order", 2, "--mu", 1e-4, "--epochs", 2, "--out", out,
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["mean_test_error"] > 0


@pytest.mark.parametrize("fault", ["missing series", "missing complex", "repeated edge"])
def test_ar_train_bad_input_file_exits_2(tmp_path, capsys, fault):
    from simplexlms.datasets import traffic_surrogate
    from simplexlms.files import save_complex, write_edge_series

    ds = traffic_surrogate(seed=2)
    complex_path = tmp_path / "c.txt"
    series_path = tmp_path / "s.csv"
    save_complex(ds.complex, complex_path)
    write_edge_series(series_path, ds.series)
    bad = series_path if fault == "missing series" else complex_path
    if fault == "repeated edge":
        lines = complex_path.read_text().splitlines()
        lines.insert(2, lines[2])  # the first edge, twice
        complex_path.write_text("\n".join(lines) + "\n")
    else:
        bad.unlink()
    out = tmp_path / "ar.json"
    code = run_cli(["ar-train", "--complex-file", complex_path, "--series-file", series_path,
                    "--order", 2, "--mu", 1e-4, "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert str(bad) in err
    assert not out.exists()


@pytest.mark.parametrize("mode, flag", [
    ("generate-complex", "--complex-out"),
    ("generate-complex", "--series-out"),
    ("run-distributed", "--combination-out"),
])
def test_unwritable_side_output_exits_2(tmp_path, complex_file, capsys, monkeypatch, mode, flag):
    # run-distributed writes its combination before the run, so the error comes first
    from simplexlms import harness

    def no_run(*args, **kwargs):
        raise AssertionError("the run started before the combination was written")

    monkeypatch.setattr(harness, "run_distributed", no_run)
    target = tmp_path / "missing" / "side.out"
    assert run_simulation(tmp_path, complex_file, mode, flag, target) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert str(target) in err


def test_unwritable_side_output_writes_no_other_file(tmp_path, capsys):
    # every side output path is checked before any work, so none is left behind
    complex_out = tmp_path / "c.txt"
    series_out = tmp_path / "missing" / "s.csv"
    assert run_cli(["generate-complex", "--nodes", 9, "--edge-prob", 0.5, "--fill-prob", 0.6,
                    "--seed", 3, "--complex-out", complex_out, "--series-out", series_out]) == 2
    assert str(series_out) in capsys.readouterr().err
    assert not complex_out.exists()


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("mode, flag", [
    ("generate-complex", "--complex-out"),
    ("generate-complex", "--series-out"),
    ("run-distributed", "--combination-out"),
])
def test_side_output_failing_midway_leaves_no_partial_file(tmp_path, complex_file, capsys,
                                                          monkeypatch, mode, flag, existing):
    # a side output is written like a result file: a sibling .part renamed once complete;
    # every writer opens its file in simplexlms.files, where the disk here fills midway
    from simplexlms import files

    def disk_full(text):
        raise OSError(28, "No space left on device")

    def fills_midway(path, how="r", **kwargs):
        fh = open(path, how, **kwargs)
        if how == "w":
            fh.write("first rows\n")
            fh.flush()
            fh.write = disk_full
        return fh

    monkeypatch.setattr(files, "open", fills_midway, raising=False)
    folder = tmp_path / "out"
    folder.mkdir()
    target = folder / "side.out"
    if existing:
        target.write_bytes(b"previous output\n")
    assert run_simulation(tmp_path, complex_file, mode, flag, target) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "No space left on device" in err and str(target) in err
    assert [p.name for p in folder.iterdir()] == (["side.out"] if existing else [])
    if existing:
        assert target.read_bytes() == b"previous output\n"


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_ar_train_non_finite_cell_exits_2(tmp_path, token, capsys):
    from simplexlms.datasets import traffic_surrogate
    from simplexlms.files import save_complex, write_edge_series

    ds = traffic_surrogate(seed=2)
    complex_path = tmp_path / "c.txt"
    series_path = tmp_path / "s.csv"
    save_complex(ds.complex, complex_path)
    write_edge_series(series_path, ds.series)
    lines = series_path.read_text().splitlines()
    cells = lines[4].split(",")
    cells[3] = token
    lines[4] = ",".join(cells)
    series_path.write_text("\n".join(lines) + "\n")
    code = run_cli(
        [
            "ar-train", "--complex-file", complex_path, "--series-file", series_path,
            "--order", 2, "--mu", 1e-4, "--out", tmp_path / "ar.json",
        ]
    )
    assert code == 2
    assert "line 5: non-finite cell" in capsys.readouterr().err
    assert not (tmp_path / "ar.json").exists()


def test_cli_import_leaves_scipy_out():
    # scipy is a test dependency only: no module of the package may import it
    import simplexlms

    code = "import sys, simplexlms.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(simplexlms.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    assert proc.stdout.strip() == "False"


def test_result_bytes_do_not_depend_on_the_blas_threads(tmp_path):
    # at 900 edges two OpenBLAS threads round the regressor products otherwise than one;
    # the CLI pins one thread for its run, so both processes write the one-thread bytes
    import simplexlms

    complex_path = tmp_path / "c.txt"
    save_complex(grown_complex(150, 900, 300, 0), complex_path)
    outs = []
    for threads in ("1", "2"):
        outs.append(tmp_path / f"r{threads}.json")
        env = {**os.environ, "PYTHONPATH": str(Path(simplexlms.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "simplexlms.cli", "run-lms", "--complex-file",
                        str(complex_path), "--order", "2", "--horizon", "64", "--realizations",
                        "2", "--mu", "3.6e-8", "--seed", "0", "--out", str(outs[-1])],
                       capture_output=True, env=env, check=True, timeout=300)
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_cli_pins_one_blas_thread_and_restores_the_count(tmp_path, monkeypatch):
    import ctypes

    from simplexlms import cli

    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    if not hasattr(lib, "scipy_openblas_set_num_threads64_"):
        pytest.skip("a numpy build without the bundled OpenBLAS thread control")
    get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    seen = []
    run_mode = cli.run_mode
    monkeypatch.setattr(cli, "run_mode", lambda *args: seen.append(get()) or run_mode(*args))
    before = get()
    set_(2)
    try:
        assert run_cli(["generate-complex", "--nodes", 6, "--edge-prob", 0.5,
                        "--fill-prob", 0.5]) == 0
        assert seen == [1] and get() == 2
    finally:
        set_(before)


def test_generated_files_train_as_the_surrogate_does(tmp_path):
    # generate-complex writes the surrogate's complex and series: training on the files
    # scores every step as training on the surrogate does, bit for bit
    complex_path, series_path = tmp_path / "c.txt", tmp_path / "s.csv"
    assert run_cli(["generate-complex", "--nodes", 17, "--edges", 26, "--triangles", 5,
                    "--seed", 2, "--complex-out", complex_path, "--series-out", series_path]) == 0
    payloads = []
    for source in (["--complex-file", complex_path, "--series-file", series_path],
                   ["--surrogate-seed", 2]):
        out = tmp_path / "ar.json"
        assert run_cli(["ar-train", *source, "--order", 3, "--mu", 1e-3, "--out", out]) == 0
        payloads.append(json.loads(out.read_text(), parse_int=float))
    for key in ("train_errors", "test_errors"):
        files_errors, surrogate_errors = (np.array(p[key]) for p in payloads)
        assert files_errors.size and files_errors.tobytes() == surrogate_errors.tobytes()


def test_analyze_summarises_results(tmp_path, complex_file, capsys):
    out = tmp_path / "result.json"
    run_cli(
        [
            "run-lms", "--complex-file", complex_file, "--order", 1,
            "--mu", 1e-3, "--horizon", 100, "--realizations", 2,
            "--signal-var", 0.1, "--noise-var", 1e-4, "--seed", 7,
            "--out", out,
        ]
    )
    capsys.readouterr()
    assert run_cli(["analyze", "--results", out]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert "steady_state_db" in summary
    assert "gap_db" in summary


@pytest.mark.parametrize("mode", ["ar-train", "design-sampling"])
def test_analyze_summarises_ar_and_design_results(tmp_path, complex_file, capsys, mode):
    out = tmp_path / "result.json"
    assert run_simulation(tmp_path, complex_file, mode, "--out", out) == 0
    payload = json.loads(out.read_text())
    capsys.readouterr()
    assert run_cli(["analyze", "--results", out]) == 0
    summary = json.loads(capsys.readouterr().out)
    # the envelope of a result file; the results path is the one config key
    assert summary["config"] == {"results_file": str(out)}
    assert summary["metadata"]["mode"] == "analyze"
    if mode == "ar-train":
        errors = payload["test_errors"]
        expected = {"mean_test_error": sum(errors) / len(errors), "max_test_error": max(errors)}
    else:
        p_star = payload["p_star"]
        expected = {"sampling_rate": sum(p_star),
                    "support_size": sum(value > 1e-6 for value in p_star)}
    assert set(summary) == {"config", "metadata", *expected}
    assert {key: summary[key] for key in expected} == pytest.approx(expected, rel=1e-12)


def test_analyze_reads_integral_design_entries_as_floats(tmp_path, complex_file, capsys):
    # a design's zeros and ones are written as the JSON integers 0 and 1, and a deviation
    # below 1e-4 and the config echo's noise floor 1e-7 in scientific form with a bare
    # exponent; analyze summarises each file as it does the json.dumps copy of its payload
    files = {"complex_file": str(complex_file), "noise_var": 1e-7}
    design = {**files, "order": 1, "signal_var": 0.1, "seed": 2,
              **SIMULATION_KNOBS["design-sampling"]}
    lms = {**files, **SIMULATION_KNOBS["run-lms"], "coeff_scale": 1e-3}
    for mode, values in (("design-sampling", design), ("run-lms", lms)):
        payload = run_mode(mode, values)
        shortest, by_repr = tmp_path / "shortest.json", tmp_path / "by_repr.json"
        emit_results(payload, shortest)
        lists = {key: value.tolist() if isinstance(value, np.ndarray) else value
                 for key, value in payload.items()}
        by_repr.write_text(json.dumps(lists, separators=(",", ":")) + "\n")
        assert '"noise_var":1e-7,' in shortest.read_text()
        assert '"noise_var":1e-07,' in by_repr.read_text()
        if mode == "design-sampling":
            p_star = shortest.read_text().split('"p_star":[', 1)[1].split("]", 1)[0].split(",")
            assert {"0", "1"} <= set(p_star) and "1.0" in by_repr.read_text()
        else:
            assert max(lists["msd"]) < 1e-4 and "e-06," in by_repr.read_text()
            assert "e-06" not in shortest.read_text()
        summaries = []
        for path in (shortest, by_repr):
            capsys.readouterr()
            assert run_cli(["analyze", "--results", path]) == 0
            summary = json.loads(capsys.readouterr().out)
            summaries.append({key: repr(value) for key, value in summary.items()
                              if key != "config"})
        assert summaries[0] == summaries[1]
        if mode == "design-sampling":
            assert summaries[0]["support_size"] == repr(len(payload["support"]))
        else:
            assert {"iterations", "steady_state_db", "theory_db", "gap_db"} <= summaries[0].keys()


def test_analyze_missing_file_exits_2(tmp_path):
    assert run_cli(["analyze", "--results", tmp_path / "none.json"]) == 2


@pytest.mark.parametrize("text, message", [
    ("5", "must hold a JSON object"),
    ("[1, 2]", "must hold a JSON object"),
    ('{"msd": {"a": 1}}', "'msd' must be a nonempty list of finite numbers"),
    ('{"msd": [1.0], "theory": 5}', "its 'theory' an object or null"),
    ('{"msd": []}', "'msd' must be a nonempty list of finite numbers"),
    ('{"msd": [1.0, NaN]}', "non-standard JSON constant NaN"),
    # a literal that overflows reads as infinity, which no result file holds
    ('{"msd": [1.0, 1e400]}', "'msd' must be a nonempty list of finite numbers"),
    ('{"msd": [1.0, true]}', "'msd' must be a nonempty list of finite numbers"),
    ('{"msd": [1.0], "theory": {"msd_exact_db": "-30"}}', "its theory dB must be finite"),
    ('{"test_errors": ["0.5"]}', "'test_errors' must be a nonempty list of finite numbers"),
    ('{"p_star": [[0.5]]}', "'p_star' must be a nonempty list of finite numbers"),
], ids=["number", "list", "msd-object", "theory-number", "msd-empty", "nan", "overflow",
        "msd-bool", "theory-db-string", "test-errors-string", "p-star-nested"])
def test_analyze_rejects_a_malformed_results_file(tmp_path, capsys, text, message):
    path = tmp_path / "result.json"
    path.write_text(text)
    assert run_cli(["analyze", "--results", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err and str(path) in err


@pytest.mark.parametrize("mode, flags", [
    ("run-lms", ["--noise-var", 1e-4]),
    ("ar-train", []),
    ("design-sampling", []),
])
def test_analyze_reads_indented_and_compact_files_alike(tmp_path, complex_file, capsys,
                                                        mode, flags):
    # result files written before they were compact are summarised as before
    compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
    assert run_simulation(tmp_path, complex_file, mode, *flags, "--out", compact) == 0
    text = compact.read_text()
    assert text.count("\n") == 1
    indented.write_text(json.dumps(json.loads(text), indent=2) + "\n")
    summaries = []
    for path in (compact, indented):
        capsys.readouterr()
        assert run_cli(["analyze", "--results", path]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary.pop("config") == {"results_file": str(path)}
        summaries.append(summary)
    assert summaries[0] == summaries[1]
    assert len(summaries[0]) > 1
