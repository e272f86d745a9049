"""End-to-end command-line runs, exit codes, and reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from simplexlms.cli import main
from simplexlms.complexes import load_complex


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


@pytest.mark.filterwarnings("ignore")
def test_divergent_run_exits_3(complex_file):
    code = run_cli(
        [
            "run-lms", "--complex-file", complex_file, "--order", 2,
            "--mu", 10.0, "--horizon", 200, "--realizations", 2,
            "--signal-var", 1.0, "--noise-var", 1e-4, "--seed", 7,
        ]
    )
    assert code == 3


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


SIMULATION_KNOBS = {
    "run-lms": {"mu": 1e-3},
    "run-distributed": {"mu": 1e-3},
    "infer-topology": {"mu1": 1e-2, "mu2": 1e-2, "lambda0": 0.1, "lambda1": 0.1},
}


def run_simulation(tmp_path, complex_file, mode, *flags, **values):
    """Run a simulation mode on a short, noise-free config with ``values`` merged in."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "complex_file": str(complex_file), "order": 1, "horizon": 20, "realizations": 1,
        "signal_var": 0.1, "seed": 2, **SIMULATION_KNOBS[mode], **values,
    }))
    return run_cli([mode, "--config", config, *flags])


@pytest.mark.parametrize("mode", ["run-lms", "run-distributed"])
def test_zero_deviation_writes_strict_json(tmp_path, complex_file, mode):
    # no noise (the default noise_var 0): the theoretical deviation is exactly 0
    out = tmp_path / "result.json"
    assert run_simulation(tmp_path, complex_file, mode, "--out", out) == 0
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    theory = payload["theory"]
    if mode == "run-lms":
        assert theory["msd_exact"] == 0 and theory["msd_exact_db"] is None
        assert all(record["msd_theory_db"] is None for record in payload["records"])
    else:
        assert theory["stable"] is True
        assert theory["msd_per_agent"] == 0 and theory["msd_per_agent_db"] is None


def test_zero_deviation_csv_cell_is_empty(tmp_path, complex_file):
    out = tmp_path / "result.csv"
    assert run_simulation(tmp_path, complex_file, "run-lms", "--format", "csv", "--out", out) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "iteration,msd_db,msd_theory_db"
    assert len(rows) == 22 and all(row.endswith(",") for row in rows[1:])


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
])
def test_bad_knobs_exit_2(tmp_path, complex_file, capsys, monkeypatch, mode, values, message):
    from simplexlms import harness

    def no_run(*args, **kwargs):
        raise AssertionError("the run started before the config was checked")

    monkeypatch.setattr(harness, "run_inference", no_run)
    assert run_simulation(tmp_path, complex_file, mode, **values) == 2
    assert message in capsys.readouterr().err


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
    from simplexlms.datasets import traffic_surrogate, write_edge_series
    from simplexlms.complexes import save_complex

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


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_ar_train_non_finite_cell_exits_2(tmp_path, token, capsys):
    from simplexlms.datasets import traffic_surrogate, write_edge_series
    from simplexlms.complexes import save_complex

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


def test_analyze_missing_file_exits_2(tmp_path):
    assert run_cli(["analyze", "--results", tmp_path / "none.json"]) == 2
