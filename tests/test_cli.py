"""End-to-end command-line runs, exit codes, and reproducibility."""

import json

import numpy as np
import pytest

from simplexlms.cli import main
from simplexlms.complexes import load_complex


def run_cli(args):
    return main([str(a) for a in args])


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

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    payload = json.loads(out.read_text(), parse_constant=reject)
    assert payload["theory"]["stable"] is False
    assert payload["theory"]["msd_per_agent"] is None
    assert payload["theory"]["msd_per_agent_db"] is None


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
