"""End-to-end command-line checks: outputs, exit codes, determinism."""

import json
import warnings
from dataclasses import replace

import mlia.cli as cli
from mlia.gdof_core import BoundFamily, WeightedBound


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gdof_symmetric(capsys):
    code, out, _ = run_cli(capsys, "gdof", "--alphas", "1,1,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["optimal"] == "2"
    assert payload["schema_version"]


def test_gdof_with_achievable(capsys):
    code, out, _ = run_cli(capsys, "gdof", "--alphas", "0.5,0.8,1.0", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["optimal"] == "5/4"
    assert payload["achievable"] == [{"n": 1, "value": "1", "decimal": 1.0}]


def test_gdof_rejects_unsorted(capsys):
    code, _, err = run_cli(capsys, "gdof", "--alphas", "0.9,0.5")
    assert code == 1
    assert "sorted" in err


def test_bounds_weight_only_k8(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--k", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["jl"] == 2 and len(payload["bounds"]) == 4
    assert payload["bounds"][0]["lhs"] == [4, 0, 2, 0, 0, 0, 1, 1]
    assert payload["bounds"][0]["rhs"] == [2, 0, 1, 0, 0, 0, 0, 1]
    assert "rhs_value" not in payload["bounds"][0]


def test_bounds_k2_routes_to_pair(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--alphas", "0.3,0.7")
    assert code == 0
    payload = json.loads(out)
    assert payload["bounds"] == [
        {"lhs": [1, 1], "rhs": [0, 1], "rhs_value": "7/10"}
    ]


def test_bounds_certification_failure_exit_code(capsys, monkeypatch):
    def corrupt(alpha):
        k = alpha.k_users
        ones = tuple((u, 1) for u in range(1, k + 1))
        bound = WeightedBound(k, ones, ones, sum(alpha.alphas))
        return BoundFamily((bound, bound), 1)

    monkeypatch.setattr(cli, "converse_family", corrupt)
    code, _, err = run_cli(capsys, "bounds", "--alphas", "0.5,0.8,1.0")
    assert code == 2
    assert "certification" in err.lower()


EIGHTHS = "1/8,1/4,3/8,1/2,5/8,3/4,7/8,1"


def test_bounds_swapped_rows_exit_code(capsys, monkeypatch):
    """Swapping the left rows of bounds 1 and 2 keeps the column sums and
    the average, but the rows are no longer tight at d*."""
    family_of = cli.converse_family

    def swapped(alpha):
        family = family_of(alpha)
        first, second = family.bounds[:2]
        bounds = (replace(first, lhs=second.lhs), replace(second, lhs=first.lhs))
        return BoundFamily(bounds + family.bounds[2:], family.jl)

    monkeypatch.setattr(cli, "converse_family", swapped)
    code, out, err = run_cli(capsys, "bounds", "--alphas", EIGHTHS)
    assert code == 2 and not out
    assert "bound 1 is not tight" in err


def test_bounds_moved_weight_exit_code(capsys, monkeypatch):
    family_of = cli.converse_family

    def moved(alpha):
        family = family_of(alpha)
        first = family.bounds[0]  # 4 d1 + 2 d3 + d7 + d8: move 2 d3 to user 4
        lhs = tuple((4 if u == 3 else u, w) for u, w in first.lhs)
        return BoundFamily((replace(first, lhs=lhs),) + family.bounds[1:], family.jl)

    monkeypatch.setattr(cli, "converse_family", moved)
    code, out, err = run_cli(capsys, "bounds", "--alphas", EIGHTHS)
    assert code == 2 and not out
    assert "bound 1 " in err


def test_scheme_reports_plan_and_power(capsys):
    code, out, _ = run_cli(
        capsys, "scheme", "--alphas", "0.5,0.8,1.0", "--n", "2", "--p", "1e8",
        "--seed", "3",
    )
    assert code == 0
    payload = json.loads(out)
    layer1 = payload["plan"]["layers"][0]
    assert layer1["n_dims"] == 64 and layer1["m_dims"] == 191
    assert payload["set_cardinalities"][0]["i_size"] == 127
    assert payload["eta"] > 0 and 0 < payload["gamma"] <= 1


def test_scheme_rejects_oversized_eps(capsys):
    code, _, err = run_cli(
        capsys, "scheme", "--alphas", "0.5,0.8,1.0", "--eps", "1/4"
    )
    assert code == 1
    assert "layer" in err


def test_scheme_dump_exponents(tmp_path, capsys):
    dump = tmp_path / "dims.csv"
    code, _, _ = run_cli(
        capsys, "scheme", "--alphas", "0.5,0.8,1.0", "--n", "2",
        "--dump-exponents", str(dump), "--layer", "1",
    )
    assert code == 0
    lines = dump.read_text().splitlines()
    assert lines[0].startswith("# schema_version=")
    assert lines[1].startswith("index,h_1_1,")
    assert len(lines) == 2 + 64


def test_simulate_deterministic_bytes(tmp_path, capsys):
    argv = [
        "simulate", "--alphas", "0.5,0.8,1.0", "--p-grid", "1e6,1e8",
        "--trials", "100", "--seed", "2", "--eps", "1499/10000",
    ]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert cli.main(argv + ["--output", str(first)]) == 0
    assert cli.main(argv + ["--output", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_simulate_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--alphas", "0.5,0.8,1.0", "--p-grid", "1e6",
        "--trials", "20", "--seed", "2", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# schema_version=mlia-cli-1"
    assert lines[1] == "p,user,layer,trials,errors,ser,dmin,tbound"
    assert len(lines) == 2 + 6  # six data cells for K=3


def test_simulate_cap_exceeded_names_size(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--alphas", "0.4,0.6,0.8,1.0", "--n", "2",
        "--p-grid", "1e8", "--trials", "10",
    )
    assert code == 3
    assert "exceeds cap" in err


def test_mindist_table(capsys):
    code, out, _ = run_cli(
        capsys, "mindist", "--alphas", "0.5,0.8,1.0", "--p-grid", "1e4,1e6",
        "--seed", "1", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# schema_version=")
    assert lines[1] == "p,user,layer,dmin,tbound"
    assert len(lines) == 2 + 2 * 3  # per P: layer 1 at receivers 1..3


def test_config_file_and_flag_override(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# sweep configuration\n"
        "alphas = 0.5,0.8,1.0\n"
        "p_grid = 1e6\n"
        "trials = 10\n"
        "seed = 2\n"
    )
    code, out, _ = run_cli(capsys, "simulate", "--config", str(config))
    assert code == 0
    assert json.loads(out)["config"]["trials"] == 10
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(config), "--trials", "20"
    )
    assert code == 0
    assert json.loads(out)["config"]["trials"] == 20


def test_unknown_flag_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "gdof", "--frobnicate")
    assert code == 1
    assert err


def test_simulate_rejects_non_finite_power(capsys):
    for p_grid in ("inf", "nan", "1e6,inf"):
        code, out, err = run_cli(
            capsys, "simulate", "--alphas", "1/2,4/5,1", "--p-grid", p_grid,
            "--trials", "10",
        )
        assert code == 1 and not out
        assert "finite" in err and "Traceback" not in err


def test_simulate_rejects_bad_noise_std(capsys):
    for noise_std in ("nan", "-1", "inf"):
        code, out, err = run_cli(
            capsys, "simulate", "--alphas", "1/2,4/5,1", "--p-grid", "1e8",
            "--trials", "100", "--noise-std", noise_std, "--eps", "1499/10000",
        )
        assert code == 1 and not out
        assert "noise_std" in err


def test_json_output_refuses_nan(capsys):
    # mindist does not use the noise level, but its report echoes it
    code, out, err = run_cli(
        capsys, "mindist", "--alphas", "1/2,4/5,1", "--p-grid", "1e4",
        "--noise-std", "nan",
    )
    assert code == 1 and not out
    assert "JSON" in err


def test_config_with_dmin_false_and_bad_value(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("alphas = 0.5,0.8,1.0\np_grid = 1e6\ntrials = 10\nwith_dmin = false\n")
    code, out, _ = run_cli(capsys, "simulate", "--config", str(config))
    assert code == 0
    assert json.loads(out)["config"]["with_dmin"] is False
    code, out, _ = run_cli(capsys, "simulate", "--config", str(config), "--with-dmin")
    assert code == 0
    assert json.loads(out)["config"]["with_dmin"] is True
    config.write_text("alphas = 0.5,0.8,1.0\np_grid = 1e6\ntrials = ten\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(config))
    assert code == 1 and not out
    assert "--trials" in err and "Traceback" not in err


def test_missing_required_option(capsys):
    code, _, err = run_cli(capsys, "simulate", "--p-grid", "1e6")
    assert code == 1 and "missing required option --alphas" in err
    code, _, err = run_cli(capsys, "mindist", "--alphas", "1/2,4/5,1")
    assert code == 1 and "missing required option --p-grid" in err


def test_scheme_dump_rejects_non_alignment_layer(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "scheme", "--alphas", "0.5,0.8,1.0",
        "--dump-exponents", str(tmp_path / "dims.csv"), "--layer", "2",
    )
    assert code == 1 and not out
    assert "alignment layers" in err and "Traceback" not in err


def test_simulate_rejects_infinite_channel_range(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--alphas", "1/2,4/5,1", "--p-grid", "1e6",
        "--trials", "10", "--h-max", "inf",
    )
    assert code == 1 and not out
    assert "h_max" in err and "Traceback" not in err


def test_scheme_rejects_overflowing_beams(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning fails the run
        code, out, err = run_cli(
            capsys, "scheme", "--alphas", "1/2,4/5,1", "--n", "3",
            "--h-min", "1e100", "--h-max", "1e200",
        )
    assert code == 1 and not out
    assert "channel coefficients h" in err and "Traceback" not in err


def test_bounds_family_size_cap(capsys):
    # K=2048 holds exactly 2^22 weights; one more user doubles the family
    alphas = ",".join(f"{i}/2049" for i in range(1, 2050))
    for argv in (("--k", "2049"), ("--k", "100000"), ("--alphas", alphas)):
        code, out, err = run_cli(capsys, "bounds", *argv)
        assert code == 3 and not out
        assert "exceeds cap 4194304" in err
