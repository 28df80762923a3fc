import json

import numpy as np
import pytest

from sips import compare_spectra
from sips.cli import main, parse_grid_spec, parse_params, parse_range_spec
from sips.export import read_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_grid_spec():
    grid = parse_grid_spec("-20:20:4001")
    assert (grid.x_min, grid.x_max, grid.n_points) == (-20.0, 20.0, 4001)
    with pytest.raises(ValueError):
        parse_grid_spec("-20:20")


def test_parse_range_spec():
    values = parse_range_spec("-1:1:0.5")
    assert np.allclose(values, [-1.0, -0.5, 0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        parse_range_spec("5:1:0.5")


def test_parse_params_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown parameter"):
        parse_params("scarf", "a=3,Q=1")
    with pytest.raises(ValueError, match="requires a="):
        parse_params("scarf", "B=1")
    p = parse_params("oscillator", None)
    assert p.a == 1.0


def test_list_text(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    for name in ("scarf", "poschl_teller", "morse", "oscillator"):
        assert name in out


def test_list_json(capsys):
    code, out, _ = run(capsys, "list", "--format", "json")
    assert code == 0
    entries = json.loads(out)
    assert {e["id"] for e in entries} == {"scarf", "poschl_teller", "morse", "oscillator"}


def test_list_bad_format_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["list", "--format", "xml"])
    assert excinfo.value.code == 2


def test_spectrum_text(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--model", "scarf", "--params", "a=3,B=1", "--levels", "3"
    )
    assert code == 0
    assert "0  5  8" in out


def test_spectrum_both_routes(capsys):
    code, out, _ = run(
        capsys,
        "spectrum", "--model", "scarf", "--params", "a=3,B=1",
        "--levels", "3", "--route", "both", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["shape_invariance"]["energies"] == [0.0, 5.0, 8.0]
    assert payload["algebra"]["energies"] == [0.0, 5.0, 8.0]
    assert payload["max_discrepancy"] <= 1e-12


def test_spectrum_algebra_route_without_params(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--model", "scarf", "--route", "algebra", "--m", "3.5"
    )
    assert code == 0
    assert "0  5  8" in out


def test_spectrum_algebra_route_rejects_oscillator(capsys):
    code, _, err = run(capsys, "spectrum", "--model", "oscillator", "--route", "algebra")
    assert code == 2
    assert "not -1" in err


def test_spectrum_unknown_model(capsys):
    code, _, err = run(capsys, "spectrum", "--model", "rosen_morse", "--params", "a=3")
    assert code == 2
    assert "unknown model" in err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--model", "scarf", "--params", "a=3,B=1")
    assert code == 0
    assert "PASS" in out


def test_verify_morse_default_box(capsys):
    code, out, _ = run(capsys, "verify", "--model", "morse", "--params", "a=3,B=1")
    assert code == 0
    assert "PASS" in out


def test_verify_hits_discretization_floor(capsys):
    code, out, _ = run(
        capsys, "verify", "--model", "scarf", "--params", "a=3,B=1", "--tol", "1e-9"
    )
    assert code == 1
    assert "FAIL" in out


def usage_error(code, out, err):
    # exit 2 with a single "error:" line and nothing on stdout
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_grid_too_coarse(capsys):
    # 7 points hold fewer than 3 levels below the continuum edge a² = 9
    code, out, err = run(
        capsys, "verify", "--model", "scarf", "--params", "a=3,B=1", "--grid", "-20:20:7"
    )
    usage_error(code, out, err)
    assert "continuum edge" in err


@pytest.mark.parametrize("model,params", [("scarf", "a=1,B=1"), ("poschl_teller", "a=0.7")])
def test_verify_single_bound_state(capsys, model, params):
    code, out, _ = run(
        capsys, "verify", "--model", model, "--params", params, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    assert payload["shape_invariance"]["residuals"] == []
    assert abs(payload["spectrum"]["numeric"][0]) < 1e-5


@pytest.mark.parametrize("params", ["a=inf", "a=3,B=nan"])
def test_nonfinite_params_rejected(capsys, params):
    code, out, err = run(capsys, "spectrum", "--model", "scarf", "--params", params)
    usage_error(code, out, err)
    assert "finite" in err


def test_verify_json_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "verify", "--model", "scarf", "--params", "a=3,B=1",
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    payload = read_json(str(out_path))
    assert payload["passed"] is True
    # re-running the comparison from the serialized energies reproduces the verdict
    report = compare_spectra(
        payload["spectrum"]["analytic"], payload["spectrum"]["numeric"], payload["tol"]
    )
    assert report.passed is payload["spectrum"]["passed"]
    assert not list(tmp_path.glob("*.tmp"))


def test_wavefunction_csv(tmp_path, capsys):
    out_path = tmp_path / "psi1.csv"
    code, _, _ = run(
        capsys,
        "wavefunction", "--model", "scarf", "--params", "a=3,B=1",
        "--n", "1", "--out", str(out_path),
    )
    assert code == 0
    text = out_path.read_text()
    header, _, body = text.partition("x,psi")
    assert "# node_count: 1" in header
    residual = float(next(l for l in header.splitlines() if "oracle_residual" in l).split(":")[1])
    assert residual < 1e-3
    rows = [line.split(",") for line in body.strip().splitlines()]
    assert len(rows) == 4001


def test_wavefunction_ground_state_is_positive(capsys):
    code, out, _ = run(
        capsys,
        "wavefunction", "--model", "scarf", "--params", "a=3,B=1",
        "--n", "0", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["node_count"] == 0
    assert min(payload["values"]) >= 0.0
    assert payload["energy"] == 0.0


def test_wavefunction_out_of_range(capsys):
    code, _, err = run(
        capsys, "wavefunction", "--model", "scarf", "--params", "a=3,B=1", "--n", "5"
    )
    assert code == 2
    assert "outside bound range" in err


def test_algebra_check(capsys):
    code, out, _ = run(
        capsys,
        "algebra", "check", "--model", "scarf", "--m", "2",
        "--params", "B=1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    for check in payload["checks"]:
        assert check["residuals"]["closure"] < 1e-4
        assert check["residuals"]["j3_commutator_plus"] < 1e-12


def test_reps_classify(capsys):
    code, out, _ = run(capsys, "reps", "classify", "--j", "-1.5", "--m0", "1.5")
    assert code == 0
    assert out.strip() == "D_plus"


def test_reps_classify_json(capsys):
    code, out, _ = run(
        capsys, "reps", "classify", "--j", "-0.5", "--m0", "0", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "D_s"
    assert payload["casimir"] == pytest.approx(-0.25)


def test_reps_enumerate(capsys):
    code, out, _ = run(
        capsys, "reps", "enumerate", "--j", "-1.5", "--m0", "1.5", "--count", "3"
    )
    assert code == 0
    assert "1.5 2.5 3.5" in out


def test_reps_enumerate_invalid(capsys):
    code, _, err = run(capsys, "reps", "enumerate", "--j", "-1.5", "--m0", "0")
    assert code == 2
    assert "does not label" in err


@pytest.mark.parametrize("command", ["classify", "enumerate"])
@pytest.mark.parametrize("j,m0", [("nan", "1"), ("-1.5", "inf"), ("-inf", "0")])
def test_reps_nonfinite_labels_rejected(capsys, command, j, m0):
    code, out, err = run(capsys, "reps", command, "--j", j, "--m0", m0)
    usage_error(code, out, err)
    assert "finite" in err


def test_reps_region_grid(tmp_path, capsys):
    out_path = tmp_path / "raster.csv"
    code, _, _ = run(
        capsys,
        "reps", "region-grid", "--j", "-4:1:0.25", "--m", "-4:4:0.25",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "j,m,region"
    assert len(lines) == 1 + 21 * 33
    regions = {line.split(",")[2] for line in lines[1:]}
    assert regions == {
        "bounded_below_region",
        "bounded_above_region",
        "square_region",
        "forbidden",
    }


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("model = scarf\nparams = a=3,B=1\nlevels = 2\n")
    code, out, _ = run(capsys, "spectrum", "--config", str(config))
    assert code == 0
    assert "0  5" in out and "8" not in out
    # explicit flag beats the config value
    code, out, _ = run(capsys, "spectrum", "--config", str(config), "--levels", "3")
    assert code == 0
    assert "0  5  8" in out


def test_env_var_grid_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SIPS_DEFAULT_GRID", "-10:10:801")
    out_path = tmp_path / "psi.csv"
    code, _, _ = run(
        capsys,
        "wavefunction", "--model", "scarf", "--params", "a=3,B=1",
        "--n", "0", "--out", str(out_path),
    )
    assert code == 0
    body = out_path.read_text().partition("x,psi")[2]
    assert len(body.strip().splitlines()) == 801


def test_export_json_roundtrip(tmp_path):
    from sips import Grid, ParameterPoint, excited_state_by_ladder
    from sips.export import wavefunction_record, write_json

    grid = Grid(-15.0, 15.0, 801)
    psi = excited_state_by_ladder("scarf", ParameterPoint(3.0, {"B": 1.0}), 1, grid)
    record = wavefunction_record("scarf", {"a": 3.0, "B": 1.0}, 1, 5.0, psi)
    path = tmp_path / "psi.json"
    write_json(str(path), record)
    loaded = read_json(str(path))
    assert loaded["energy"] == 5.0
    assert loaded["grid"]["n_points"] == 801
    assert np.allclose(loaded["values"], psi.values)


def test_spectrum_deterministic_output(capsys):
    args = ("spectrum", "--model", "scarf", "--params", "a=3,B=1", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
