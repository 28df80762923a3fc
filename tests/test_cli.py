import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sips
from sips import compare_spectra, region_of
from sips.cli import MAX_COUNT, MAX_POINTS, main, parse_grid_spec, parse_params, parse_range_spec
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


def test_verify_grid_cannot_resolve_well(capsys):
    # the Sturm count passes, but h = 0.01 cannot see a well about 1e-9 wide
    code, out, err = run(capsys, "verify", "--model", "poschl_teller", "--params", "a=1e9")
    usage_error(code, out, err)
    assert "cannot resolve" in err


@pytest.mark.parametrize("command", ["verify", "wavefunction"])
@pytest.mark.parametrize("grid", ["0:inf:11", "-1e308:1e308:11", "-inf:0:11"])
def test_nonfinite_grid_rejected(capsys, command, grid):
    argv = [command, "--model", "scarf", "--params", "a=3,B=1", "--grid", grid]
    if command == "wavefunction":
        argv += ["--n", "0"]
    code, out, err = run(capsys, *argv)
    usage_error(code, out, err)
    assert "finite" in err


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


def test_reps_region_grid_matches_point_loop(capsys):
    # 1/8 steps hit m = ±1/2, j = -1/2 and the diamond edge j(j+1) = (|m|-1)|m|
    # (j = -3/4 or -1/4 at m = ±1/4) exactly in binary
    code, out, _ = run(capsys, "reps", "region-grid", "--j", "-4:1:0.125", "--m", "-4:4:0.125")
    assert code == 0
    lines = ["j,m,region"]
    for j in np.arange(-4.0, 1.0 + 0.0625, 0.125):
        for m in np.arange(-4.0, 4.0 + 0.0625, 0.125):
            lines.append(f"{j:.6g},{m:.6g},{region_of(float(j), float(m)).value}")
    assert out == "\n".join(lines) + "\n"
    for cell in ("-0.5,0.5,", "-0.5,-0.5,", "-0.75,0.25,", "-0.25,-0.25,"):
        assert any(line.startswith(cell) for line in lines)


def _cold(*code):
    # a fresh interpreter that imports sips from the same source tree
    env = dict(os.environ, PYTHONPATH=str(Path(sips.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *code], env=env, capture_output=True, text=True, timeout=120)


def test_scipy_loaded_only_by_verify():
    listed = _cold(
        "-c",
        "import sys, sips.cli; rc = sips.cli.main(['list']); "
        "print(rc, [m for m in sys.modules if m.split('.')[0] == 'scipy'])",
    )
    assert listed.stdout.splitlines()[-1] == "0 []"
    verified = _cold("-m", "sips.cli", "verify", "--model", "scarf", "--params", "a=3,B=1")
    assert verified.returncode == 0
    assert verified.stdout.splitlines()[-1] == "PASS"


def test_algebra_check_boundary_contamination_is_usage_error(capsys):
    # the gaussian test functions reach the edge of the morse box [-6, 20]
    code, out, err = run(
        capsys, "algebra", "check", "--model", "morse", "--m", "3", "--params", "B=1"
    )
    usage_error(code, out, err)
    assert "grid edge" in err


def test_spectrum_routes_agree_at_large_a(capsys):
    # a² - (a - n)² cancels to the wrong integer at a = 1e9; n·(2a - n) does not
    code, out, _ = run(
        capsys, "spectrum", "--model", "scarf", "--params", "a=1e9",
        "--levels", "3", "--route", "both",
    )
    assert code == 0
    assert "0  1999999999  3999999996" in out
    assert "DISAGREEMENT" not in out


def test_spectrum_huge_a_does_not_overflow(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--model", "scarf", "--params", "a=1e200", "--route", "both"
    )
    assert code == 0
    assert "0  2e+200  4e+200" in out


def test_wavefunction_huge_a_is_usage_error(capsys):
    # E_0 no longer overflows; V- = W² does, and the referee rejects it
    code, out, err = run(
        capsys, "wavefunction", "--model", "poschl_teller", "--params", "a=1e200", "--n", "0"
    )
    usage_error(code, out, err)
    assert err.startswith("error: potential is non-finite")


def test_verify_huge_a_is_one_line_usage_error(capsys):
    # numpy's overflow warnings do not reach stderr
    code, out, err = run(capsys, "verify", "--model", "scarf", "--params", "a=1e300,B=1")
    usage_error(code, out, err)
    assert "non-finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--model", "scarf", "--params", "a=1e9,B=1", "--levels", "1000000000"],
        ["verify", "--model", "oscillator", "--levels", str(MAX_COUNT + 1)],
        ["wavefunction", "--model", "oscillator", "--n", str(MAX_COUNT + 1)],
        ["reps", "enumerate", "--j", "-1.5", "--m0", "1.5", "--count", str(MAX_COUNT + 1)],
    ],
)
def test_counts_above_limit_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    usage_error(code, out, err)
    assert "exceeds the limit" in err


@pytest.fixture
def no_oversized_arrays(monkeypatch):
    # a rejected size must never be allocated, not even briefly
    linspace, arange = np.linspace, np.arange

    def checked_linspace(start, stop, num=50, **kwargs):
        assert num <= MAX_POINTS
        return linspace(start, stop, num, **kwargs)

    def checked_arange(start, stop, step, **kwargs):
        assert (stop - start) / step <= MAX_POINTS
        return arange(start, stop, step, **kwargs)

    monkeypatch.setattr(np, "linspace", checked_linspace)
    monkeypatch.setattr(np, "arange", checked_arange)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--model", "scarf", "--params", "a=3,B=1", "--grid", f"-20:20:{MAX_POINTS + 1}"],
        ["wavefunction", "--model", "oscillator", "--n", "0", "--grid", "-20:20:2000000000"],
        ["algebra", "check", "--model", "scarf", "--m", "2", "--grid", "-20:20:2000000000"],
        ["reps", "region-grid", "--j", "0:1:1e-300", "--m", "0:1:1"],
        ["reps", "region-grid", "--j", "-1e300:1e300:1", "--m", "0:1:1"],
        ["reps", "region-grid", "--j", "0:1000:1", "--m", "0:1000:1"],
    ],
)
def test_sizes_above_point_limit_rejected(capsys, no_oversized_arrays, argv):
    code, out, err = run(capsys, *argv)
    usage_error(code, out, err)
    assert "limit" in err


def test_sizes_at_point_limit_accepted():
    assert parse_grid_spec(f"-20:20:{MAX_POINTS}").n_points == MAX_POINTS
    assert parse_range_spec(f"0:{MAX_POINTS - 1}:1").size == MAX_POINTS


def test_reps_enumerate_vanishing_steps(capsys):
    code, out, err = run(
        capsys, "reps", "enumerate", "--j", "-1e300", "--m0", "1e300", "--count", "10000"
    )
    usage_error(code, out, err)
    assert "ladder steps" in err


def test_count_at_limit_accepted(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--model", "scarf", "--params", "a=3,B=1", "--levels", str(MAX_COUNT)
    )
    assert code == 0
    assert "0  5  8" in out


# Strategies over the CLI grammar. Accepted grids and rasters stay small (at
# most 4001 points or cells); every larger draw is above MAX_POINTS.
_MODEL_IDS = st.sampled_from(["scarf", "poschl_teller", "morse", "oscillator", "rosen_morse"])
_REALS = st.sampled_from(
    ["nan", "inf", "-inf", "1e300", "-1e300", "0", "-2", "-0.5"]
) | st.floats(0.1, 12.0).map(repr)
_COUNTS = st.sampled_from(
    [-2, 0, 1, 2, MAX_COUNT, MAX_COUNT + 1, 2_000_000_000]
) | st.integers(-2, 40)
_GRIDS = st.builds(
    "{}:{}:{}".format,
    st.sampled_from([-20, -6, 0, 5, "nan", "-inf", "-1e308"]),
    st.sampled_from([-5, 0, 20, "inf", "1e308"]),
    st.integers(-1, 4001) | st.sampled_from([MAX_POINTS + 1, 2_000_000_000]),
) | st.sampled_from(["", "-20:20", "a:b:c", "-20:20:4001.5", "1:2:3:4"])
# At most 33 values per axis unless the range is rejected.
_RANGES = st.builds(
    "{}:{}:{}".format,
    st.sampled_from([-4, 0, "-1e300", "nan", "-inf"]),
    st.sampled_from([0, 4, "1e300", "inf"]),
    st.sampled_from([0.25, 1, "1e-300", "1e300", 0, -1, "nan", "inf"]),
) | st.sampled_from(["", "0:1", "a:b:c"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ["list", "spectrum", "verify", "wavefunction", "algebra", "classify", "enumerate",
         "region-grid"]
    ))
    if command == "list":
        return ["list"]
    if command == "region-grid":
        return ["reps", "region-grid", "--j", draw(_RANGES), "--m", draw(_RANGES)]
    if command in ("classify", "enumerate"):
        argv = ["reps", command, "--j", draw(_REALS), "--m0", draw(_REALS)]
        if command == "enumerate":
            argv += ["--count", str(draw(_COUNTS))]
        return argv
    argv = ["algebra", "check"] if command == "algebra" else [command]
    params = f"a={draw(_REALS)},B={draw(_REALS)}"
    argv += ["--model", draw(_MODEL_IDS), "--params",
             draw(st.sampled_from([params, params.partition(",")[0], "B=1"]))]
    if command != "spectrum" and draw(st.booleans()):
        argv += ["--grid", draw(_GRIDS)]
    if command in ("spectrum", "verify"):
        argv += ["--levels", str(draw(_COUNTS))]
    if command == "spectrum":
        argv += ["--route", draw(st.sampled_from(["shape", "algebra", "both"]))]
    if command in ("spectrum", "algebra"):
        argv += ["--m", draw(_REALS)]
    if command == "wavefunction":
        argv += ["--n", str(draw(_COUNTS))]
    return argv


@given(argv=_argv())
@settings(max_examples=100, deadline=None)
def test_cli_total_over_argv_grammar(argv):
    # every input ends in exit 0, 1 or 2: no other exception escapes main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
            assert code == 2
    assert code in (0, 1, 2)


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
