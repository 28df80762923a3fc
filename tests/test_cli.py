import argparse
import contextlib
import errno
import io
import json
import os
import shutil
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermval

import sips
from sips import (
    closed_form_energy,
    compare_spectra,
    discretize_hamiltonian,
    excited_state_by_ladder,
    node_count,
    potential_minus,
    region_of,
    residual_norm,
)
from sips import cli
from sips.cli import (
    MAX_COUNT,
    MAX_LEVEL_POINTS,
    MAX_POINTS,
    main,
    parse_grid_spec,
    parse_params,
    parse_range_spec,
)
from sips.export import CHUNK, atomic_write_text, json_chunks, wavefunction_record


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


def test_parse_params_reads_the_catalog_default_a():
    # the oscillator's entry says its a may be left out, whatever its id
    harmonic = sips.MODELS["oscillator"]._replace(id="harmonic")
    assert parse_params(harmonic, None) == sips.ParameterPoint(1.0)
    with pytest.raises(ValueError, match="model scarf_copy requires a="):
        parse_params(sips.MODELS["scarf"]._replace(id="scarf_copy"), "B=1")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["spectrum", "--model", "scarf", "--params", "a=x,B=1"],
         "parameter 'a' in --params: 'x' is not a number"),
        (["spectrum", "--model", "scarf", "--params", "a=3,B="],
         "parameter 'B' in --params: '' is not a number"),
        (["verify", "--model", "scarf", "--params", "a=3,B=1", "--grid", "-20:20:4001.5"],
         "--grid '-20:20:4001.5': '4001.5' is not an integer"),
        (["verify", "--model", "scarf", "--params", "a=3,B=1", "--grid", "-20:b:11"],
         "--grid '-20:b:11': 'b' is not a number"),
        (["reps", "region-grid", "--j", "0:1:x", "--m", "0:1:1"], "--j range '0:1:x': 'x' is not a number"),
        (["reps", "region-grid", "--j", "0:1:1", "--m", "a:b:c"], "--m range 'a:b:c': 'a' is not a number"),
    ],
)
def test_value_that_is_no_number_names_its_option(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


_VERIFY = ["verify", "--model", "scarf", "--params", "a=3,B=1"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["reps", "region-grid", "--j", "0:1", "--m", "0:1:1"], "--j range '0:1' must be min:max:step"),
        (["reps", "region-grid", "--j", "0:1:1", "--m", "1:0:1"],
         "--m range '1:0:1': need min <= max and a finite step > 0"),
        (["reps", "region-grid", "--j", "0:inf:1", "--m", "0:1:1"],
         "--j range '0:inf:1': min and max must be finite numbers"),
        (["reps", "region-grid", "--j", "0:1:1", "--m", "0:2000000:1"],
         f"--m range '0:2000000:1' exceeds the limit of {MAX_POINTS} points"),
        ([*_VERIFY, "--grid", "-20:20"], "--grid '-20:20' must be min:max:n"),
        ([*_VERIFY, "--grid", "-20:20:2"], "--grid '-20:20:2': need at least 3 points, got 2"),
        ([*_VERIFY, "--grid", "5:1:11"],
         "--grid '5:1:11': need finite x_min < x_max and finite h² and 1/h², got [5.0, 1.0], h=-0.4"),
    ],
)
def test_malformed_grid_or_range_names_its_option(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_cli_leaves_the_rules_to_their_modules():
    # cli.py parses, limits, defaults and formats: it compares no catalog
    # model id (a family's rule lives in its entry) and reads no private name
    # of another sips module (each rule has one public home)
    import ast

    tree = ast.parse(Path(cli.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
    modules = {alias.asname or alias.name for node in imports if node.module is None for alias in node.names}
    private = [alias.name for node in imports for alias in node.names if alias.name.startswith("_")]
    private += [
        f"line {node.lineno}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    model_ids = [
        f"line {node.lineno}" for node in ast.walk(tree) if isinstance(node, (ast.Compare, ast.match_case))
        and any(isinstance(leaf, ast.Constant) and leaf.value in sips.MODELS for leaf in ast.walk(node))
    ]
    assert "catalog" in modules and "susy" in modules
    assert (private, model_ids) == ([], [])


@pytest.mark.parametrize("params,key", [("a=3,a=4", "a"), ("a=3,B=1,B=2", "B")])
def test_repeated_param_key_is_usage_error(capsys, params, key):
    code, out, err = run(capsys, "spectrum", "--model", "scarf", "--params", params)
    usage_error(code, out, err)
    assert err == f"error: parameter {key!r} given more than once in --params\n"


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
    # the algebra route reads a from --params, as the shape route does, and
    # runs in the member's sector m = a + 1/2
    code, out, err = run(capsys, "spectrum", "--model", "scarf", "--route", "algebra")
    usage_error(code, out, err)
    assert err == "error: model scarf requires a=... in --params\n"
    code, out, _ = run(capsys, "spectrum", "--model", "scarf", "--route", "algebra", "--params", "a=3")
    assert code == 0
    assert out == "algebra (m=3.5): 0  5  8\n"


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


def test_verify_steep_wall_passes(capsys):
    # on [-20, 20] the morse wall reaches V ≈ 2.4e17: the referee and the
    # identity check must both see past that wall's rounding
    code, out, _ = run(
        capsys, "verify", "--model", "morse", "--params", "a=3,B=1",
        "--grid", "-20:20:4001", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["shape_invariance"]["max_residual"] > 1.0  # rounding, kept raw
    assert payload["shape_invariance"]["excess"] == [0.0, 0.0]
    assert payload["spectrum"]["max_abs_diff"] < 1e-3


@pytest.mark.parametrize("grid", ["-6:20:4001", "-20:20:4001"])
def test_verify_shifted_remainder_fails(capsys, monkeypatch, grid):
    # a remainder off by 2·tol breaks the identity in the well, where the
    # rounding floor is tiny, whatever the wall does at the box edge
    from sips import catalog

    morse = catalog.MODELS["morse"]
    shifted = morse._replace(remainder=lambda p: morse.remainder(p) + 2e-3)
    monkeypatch.setitem(catalog.MODELS, "morse", shifted)
    code, out, _ = run(
        capsys, "verify", "--model", "morse", "--params", "a=3,B=1", "--grid", grid,
        "--format", "json",
    )
    assert code == 1
    report = json.loads(out)["shape_invariance"]
    assert min(report["excess"]) == pytest.approx(2e-3, rel=1e-6)
    assert report["max_excess"] >= 1e-3


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


@pytest.mark.parametrize(
    "argv,message",
    [
        # 7 points hold fewer than 3 levels below the continuum edge a² = 9
        (["--model", "scarf", "--params", "a=3,B=1", "--grid", "-20:20:7"],
         "7-point grid on [-20, 20] holds 1 of 3 levels below the continuum edge 9"),
        # top levels 7e-4 and 4e-3 below the edge, which the box pushes above it
        (["--model", "scarf", "--params", "a=3.026,B=0.32"],
         "4001-point grid on [-20, 20] holds 3 of 4 levels below the continuum edge 9.15668"),
        (["--model", "morse", "--params", "a=1.0634,B=0.0127", "--levels", "2"],
         "4001-point grid on [-6, 20] holds 1 of 2 levels below the continuum edge 1.13082"),
    ],
    ids=["scarf-7-points", "scarf-level-at-edge", "morse-level-at-edge"],
)
def test_verify_grid_too_coarse(capsys, argv, message):
    # the Sturm count gives each message its level count
    code, out, err = run(capsys, "verify", *argv)
    usage_error(code, out, err)
    assert err == f"error: {message}\n"


def test_verify_oscillator_grid_too_coarse(capsys):
    code, out, err = run(
        capsys, "verify", "--model", "oscillator", "--grid", "-5:5:9", "--levels", "20"
    )
    usage_error(code, out, err)
    assert err == "error: 9-point grid on [-5, 5] has 7 interior points, too few for 20 levels\n"


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


@pytest.mark.parametrize("command", ["verify", "wavefunction", "region-grid"])
@pytest.mark.parametrize("grid", ["0:inf:11", "-1e308:1e308:11", "-inf:0:11", "5:1e308:64"])
def test_nonfinite_grid_rejected(capsys, command, grid):
    argv = [command, "--model", "scarf", "--params", "a=3,B=1", "--grid", grid]
    if command == "wavefunction":
        argv += ["--n", "0"]
    if command == "region-grid":
        argv = ["reps", "region-grid", "--j", grid, "--m", "0:1:0.5"]
    code, out, err = run(capsys, *argv)
    usage_error(code, out, err)
    if command == "region-grid" and "inf" not in grid:
        # finite bounds, but more points than the limit
        assert "exceeds the limit" in err
    else:
        assert "finite" in err


@pytest.mark.parametrize(
    "j,m,bad",
    [("1e20:1e20:1", "0:1:1", "1e20:1e20:1"),
     ("-0.5:-0.5:1", "4503599627370496:4503599627370496:1", "4503599627370496:4503599627370496:1"),
     ("1e300:1e300:0.7", "1e154:1e154:0.3", "1e300:1e300:0.7")],
)
def test_range_without_a_point_rejected(capsys, j, m, bad):
    # max + step/2 rounds back to min, so arange(min, max + step/2, step)
    # holds no point: the first such range is named, with its option, as
    # other bad ranges are
    code, out, err = run(capsys, "reps", "region-grid", "--j", j, "--m", m)
    usage_error(code, out, err)
    flag = "--j" if bad == j else "--m"
    assert err == f"error: {flag} range '{bad}': the step vanishes against min and max, leaving no point\n"


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
    payload = json.loads(out_path.read_text())
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


@pytest.mark.parametrize(
    "model,params,n",
    [("oscillator", None, 9), ("oscillator", None, 12), ("oscillator", None, 31),
     ("morse", "a=20.5,B=1", 20), ("scarf", "a=12.5,B=3", 12)],
)
def test_wavefunction_high_level_at_default_grid(capsys, model, params, n):
    # high n at the default h: where a chain that differentiates on the grid
    # turns its roundoff into hundreds of spurious nodes
    argv = ["wavefunction", "--model", model, "--n", str(n), "--format", "json"]
    code, out, err = run(capsys, *argv, *(["--params", params] if params else []))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["node_count"] == n
    if model == "oscillator":
        grid = payload["grid"]
        x = np.linspace(grid["x_min"], grid["x_max"], grid["n_points"])
        values = np.array(payload["values"])
        exact = hermval(x, [0] * n + [1]) * np.exp(-(x**2) / 2)
        exact /= np.sqrt(np.trapezoid(exact**2, x))
        exact *= np.sign(exact @ values)
        assert np.max(np.abs(values - exact)) < 1e-10


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


def _reference_wavefunction(model, params, n, grid_spec, fmt):
    # the file as the per-row CSV loop and json.dumps(record, indent=2) wrote it
    p = parse_params(model, params)
    grid = parse_grid_spec(grid_spec)
    energy = closed_form_energy(model, p, n)
    psi = excited_state_by_ladder(model, p, n, grid)
    T = discretize_hamiltonian(lambda x: potential_minus(model, x, p), grid)
    residual = residual_norm(T, psi, energy)
    nodes = node_count(psi)
    if fmt == "json":
        record = wavefunction_record(
            model, p.as_dict(), n, energy, psi, node_count=nodes, oracle_residual=residual
        )
        return json.dumps(record, indent=2) + "\n"
    metadata = {"model": model, "params": p.as_dict(), "n": n, "energy": energy,
                "node_count": nodes, "oracle_residual": residual}
    lines = [f"# {key}: {value}" for key, value in metadata.items()]
    lines.append("x,psi")
    for xi, vi in zip(grid.x, psi.values):
        lines.append(f"{xi:.12g},{vi:.12g}")
    return "\n".join(lines) + "\n"


def _wavefunction_bytes(tmp_path, capsys, fmt, *argv):
    # stdout and --out bytes of one wavefunction command; both must agree
    argv = ["wavefunction", *argv, "--format", fmt]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    path = tmp_path / f"psi.{fmt}"
    code, stdout, err = run(capsys, *argv, "--out", str(path))
    assert (code, stdout, err) == (0, "", "")
    assert path.read_text() == out
    return out


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("points", [3, CHUNK - 1, CHUNK, CHUNK + 1, 64001])
def test_wavefunction_bytes_match_row_loop(tmp_path, capsys, fmt, points):
    n = 2
    spec = f"-20:20:{points}"
    out = _wavefunction_bytes(
        tmp_path, capsys, fmt, "--model", "scarf", "--params", "a=3,B=1", "--n", str(n), "--grid", spec
    )
    assert out == _reference_wavefunction("scarf", "a=3,B=1", n, spec, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_wavefunction_bytes_with_subnormals(tmp_path, capsys, fmt):
    # the oscillator ground state on [-40, 40] falls through the subnormal range to 0
    spec = "-40:40:4001"
    values = excited_state_by_ladder("oscillator", parse_params("oscillator", None), 0,
                                     parse_grid_spec(spec)).values
    assert np.any((values != 0) & (np.abs(values) < np.finfo(float).tiny))
    out = _wavefunction_bytes(tmp_path, capsys, fmt, "--model", "oscillator", "--n", "0", "--grid", spec)
    assert out == _reference_wavefunction("oscillator", None, 0, spec, fmt)


@pytest.mark.parametrize(
    "payload",
    [
        {"values": [1.5, -0.0, 5e-324, 1e300, float("nan"), float("inf"), -float("inf")], "n": 1},
        {"values": [1.0] * (CHUNK + 1), "grid": {"values": [2.0]}},
        {"values": [1, 2.5, True, None]},
        {"values": []},
        {"values": [np.float64(0.1)]},
        {"model": "scarf", "values": "text"},
        {"params": {"a": 3.0}},
    ],
)
def test_json_chunks_match_indent2_encoder(payload):
    assert "".join(json_chunks(payload)) == json.dumps(payload, indent=2) + "\n"


def test_atomic_write_keeps_target_when_chunks_fail(tmp_path):
    target = tmp_path / "psi.csv"
    target.write_text("before\n")

    def chunks():
        yield "x,psi\n"
        yield "0,1\n" * CHUNK
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        atomic_write_text(str(target), chunks())
    assert target.read_text() == "before\n"
    assert list(tmp_path.iterdir()) == [target]


def test_out_to_fifo_writes_into_it(tmp_path, capsys):
    _, expected, _ = run(capsys, "list")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    code, out, err = run(capsys, "list", "--out", str(fifo))
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert (code, out, err) == (0, "", "")
    assert received == [expected]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_new_out_file_gets_umask_mode(tmp_path, capsys):
    target = tmp_path / "new.json"
    mask = os.umask(0o027)
    try:
        code, _, _ = run(capsys, "list", "--format", "json", "--out", str(target))
    finally:
        os.umask(mask)
    assert code == 0
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o640


def test_replaced_out_file_keeps_its_mode(tmp_path, capsys):
    target = tmp_path / "report.txt"
    target.write_text("before\n")
    target.chmod(0o664)
    code, _, _ = run(capsys, "list", "--out", str(target))
    assert code == 0
    assert target.read_text() != "before\n"
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o664


def test_out_through_symlink_writes_its_target(tmp_path, capsys):
    real = tmp_path / "real.txt"
    real.write_text("before\n")
    real.chmod(0o640)
    link = tmp_path / "link"
    link.symlink_to("real.txt")
    code, out, err = run(capsys, "reps", "classify", "--j", "-1.5", "--m0", "1.5", "--out", str(link))
    assert (code, out, err) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == "real.txt"
    assert real.read_text() == link.read_text() != "before\n"
    assert stat.S_IMODE(os.stat(real).st_mode) == 0o640
    assert sorted(tmp_path.iterdir()) == [link, real]


def test_out_through_dangling_symlink_creates_its_target(tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    link = tmp_path / "link"
    link.symlink_to("sub/new.txt")
    code, _, _ = run(capsys, "reps", "classify", "--j", "-1.5", "--m0", "1.5", "--out", str(link))
    assert code == 0
    assert link.is_symlink()
    assert (tmp_path / "sub" / "new.txt").read_text() == link.read_text() != ""
    assert list((tmp_path / "sub").iterdir()) == [tmp_path / "sub" / "new.txt"]


@pytest.mark.parametrize(
    "argv",
    [
        ["wavefunction", "--model", "scarf", "--params", "a=3,B=1", "--n", "1"],
        ["list"],
        ["reps", "region-grid", "--j", "-4:1:0.25", "--m", "-4:4:0.25"],
    ],
)
@pytest.mark.parametrize(
    "target,reason",
    [("missing/out.csv", "No such file or directory"), ("", "Is a directory"), (".", "Is a directory")],
)
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv, target, reason):
    path = os.path.join(tmp_path, target)  # "" gives the directory with a trailing slash
    code, out, err = run(capsys, *argv, "--out", path)
    usage_error(code, out, err)
    assert err == f"error: cannot write {path}: {reason}\n"
    assert not list(tmp_path.parent.rglob("*.tmp"))
    assert not list(tmp_path.iterdir())


# a fresh interpreter imports sips from the same source tree
_COLD_ENV = dict(os.environ, PYTHONPATH=str(Path(sips.__file__).resolve().parents[1]))


def _cold(*code):
    return subprocess.run([sys.executable, *code], env=_COLD_ENV, capture_output=True, text=True, timeout=120)


def test_scipy_loaded_only_by_verify():
    listed = _cold(
        "-c",
        "import sys, sips.cli; rc = sips.cli.main(['list']); "
        "print(rc, [m for m in sys.modules if m.split('.')[0] == 'scipy'])",
    )
    assert listed.stdout.splitlines()[-1] == "0 []"
    # the referee loads scipy's LAPACK extension alone: scipy.linalg would
    # bring scipy's array-API layer, which clones the numpy namespace
    verified = _cold(
        "-c",
        "import sys, sips.cli; rc = sips.cli.main(['verify', '--model', 'scarf', '--params', 'a=3,B=1']); "
        "print(rc, [m for m in ('scipy.linalg._flapack', 'scipy.linalg', 'scipy._lib._array_api') "
        "if m in sys.modules])",
    )
    assert verified.returncode == 0
    # the extension stays out of sys.modules until scipy.linalg imports it
    assert verified.stdout.splitlines()[-2:] == ["PASS", "0 []"]


def test_scipy_linalg_usable_after_verify():
    # a later import sets the extension on its package and shares its functions
    proc = _cold(
        "-c",
        "import numpy as np, sips.cli, sips.oracle; "
        "sips.cli.main(['verify', '--model', 'scarf', '--params', 'a=3,B=1']); "
        "import scipy.linalg._flapack; "
        "from scipy.linalg import eigh_tridiagonal; "
        "w, v = eigh_tridiagonal(np.full(3, 2.0), np.full(2, -1.0)); "
        "print(scipy.linalg._flapack.dstebz is sips.oracle._lapack().dstebz, *w, *np.abs(v[:, 1]))",
    )
    assert proc.returncode == 0, proc.stderr
    same, *numbers = proc.stdout.splitlines()[-1].split()
    assert same == "True"
    root2 = np.sqrt(2.0)
    assert np.allclose([float(x) for x in numbers], [2.0 - root2, 2.0, 2.0 + root2, 1 / root2, 0.0, 1 / root2])


def test_import_sips_loads_no_numpy():
    loaded = _cold("-c", "import sys, sips; print([m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')])")
    assert loaded.stdout == "[]\n"


def _cold_imports(argv):
    # -X importtime names every module the process imports, one per stderr line
    proc = _cold("-X", "importtime", "-m", "sips.cli", *argv)
    assert proc.returncode == 0
    return [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]


# the library module each scalar command runs on, imported when it runs
_SCALAR_MODULE = {"reps": "sips.unireps", "list": "sips.catalog", "spectrum": "sips.algebra"}


@pytest.mark.parametrize(
    "argv",
    [
        ["reps", "classify", "--j", "-1.5", "--m0", "1.5"],
        ["reps", "classify", "--j", "1.0", "--m0", "0.25", "--format", "json"],
        ["reps", "enumerate", "--j", "-1.5", "--m0", "1.5", "--count", "5"],
        ["reps", "enumerate", "--j", "-0.625", "--m0", "0.125", "--format", "json"],
        ["list"],
        ["list", "--format", "json"],
        ["list", "--out", "OUT"],
        ["spectrum", "--model", "scarf", "--params", "a=3,B=1"],
        ["spectrum", "--model", "oscillator", "--levels", "5", "--format", "json"],
        ["spectrum", "--model", "poschl_teller", "--route", "algebra", "--params", "a=4"],
        ["spectrum", "--model", "morse", "--params", "a=3,B=1", "--route", "algebra", "--format", "json"],
        ["spectrum", "--model", "scarf", "--params", "a=5514385.8263,B=1", "--levels", "10", "--route", "both"],
        ["spectrum", "--model", "scarf", "--params", "a=3,B=1", "--route", "both", "--format", "json",
         "--out", "OUT"],
        ["reps", "region-grid", "--j", "-2:3:0.125", "--m", "-2.5:2.5:0.125"],
        ["reps", "region-grid", "--j", "-4:1:0.25", "--m", "-4:4:0.25", "--out", "OUT"],
    ],
)
def test_scalar_reps_commands_load_no_numpy(tmp_path, argv):
    out = tmp_path / "report.txt"
    argv = [str(out) if arg == "OUT" else arg for arg in argv]
    imported = _cold_imports(argv)
    assert _SCALAR_MODULE[argv[0]] in imported
    assert not [m for m in imported if m.split(".")[0] in ("numpy", "scipy", "dataclasses")]
    if "--out" in argv:
        assert out.read_text() == _cold("-m", "sips.cli", *argv[:-2]).stdout


# the numeric commands of the benchmark's cold mix, one of each kind
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--model", "scarf", "--params", "a=3,B=1"],
        ["wavefunction", "--model", "morse", "--params", "a=3,B=1", "--n", "2", "--out", "OUT"],
        ["wavefunction", "--model", "poschl_teller", "--params", "a=4", "--n", "1", "--format", "json"],
        ["algebra", "check", "--model", "scarf", "--m", "3.5", "--params", "B=1", "--format", "json"],
    ],
)
def test_numeric_commands_load_no_dataclasses(tmp_path, argv):
    imported = _cold_imports([str(tmp_path / "psi.csv") if arg == "OUT" else arg for arg in argv])
    assert "numpy" in imported
    assert "dataclasses" not in imported


@pytest.mark.parametrize(
    "argv,writes_json",
    [
        (["list"], False),
        (["reps", "classify", "--j", "-1.5", "--m0", "1.5"], False),
        (["reps", "region-grid", "--j", "-2:3:0.125", "--m", "-2.5:2.5:0.125"], False),
        (["wavefunction", "--model", "morse", "--params", "a=3,B=1", "--n", "2", "--out", "OUT"], False),
        (["list", "--format", "json"], True),
    ],
)
def test_json_loaded_only_by_json_output(tmp_path, argv, writes_json):
    imported = _cold_imports([str(tmp_path / "psi.csv") if arg == "OUT" else arg for arg in argv])
    assert ("json" in imported) is writes_json


def test_numeric_commands_after_numpy_free_command(capsys):
    # one process: `spectrum` loads the catalog, susy and algebra modules
    # without numpy, `reps region-grid` loads none either, the first numpy
    # import happens inside `verify`, and verify and wavefunction run on the
    # modules spectrum loaded
    classify = ["reps", "classify", "--j", "-1.5", "--m0", "1.5"]
    spectrum = ["spectrum", "--model", "scarf", "--params", "a=3,B=1", "--route", "both"]
    raster = ["reps", "region-grid", "--j", "-4:1:0.25", "--m", "-4:4:0.25"]
    verify = ["verify", "--model", "scarf", "--params", "a=3,B=1"]
    wavefunction = ["wavefunction", "--model", "scarf", "--params", "a=3,B=1", "--n", "2", "--format", "json"]
    script = (
        "import contextlib, io, json, sys, sips.cli\n"
        "results = []\n"
        f"for argv in {[classify, spectrum, raster, verify, wavefunction]!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        rc = sips.cli.main(argv)\n"
        "    results.append([rc, out.getvalue(), 'numpy' in sys.modules])\n"
        "print(json.dumps(results))\n"
    )
    proc = _cold("-c", script)
    assert proc.stderr == ""
    results = json.loads(proc.stdout)
    assert [numpy_loaded for *_, numpy_loaded in results] == [False, False, False, True, True]
    assert results[0][:2] == [0, "D_plus\n"]
    for argv, result in zip([spectrum, raster, verify, wavefunction], results[1:]):
        assert result[:2] == list(run(capsys, *argv)[:2])
    assert results[1][1].splitlines()[0] == "shape-invariance: 0  5  8"
    assert results[3][1].splitlines()[-1] == "PASS"


# every name `import sips` exports: those it bound before the exports became
# lazy, less `derivative` and `BoundaryContaminationError`, since removed
_PUBLIC_NAMES = {
    "algebra": ["SectorFunction", "So21Check", "algebra_spectrum", "apply_j3", "apply_j_minus", "apply_j_plus",
                "closure_residual", "commutator_j3_residual", "energy_from_algebra", "is_so21"],
    "catalog": ["MODELS", "ParameterPoint", "SuperpotentialModel", "closed_form_energy", "default_grid",
                "evaluate_superpotential", "get_model", "list_models", "max_bound_states", "potential_minus",
                "potential_plus"],
    "errors": ["GridTooCoarseError", "InvalidParameterError", "LevelOutOfRangeError", "NotSO21Error", "SipsError",
               "UnitarityError"],
    "grids": ["Grid", "SampledFunction", "node_count"],
    "oracle": ["SpectrumComparison", "TridiagonalOperator", "compare_spectra", "discretize_hamiltonian",
               "eigenvector", "lowest_eigenvalues", "residual_norm", "spectrum", "sturm_count"],
    "susy": ["ShapeInvarianceReport", "Spectrum", "excited_state_by_ladder", "ground_state",
             "shift_params", "spectrum_by_shape_invariance", "verify_shape_invariance"],
    "unireps": ["Multiplet", "Region", "RepClass", "RepLabel", "classify", "enumerate_multiplet",
                "ladder_coefficient", "positivity_check", "region_of"],
}


def test_lazy_exports_complete():
    names = {name: module for module, owned in _PUBLIC_NAMES.items() for name in owned}
    assert len(names) == 55
    script = (
        "import importlib, json, sys, sips\n"
        f"names = {names!r}\n"
        "star = {}\n"
        "exec('from sips import *', star)\n"
        "print(json.dumps({\n"
        "    'dir': dir(sips),\n"
        "    'star': sorted(set(star) - {'__builtins__'}),\n"
        "    'same': all(getattr(sips, n) is getattr(importlib.import_module('sips.' + m), n)\n"
        "                for n, m in names.items()),\n"
        "    'modules': [getattr(sips, m).__name__ for m in (*sorted(set(names.values())), 'export')],\n"
        "    'version': sips.__version__,\n"
        "    'unknown': hasattr(sips, 'no_such_name'),\n"
        "}))\n"
    )
    proc = _cold("-c", script)
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    submodules = sorted(_PUBLIC_NAMES)
    assert report["star"] == sorted([*names, *submodules])
    assert set(report["dir"]) >= {*names, *submodules, "export", "__version__"}
    assert report["same"]
    assert report["modules"] == [f"sips.{m}" for m in (*submodules, "export")]
    assert (report["version"], report["unknown"]) == ("0.1.0", False)
    # the package in this process agrees with the fresh one
    assert sorted(sips.__all__) == report["star"]


def test_stdout_closed_early_is_not_an_error():
    # `sips wavefunction ... | head -1`: the reader goes away part-way through
    with subprocess.Popen(
        [sys.executable, "-m", "sips.cli", "wavefunction", "--model", "scarf", "--params", "a=3,B=1",
         "--n", "1", "--grid", "-20:20:64001"],
        env=_COLD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"# model: scarf\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_out_to_dev_stdout_on_a_pipe_writes_into_it():
    # `sips list --out /dev/stdout | cat`: the link resolves to 'pipe:[N]',
    # which names no file, so the pipe must be written through the link
    expected = _cold("-m", "sips.cli", "list")
    proc = _cold("-m", "sips.cli", "list", "--out", "/dev/stdout")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected.stdout != ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_write_error_is_usage_error():
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "sips.cli", "list"], env=_COLD_ENV, stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write standard output") and proc.stderr.count("\n") == 1


@pytest.mark.skipif(shutil.which("sh") is None, reason="needs sh")
@pytest.mark.parametrize("argv", [["list"], ["reps", "classify", "--j", "-1.5", "--m0", "1.5"]])
def test_closed_stdout_is_usage_error(argv):
    # `sips ... >&-`: Python starts with sys.stdout None when fd 1 is closed
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m sips.cli "$@" >&-', sys.executable, *argv],
                          env=_COLD_ENV, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write standard output: {os.strerror(errno.EBADF)}\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--model", "scarf", "--params", "a=3,B=1"],
        ["algebra", "check", "--model", "scarf", "--m", "2", "--params", "B=1"],
    ],
)
def test_tol_must_be_finite_and_positive(capsys, argv, tol):
    code, out, err = run(capsys, *argv, "--tol", tol)
    usage_error(code, out, err)
    assert err == f"error: --tol {float(tol):g} must be a finite number > 0\n"


@pytest.mark.parametrize(
    "argv,bound",
    [
        # the gaussians reach the edge of the morse box [-6, 20]: exact
        # derivatives do not care
        (["--model", "morse", "--m", "3.5", "--params", "B=1"], 1e-12),
        (["--model", "scarf", "--m", "2", "--grid", "-1:1:101"], 1e-12),
        (["--model", "poschl_teller", "--m", "4.2"], 1e-12),
        # R = 2 is constant, so [j+, j-] = -2 on every sector
        (["--model", "oscillator", "--m", "1.3"], 1e-12),
        # V± near 1e6: rounding grows with them, still far below tol
        (["--model", "scarf", "--m", "1e3", "--params", "B=1"], 1e-9),
    ],
    ids=["morse", "narrow-grid", "poschl_teller", "oscillator", "large-m"],
)
def test_algebra_check_closes_to_rounding(capsys, argv, bound):
    code, out, err = run(capsys, "algebra", "check", *argv, "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["worst_residual"] < bound


def test_algebra_check_shifted_remainder_fails(capsys, monkeypatch):
    # a remainder off by 10·tol shows at full size in the closure residual
    from sips import catalog

    scarf = catalog.MODELS["scarf"]
    shifted = scarf._replace(remainder=lambda p: scarf.remainder(p) + 1e-3)
    monkeypatch.setitem(catalog.MODELS, "scarf", shifted)
    code, out, _ = run(
        capsys, "algebra", "check", "--model", "scarf", "--m", "2", "--params", "B=1", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    for check in payload["checks"]:
        assert check["residuals"]["closure"] == pytest.approx(1e-3, rel=1e-6)


@pytest.mark.parametrize("model_id,m", [("scarf", "1e6"), ("oscillator", "1e12")])
def test_algebra_check_below_rounding_is_usage_error(capsys, model_id, m):
    # rounding alone would reach tol: no verdict, rather than a false FAIL
    code, out, err = run(capsys, "algebra", "check", "--model", model_id, "--m", m)
    usage_error(code, out, err)
    assert f"cannot resolve tol 0.0001 at m={float(m):g}" in err


@pytest.mark.parametrize("m", ["nan", "inf", "-inf"])
def test_algebra_check_nonfinite_m_is_usage_error(capsys, m):
    code, out, err = run(capsys, "algebra", "check", "--model", "scarf", "--m", m, "--params", "B=1")
    usage_error(code, out, err)
    assert err == f"error: --m {m} must be a finite number\n"


@pytest.mark.parametrize("params", ["a=5,B=1", "B=1,a=5", "a=1.5"])
def test_algebra_check_rejects_a_in_params(capsys, params):
    # sector m fixes a = m - 1/2: an a in --params would be a second source
    code, out, err = run(capsys, "algebra", "check", "--model", "scarf", "--m", "2", "--params", params)
    usage_error(code, out, err)
    assert err == "error: parameter 'a' is set by --m (a = m - 1/2), not by --params\n"


def test_algebra_check_vanishing_test_function_is_usage_error(capsys):
    # every gaussian underflows to 0 on [100, 200]: no residual can be scaled by its norm
    code, out, err = run(capsys, "algebra", "check", "--model", "scarf", "--m", "2", "--grid", "100:200:101")
    usage_error(code, out, err)
    assert "vanishes on the grid" in err


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


@pytest.mark.parametrize(
    "model_id,params,levels,discrepancy",
    [("scarf", "a=5514385.8263,B=1", "10", "7.451e-09"), ("poschl_teller", "a=123456.789", "40", "3.725e-09")],
)
def test_spectrum_routes_agree_within_rounding(capsys, model_id, params, levels, discrepancy):
    # the partial sums of R round in proportion to the level they reach: past
    # an absolute 1e-9 here, within 16·eps·n·|E_n|
    code, out, err = run(
        capsys, "spectrum", "--model", model_id, "--params", params, "--levels", levels, "--route", "both"
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"max discrepancy: {discrepancy}"


_SO21_FAMILIES = st.one_of(
    st.tuples(st.just("scarf"), st.floats(allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("morse"), st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
    st.tuples(st.just("poschl_teller"), st.none()),
)


# The slowest draw measured 15 ms (1000 levels, 2-core host); the bound leaves
# a hundred times that for slower hosts.
@given(family=_SO21_FAMILIES, exponent=st.floats(-0.2, 12), levels=st.integers(1, 1000))
@settings(max_examples=200, deadline=1500)
def test_spectrum_routes_agree_on_so21_families(family, exponent, levels):
    model_id, b = family
    params = f"a={10.0**exponent!r}" + ("" if b is None else f",B={b!r}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["spectrum", "--model", model_id, "--params", params, "--levels", str(levels),
                     "--route", "both"])
    assert (code, err.getvalue()) == (0, ""), out.getvalue()[-200:]


@given(family=_SO21_FAMILIES, a=st.floats(0.0, 1e12, exclude_min=True), levels=st.integers(1, 50))
@example(family=("scarf", 1.0), a=0.1, levels=3)
@example(family=("morse", 1.0), a=5e-324, levels=3)
@settings(max_examples=200, deadline=1500)
def test_spectrum_routes_echo_the_members_a(family, a, levels):
    # both routes take the member point from --params: the algebra block
    # echoes the user's a and its ladder, and sits in sector m = a + 1/2
    model_id, b = family
    params = f"a={a!r}" + ("" if b is None else f",B={b!r}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["spectrum", "--model", model_id, "--params", params, "--levels", str(levels),
                     "--route", "both", "--format", "json"])
    assert (code, err.getvalue()) == (0, "")
    payload = json.loads(out.getvalue())
    shape, algebra = payload["shape_invariance"], payload["algebra"]
    assert algebra["params"] == shape["params"] == payload["params"]
    assert payload["params"]["a"] == a
    assert algebra["level_a"] == shape["level_a"]
    assert algebra["m"] == a + 0.5


def test_spectrum_tiny_a_has_one_level(capsys):
    # a + 1/2 - 1/2 rounds 1e-17 to 0, an invalid member; a itself is valid
    code, out, err = run(capsys, "spectrum", "--model", "poschl_teller", "--params", "a=1e-17",
                         "--route", "both", "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    for route in ("shape_invariance", "algebra"):
        assert payload[route]["energies"] == [0.0]
        assert payload[route]["level_a"] == [1e-17]


# Values from which the first level overflows: 2a - 1 on the shape route, and
# 2m - 2 on the algebra's, which is 2a - 1 too in the sector m = a + 1/2.
_OVERFLOWING = st.floats(9e307, 1.7976931348623157e308)


@given(
    model_id=st.sampled_from(["scarf", "poschl_teller", "morse"]),
    a=_OVERFLOWING,
    fmt=st.sampled_from(["text", "json"]),
)
@settings(max_examples=200, deadline=None)
def test_spectrum_overflowing_route_gap_is_usage_error(model_id, a, fmt):
    # the first level overflows in both routes, leaving a nan gap (inf - inf)
    # between them: one line naming the first inf level, exit 2
    params = f"a={a!r}" + ("" if model_id == "poschl_teller" else ",B=1")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["spectrum", "--model", model_id, "--params", params, "--route", "both", "--format", fmt])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == "error: report field shape_invariance.energies[1] is inf, not a finite number\n"


def test_algebra_route_does_not_read_the_closed_form(capsys, monkeypatch):
    from sips import catalog

    argv = ["spectrum", "--model", "scarf", "--params", "a=5514385.8263,B=1", "--levels", "10"]
    argvs = [argv + ["--route", route, "--format", fmt] for route in ("algebra", "both") for fmt in ("text", "json")]
    expected = [run(capsys, *a) for a in argvs]

    def unread(p, n):
        raise AssertionError("the catalog's closed form was read")

    monkeypatch.setitem(catalog.MODELS, "scarf", catalog.MODELS["scarf"]._replace(energy=unread))
    assert [run(capsys, *a) for a in argvs] == expected


@pytest.mark.parametrize("a", ["3", "5514385.8263"])
def test_spectrum_routes_disagree_on_remainder_off_between_probes(capsys, monkeypatch, a):
    # R off by 1e-4 everywhere is_so21 does not probe: the model still joins
    # the SO(2,1) class, and the sums of R part from the algebra's levels
    from sips import algebra, catalog

    scarf = catalog.MODELS["scarf"]

    def off(p):
        return scarf.remainder(p) + (0.0 if p.a in algebra._R_PROBES else 1e-4)

    monkeypatch.setitem(catalog.MODELS, "scarf", scarf._replace(remainder=off))
    assert algebra.is_so21("scarf")
    code, out, err = run(
        capsys, "spectrum", "--model", "scarf", "--params", f"a={a},B=1", "--levels", "10", "--route", "both"
    )
    assert (code, err) == (1, "")
    assert out.splitlines()[-1] == "ROUTE DISAGREEMENT beyond the rounding floor 16*eps*n*|E_n|"


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


@pytest.mark.parametrize("levels", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--model", "scarf", "--params", "a=3,B=1"],
        ["spectrum", "--model", "scarf", "--params", "a=3,B=1", "--route", "algebra"],
        ["spectrum", "--model", "scarf", "--params", "a=3,B=1", "--route", "both"],
        ["verify", "--model", "scarf", "--params", "a=3,B=1"],
    ],
)
def test_levels_below_one_rejected(capsys, argv, levels):
    code, out, err = run(capsys, *argv, "--levels", levels)
    usage_error(code, out, err)
    assert err == "error: --levels must be >= 1\n"


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


def test_verify_work_above_limit_rejected(capsys):
    # 600 levels × 60001 points = 3.6·10⁷: seconds of bisection, refused unsolved
    code, out, err = run(
        capsys, "verify", "--model", "poschl_teller", "--params", "a=600", "--levels", "600",
        "--grid", "-20:20:60001",
    )
    usage_error(code, out, err)
    assert err == (
        f"error: verify of 600 levels on 60001 points exceeds the limit of "
        f"{MAX_LEVEL_POINTS} levels × points\n"
    )


def test_wavefunction_work_above_limit_rejected(capsys, monkeypatch):
    # 201 ladder steps on 10⁶ points: about 6 s of raising, refused unbuilt
    import sips.susy

    def unbuilt(*args):
        raise AssertionError("ladder built for a rejected input")

    monkeypatch.setattr(sips.susy, "excited_state_by_ladder", unbuilt)
    code, out, err = run(
        capsys, "wavefunction", "--model", "poschl_teller", "--params", "a=10000", "--n", "200",
        "--grid", f"-20:20:{MAX_POINTS}",
    )
    usage_error(code, out, err)
    assert err == (
        f"error: wavefunction n=200 on {MAX_POINTS} points exceeds the limit of "
        f"{MAX_LEVEL_POINTS} (n + 1) × points\n"
    )


@pytest.mark.parametrize("limit,code", [(3 * 4001, 0), (3 * 4001 - 1, 2)])
def test_wavefunction_work_limit_counts_ground_state(capsys, monkeypatch, limit, code):
    # n = 2 builds the ground state and raises it twice: 3 states of 4001 points
    monkeypatch.setattr(cli, "MAX_LEVEL_POINTS", limit)
    argv = ["wavefunction", "--model", "scarf", "--params", "a=3,B=1", "--n", "2"]
    assert run(capsys, *argv)[0] == code


@pytest.mark.parametrize("limit,code", [(3 * 4001, 0), (3 * 4001 - 1, 2)])
def test_verify_work_limit_counts_levels_solved(capsys, monkeypatch, limit, code):
    # --levels 100 asks for more levels than scarf a=3 has: 3 are solved
    monkeypatch.setattr(cli, "MAX_LEVEL_POINTS", limit)
    argv = ["verify", "--model", "scarf", "--params", "a=3,B=1", "--levels", "100"]
    assert run(capsys, *argv)[0] == code


def test_sizes_at_point_limit_accepted():
    assert parse_grid_spec(f"-20:20:{MAX_POINTS}").n_points == MAX_POINTS
    assert len(parse_range_spec(f"0:{MAX_POINTS - 1}:1")) == MAX_POINTS


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


@contextlib.contextmanager
def _built_parsers():
    """The parsers cli.main builds while the block runs. main keeps the
    parser of each command for the process, so the block starts with none."""
    cli._parser_for.cache_clear()
    built, build = [], cli.build_parser

    def spy(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    cli.build_parser = spy
    try:
        yield built
    finally:
        cli.build_parser = build


def _parse_outcome(parser, argv):
    # repr of vars() of the namespace (a parsed nan is equal in repr only), or
    # the exit code and output of an argparse exit
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return repr(vars(parser.parse_args(argv)))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def assert_parses_as_whole_tree(parser, argv):
    argv = cli._normalize_argv(argv)
    assert _parse_outcome(parser, argv) == _parse_outcome(cli.build_parser(), argv)


_SCARF = ["--model", "scarf", "--params", "a=3,B=1"]
_PARSER_CORPUS = [
    # the README commands
    ["list"], ["list", "--format", "json"],
    ["spectrum", *_SCARF, "--levels", "3", "--route", "both"],
    ["verify", "--model", "morse", "--params", "a=3,B=1", "--tol", "1e-3", "--format", "json"],
    ["wavefunction", *_SCARF, "--n", "1", "--grid", "-20:20:401"],
    ["algebra", "check", "--model", "scarf", "--m", "2", "--params", "B=1", "--format", "json"],
    ["reps", "classify", "--j", "-1.5", "--m0", "1.5"],
    ["reps", "enumerate", "--j", "-1.5", "--m0", "1.5", "--count", "5"],
    ["reps", "region-grid", "--j", "-4:1:0.25", "--m", "-4:4:0.25"],
    # help at every level
    ["-h"], ["--help"], ["list", "-h"], ["spectrum", "-h"], ["verify", "-h"], ["wavefunction", "-h"],
    ["algebra", "-h"], ["algebra", "check", "-h"], ["reps", "-h"], ["reps", "classify", "-h"],
    ["reps", "enumerate", "-h"], ["reps", "region-grid", "-h"], ["verify", *_SCARF, "-h"],
    # no command, an unknown command or subcommand
    [], ["verfy"], ["Verify"], ["--", "verify"], ["-h", "verify"], ["algebra"], ["algebra", "chek"],
    ["reps"], ["reps", "x"],
    # unrecognized options and arguments: the top-level usage line
    ["-x"], ["verify", "--bogus"], ["verify", *_SCARF, "extra", "--bogus"], ["list", "list"],
    ["algebra", "check", "extra"], ["reps", "classify", "--j", "1", "--m0", "2", "x"],
    # missing required options and values
    ["wavefunction", *_SCARF], ["reps", "classify", "--j", "1"], ["verify", "--model"], ["list", "--out"],
    # bad choices and types
    ["list", "--format", "xml"], ["spectrum", "--levels", "x"], ["spectrum", *_SCARF, "--route", "up"],
    ["verify", "--tol", "abc"], ["reps", "enumerate", "--j", "1", "--m0", "0", "--count", "1.5"],
]
# removed and abbreviated options: no prefix stands for an option, so
# --m is not --model and --lev is not --levels
_UNREAD_OPTIONS = [
    ["verify", "--m", "scarf"], ["spectrum", "--lev", "2"], ["spectrum", *_SCARF, "--m", "4"],
    ["spectrum", *_SCARF, "--grid", "-20:20:401"], ["algebra", "check", "--mod", "scarf", "--m", "2"],
]
_PARSER_CORPUS += _UNREAD_OPTIONS


@pytest.mark.parametrize("argv", _PARSER_CORPUS, ids=" ".join)
def test_main_parser_parses_as_whole_tree(capsys, argv):
    with _built_parsers() as built:
        try:
            main(argv)
        except SystemExit:
            pass
    capsys.readouterr()
    assert len(built) == 1
    assert_parses_as_whole_tree(built[0], argv)


@pytest.mark.parametrize("argv", _UNREAD_OPTIONS, ids=" ".join)
def test_unread_options_are_rejected(argv):
    argv = cli._normalize_argv(argv)
    for parser in (cli.build_parser(argv[0]), cli.build_parser()):
        code, out, err = _parse_outcome(parser, argv)
        assert (code, out) == (2, "")
        assert "error: unrecognized arguments: " in err


def _built_progs(monkeypatch):
    # the prog of every argparse parser built from here on
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


@pytest.mark.parametrize(
    "argv,progs",
    [
        (["verify", *_SCARF, "--levels", "2"], ["sips", "sips verify"]),
        (["list"], ["sips", "sips list"]),
        (["algebra", "check", "-h"], ["sips", "sips algebra", "sips algebra check"]),
        (["reps", "classify", "--j", "1", "--m0", "2"],
         ["sips", "sips reps", "sips reps classify", "sips reps enumerate", "sips reps region-grid"]),
        (["verfy"], ["sips", "sips list", "sips spectrum", "sips verify", "sips wavefunction",
                     "sips algebra", "sips algebra check", "sips reps", "sips reps classify",
                     "sips reps enumerate", "sips reps region-grid"]),
    ],
)
def test_main_builds_only_the_invoked_command(monkeypatch, capsys, argv, progs):
    built = _built_progs(monkeypatch)
    cli._parser_for.cache_clear()
    try:
        main(argv)
    except SystemExit:
        pass
    capsys.readouterr()
    assert built == progs


def test_main_reuses_the_parser_of_a_command(monkeypatch, capsys):
    # a second main call for a command builds no parser
    built = _built_progs(monkeypatch)
    cli._parser_for.cache_clear()
    for argv, progs in [(["list"], ["sips", "sips list"]), (["list", "--format", "json"], []),
                        (["reps", "classify", "--j", "1", "--m0", "2"], ["sips", "sips reps"] + [
                            f"sips reps {name}" for name in ("classify", "enumerate", "region-grid")]),
                        (["reps", "enumerate", "--j", "-1.5", "--m0", "1.5"], []), (["list", "-h"], [])]:
        built.clear()
        try:
            main(argv)
        except SystemExit:
            pass
        assert built == progs
    capsys.readouterr()


def _outcomes(capsys, argvs, fresh=False):
    # exit code (or argparse's SystemExit code), stdout and stderr of each
    # argv through main; fresh builds a new parser for every argv
    outcomes = []
    for argv in argvs:
        if fresh:
            cli._parser_for.cache_clear()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        outcomes.append((code, *capsys.readouterr()))
    return outcomes


def test_reused_parsers_give_the_outcomes_of_fresh_ones(capsys):
    # help, usage errors and successes, mixed: a parser that has
    # parsed, printed help or exited gives the next argv what a new one does
    fresh = _outcomes(capsys, _PARSER_CORPUS, fresh=True)
    assert {code for code, *_ in fresh} == {0, 2}
    assert _outcomes(capsys, _PARSER_CORPUS) == fresh
    assert _outcomes(capsys, _PARSER_CORPUS) == fresh


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
    if command == "algebra":
        argv += ["--m", draw(_REALS)]
    if command == "wavefunction":
        argv += ["--n", str(draw(_COUNTS))]
    return argv


# --out under the test's directory: a new file, a missing directory, the directory
_OUTS = st.sampled_from([None, "out.txt", "missing/out.txt", "."])


# The slowest accepted draw measured 0.40 s (verify --levels 10000 on the
# oscillator, 2-core host); the bound leaves ten times that for slower hosts.
@given(argv=_argv(), out=_OUTS)
@settings(max_examples=100, deadline=4000)
def test_cli_total_over_argv_grammar(tmp_path_factory, argv, out):
    # every input ends in exit 0, 1 or 2: no other exception escapes main
    base = tmp_path_factory.getbasetemp() / "argv-grammar"
    base.mkdir(exist_ok=True)
    if out is not None:
        argv = [*argv, "--out", str(base / out)]
    with _built_parsers() as built, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
            assert code == 2
    assert code in (0, 1, 2)
    # the command's own parser reads the argv as the whole tree does
    assert_parses_as_whole_tree(*built, argv)
    if out in ("missing/out.txt", "."):
        assert code == 2
    assert not list(base.rglob("*.tmp"))


def test_export_json_roundtrip(tmp_path):
    from sips import Grid, ParameterPoint, excited_state_by_ladder

    grid = Grid(-15.0, 15.0, 801)
    psi = excited_state_by_ladder("scarf", ParameterPoint(3.0, {"B": 1.0}), 1, grid)
    record = wavefunction_record("scarf", {"a": 3.0, "B": 1.0}, 1, 5.0, psi)
    path = tmp_path / "psi.json"
    atomic_write_text(str(path), json_chunks(record))
    loaded = json.loads(path.read_text())
    assert loaded["energy"] == 5.0
    assert loaded["grid"]["n_points"] == 801
    assert np.allclose(loaded["values"], psi.values)


def test_spectrum_deterministic_output(capsys):
    args = ("spectrum", "--model", "scarf", "--params", "a=3,B=1", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


@pytest.mark.parametrize("command", ["verify", "wavefunction"])
@pytest.mark.parametrize("grid", ["0:1e-300:5", "0:1e-160:5"])
def test_underflowing_grid_spacing_is_usage_error(capsys, command, grid):
    # h² underflows to zero or a subnormal: 1/h² is not finite
    argv = [command, "--model", "scarf", "--params", "a=3,B=1", "--grid", grid]
    code, out, err = run(capsys, *argv, *(["--n", "1"] if command == "wavefunction" else []))
    usage_error(code, out, err)
    assert "finite" in err


def test_wavefunction_zero_inside_grid_is_usage_error(capsys):
    # psi_1 vanishes at the one interior node, where the residual would be 0/0
    code, out, err = run(
        capsys, "wavefunction", "--model", "oscillator", "--n", "1", "--grid", "-1:1:3",
        "--format", "json",
    )
    usage_error(code, out, err)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "argv",
    [
        ["list"],
        ["spectrum", "--model", "scarf", "--params", "a=3,B=1", "--route", "both"],
        ["verify", "--model", "scarf", "--params", "a=3,B=1"],
        ["wavefunction", "--model", "scarf", "--params", "a=3,B=1", "--n", "1", "--grid", "-20:20:801"],
        ["algebra", "check", "--model", "scarf", "--m", "3.5", "--grid", "-15:15:801"],
        ["reps", "classify", "--j", "-1.5", "--m0", "1.5"],
        ["reps", "enumerate", "--j", "-1.5", "--m0", "1.5", "--count", "4"],
    ],
    ids=["list", "spectrum", "verify", "wavefunction", "algebra-check",
         "reps-classify", "reps-enumerate"],
)
def test_json_reports_are_strict_json(capsys, argv):
    # RFC 8259 has no NaN or Infinity; json.loads accepts them unless told not to
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    json.loads(out, parse_constant=_reject_constant)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "argv,field",
    [
        (["algebra", "check", "--model", "scarf", "--m", "1e150"],
         "checks[0].residuals.j3_commutator_plus"),
        (["spectrum", "--model", "morse", "--params", "a=1e308,B=1e308"],
         "shape_invariance.energies[1]"),
        (["spectrum", "--model", "poschl_teller", "--route", "algebra", "--params", "a=1e308"],
         "algebra.energies[1]"),
        (["spectrum", "--model", "scarf", "--params", "a=1e308,B=1", "--route", "algebra"],
         "algebra.energies[1]"),
        (["spectrum", "--model", "scarf", "--params", "a=1e308,B=1", "--route", "both"],
         "shape_invariance.energies[1]"),
        (["reps", "classify", "--j", "1e308", "--m0", "1e308"], "casimir"),
    ],
    ids=["algebra-check", "spectrum", "spectrum-algebra-m", "spectrum-algebra-a", "spectrum-both",
         "reps-classify"],
)
def test_overflowing_report_is_usage_error(capsys, argv, field, fmt):
    # accepted inputs whose results overflow: JSON has no Infinity, so each
    # format exits 2 with one line that names the field, and writes nothing
    code, out, err = run(capsys, *argv, "--format", fmt)
    usage_error(code, out, err)
    assert err == f"error: report field {field} is inf, not a finite number\n"


def _params_help(command):
    # the --params help of one command, read off its own parser
    parser = cli.build_parser(command[0])
    for name in command:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return next(a.help for a in parser._actions if "--params" in a.option_strings)


@pytest.mark.parametrize(
    "command,extra",
    [(["spectrum"], []), (["verify"], []), (["wavefunction"], ["--n", "0"]),
     (["algebra", "check"], ["--m", "3.5"])],
    ids=lambda value: " ".join(value),
)
def test_params_help_example_is_accepted(capsys, command, extra):
    example = _params_help(command).rsplit("e.g. ", 1)[1]
    code, _, err = run(capsys, *command, "--model", "scarf", "--params", example, *extra)
    assert (code, err) == (0, "")


# Inputs whose closed-form levels open no certified bisection windows. Each
# takes the referee's unhinted solve and gives the output of a verify given
# no hint: no window reaches dstebz that it refuses (VL >= VU) with a line of
# its own on standard output, and nothing is written to stderr. A finite hint
# cannot overflow a window: verify's half-widths are at most 1e-3, widened to
# at most 0.512.
_UNWINDOWED = [
    # a half-width that rounds away next to E = 5 and 8, or E = 2 and 4
    ["verify", *_SCARF, "--tol", "1e-17"],
    ["verify", "--model", "oscillator", "--levels", "3", "--tol", "1e-300"],
    # grids so coarse that the levels lie far from their closed forms: the
    # widened top window holds one level more than k, a window holds two,
    # one stays empty after three widenings, and two overlap once widened
    ["verify", "--model", "morse", "--params", "a=4.59,B=3.38", "--grid", "-5.8:14.7:151"],
    ["verify", "--model", "morse", "--params", "a=1.67,B=0.0283", "--grid", "-3.6:14:201"],
    ["verify", "--model", "poschl_teller", "--params", "a=9.12", "--levels", "6", "--tol", "0.01",
     "--grid", "-7.2:11.9:201"],
    ["verify", "--model", "scarf", "--params", "a=5.01,B=0.0489", "--levels", "6",
     "--grid", "-3:6.4:801"],
]


def _hint_spy(monkeypatch, hint=None):
    # count the unhinted solves; replace verify's hint with ``hint`` (a
    # constant per level), or with none when hint is "none"
    import sips.oracle

    solve, spectrum = sips.oracle._stebz, sips.oracle.spectrum
    solves = []

    def counted(*args):
        solves.append(args[2])
        return solve(*args)

    def hinted(model, p, grid, k, tol, near):
        near = None if hint == "none" else near if hint is None else [hint] * k
        return spectrum(model, p, grid, k, tol, near=near)

    monkeypatch.setattr(sips.oracle, "_stebz", counted)
    monkeypatch.setattr(sips.oracle, "spectrum", hinted)
    return solves


@pytest.mark.parametrize(
    "argv,hint",
    [*((argv, None) for argv in _UNWINDOWED),
     # a width that rounds away at E = 1e20, and a top window above every
     # level of the grid
     *((["verify", *_SCARF], value)
       for value in (float("nan"), float("inf"), float("-inf"), 1e20, 1e9))],
    ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
)
def test_uncertified_hint_takes_the_unhinted_solve(capfd, monkeypatch, argv, hint):
    # capfd: dstebz prints its complaint about a window to file descriptor 1,
    # past sys.stdout, where it would break the JSON
    solves = _hint_spy(monkeypatch, hint)
    outcome = run(capfd, *argv, "--format", "json")
    assert solves
    # no traceback: stderr is empty, or the one line of a grid too coarse
    code, _, err = outcome
    assert err == "" if code < 2 else (err.startswith("error: ") and err.count("\n") == 1)
    _hint_spy(monkeypatch, "none")
    assert run(capfd, *argv, "--format", "json") == outcome


def test_closed_form_hint_saves_the_unhinted_solve(capsys, monkeypatch):
    solves = _hint_spy(monkeypatch)
    code, out, err = run(capsys, "verify", "--model", "morse", "--params", "a=3.6,B=1.16",
                         "--grid", "-6:20:16001", "--format", "json")
    assert (code, err, solves) == (0, "", [])
    _hint_spy(monkeypatch, "none")
    plain = json.loads(run(capsys, "verify", "--model", "morse", "--params", "a=3.6,B=1.16",
                           "--grid", "-6:20:16001", "--format", "json")[1])
    numeric = json.loads(out)["spectrum"]["numeric"]
    # ABSTOL 1e-6, plus eps·‖T‖₁ (about 4e-10 on this grid)
    assert np.max(np.abs(np.subtract(numeric, plain["spectrum"]["numeric"]))) <= 1e-6 + 1e-9


def _dstebz_spy(monkeypatch):
    # record the RANGE of every dstebz call the referee makes
    import types

    import sips.oracle

    lapack, calls = sips.oracle._lapack(), []

    def dstebz(*args):
        calls.append(args[2])
        return lapack.dstebz(*args)

    spy = types.SimpleNamespace(dstebz=dstebz, dstein=lapack.dstein)
    monkeypatch.setattr(sips.oracle, "_lapack", lambda: spy)
    return calls


_OSCILLATOR_32 = ["verify", "--model", "oscillator", "--levels", "32", "--format", "json"]


@pytest.mark.parametrize("offset", [0.0, 0.2, -0.2])
def test_windows_follow_the_levels_below(capsys, monkeypatch, offset):
    # the oscillator's 32 levels on its default grid lie up to 1.24e-2 below
    # their closed forms, 12 times the first half-width. Its even and odd
    # blocks hold 16 levels each: every window but the top one is centred on
    # its closed form plus the offset found below it, so it holds its level
    # at once, and the top window, bisected first, is widened to reach its
    # level. A hint off by a constant offset costs the two lowest windows
    # their widenings too, and still certifies.
    import sips.oracle

    spectrum = sips.oracle.spectrum
    solves = _hint_spy(monkeypatch, "none")
    plain = json.loads(run(capsys, *_OSCILLATOR_32)[1])["spectrum"]["numeric"]

    def shifted(model, p, grid, k, tol, near):
        return spectrum(model, p, grid, k, tol, near=None if near is None else [e + offset for e in near])

    monkeypatch.setattr(sips.oracle, "spectrum", shifted)
    solves.clear()
    calls = _dstebz_spy(monkeypatch)
    code, out, err = run(capsys, *_OSCILLATOR_32)
    assert (code, err, solves) == (1, "", [])
    # RANGE='V' windows only: 32 bisections, the top certificates and the
    # widenings. Windows centred on the closed forms alone took 68, 136 and
    # 130 calls at these offsets.
    assert set(calls) == {1}
    assert len(calls) <= {0.0: 42, 0.2: 52, -0.2: 46}[offset]
    numeric = json.loads(out)["spectrum"]["numeric"]
    # ABSTOL 1e-6, plus eps·‖T‖₁ (about 1e-11 on this grid)
    assert np.max(np.abs(np.subtract(numeric, plain))) <= 1e-6 + 1e-9

