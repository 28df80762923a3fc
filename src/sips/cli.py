"""Command-line front end.

Commands: list, spectrum, verify, wavefunction, algebra check,
reps {classify, enumerate, region-grid}. Exit codes: 0 success,
1 verification/consistency failure, 2 usage or validation error.

Defaults may come from a key=value config file (--config); explicit flags
win. The SIPS_DEFAULT_GRID environment variable overrides the built-in grid
default (each model otherwise gets its recommended box with 4001 points).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import algebra as alg
from . import catalog, export, oracle, susy, unireps
from .catalog import ParameterPoint, get_model
from .errors import (
    BoundaryContaminationError,
    GridTooCoarseError,
    InvalidParameterError,
    LevelOutOfRangeError,
    NotSO21Error,
    UnitarityError,
)
from .grids import Grid, SampledFunction, node_count

ROUTE_AGREEMENT_TOL = 1e-9
DEFAULT_TOL = 1e-3
DEFAULT_GRID_POINTS = 4001

_USAGE_ERRORS = (
    InvalidParameterError,
    LevelOutOfRangeError,
    NotSO21Error,
    GridTooCoarseError,
    UnitarityError,
    KeyError,
    ValueError,
)


def parse_grid_spec(spec: str) -> Grid:
    """Grid spec 'min:max:n', e.g. '-20:20:4001'."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be min:max:n, got {spec!r}")
    return Grid(float(parts[0]), float(parts[1]), int(parts[2]))


def parse_range_spec(spec: str) -> np.ndarray:
    """Range spec 'min:max:step' for the region raster axes."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"range spec must be min:max:step, got {spec!r}")
    lo, hi, step = float(parts[0]), float(parts[1]), float(parts[2])
    if step <= 0 or hi < lo:
        raise ValueError(f"bad range {spec!r}: need min <= max and step > 0")
    return np.arange(lo, hi + 0.5 * step, step)


def parse_params(model, text: str | None, default_a: float | None = None) -> ParameterPoint:
    """Comma-separated key=value parameters, checked against the model."""
    model = get_model(model)
    values: dict[str, float] = {}
    if text:
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"parameter {item!r} is not key=value")
            key, _, raw = item.partition("=")
            key = key.strip()
            if key not in model.param_names:
                raise ValueError(
                    f"unknown parameter {key!r} for model {model.id} "
                    f"(takes {', '.join(model.param_names)})"
                )
            values[key] = float(raw)
    if "a" not in values:
        if default_a is not None:
            values["a"] = default_a
        elif model.id == "oscillator":
            values["a"] = 1.0  # a is inert for the degenerate shift
        else:
            raise ValueError(f"model {model.id} requires a=... in --params")
    a = values.pop("a")
    return ParameterPoint(a, values)


def _load_config(path: str) -> dict[str, str]:
    config: dict[str, str] = {}
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            config[key.strip()] = value.strip()
    return config


def _setting(args, config: dict, key: str, default=None, cast=None):
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key)
        if value is not None and cast is not None:
            value = cast(value)
    return default if value is None else value


def _resolve_grid(args, config, model=None) -> Grid:
    spec = _setting(args, config, "grid")
    if spec is None:
        spec = os.environ.get("SIPS_DEFAULT_GRID")
    if spec is not None:
        return parse_grid_spec(spec)
    if model is not None:
        box = get_model(model).default_box
        return Grid(box[0], box[1], DEFAULT_GRID_POINTS)
    return Grid(-20.0, 20.0, DEFAULT_GRID_POINTS)


def _emit(text: str, out: str | None) -> None:
    if out:
        export.atomic_write_text(out, text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _params_dict(p: ParameterPoint) -> dict:
    return {"a": p.a, **dict(p.aux)}


# ----------------------------------------------------------------- commands


def cmd_list(args, config) -> int:
    models = catalog.list_models()
    if args.format == "json":
        _emit(json.dumps(models, indent=2), args.out)
        return 0
    lines = [f"{'id':<14} {'params':<8} {'domain':<10} {'step':>5}  validity"]
    for m in models:
        lines.append(
            f"{m['id']:<14} {','.join(m['param_names']):<8} "
            f"{m['domain']:<10} {m['param_step']:>5}  {m['validity']}"
        )
    _emit("\n".join(lines), args.out)
    return 0


def cmd_spectrum(args, config) -> int:
    model = get_model(_setting(args, config, "model"))
    route = _setting(args, config, "route", "shape")
    m_value = _setting(args, config, "m", None, float)
    # The algebra route fixes a through the sector index, so a=... is only
    # mandatory when the shape-invariance route runs or no --m was given.
    default_a = m_value - 0.5 if (route == "algebra" and m_value is not None) else None
    p = parse_params(model, _setting(args, config, "params"), default_a=default_a)
    levels = int(_setting(args, config, "levels", 3, int))
    fmt = _setting(args, config, "format", "text")

    payload: dict = {"model": model.id, "params": _params_dict(p), "route": route}
    lines = []
    if route in ("shape", "both"):
        shape_spec = susy.spectrum_by_shape_invariance(model, p, levels)
        payload["shape_invariance"] = shape_spec.to_dict()
        lines.append(f"shape-invariance: {export.format_energies(shape_spec.energies)}")
    if route in ("algebra", "both"):
        if m_value is None:
            m_value = p.a + 0.5
        algebra_spec = alg.algebra_spectrum(model, float(m_value), levels, dict(p.aux))
        payload["algebra"] = algebra_spec.to_dict()
        payload["algebra"]["m"] = float(m_value)
        lines.append(f"algebra (m={m_value:g}): {export.format_energies(algebra_spec.energies)}")
    exit_code = 0
    if route == "both":
        n = min(len(shape_spec), len(algebra_spec))
        discrepancy = float(
            np.max(np.abs(shape_spec.energies[:n] - algebra_spec.energies[:n]))
        )
        payload["max_discrepancy"] = discrepancy
        lines.append(f"max discrepancy: {discrepancy:.3e}")
        if discrepancy > ROUTE_AGREEMENT_TOL:
            lines.append(f"ROUTE DISAGREEMENT beyond {ROUTE_AGREEMENT_TOL}")
            exit_code = 1
    _emit(json.dumps(payload, indent=2) if fmt == "json" else "\n".join(lines), args.out)
    return exit_code


def cmd_verify(args, config) -> int:
    model = get_model(_setting(args, config, "model"))
    p = parse_params(model, _setting(args, config, "params"))
    grid = _resolve_grid(args, config, model)
    tol = float(_setting(args, config, "tol", DEFAULT_TOL, float))
    n_bound = catalog.max_bound_states(model, p)
    levels = int(_setting(args, config, "levels", min(n_bound, 5), int))
    levels = min(levels, n_bound)

    k_max = min(3, n_bound - 1)
    si_report = susy.verify_shape_invariance(model, p, grid, k_max=k_max)
    analytic = susy.spectrum_by_shape_invariance(model, p, levels)
    numeric = oracle.spectrum(model, p, grid, levels)
    comparison = oracle.compare_spectra(analytic, numeric, tol)
    si_ok = si_report.max_residual < tol
    passed = si_ok and comparison.passed

    payload = {
        "model": model.id,
        "params": _params_dict(p),
        "grid": [grid.x_min, grid.x_max, grid.n_points],
        "tol": tol,
        "shape_invariance": si_report.to_dict(),
        "spectrum": comparison.to_dict(),
        "passed": passed,
    }
    if _setting(args, config, "format", "text") == "json":
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [
            f"model {model.id}  params {_params_dict(p)}",
            f"shape-invariance max residual: {si_report.max_residual:.3e} "
            f"({'ok' if si_ok else 'FAIL'} at tol {tol:g})",
            f"spectrum analytic: {export.format_energies(comparison.analytic)}",
            f"spectrum numeric:  {export.format_energies(comparison.numeric)}",
            f"max |diff|: {comparison.max_abs_diff:.3e} at level {comparison.worst_level} "
            f"({'ok' if comparison.passed else 'FAIL'} at tol {tol:g})",
            "PASS" if passed else "FAIL",
        ]
        _emit("\n".join(lines), args.out)
    return 0 if passed else 1


def cmd_wavefunction(args, config) -> int:
    model = get_model(_setting(args, config, "model"))
    p = parse_params(model, _setting(args, config, "params"))
    grid = _resolve_grid(args, config, model)
    n = int(args.n)
    energy = catalog.closed_form_energy(model, p, n)
    psi = susy.excited_state_by_ladder(model, p, n, grid)
    T = oracle.discretize_hamiltonian(
        lambda x: catalog.potential_minus(model, x, p), grid
    )
    residual = oracle.residual_norm(T, psi, energy)
    nodes = node_count(psi)
    metadata = {
        "model": model.id,
        "params": _params_dict(p),
        "n": n,
        "energy": energy,
        "node_count": nodes,
        "oracle_residual": residual,
    }
    if _setting(args, config, "format", "csv") == "json":
        record = export.wavefunction_record(
            model.id, _params_dict(p), n, energy, psi,
            node_count=nodes, oracle_residual=residual,
        )
        _emit(json.dumps(record, indent=2), args.out)
    else:
        _emit(export.wavefunction_csv_text(psi, metadata), args.out)
    return 0


_TEST_FUNCTIONS = ("gaussian", "odd_gaussian", "offset_gaussian")


def _test_function(name: str, grid: Grid) -> SampledFunction:
    x = grid.x
    if name == "gaussian":
        return SampledFunction(grid, np.exp(-(x**2)))
    if name == "odd_gaussian":
        return SampledFunction(grid, x * np.exp(-(x**2)))
    if name == "offset_gaussian":
        return SampledFunction(grid, np.exp(-((x - 1.0) ** 2) / 2.0))
    raise ValueError(f"unknown test function {name!r}")


def cmd_algebra_check(args, config) -> int:
    model = get_model(_setting(args, config, "model"))
    m = float(_setting(args, config, "m"))
    grid = _resolve_grid(args, config, model)
    tol = float(_setting(args, config, "tol", 1e-4, float))
    params_text = _setting(args, config, "params")
    # a is fixed by the sector index; --params only supplies auxiliaries here
    aux_p = parse_params(model, params_text, default_a=m - 0.5) if params_text else None

    worst = 0.0
    reports = []
    for name in _TEST_FUNCTIONS:
        sector = alg.SectorFunction(m, _test_function(name, grid))
        j3 = alg.commutator_j3_residual(model, sector, aux_p)
        closure = alg.closure_residual(model, sector, aux_p)
        residuals = {
            "j3_commutator_plus": j3["plus"],
            "j3_commutator_minus": j3["minus"],
            "closure": closure["closure"],
            "product_plus_minus": closure["product_plus_minus"],
            "product_minus_plus": closure["product_minus_plus"],
        }
        worst = max(worst, *residuals.values())
        reports.append({"test_function": name, "residuals": residuals})
    payload = {
        "model": model.id,
        "m": m,
        "grid": [grid.x_min, grid.x_max, grid.n_points],
        "tol": tol,
        "checks": reports,
        "worst_residual": worst,
        "passed": worst < tol,
    }
    if _setting(args, config, "format", "text") == "json":
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [f"model {model.id}  m={m:g}"]
        for report in reports:
            res = report["residuals"]
            lines.append(
                f"  {report['test_function']:<16} closure={res['closure']:.3e} "
                f"j3=({res['j3_commutator_plus']:.1e}, {res['j3_commutator_minus']:.1e}) "
                f"products=({res['product_plus_minus']:.3e}, {res['product_minus_plus']:.3e})"
            )
        lines.append(f"worst residual {worst:.3e} ({'ok' if worst < tol else 'FAIL'} at tol {tol:g})")
        _emit("\n".join(lines), args.out)
    return 0 if worst < tol else 1


def cmd_reps_classify(args, config) -> int:
    label = unireps.classify(float(args.j), float(args.m0))
    payload = {
        "j": float(args.j),
        "m0": float(args.m0),
        "class": label.rep_class.value,
        "casimir": label.casimir,
        "band_convention": "supplementary band uses -1/2 < m0 < 1/2, strict",
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(label.rep_class.value, args.out)
    return 0


def cmd_reps_enumerate(args, config) -> int:
    label = unireps.classify(float(args.j), float(args.m0))
    if label.rep_class is unireps.RepClass.INVALID:
        raise ValueError(
            f"(j={args.j}, m0={args.m0}) does not label a unitary representation"
        )
    multiplet = unireps.enumerate_multiplet(label, int(args.count))
    payload = {
        "class": label.rep_class.value,
        "j": label.j,
        "m0": label.m0,
        "casimir": multiplet.casimir,
        "m_values": multiplet.m_values,
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(
            f"{label.rep_class.value} (j={label.j:g}, m0={label.m0:g}): "
            + " ".join(f"{m:g}" for m in multiplet.m_values),
            args.out,
        )
    return 0


def cmd_reps_region_grid(args, config) -> int:
    j_values = parse_range_spec(args.j)
    m_values = parse_range_spec(args.m)
    lines = ["j,m,region"]
    for j in j_values:
        for m in m_values:
            region = unireps.region_of(float(j), float(m))
            lines.append(f"{j:.6g},{m:.6g},{region.value}")
    _emit("\n".join(lines), args.out)
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sips",
        description="Bound-state spectra and wavefunctions of shape-invariant "
        "potentials, their SO(2,1) potential algebra, and a finite-difference "
        "cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, model=True, out=True, fmt=("text", "json")):
        if model:
            sp.add_argument("--model", help="catalog model id")
            sp.add_argument("--params", help="comma-separated key=value, e.g. a=3,B=1")
            sp.add_argument("--grid", help="grid spec min:max:n (default per model)")
        sp.add_argument("--config", help="key=value config file (flags win)")
        if fmt:
            sp.add_argument("--format", choices=fmt, default=None if model else fmt[0])
        if out:
            sp.add_argument("--out", help="write output to this path (atomic)")

    sp = sub.add_parser("list", help="catalog metadata")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_list)

    sp = sub.add_parser("spectrum", help="bound-state energies")
    add_common(sp)
    sp.add_argument("--levels", type=int, default=None)
    sp.add_argument("--route", choices=("shape", "algebra", "both"), default=None)
    sp.add_argument("--m", type=float, default=None, help="sector index (algebra route); default a+1/2")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("verify", help="certify analytic spectrum against the eigensolver")
    add_common(sp)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--levels", type=int, default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("wavefunction", help="emit the n-th bound state")
    add_common(sp, fmt=("csv", "json"))
    sp.add_argument("--n", type=int, required=True, help="level index")
    sp.set_defaults(func=cmd_wavefunction)

    sp_algebra = sub.add_parser("algebra", help="potential-algebra checks")
    sub_algebra = sp_algebra.add_subparsers(dest="subcommand", required=True)
    sp = sub_algebra.add_parser("check", help="closure and commutator residuals")
    add_common(sp)
    sp.add_argument("--m", type=float, required=True, help="sector index")
    sp.add_argument("--tol", type=float, default=None)
    sp.set_defaults(func=cmd_algebra_check)

    sp_reps = sub.add_parser("reps", help="SO(2,1) representation queries")
    sub_reps = sp_reps.add_subparsers(dest="subcommand", required=True)

    sp = sub_reps.add_parser("classify", help="match (j, m0) to a class")
    sp.add_argument("--j", type=float, required=True)
    sp.add_argument("--m0", type=float, required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_reps_classify, config=None)

    sp = sub_reps.add_parser("enumerate", help="list m-values of a multiplet")
    sp.add_argument("--j", type=float, required=True)
    sp.add_argument("--m0", type=float, required=True)
    sp.add_argument("--count", type=int, default=8)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_reps_enumerate, config=None)

    sp = sub_reps.add_parser("region-grid", help="CSV raster of allowed regions")
    sp.add_argument("--j", required=True, help="range min:max:step")
    sp.add_argument("--m", required=True, help="range min:max:step")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_reps_region_grid, config=None)

    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    # argparse misreads values like "-20:20:4001" as option strings; fold
    # them into --flag=value form so negative-leading specs parse.
    out: list[str] = []
    i = 0
    value_flags = {"--grid", "--j", "--m", "--m0", "--params"}
    while i < len(argv):
        token = argv[i]
        if (
            token in value_flags
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
        ):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_normalize_argv(list(argv)))
    config = {}
    if getattr(args, "config", None):
        try:
            config = _load_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args, config)
    except _USAGE_ERRORS as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except BoundaryContaminationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
