"""Command-line front end.

Commands: list, spectrum, verify, wavefunction, algebra check,
reps {classify, enumerate, region-grid}. Exit codes: 0 success,
1 verification/consistency failure, 2 usage or validation error.

Every default is an argparse default, except two that depend on the model:
without --grid a command runs on catalog.default_grid(model), the grid the
library uses too, and verify's --levels defaults to min(bound states, 5).
--levels, --n and --count above MAX_COUNT, and --grid point counts and
region-grid cell counts above MAX_POINTS, are rejected, so no input can ask
for unbounded work. A --tol that is not a finite number > 0 is rejected too.

Each command imports the library modules it uses when it runs, so the module
itself loads only the standard library: `reps classify` and `reps enumerate`
never import numpy, and only `verify` imports scipy (inside the referee).
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import math
import os
import sys
import warnings
from typing import TYPE_CHECKING

from .errors import SipsError

if TYPE_CHECKING:
    import numpy as np

    from .catalog import ParameterPoint
    from .grids import Grid, SampledFunction

ROUTE_AGREEMENT_TOL = 1e-9
# Largest --levels, --n or --count accepted; each asks for work in proportion.
MAX_COUNT = 10_000
# Largest --grid point count or reps region-grid cell count (j count × m count).
MAX_POINTS = 1_000_000

_USAGE_ERRORS = (SipsError, KeyError, ValueError)


def parse_grid_spec(spec: str) -> Grid:
    """Grid spec 'min:max:n', e.g. '-20:20:4001'."""
    from .grids import Grid

    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be min:max:n, got {spec!r}")
    n_points = int(parts[2])
    if n_points > MAX_POINTS:
        raise ValueError(f"--grid of {n_points} points exceeds the limit of {MAX_POINTS}")
    return Grid(float(parts[0]), float(parts[1]), n_points)


def parse_range_spec(spec: str) -> np.ndarray:
    """Range spec 'min:max:step' for the region raster axes."""
    import numpy as np

    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"range spec must be min:max:step, got {spec!r}")
    lo, hi, step = float(parts[0]), float(parts[1]), float(parts[2])
    if not (0.0 < step < math.inf and lo <= hi):
        raise ValueError(f"bad range {spec!r}: need min <= max and a finite step > 0")
    # np.arange's length, counted before it allocates anything
    if not (hi + 0.5 * step - lo) / step <= MAX_POINTS:
        raise ValueError(f"range {spec!r} exceeds the limit of {MAX_POINTS} points")
    return np.arange(lo, hi + 0.5 * step, step)


def parse_params(model, text: str | None, default_a: float | None = None) -> ParameterPoint:
    """Comma-separated key=value parameters, checked against the model."""
    from .catalog import ParameterPoint, get_model

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


def _grid(args, model) -> Grid:
    from . import catalog

    return catalog.default_grid(model) if args.grid is None else parse_grid_spec(args.grid)


def _emit(text, out: str | None) -> None:
    """Write text to --out (atomically) or stdout. text is a str, given a
    final newline if it lacks one, or an iterable of str chunks ending in one."""
    from . import export

    if isinstance(text, str):
        text = [text if text.endswith("\n") else text + "\n"]
    chunks = export.TextChunks(text)
    if out:
        try:
            export.atomic_write_text(out, chunks)
        except OSError as exc:
            raise SipsError(f"cannot write {out}: {exc.strerror or exc}") from None
        return
    if sys.stdout is None:  # Python starts with sys.stdout None when fd 1 is closed
        raise SipsError(f"cannot write standard output: {os.strerror(errno.EBADF)}")
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError as exc:
        # Nothing more can reach stdout; point it at the null device so the
        # flush at exit stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            raise SipsError(f"cannot write standard output: {exc.strerror or exc}") from None
        # a reader that stops early (`| head`) is no error: the exit code stands


# ----------------------------------------------------------------- commands


def cmd_list(args) -> int:
    from . import catalog

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


def cmd_spectrum(args) -> int:
    import numpy as np

    from . import algebra as alg
    from . import export, susy
    from .catalog import get_model

    model = get_model(args.model)
    route, m_value, levels = args.route, args.m, args.levels
    # The algebra route fixes a through the sector index, so a=... is only
    # mandatory when the shape-invariance route runs or no --m was given.
    default_a = m_value - 0.5 if (route == "algebra" and m_value is not None) else None
    p = parse_params(model, args.params, default_a=default_a)

    payload: dict = {"model": model.id, "params": p.as_dict(), "route": route}
    lines = []
    if route in ("shape", "both"):
        shape_spec = susy.spectrum_by_shape_invariance(model, p, levels)
        payload["shape_invariance"] = shape_spec.to_dict()
        lines.append(f"shape-invariance: {export.format_energies(shape_spec.energies)}")
    if route in ("algebra", "both"):
        if m_value is None:
            m_value = p.a + 0.5
        algebra_spec = alg.algebra_spectrum(model, m_value, levels, dict(p.aux))
        payload["algebra"] = algebra_spec.to_dict()
        payload["algebra"]["m"] = m_value
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
    _emit(json.dumps(payload, indent=2) if args.format == "json" else "\n".join(lines), args.out)
    return exit_code


def cmd_verify(args) -> int:
    from . import catalog, export, oracle, susy
    from .catalog import get_model

    model = get_model(args.model)
    p = parse_params(model, args.params)
    grid = _grid(args, model)
    tol = args.tol
    n_bound = catalog.max_bound_states(model, p)
    levels = min(5 if args.levels is None else args.levels, n_bound)

    k_max = min(3, n_bound - 1)
    si_report = susy.verify_shape_invariance(model, p, grid, k_max=k_max)
    analytic = susy.spectrum_by_shape_invariance(model, p, levels)
    numeric = oracle.spectrum(model, p, grid, levels)
    comparison = oracle.compare_spectra(analytic, numeric, tol)
    si_ok = si_report.max_residual < tol
    passed = si_ok and comparison.passed

    payload = {
        "model": model.id,
        "params": p.as_dict(),
        "grid": [grid.x_min, grid.x_max, grid.n_points],
        "tol": tol,
        "shape_invariance": si_report.to_dict(),
        "spectrum": comparison.to_dict(),
        "passed": passed,
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [
            f"model {model.id}  params {p.as_dict()}",
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


def cmd_wavefunction(args) -> int:
    from . import catalog, export, oracle, susy
    from .catalog import get_model
    from .grids import node_count

    model = get_model(args.model)
    p = parse_params(model, args.params)
    grid = _grid(args, model)
    n = args.n
    energy = catalog.closed_form_energy(model, p, n)
    psi = susy.excited_state_by_ladder(model, p, n, grid)
    T = oracle.discretize_hamiltonian(
        lambda x: catalog.potential_minus(model, x, p), grid
    )
    residual = oracle.residual_norm(T, psi, energy)
    nodes = node_count(psi)
    metadata = {
        "model": model.id,
        "params": p.as_dict(),
        "n": n,
        "energy": energy,
        "node_count": nodes,
        "oracle_residual": residual,
    }
    if args.format == "json":
        record = export.wavefunction_record(
            model.id, p.as_dict(), n, energy, psi,
            node_count=nodes, oracle_residual=residual,
        )
        _emit(export.json_chunks(record), args.out)
    else:
        _emit(export.wavefunction_csv_chunks(psi, metadata), args.out)
    return 0


_TEST_FUNCTIONS = ("gaussian", "odd_gaussian", "offset_gaussian")


def _test_function(name: str, grid: Grid) -> SampledFunction:
    import numpy as np

    from .grids import SampledFunction

    x = grid.x
    if name == "gaussian":
        return SampledFunction(grid, np.exp(-(x**2)))
    if name == "odd_gaussian":
        return SampledFunction(grid, x * np.exp(-(x**2)))
    if name == "offset_gaussian":
        return SampledFunction(grid, np.exp(-((x - 1.0) ** 2) / 2.0))
    raise ValueError(f"unknown test function {name!r}")


def cmd_algebra_check(args) -> int:
    from . import algebra as alg
    from .catalog import get_model

    model = get_model(args.model)
    m, tol = args.m, args.tol
    grid = _grid(args, model)
    # a is fixed by the sector index; --params only supplies auxiliaries here
    aux_p = parse_params(model, args.params, default_a=m - 0.5) if args.params else None

    worst = 0.0
    reports = []
    for name in _TEST_FUNCTIONS:
        sector = alg.SectorFunction(m, _test_function(name, grid))
        # closure first: it rejects a test function that vanishes on the grid,
        # which the j3 residual would divide by
        closure = alg.closure_residual(model, sector, aux_p)
        j3 = alg.commutator_j3_residual(model, sector, aux_p)
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
    if args.format == "json":
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


def cmd_reps_classify(args) -> int:
    from . import unireps

    label = unireps.classify(args.j, args.m0)
    payload = {
        "j": args.j,
        "m0": args.m0,
        "class": label.rep_class.value,
        "casimir": label.casimir,
        "band_convention": "supplementary band uses -1/2 < m0 < 1/2, strict",
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(label.rep_class.value, args.out)
    return 0


def cmd_reps_enumerate(args) -> int:
    from . import unireps

    label = unireps.classify(args.j, args.m0)
    if label.rep_class is unireps.RepClass.INVALID:
        raise ValueError(
            f"(j={args.j}, m0={args.m0}) does not label a unitary representation"
        )
    multiplet = unireps.enumerate_multiplet(label, args.count)
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


def cmd_reps_region_grid(args) -> int:
    import numpy as np

    from . import unireps

    j_values = parse_range_spec(args.j)
    m_values = parse_range_spec(args.m)
    if j_values.size * m_values.size > MAX_POINTS:
        raise ValueError(f"raster of {j_values.size}x{m_values.size} cells exceeds the limit of {MAX_POINTS}")
    codes = unireps.region_index(j_values[:, None], m_values[None, :])
    # "m,region" text for every m and region, formatted once and picked per
    # cell; each row then joins its cells behind its "j," prefix
    cells = np.array(
        [[f"{m:.6g},{r.value}" for m in m_values.tolist()] for r in unireps.Region], dtype=object
    )
    columns = np.arange(m_values.size)
    rows = (
        f"{j:.6g}," + f"\n{j:.6g},".join(cells[row_codes, columns].tolist()) + "\n"
        for j, row_codes in zip(j_values.tolist(), codes)
    )
    _emit(itertools.chain(["j,m,region\n"], rows), args.out)
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

    def add_common(sp, model=True, fmt=("text", "json")):
        if model:
            sp.add_argument("--model", help="catalog model id")
            sp.add_argument("--params", help="comma-separated key=value, e.g. a=3,B=1")
            sp.add_argument("--grid", help="grid spec min:max:n (default per model)")
        if fmt:
            sp.add_argument("--format", choices=fmt, default=fmt[0])
        sp.add_argument("--out", help="write output to this path (atomic)")

    sp = sub.add_parser("list", help="catalog metadata")
    add_common(sp, model=False)
    sp.set_defaults(func=cmd_list)

    sp = sub.add_parser("spectrum", help="bound-state energies")
    add_common(sp)
    sp.add_argument("--levels", type=int, default=3)
    sp.add_argument("--route", choices=("shape", "algebra", "both"), default="shape")
    sp.add_argument("--m", type=float, default=None, help="sector index (algebra route); default a+1/2")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("verify", help="certify analytic spectrum against the eigensolver")
    add_common(sp)
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--levels", type=int, default=None, help="default min(bound states, 5)")
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
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.set_defaults(func=cmd_algebra_check)

    sp_reps = sub.add_parser("reps", help="SO(2,1) representation queries")
    sub_reps = sp_reps.add_subparsers(dest="subcommand", required=True)

    sp = sub_reps.add_parser("classify", help="match (j, m0) to a class")
    sp.add_argument("--j", type=float, required=True)
    sp.add_argument("--m0", type=float, required=True)
    add_common(sp, model=False)
    sp.set_defaults(func=cmd_reps_classify)

    sp = sub_reps.add_parser("enumerate", help="list m-values of a multiplet")
    sp.add_argument("--j", type=float, required=True)
    sp.add_argument("--m0", type=float, required=True)
    sp.add_argument("--count", type=int, default=8)
    add_common(sp, model=False)
    sp.set_defaults(func=cmd_reps_enumerate)

    sp = sub_reps.add_parser("region-grid", help="CSV raster of allowed regions")
    sp.add_argument("--j", required=True, help="range min:max:step")
    sp.add_argument("--m", required=True, help="range min:max:step")
    add_common(sp, model=False, fmt=None)
    sp.set_defaults(func=cmd_reps_region_grid)

    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    # argparse misreads values like "-20:20:4001" as option strings; fold
    # them into --flag=value form so negative-leading specs parse.
    out: list[str] = []
    i = 0
    value_flags = {"--grid", "--j", "--m", "--m0", "--params", "--tol"}
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
    try:
        for flag in ("levels", "n", "count"):
            value = getattr(args, flag, None)
            if value is not None and value > MAX_COUNT:
                raise ValueError(f"--{flag} {value} exceeds the limit of {MAX_COUNT}")
        tol = getattr(args, "tol", None)
        if tol is not None and not 0.0 < tol < math.inf:
            raise ValueError(f"--tol {tol:g} must be a finite number > 0")
        # explicit finiteness checks reject what overflows; numpy's
        # floating-point warnings (RuntimeWarning) are noise
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return args.func(args)
    except _USAGE_ERRORS as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
