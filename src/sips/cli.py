"""Command-line front end.

Commands: list, spectrum, verify, wavefunction, algebra check,
reps {classify, enumerate, region-grid}. Exit codes: 0 success,
1 verification/consistency failure, 2 usage or validation error.

Every default is an argparse default, except two that depend on the model:
without --grid a command runs on catalog.default_grid(model), the grid the
library uses too, and verify's --levels defaults to min(bound states, 5).
--levels, --n and --count above MAX_COUNT, --grid point counts and
region-grid cell counts above MAX_POINTS, and a verify whose levels times
grid points (a wavefunction whose n + 1 times grid points) exceed
MAX_LEVEL_POINTS are rejected, so no input can ask for unbounded work. A
--tol that is not a finite number > 0 is rejected too, and so is a result
that overflows: a report holding inf or nan is no JSON, so main exits 2
naming the field instead, whatever the format.

The member's a has one source per command: --params, or algebra check's
sector --m, whose member ``algebra`` gives (an a in its --params is refused).
A value that is no number exits 2 naming its option, no option is read by a
prefix, and main builds the parser of each command once per process.

Each cmd_* function computes and writes nothing: it returns (exit code,
JSON document, text), and main writes the document for --format json and
the text otherwise, both through _emit.

Each command imports the library modules it uses when it runs, so the module
itself loads only the standard library. The five scalar commands, `list`,
`spectrum` and `reps classify|enumerate|region-grid`, never import numpy;
`verify`, `wavefunction` and `algebra check` do, and only `verify` imports
scipy, inside the referee: top-level scipy and its LAPACK extension, never
`scipy.linalg`. No command imports `dataclasses`.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import math
import os
import sys
import warnings
from typing import TYPE_CHECKING

from .errors import SipsError

if TYPE_CHECKING:
    from .catalog import ParameterPoint
    from .grids import Grid

# Largest --levels, --n or --count accepted; each asks for work in proportion.
MAX_COUNT = 10_000
# Largest --grid point count or reps region-grid cell count (j count × m count).
MAX_POINTS = 1_000_000
# Largest verify levels × grid points, or wavefunction (n + 1) × grid points:
# the referee's work and the ladder's grow as these products, about 0.3 µs and
# 0.03 µs each on a 2-core host, so the largest accepted verify takes seconds
# and wavefunction about one (at the other limits: most of an hour, minutes).
MAX_LEVEL_POINTS = 20_000_000


def _number(text: str, what: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        kind_name = "an integer" if kind is int else "a number"
        raise ValueError(f"{what}: {text!r} is not {kind_name}") from None


def parse_grid_spec(spec: str) -> Grid:
    """Grid spec 'min:max:n', e.g. '-20:20:4001'. Errors name --grid."""
    from .grids import Grid

    what = f"--grid {spec!r}"
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"{what} must be min:max:n")
    n_points = _number(parts[2], what, int)
    if n_points > MAX_POINTS:
        raise ValueError(f"--grid of {n_points} points exceeds the limit of {MAX_POINTS}")
    x_min, x_max = _number(parts[0], what), _number(parts[1], what)
    try:
        return Grid(x_min, x_max, n_points)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def parse_range_spec(spec: str, option: str = "") -> list[float]:
    """Range spec 'min:max:step' for the region raster axes: the values of
    numpy's arange(min, max + step/2, step), computed as it computes them.
    Errors name the range as "{option} range 'spec'"."""
    what = f"{option} range {spec!r}".lstrip()
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"{what} must be min:max:step")
    lo, hi, step = (_number(part, what) for part in parts)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{what}: min and max must be finite numbers")
    if not (0.0 < step < math.inf and lo <= hi):
        raise ValueError(f"{what}: need min <= max and a finite step > 0")
    # arange's length, ceil((stop - min)/step), counted before anything is built
    length = (hi + 0.5 * step - lo) / step
    if not length <= MAX_POINTS:
        raise ValueError(f"{what} exceeds the limit of {MAX_POINTS} points")
    count, delta = math.ceil(length), (lo + step) - lo
    if not count:  # max + step/2 rounds back to min: arange would hold no point
        raise ValueError(f"{what}: the step vanishes against min and max, leaving no point")
    # arange's values: min, min + step, then min + i·delta with delta the
    # difference of those two
    return [lo, lo + step][:count] + [lo + i * delta for i in range(2, count)]


def parse_params(model, text: str | None, fixed_a: float | None = None) -> ParameterPoint:
    """Comma-separated key=value parameters, checked against the model. Given
    fixed_a (algebra check's a = m - 1/2), the text holds only auxiliaries."""
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
            if key in values:
                raise ValueError(f"parameter {key!r} given more than once in --params")
            if key == "a" and fixed_a is not None:
                raise ValueError("parameter 'a' is set by --m (a = m - 1/2), not by --params")
            if key not in model.param_names:
                raise ValueError(
                    f"unknown parameter {key!r} for model {model.id} "
                    f"(takes {', '.join(model.param_names)})"
                )
            values[key] = _number(raw, f"parameter {key!r} in --params")
    a = values.pop("a", model.default_a if fixed_a is None else fixed_a)
    if a is None:
        raise ValueError(f"model {model.id} requires a=... in --params")
    return ParameterPoint(a, values)


def _grid(args, model) -> Grid:
    from . import catalog

    return catalog.default_grid(model) if args.grid is None else parse_grid_spec(args.grid)


def _require_finite(value, path: str = "") -> None:
    """Raise ValueError naming the first field of a report that holds an inf
    or nan, which JSON cannot carry. A wavefunction record's ``values`` are
    skipped: SampledFunction keeps them finite."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"report field {path} is {value}, not a finite number")
    elif isinstance(value, dict):
        for key, item in value.items():
            if path or key != "values":
                _require_finite(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _require_finite(item, f"{path}[{i}]")


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


def cmd_list(args) -> tuple:
    from . import catalog

    models = catalog.list_models()
    lines = [f"{'id':<14} {'params':<8} {'domain':<10} {'step':>5}  validity"]
    for m in models:
        lines.append(
            f"{m['id']:<14} {','.join(m['param_names']):<8} "
            f"{m['domain']:<10} {m['param_step']:>5}  {m['validity']}"
        )
    return 0, models, "\n".join(lines)


def cmd_spectrum(args) -> tuple:
    from . import algebra as alg, catalog, export, susy

    model = catalog.get_model(args.model)
    route, levels = args.route, args.levels
    p = parse_params(model, args.params)

    payload: dict = {"model": model.id, "params": p.as_dict(), "route": route}
    lines = []
    if route in ("shape", "both"):
        shape_spec = susy.spectrum_by_shape_invariance(model, p, levels)
        payload["shape_invariance"] = shape_spec.to_dict()
        lines.append(f"shape-invariance: {export.format_energies(shape_spec.energies)}")
    if route in ("algebra", "both"):
        algebra_spec = alg.algebra_spectrum(model, p, levels)
        m = alg.sector_of(p.a)
        payload["algebra"] = algebra_spec.to_dict()
        payload["algebra"]["m"] = m
        lines.append(f"algebra (m={m:g}): {export.format_energies(algebra_spec.energies)}")
    exit_code = 0
    if route == "both":
        routes = alg.compare_routes(shape_spec, algebra_spec)
        payload["max_discrepancy"] = routes.max_discrepancy
        lines.append(f"max discrepancy: {routes.max_discrepancy:.3e}")
        if not routes.agree:
            lines.append("ROUTE DISAGREEMENT beyond the rounding floor 16*eps*n*|E_n|")
            exit_code = 1
    return exit_code, payload, "\n".join(lines)


def cmd_verify(args) -> tuple:
    from . import catalog, export, oracle, susy

    model = catalog.get_model(args.model)
    p = parse_params(model, args.params)
    grid = _grid(args, model)
    tol = args.tol
    n_bound = catalog.max_bound_states(model, p)
    levels = min(5 if args.levels is None else args.levels, n_bound)
    if levels * grid.n_points > MAX_LEVEL_POINTS:
        raise ValueError(
            f"verify of {levels} levels on {grid.n_points} points exceeds the limit of "
            f"{MAX_LEVEL_POINTS} levels × points"
        )

    k_max = min(3, n_bound - 1)
    si_report = susy.verify_shape_invariance(model, p, grid, k_max=k_max)
    analytic = susy.spectrum_by_shape_invariance(model, p, levels)
    # the closed-form levels place the referee's bisection windows; its
    # Sturm counts certify them, so they cannot steer the levels it returns
    numeric = oracle.spectrum(model, p, grid, levels, tol, near=analytic.energies)
    comparison = oracle.compare_spectra(analytic, numeric, tol)
    si_ok = si_report.max_excess < tol
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
    lines = [
        f"model {model.id}  params {p.as_dict()}",
        f"shape-invariance max residual: {si_report.max_residual:.3e}, "
        f"{si_report.max_excess:.3e} over its rounding floor "
        f"({'ok' if si_ok else 'FAIL'} at tol {tol:g})",
        f"spectrum analytic: {export.format_energies(comparison.analytic)}",
        f"spectrum numeric:  {export.format_energies(comparison.numeric)}",
        f"max |diff|: {comparison.max_abs_diff:.3e} at level {comparison.worst_level} "
        f"({'ok' if comparison.passed else 'FAIL'} at tol {tol:g})",
        "PASS" if passed else "FAIL",
    ]
    return 0 if passed else 1, payload, "\n".join(lines)


def cmd_wavefunction(args) -> tuple:
    from . import catalog, export, grids, oracle, susy

    model = catalog.get_model(args.model)
    p = parse_params(model, args.params)
    grid = _grid(args, model)
    n = args.n
    energy = catalog.closed_form_energy(model, p, n)
    if (n + 1) * grid.n_points > MAX_LEVEL_POINTS:
        raise ValueError(
            f"wavefunction n={n} on {grid.n_points} points exceeds the limit of "
            f"{MAX_LEVEL_POINTS} (n + 1) × points"
        )
    psi = susy.excited_state_by_ladder(model, p, n, grid)
    T = oracle.discretize_hamiltonian(
        lambda x: catalog.potential_minus(model, x, p), grid
    )
    metadata = {
        "model": model.id,
        "params": p.as_dict(),
        "n": n,
        "energy": energy,
        "node_count": grids.node_count(psi),
        "oracle_residual": oracle.residual_norm(T, psi, energy),
    }
    # the record's values list is built only when it is written
    if args.format == "json":
        return 0, export.wavefunction_record(psi=psi, **metadata), None
    return 0, None, export.wavefunction_csv_chunks(psi, metadata)


def cmd_algebra_check(args) -> tuple:
    from . import algebra as alg, catalog

    model = catalog.get_model(args.model)
    m, tol = args.m, args.tol
    if not math.isfinite(m):
        raise ValueError(f"--m {m:g} must be a finite number")
    grid = _grid(args, model)
    # sector m fixes the member's a; --params supplies only the auxiliaries
    aux_p = parse_params(model, args.params, fixed_a=alg.member_of(m))

    worst = floor = 0.0
    reports = []
    for name, sector in alg.gaussian_suite(grid, m).items():
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
        floor = max(floor, closure["rounding_floor"])
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
    if floor >= tol:
        # a report that overflowed names its field first
        _require_finite(payload)
        raise ValueError(
            f"the check cannot resolve tol {tol:g} at m={m:g}: rounding alone reaches {floor:.1e}"
        )
    lines = [f"model {model.id}  m={m:g}"]
    for report in reports:
        res = report["residuals"]
        lines.append(
            f"  {report['test_function']:<16} closure={res['closure']:.3e} "
            f"j3=({res['j3_commutator_plus']:.1e}, {res['j3_commutator_minus']:.1e}) "
            f"products=({res['product_plus_minus']:.3e}, {res['product_minus_plus']:.3e})"
        )
    lines.append(f"worst residual {worst:.3e} ({'ok' if worst < tol else 'FAIL'} at tol {tol:g})")
    return 0 if worst < tol else 1, payload, "\n".join(lines)


def cmd_reps_classify(args) -> tuple:
    from . import unireps

    label = unireps.classify(args.j, args.m0)
    payload = {
        "j": args.j,
        "m0": args.m0,
        "class": label.rep_class.value,
        "casimir": label.casimir,
        "band_convention": "supplementary band uses -1/2 < m0 < 1/2, strict",
    }
    return 0, payload, label.rep_class.value


def cmd_reps_enumerate(args) -> tuple:
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
    text = f"{label.rep_class.value} (j={label.j:g}, m0={label.m0:g}): " + " ".join(
        f"{m:g}" for m in multiplet.m_values
    )
    return 0, payload, text


def cmd_reps_region_grid(args) -> tuple:
    from . import unireps

    j_values, m_values = parse_range_spec(args.j, "--j"), parse_range_spec(args.m, "--m")
    if len(j_values) * len(m_values) > MAX_POINTS:
        raise ValueError(
            f"raster of {len(j_values)}x{len(m_values)} cells exceeds the limit of {MAX_POINTS}"
        )
    # "m,region" text for every m and region, formatted once and picked per
    # cell; each row then joins its cells behind its "j," prefix
    m_texts = [f"{m:.6g}," for m in m_values]
    cells = {region: [text + region.value for text in m_texts] for region in unireps.Region}
    raster = unireps.region_rows(j_values, m_values, cells)
    rows = (f"{j:.6g}," + f"\n{j:.6g},".join(row) + "\n" for j, row in zip(j_values, raster))
    return 0, None, itertools.chain(["j,m,region\n"], rows)


# ------------------------------------------------------------------ parser


def _add_common(
    sp, model=True, grid=True, fmt=("text", "json"),
    params_help="comma-separated key=value, e.g. a=3,B=1",
) -> None:
    if model:
        sp.add_argument("--model", help="catalog model id")
        sp.add_argument("--params", help=params_help)
        if grid:
            sp.add_argument("--grid", help="grid spec min:max:n (default per model)")
    if fmt:
        sp.add_argument("--format", choices=fmt, default=fmt[0])
    sp.add_argument("--out", help="write output to this path (atomic)")


def _add_list(sp) -> None:
    _add_common(sp, model=False)
    sp.set_defaults(func=cmd_list)


def _add_spectrum(sp) -> None:
    _add_common(sp, grid=False)
    sp.add_argument("--levels", type=int, default=3)
    sp.add_argument("--route", choices=("shape", "algebra", "both"), default="shape")
    sp.set_defaults(func=cmd_spectrum)


def _add_verify(sp) -> None:
    _add_common(sp)
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--levels", type=int, default=None, help="default min(bound states, 5)")
    sp.set_defaults(func=cmd_verify)


def _add_wavefunction(sp) -> None:
    _add_common(sp, fmt=("csv", "json"))
    sp.add_argument("--n", type=int, required=True, help="level index")
    sp.set_defaults(func=cmd_wavefunction)


def _add_algebra(sp_algebra) -> None:
    sub_algebra = sp_algebra.add_subparsers(dest="subcommand", required=True)
    sp = sub_algebra.add_parser("check", help="closure and commutator residuals")
    _add_common(sp, params_help="comma-separated key=value of the parameters other than a, "
                "which --m sets, e.g. B=1")
    sp.add_argument("--m", type=float, required=True, help="sector index")
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.set_defaults(func=cmd_algebra_check)


def _add_reps(sp_reps) -> None:
    sub_reps = sp_reps.add_subparsers(dest="subcommand", required=True)

    sp = sub_reps.add_parser("classify", help="match (j, m0) to a class")
    sp.add_argument("--j", type=float, required=True)
    sp.add_argument("--m0", type=float, required=True)
    _add_common(sp, model=False)
    sp.set_defaults(func=cmd_reps_classify)

    sp = sub_reps.add_parser("enumerate", help="list m-values of a multiplet")
    sp.add_argument("--j", type=float, required=True)
    sp.add_argument("--m0", type=float, required=True)
    sp.add_argument("--count", type=int, default=8)
    _add_common(sp, model=False)
    sp.set_defaults(func=cmd_reps_enumerate)

    sp = sub_reps.add_parser("region-grid", help="CSV raster of allowed regions")
    sp.add_argument("--j", required=True, help="range min:max:step")
    sp.add_argument("--m", required=True, help="range min:max:step")
    _add_common(sp, model=False, fmt=None)
    sp.set_defaults(func=cmd_reps_region_grid)


# command name: (help line, function that fills in its subparser)
_COMMANDS = {
    "list": ("catalog metadata", _add_list),
    "spectrum": ("bound-state energies", _add_spectrum),
    "verify": ("certify analytic spectrum against the eigensolver", _add_verify),
    "wavefunction": ("emit the n-th bound state", _add_wavefunction),
    "algebra": ("potential-algebra checks", _add_algebra),
    "reps": ("SO(2,1) representation queries", _add_reps),
}


class _Parser(argparse.ArgumentParser):
    """Reads an option only when it is spelled in full: a prefix such as --m
    must not stand for --model. add_subparsers builds nested parsers with
    type(self), so every parser of the tree is one of these."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The sips parser. Given the name of a command, only that command's
    subparser (for algebra and reps, its whole group) is built: enough to
    parse an argv that starts with that name, with the same result, usage
    lines and messages as the whole tree. Without one, every command is built."""
    parser = _Parser(
        prog="sips",
        description="Bound-state spectra and wavefunctions of shape-invariant "
        "potentials, their SO(2,1) potential algebra, and a finite-difference "
        "cross-check.",
    )
    # The top-level usage line lists every command either way. An explicit
    # metavar would also rename the positional in argparse's messages, so it
    # is set only where those messages cannot occur: the command is given.
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}",
    )
    for name, (help_text, add_arguments) in _COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


@functools.cache
def _parser_for(command: str | None) -> argparse.ArgumentParser:
    """build_parser(command), built once per process: a parser keeps no state
    between parse_args calls, its prog is the fixed "sips", and its help reads
    the terminal width when it prints."""
    return build_parser(command)


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
    argv = _normalize_argv(sys.argv[1:] if argv is None else list(argv))
    # an argv that does not start with a command gets the whole tree, whose
    # help and errors list every command
    parser = _parser_for(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        for flag in ("levels", "n", "count"):
            value = getattr(args, flag, None)
            if value is not None and value > MAX_COUNT:
                raise ValueError(f"--{flag} {value} exceeds the limit of {MAX_COUNT}")
        levels = getattr(args, "levels", None)
        if levels is not None and levels < 1:
            raise ValueError("--levels must be >= 1")
        tol = getattr(args, "tol", None)
        if tol is not None and not 0.0 < tol < math.inf:
            raise ValueError(f"--tol {tol:g} must be a finite number > 0")
        # explicit finiteness checks reject what overflows; numpy's
        # floating-point warnings (RuntimeWarning) are noise
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, document, text = args.func(args)
            _require_finite(document)
            if getattr(args, "format", None) == "json":
                from .export import json_chunks

                text = json_chunks(document)
            _emit(text, args.out)
        return code
    except (SipsError, KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
