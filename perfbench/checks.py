"""Checkers: each compares one command's output with `reference`.

A checker returns an Outcome or raises CheckError when the output is wrong.
An operation that produced a correct answer but a wrong verdict, or a state
whose shape is wrong in a way the ladder's known roundoff explains, is
returned with ``failed=True`` instead: it is counted, not fatal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

import reference as ref
from inputs import DEFAULT_BOX, Op, grid_of, model_params

ENERGY_TOL = 1e-9  # closed forms are sums of a few doubles
NORM_TOL = 1e-6  # CSV keeps 12 significant digits
VERIFY_TOL = 1e-3  # the program's default; the workloads do not pass --tol


class CheckError(Exception):
    pass


@dataclass
class Outcome:
    failed: bool = False
    gap: float | None = None  # worst |program - closed form| for accuracy
    grid_points: int | None = None
    reported_diff: float | None = None  # the program's own max |diff|


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _json(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from None


def _close(got, want, tol: float, what: str) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    _require(bool(np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))),
             f"{what}: {got.tolist()} != {want.tolist()}")


def check_list(op: Op, rc: int, stdout: str) -> Outcome:
    _require(rc == 0, f"exit {rc}")
    ids = {line.split()[0] for line in stdout.splitlines()[1:] if line.strip()}
    _require(ids == set(ref.FAMILIES), f"model ids {sorted(ids)}")
    return Outcome()


def check_spectrum(op: Op, rc: int, stdout: str) -> Outcome:
    _require(rc == 0, f"exit {rc}")
    payload = _json(stdout)
    model = op.info["model"]
    a, _ = model_params(op)
    want = ref.energies(model, a, op.info["levels"])
    _close(payload["shape_invariance"]["energies"], want, ENERGY_TOL, "shape-invariance energies")
    _close(payload["algebra"]["energies"], want, ENERGY_TOL, "algebra energies")
    _require(payload["max_discrepancy"] <= 1e-9, "routes disagree")
    return Outcome()


def check_verify(op: Op, rc: int, stdout: str) -> Outcome:
    """Analytic levels must equal the closed form. Numeric levels must be no
    further from it than twice the error of a plain second-order
    discretization on the same grid (LAPACK), so a more accurate referee
    passes and a broken one does not. PASS must come with every level within
    tol; FAIL for a correct spectrum is a failed operation."""
    _require(rc in (0, 1), f"exit {rc}")
    payload = _json(stdout)
    model = op.info["model"]
    a, B = model_params(op)
    spectrum = payload["spectrum"]
    analytic = np.asarray(spectrum["analytic"], dtype=float)
    numeric = np.asarray(spectrum["numeric"], dtype=float)
    levels = op.info["levels"] or min(5, ref.bound_levels(model, a))
    closed = ref.energies(model, a, levels)
    _close(analytic, closed, ENERGY_TOL, "analytic levels")
    _require(numeric.shape == closed.shape, "numeric level count")
    x_min, x_max, n_points = payload["grid"]
    lapack = ref.lapack_levels(model, a, B, (x_min, x_max, int(n_points)), closed.size)
    bound = 2.0 * np.abs(lapack - closed) + 1e-6
    _require(bool(np.all(np.abs(numeric - closed) <= bound)),
             f"numeric levels {numeric.tolist()} vs LAPACK {lapack.tolist()}")
    _require(payload["shape_invariance"]["max_residual"] < VERIFY_TOL, "shape-invariance residual")
    gap = float(np.max(np.abs(numeric - closed)))
    passed = bool(payload["passed"])
    _require(passed == (rc == 0), "exit code disagrees with the verdict")
    if passed:
        _require(gap < VERIFY_TOL, f"PASS with |diff| {gap:.3e}")
        return Outcome(gap=gap, grid_points=int(n_points), reported_diff=spectrum["max_abs_diff"])
    return Outcome(failed=True, grid_points=int(n_points))


def _read_state(op: Op) -> tuple[np.ndarray, np.ndarray, dict]:
    with open(op.out) as handle:
        text = handle.read()
    if op.info["fmt"] == "json":
        record = json.loads(text)
        g = record["grid"]
        x = np.linspace(g["x_min"], g["x_max"], g["n_points"])
        return x, np.asarray(record["values"], dtype=float), record
    header, _, body = text.partition("x,psi\n")
    meta = {}
    for line in header.splitlines():
        key, _, value = line.lstrip("# ").partition(": ")
        meta[key] = value
    table = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float).reshape(-1, 2)
    return table[:, 0], table[:, 1], meta


def check_wavefunction(op: Op, rc: int, stdout: str) -> Outcome:
    """The state read back from its file: energy metadata, unit norm, and
    the gap to the closed-form eigenfunction. A node count other than n is a
    failed operation."""
    _require(rc == 0, f"exit {rc}")
    model, n = op.info["model"], op.info["n"]
    a, B = model_params(op)
    x, psi, meta = _read_state(op)
    box = grid_of(op)
    if box is not None:
        _require(x.size == box[2] and math.isclose(x[0], box[0]) and math.isclose(x[-1], box[1]),
                 "grid differs from --grid")
    else:
        _require(x[0] >= DEFAULT_BOX.get(model, (-20.0, 20.0))[0] - 1e-9, "grid starts left of the box")
    _require(bool(np.all(np.abs(np.diff(x) - (x[1] - x[0])) < 1e-9 * max(1.0, abs(x[-1])))), "non-uniform grid")
    _require(math.isclose(float(meta["energy"]), ref.energy(model, a, n), rel_tol=1e-9, abs_tol=1e-9),
             f"energy {meta['energy']}")
    _require(abs(ref.trapezoid_norm2(x, psi) - 1.0) < NORM_TOL, "norm is not 1")
    gap = float(np.max(np.abs(psi - ref.eigenfunction(model, x, a, B, n))))
    _require(gap < 0.5, f"state is not ψ_{n}: max gap {gap:.3e}")
    return Outcome(failed=ref.node_count(psi) != n, gap=gap, grid_points=int(x.size))


def check_algebra(op: Op, rc: int, stdout: str) -> Outcome:
    """The closure [j₊, j₋] = -2j₃ and the product forms hold as operator
    identities for the slope-2 families, so every residual must be small."""
    _require(rc == 0, f"exit {rc}")
    payload = _json(stdout)
    _require(payload["model"] == op.info["model"] and payload["m"] == op.info["m"], "echo")
    residuals = [v for check in payload["checks"] for v in check["residuals"].values()]
    _require(len(residuals) > 0 and max(residuals) < 1e-4 and payload["passed"], "closure residuals")
    return Outcome()


def check_classify(op: Op, rc: int, stdout: str) -> Outcome:
    _require(rc == 0, f"exit {rc}")
    want = ref.rep_class(op.info["j"], op.info["m0"])
    _require(stdout.strip() == want, f"class {stdout.strip()!r} != {want!r}")
    return Outcome()


def check_enumerate(op: Op, rc: int, stdout: str) -> Outcome:
    """m-values: the requested count, unit steps through m0, one-sided for
    D± and balanced for D_s, each passing both positivity inequalities."""
    _require(rc == 0, f"exit {rc}")
    payload = _json(stdout)
    j, m0, kind = op.info["j"], op.info["m0"], op.info["class"]
    m = np.sort(np.asarray(payload["m_values"], dtype=float))
    _require(payload["class"] == kind and m.size == op.info["count"], "class or count")
    _require(bool(np.all(np.diff(m) == 1.0)) and m0 in m.tolist(), "m-values are not unit steps through m0")
    if kind == "D_plus":
        _require(m[0] == m0, "D_plus is not bounded below by m0")
    elif kind == "D_minus":
        _require(m[-1] == m0, "D_minus is not bounded above by m0")
    else:
        _require(abs(int(np.sum(m > m0)) - int(np.sum(m < m0))) <= 1, "D_s is not balanced")
    lower, upper = ref.positivity(j, m)
    _require(bool(np.all(lower >= -1e-12) and np.all(upper >= -1e-12)), "positivity")
    _require(math.isclose(payload["casimir"], j * (j + 1.0), abs_tol=1e-12), "casimir")
    return Outcome()


def check_region(op: Op, rc: int, stdout: str) -> Outcome:
    """Every row against the unitarity inequalities at the exact grid value,
    and the raster against its m ↔ -m mirror."""
    _require(rc == 0, f"exit {rc}")
    (j_lo, j_step, nj), (m_lo, m_step, nm) = op.info["j"], op.info["m"]
    with open(op.out) as handle:
        header, _, body = handle.read().partition("\n")
    cells = body.replace("\n", ",").split(",")[:-1]
    _require(header == "j,m,region" and len(cells) == 3 * nj * nm, f"{len(cells) // 3} rows")
    jj, mm = np.meshgrid(j_lo + j_step * np.arange(nj), m_lo + m_step * np.arange(nm), indexing="ij")
    for column, want in ((cells[0::3], jj), (cells[1::3], mm)):
        printed = np.array(column, dtype=float).reshape(nj, nm)
        _require(bool(np.all(np.abs(printed - want) <= 1e-5 * np.maximum(1.0, np.abs(want)))), "j or m column")
    got = np.array([ref.REGION_CODES[name] for name in cells[2::3]]).reshape(nj, nm)
    want = ref.region(jj, mm)
    bad = np.argwhere(got != want)
    _require(bad.size == 0, f"{len(bad)} rows differ, first (j, m) = "
             f"{(jj[tuple(bad[0])], mm[tuple(bad[0])]) if bad.size else None}")
    _require(bool(np.all(ref.mirror(got[:, ::-1]) == got)), "raster is not symmetric under m -> -m")
    return Outcome()


CHECKERS = {
    "list": check_list,
    "spectrum": check_spectrum,
    "verify": check_verify,
    "wavefunction": check_wavefunction,
    "algebra": check_algebra,
    "classify": check_classify,
    "enumerate": check_enumerate,
    "region": check_region,
}


def check(op: Op, rc: int, stdout: str) -> Outcome:
    try:
        return CHECKERS[op.kind](op, rc, stdout)
    except CheckError:
        raise
    except Exception as exc:  # output the checker could not read is a wrong answer
        raise CheckError(f"unreadable output: {type(exc).__name__}: {exc}") from None
