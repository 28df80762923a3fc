"""Seeded inputs: each workload is a sequence of rounds of `sips` commands.

A round is the unit of work a run repeats until its time is used up, so the
mix of commands, and with it the share of failing ones, is the same in every
run whatever the seed or the run length. The seed only moves parameters
inside ranges in which every draw passes today (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from reference import FAMILIES, SO21_FAMILIES


@dataclass
class Op:
    """One `sips` command. ``argv`` has no program name; ``out`` names the
    file the command writes, if any; ``info`` is what the checker needs."""

    kind: str
    argv: list[str]
    info: dict = field(default_factory=dict)
    out: str | None = None


# Parameter ranges (a, and B where the family has it). Every draw passes
# `verify --levels 3` at tol 1e-3 on the listed grids, and has at least five
# bound states where wavefunctions n = 0..4 are asked for.
B_RANGE = {"scarf": (-2.0, 2.0), "morse": (0.5, 3.0)}
REFEREE_A = {1001: (2.6, 3.0), 4001: (2.6, 4.5), 16001: (2.6, 4.5)}
LADDER_A = (4.5, 6.0)

# 1001 points on the default boxes leave h = 0.04 and an O(h²) referee error
# above tol, so the coarse grid uses narrower boxes (h = 0.02; 0.016 for the
# oscillator, whose level spacing is the widest).
DEFAULT_BOX = {"morse": (-6.0, 20.0)}
COARSE_BOX = {"morse": (-6.0, 14.0), "oscillator": (-8.0, 8.0)}

# The 64001-point ladder states use fixed parameters: the ladder's roundoff
# there gives extra nodes for n = 4 on some families, and those operations
# must fail the same way on every seed.
FINE_LADDER_PARAMS = {"oscillator": (1.0, 0.0), "poschl_teller": (5.0, 0.0),
                      "scarf": (5.0, 1.0), "morse": (5.0, 1.0)}

# `verify` at the default grid reports FAIL for these correct closed-form
# spectra (fixed tol against an O(h²) referee; fixed morse box).
FALSE_FAIL_POINTS = (
    ("poschl_teller", "a=6", None),
    ("scarf", "a=8,B=2", None),
    ("morse", "a=10,B=1", None),
    ("oscillator", None, 32),
    ("morse", "a=3,B=0.01", None),
)


def _fmt(value: float) -> str:
    return repr(float(value))


def params_text(model: str, a: float, B: float) -> str:
    if model in B_RANGE:
        return f"a={_fmt(a)},B={_fmt(B)}"
    return f"a={_fmt(a)}"


def _draw(rng: np.random.Generator, model: str, a_range) -> tuple[float, float]:
    # Four decimals keep the argv short and the values exact in the payload.
    a = round(float(rng.uniform(*a_range)), 4)
    B = round(float(rng.uniform(*B_RANGE[model])), 4) if model in B_RANGE else 0.0
    if model == "oscillator":
        a = 1.0
    return a, B


def box(model: str, n_points: int) -> tuple[float, float, int]:
    lo, hi = (COARSE_BOX.get(model, (-10.0, 10.0)) if n_points == 1001
              else DEFAULT_BOX.get(model, (-20.0, 20.0)))
    return lo, hi, n_points


def grid_text(b: tuple[float, float, int]) -> str:
    return f"{_fmt(b[0])}:{_fmt(b[1])}:{b[2]}"


def _verify(model: str, a: float, B: float, grid, levels: int | None = 3, params=None) -> Op:
    argv = ["verify", "--model", model]
    text = params if params is not None else params_text(model, a, B)
    if text:
        argv += ["--params", text]
    if grid is not None:
        argv += ["--grid", grid_text(grid)]
    if levels is not None:
        argv += ["--levels", str(levels)]
    return Op("verify", argv + ["--format", "json"], {"model": model, "levels": levels})


def _parse_params(text: str | None) -> tuple[float, float]:
    values = dict(item.split("=") for item in text.split(",")) if text else {}
    return float(values.get("a", 1.0)), float(values.get("B", 0.0))


def referee_round(rng: np.random.Generator, r: int) -> list[Op]:
    ops = []
    for model in FAMILIES:
        for n_points, a_range in REFEREE_A.items():
            a, B = _draw(rng, model, a_range)
            ops.append(_verify(model, a, B, box(model, n_points)))
    for model, text, levels in FALSE_FAIL_POINTS:
        ops.append(_verify(model, 0.0, 0.0, None, levels, params=text))
    return ops


def _wavefunction(model: str, a: float, B: float, n: int, grid, fmt: str, out: str) -> Op:
    argv = ["wavefunction", "--model", model, "--params", params_text(model, a, B), "--n", str(n)]
    if grid is not None:
        argv += ["--grid", grid_text(grid)]
    if fmt == "json":
        argv += ["--format", "json"]
    return Op("wavefunction", argv + ["--out", out], {"model": model, "n": n, "fmt": fmt}, out)


RASTER_STEP = 1.0 / 64.0  # binary fractions keep every raster value exact
RASTER_J_POINTS = 500
RASTER_M_HALF = 250  # m runs over -250/64 .. 250/64: 501 points


def _raster(j_lo_steps: int, j_points: int, m_half: int, step: float, out: str) -> Op:
    j_lo = -j_lo_steps * step
    j_hi = j_lo + (j_points - 1) * step
    m_hi = m_half * step
    argv = ["reps", "region-grid", "--j", f"{_fmt(j_lo)}:{_fmt(j_hi)}:{_fmt(step)}",
            "--m", f"{_fmt(-m_hi)}:{_fmt(m_hi)}:{_fmt(step)}", "--out", out]
    info = {"j": (j_lo, step, j_points), "m": (-m_hi, step, 2 * m_half + 1)}
    return Op("region", argv, info, out)


RASTERS_PER_ROUND = 3  # about a third of a round's time


def ladder_round(rng: np.random.Generator, r: int, outdir: str) -> list[Op]:
    """Phase 1: every family, n = 0..4, at 4001, 16001 and 64001 points;
    formats alternate with n and the round, so each state is written as CSV
    in one round and as JSON in the next. Phase 2: rasters of 500 × 501
    points whose j window the seed moves. Both phases are in every round so
    the share of failing states is the same in every run."""
    ops = []
    for model in FAMILIES:
        seeded = _draw(rng, model, LADDER_A)
        for n in range(5):
            fmt = "csv" if (n + r) % 2 == 0 else "json"
            for n_points in (4001, 16001, 64001):
                a, B = FINE_LADDER_PARAMS[model] if n_points == 64001 else seeded
                out = f"{outdir}/psi-{len(ops)}.{fmt}"
                ops.append(_wavefunction(model, a, B, n, box(model, n_points), fmt, out))
    for i in range(RASTERS_PER_ROUND):
        j_lo_steps = int(rng.integers(192, 320))
        ops.append(_raster(j_lo_steps, RASTER_J_POINTS, RASTER_M_HALF, RASTER_STEP, f"{outdir}/raster-{i}.csv"))
    return ops


def _rep_label(rng: np.random.Generator, kind: str) -> tuple[float, float]:
    if kind in ("D_plus", "D_minus"):
        j = -int(rng.integers(5, 40)) / 8.0
        return j, (-j if kind == "D_plus" else j)
    if kind == "D_s":
        m0 = int(rng.integers(-7, 8)) / 16.0
        # j = -1/2 - u with u < 1/2 - |m0| puts j(j+1) below (|m0| - 1)|m0|.
        return -0.5 - (0.5 - abs(m0)) / 2.0, m0
    return int(rng.integers(1, 24)) / 8.0, int(rng.integers(-7, 8)) / 16.0


def cold_round(rng: np.random.Generator, r: int, outdir: str) -> list[Op]:
    """The everyday command mix, one of each, at default grids."""
    spec_model = SO21_FAMILIES[int(rng.integers(len(SO21_FAMILIES)))]
    spec_a, spec_B = _draw(rng, spec_model, (2.6, 6.0))
    levels = int(rng.integers(2, 6))
    wf_model = FAMILIES[int(rng.integers(len(FAMILIES)))]
    wf_a, wf_B = _draw(rng, wf_model, LADDER_A)
    wf_n = int(rng.integers(0, 5))
    # The gaussian test functions of `algebra check` reach the edge of the
    # default morse box, so the cold mix checks the algebra on the other two.
    alg_model = ("scarf", "poschl_teller")[int(rng.integers(2))]
    alg_m = round(float(rng.uniform(1.5, 6.0)), 4)
    alg_B = round(float(rng.uniform(*B_RANGE["scarf"])), 4)
    cls_kind = ("D_plus", "D_minus", "D_s", "invalid")[r % 4]
    cls_j, cls_m0 = _rep_label(rng, cls_kind)
    enum_kind = ("D_plus", "D_minus", "D_s")[int(rng.integers(3))]
    enum_j, enum_m0 = _rep_label(rng, enum_kind)
    count = int(rng.integers(3, 9))

    algebra_argv = ["algebra", "check", "--model", alg_model, "--m", _fmt(alg_m), "--format", "json"]
    if alg_model == "scarf":
        algebra_argv += ["--params", f"B={_fmt(alg_B)}"]
    return [
        Op("list", ["list"]),
        Op("spectrum", ["spectrum", "--model", spec_model, "--params", params_text(spec_model, spec_a, spec_B),
                        "--levels", str(levels), "--route", "both", "--format", "json"],
           {"model": spec_model, "levels": levels}),
        # Fixed point: the referee's accuracy at the default grid, which
        # would otherwise move with the draw.
        _verify("scarf", 3.0, 1.0, None),
        _wavefunction(wf_model, wf_a, wf_B, wf_n, None, "csv", f"{outdir}/cold.csv"),
        _wavefunction(wf_model, wf_a, wf_B, wf_n, None, "json", f"{outdir}/cold.json"),
        Op("algebra", algebra_argv, {"model": alg_model, "m": alg_m}),
        Op("classify", ["reps", "classify", "--j", _fmt(cls_j), "--m0", _fmt(cls_m0)],
           {"j": cls_j, "m0": cls_m0}),
        Op("enumerate", ["reps", "enumerate", "--j", _fmt(enum_j), "--m0", _fmt(enum_m0),
                         "--count", str(count), "--format", "json"],
           {"j": enum_j, "m0": enum_m0, "count": count, "class": enum_kind}),
        _raster(int(rng.integers(16, 48)), 41, 20, 0.125, f"{outdir}/cold-raster.csv"),
    ]


def coverage_round(outdir: str, verify_grids, ladder_grids) -> list[Op]:
    """A fixed round that calls every traced layer once or more: the n = 4
    oscillator state at each ladder grid, the oscillator referee at each
    referee grid, and one small command of every other kind. Traced runs
    end with it, so every per-layer figure is measured on every workload."""
    ops = [_verify("oscillator", 1.0, 0.0, box("oscillator", n)) for n in verify_grids]
    ops += [_wavefunction("oscillator", 1.0, 0.0, 4, box("oscillator", n), "csv", f"{outdir}/cover-{n}.csv")
            for n in ladder_grids]
    return ops + [
        Op("list", ["list"]),
        Op("spectrum", ["spectrum", "--model", "scarf", "--params", "a=3.0,B=1.0", "--levels", "3",
                        "--route", "both", "--format", "json"], {"model": "scarf", "levels": 3}),
        Op("algebra", ["algebra", "check", "--model", "scarf", "--m", "3.0", "--params", "B=1.0",
                       "--format", "json"], {"model": "scarf", "m": 3.0}),
        Op("classify", ["reps", "classify", "--j", "1.0", "--m0", "0.25"], {"j": 1.0, "m0": 0.25}),
        Op("enumerate", ["reps", "enumerate", "--j", "-1.5", "--m0", "1.5", "--count", "4", "--format", "json"],
           {"j": -1.5, "m0": 1.5, "count": 4, "class": "D_plus"}),
        _raster(16, 41, 20, 0.125, f"{outdir}/cover-raster.csv"),
    ]


def model_params(op: Op) -> tuple[float, float]:
    """(a, B) as passed on the op's command line."""
    argv = op.argv
    return _parse_params(argv[argv.index("--params") + 1] if "--params" in argv else None)


def grid_of(op: Op):
    """(x_min, x_max, n_points) from --grid, or None for the model default."""
    if "--grid" not in op.argv:
        return None
    lo, hi, n = op.argv[op.argv.index("--grid") + 1].split(":")
    return float(lo), float(hi), int(n)
