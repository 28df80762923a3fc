"""Tests of the benchmark's own references and checkers.

    python3 -m pytest perfbench -q        (from the repository root)
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402
from checks import CheckError  # noqa: E402

PARAMS = {"scarf": (3.0, 1.0), "poschl_teller": (5.0, 0.0), "morse": (5.5, 1.5), "oscillator": (1.0, 0.0)}


def sips_main(argv):
    from sips import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_scarf_closed_form_energies():
    assert ref.energies("scarf", 3.0, 3).tolist() == [0.0, 5.0, 8.0]
    assert ref.energies("scarf", 3.0, 10).tolist() == [0.0, 5.0, 8.0]  # ceil(a) levels


@pytest.mark.parametrize("model", ref.FAMILIES)
@pytest.mark.parametrize("n", range(5))
def test_eigenfunction_unit_norm_n_nodes_and_eigen_equation(model, n):
    a, B = PARAMS[model]
    if model == "scarf":
        a = 5.0
    lo, hi = (-6.0, 20.0) if model == "morse" else (-20.0, 20.0)
    x = np.linspace(lo, hi, 20001)
    psi = ref.eigenfunction(model, x, a, B, n)
    assert ref.trapezoid_norm2(x, psi) == pytest.approx(1.0, abs=1e-12)
    assert ref.node_count(psi) == n
    h = x[1] - x[0]
    h_psi = -(psi[2:] - 2 * psi[1:-1] + psi[:-2]) / h**2 + ref.potential_minus(model, x[1:-1], a, B) * psi[1:-1]
    # Second-order differences: the residual is O(h²) times ψ''''.
    assert np.max(np.abs(h_psi - ref.energy(model, a, n) * psi[1:-1])) < 1e-3


def test_lapack_levels_converge_to_closed_form():
    levels = ref.lapack_levels("scarf", 3.0, 1.0, (-20.0, 20.0, 16001), 3)
    assert np.max(np.abs(levels - [0.0, 5.0, 8.0])) < 2e-5


HAND_PICKED = [(-1.5, 1.5), (-1.5, -1.5), (-1.5, 2.5), (-1.5, 0.5), (-0.625, 0.125), (-0.625, 0.0),
               (-0.5, 0.0), (0.25, 0.25), (1.0, 0.5), (-2.0, 0.75), (-3.0, -3.0), (-3.0, 0.0), (2.0, 4.0)]


def test_region_matches_unireps():
    from sips import unireps

    j, m = np.array(HAND_PICKED).T
    assert ref.region(j, m).tolist() == [ref.REGION_CODES[unireps.region_of(a, b).value] for a, b in HAND_PICKED]


def test_rep_class_matches_unireps():
    from sips import unireps

    for j, m0 in HAND_PICKED:
        assert ref.rep_class(j, m0) == unireps.classify(j, m0).rep_class.value


def test_same_seed_same_inputs():
    make = lambda seed: [op.argv for r in range(3) for op in inputs.referee_round(np.random.default_rng([seed, r]), r)]  # noqa: E731
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_every_round_has_the_same_false_fail_points():
    for r in range(3):
        ops = inputs.referee_round(np.random.default_rng([5, r]), r)
        assert len(ops) == 17
        assert [op.argv for op in ops[-5:]] == [op.argv for op in inputs.referee_round(np.random.default_rng(0), 0)[-5:]]


# ---------------------------------------------------------------- checkers


def run_and_check(op):
    rc, out = sips_main(op.argv)
    return checks.check(op, rc, out), rc, out


def test_verify_checker_accepts_and_rejects():
    op = inputs._verify("scarf", 3.0, 1.0, inputs.box("scarf", 4001))
    outcome, rc, out = run_and_check(op)
    assert not outcome.failed and outcome.gap < 1e-3
    payload = json.loads(out)
    payload["spectrum"]["analytic"][1] += 1e-6
    with pytest.raises(CheckError):
        checks.check(op, rc, json.dumps(payload))
    payload = json.loads(out)
    payload["spectrum"]["numeric"][2] += 1e-3
    with pytest.raises(CheckError):
        checks.check(op, rc, json.dumps(payload))
    with pytest.raises(CheckError):
        checks.check(op, 1, out)  # exit code against a PASS verdict


def test_false_fail_point_counts_as_failed():
    op = inputs._verify("poschl_teller", 0.0, 0.0, None, None, params="a=6")
    outcome, rc, _ = run_and_check(op)
    assert rc == 1 and outcome.failed


def wavefunction_op(tmp_path, model, n, fmt, grid=4001):
    a, B = PARAMS[model]
    return inputs._wavefunction(model, a, B, n, inputs.box(model, grid), fmt, str(tmp_path / f"psi.{fmt}"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_wavefunction_checker_accepts_and_rejects(tmp_path, fmt):
    op = wavefunction_op(tmp_path, "morse", 2, fmt)
    outcome, _, _ = run_and_check(op)
    assert not outcome.failed and outcome.gap < 1e-6

    good = Path(op.out).read_text()

    def perturbed(edit):
        Path(op.out).write_text(edit(good))
        with pytest.raises(CheckError):
            checks.check(op, 0, "")

    if fmt == "json":
        def edit(key, fn):
            def apply(text):
                record = json.loads(text)
                record[key] = fn(record[key])
                return json.dumps(record)
            return apply

        perturbed(edit("values", lambda v: [x * 1.01 for x in v]))  # norm
        perturbed(edit("values", lambda v: [-x for x in v]))  # sign convention
        perturbed(edit("energy", lambda e: e + 1e-6))
    else:
        perturbed(lambda text: text.replace("# energy: ", "# energy: 1", 1))
        lines = good.splitlines()
        head = lines.index("x,psi") + 1
        rows = [line.split(",") for line in lines[head:]]
        psi = np.array([float(r[1]) for r in rows])
        other = ref.eigenfunction("morse", np.array([float(r[0]) for r in rows]), *PARAMS["morse"], 3)
        swapped = lines[:head] + [f"{r[0]},{v:.12g}" for r, v in zip(rows, other)]
        perturbed(lambda text: "\n".join(swapped) + "\n")  # ψ_3 labelled n = 2
        assert np.abs(psi).max() > 0


def test_wavefunction_with_extra_nodes_is_a_failed_operation(tmp_path):
    op = wavefunction_op(tmp_path, "oscillator", 2, "json")
    run_and_check(op)
    record = json.loads(Path(op.out).read_text())
    values = np.array(record["values"])
    x = np.linspace(-20, 20, values.size)
    values += 1e-4 * np.sin(40 * x) * (np.abs(x) > 6)  # noise in the tails, as at 64001 points
    record["values"] = (values / np.sqrt(ref.trapezoid_norm2(x, values))).tolist()
    Path(op.out).write_text(json.dumps(record))
    assert checks.check(op, 0, "").failed


def test_region_checker_accepts_and_rejects(tmp_path):
    op = inputs._raster(24, 41, 20, 0.125, str(tmp_path / "r.csv"))
    run_and_check(op)
    good = Path(op.out).read_text().splitlines()
    for i, line in enumerate(good[1:], 1):
        if line.endswith("square_region"):
            Path(op.out).write_text("\n".join(good[:i] + [line.replace("square_region", "forbidden")] + good[i + 1:]))
            break
    with pytest.raises(CheckError):
        checks.check(op, 0, "")


def test_small_checkers_reject_perturbed_output():
    rng = np.random.default_rng(3)
    ops = {op.kind: op for op in inputs.cold_round(rng, 0, "/nonexistent")}
    for kind, edit in [("list", lambda s: s.replace("morse", "morsE")),
                       ("spectrum", lambda s: s.replace('"energies": [\n      0.0,', '"energies": [\n      0.1,', 1)),
                       ("algebra", lambda s: s.replace('"passed": true', '"passed": false')),
                       ("classify", lambda s: "D_p\n"),
                       ("enumerate", lambda s: s.replace('"m_values": [\n    ', '"m_values": [\n    0.5, ', 1))]:
        op = ops[kind]
        outcome, rc, out = run_and_check(op)
        assert not outcome.failed
        assert edit(out) != out, kind
        with pytest.raises(CheckError):
            checks.check(op, rc, edit(out))


def test_coverage_round_checks_and_covers_every_grid(tmp_path):
    ops = inputs.coverage_round(str(tmp_path), (1001, 4001), (4001,))
    sizes = set()
    for op in ops:
        outcome, _, _ = run_and_check(op)
        if op.kind in ("verify", "wavefunction"):
            sizes.add((op.kind, outcome.grid_points))
            assert outcome.gap is not None
    assert sizes == {("verify", 1001), ("verify", 4001), ("wavefunction", 4001)}
