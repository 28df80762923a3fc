import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sips import (
    Multiplet,
    Region,
    RepClass,
    RepLabel,
    UnitarityError,
    classify,
    energy_from_algebra,
    enumerate_multiplet,
    ladder_coefficient,
    positivity_check,
    region_of,
)
from sips.cli import main, parse_range_spec
from sips.unireps import region_rows


def test_ladder_coefficients():
    assert ladder_coefficient(-1.5, 1.5, "lower") == 0.0
    assert ladder_coefficient(-1.5, 1.5, "raise") == pytest.approx(math.sqrt(3.0))
    assert ladder_coefficient(-1.0, 1.0, "lower") == 0.0


def test_ladder_rejects_inadmissible_state():
    with pytest.raises(UnitarityError):
        ladder_coefficient(-1.5, 0.0, "lower")
    with pytest.raises(ValueError, match="direction"):
        ladder_coefficient(-1.5, 1.5, "sideways")


def test_positivity_values():
    assert positivity_check(-1.5, 1.5) == pytest.approx((0.0, 3.0))
    assert positivity_check(-1.5, 2.5) == pytest.approx((3.0, 8.0))
    lower, upper = positivity_check(-1.5, 0.0)
    assert lower < 0 and upper < 0


# Classification fixture: both discrete rows, two supplementary points, and
# assorted inadmissible labels.
CLASSIFY_CASES = [
    (-1.5, 1.5, RepClass.D_PLUS),
    (-1.5, -1.5, RepClass.D_MINUS),
    (-3.0, 3.0, RepClass.D_PLUS),
    (-3.0, -3.0, RepClass.D_MINUS),
    (-0.25, 0.25, RepClass.D_PLUS),
    (-0.25, -0.25, RepClass.D_MINUS),
    (-0.5, 0.0, RepClass.D_S),
    (-0.4, 0.2, RepClass.D_S),
    (-1.5, 0.0, RepClass.INVALID),
    (-1.5, 1.0, RepClass.INVALID),
    (2.0, 2.0, RepClass.INVALID),
    (-0.4, 0.45, RepClass.INVALID),
]


@pytest.mark.parametrize("j,m0,expected", CLASSIFY_CASES)
def test_classify(j, m0, expected):
    assert classify(j, m0).rep_class is expected


@pytest.mark.parametrize("j,m0", [(math.nan, 1.0), (-1.5, math.inf), (-math.inf, 0.0)])
def test_classify_rejects_nonfinite(j, m0):
    with pytest.raises(ValueError, match="finite"):
        classify(j, m0)


def test_enumerate_bounded_below():
    multiplet = enumerate_multiplet(RepLabel.bounded_below(-1.5), 3)
    assert multiplet.m_values == [1.5, 2.5, 3.5]
    assert multiplet.casimir == pytest.approx(0.75)


def test_enumerate_bounded_above():
    multiplet = enumerate_multiplet(RepLabel.bounded_above(-1.5), 2)
    assert multiplet.m_values == [-1.5, -2.5]


def test_enumerate_supplementary_two_sided():
    multiplet = enumerate_multiplet(classify(-0.5, 0.0), 5)
    assert multiplet.m_values == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_enumerate_rejects_invalid():
    with pytest.raises(ValueError):
        enumerate_multiplet(classify(-1.5, 0.0), 3)


def test_multiplet_steps_are_unit():
    for rep in (RepLabel.bounded_below(-2.3), RepLabel.bounded_above(-0.8), classify(-0.5, 0.1)):
        if rep.rep_class is RepClass.INVALID:
            continue
        multiplet = enumerate_multiplet(rep, 6)
        assert np.allclose(np.abs(np.diff(multiplet.m_values)), 1.0)


@pytest.mark.parametrize(
    "rep", [RepLabel.bounded_below(-1e300), RepLabel.bounded_above(-(2.0**53))]
)
def test_enumerate_rejects_vanishing_steps(rep):
    # m0 ± 1 rounds back to m0 (or skips to m0 ± 2): no multiplet to list
    with pytest.raises(ValueError, match="ladder steps"):
        enumerate_multiplet(rep, 3)


def test_multiplet_reproduces_sector_energies():
    # level n of the a0 = 3 member lives at m = 3.5 in the multiplet with
    # j = n - m; that state sits n steps above the bottom m0 = -j
    m_sector = 3.5
    expected = [0.0, 5.0, 8.0]
    for n, energy in enumerate(expected):
        j = n - m_sector
        label = classify(j, -j)
        assert label.rep_class is RepClass.D_PLUS
        multiplet = enumerate_multiplet(label, n + 1)
        assert multiplet.m_values[-1] == pytest.approx(m_sector)
        assert energy_from_algebra(m_sector, j) == pytest.approx(energy)


def test_edge_annihilation_is_exact():
    for j in (-1.5, -3.0, -0.75, -4.25):
        bottom = RepLabel.bounded_below(j)
        assert ladder_coefficient(bottom.j, bottom.m0, "lower") == 0.0
        top = RepLabel.bounded_above(j)
        assert ladder_coefficient(top.j, top.m0, "raise") == 0.0


def test_equivalence_of_mirror_labels():
    rng = np.random.default_rng(7)
    for j in -5.0 * rng.random(10) - 1e-6:
        left = RepLabel.bounded_below(j)
        right = RepLabel.bounded_below(-j - 1.0)
        assert left == right
        for m in enumerate_multiplet(left, 6).m_values:
            assert ladder_coefficient(j, m, "raise") == pytest.approx(
                ladder_coefficient(-j - 1.0, m, "raise")
            )
            assert ladder_coefficient(j, m, "lower") == pytest.approx(
                ladder_coefficient(-j - 1.0, m, "lower")
            )


@given(j=st.floats(-8.0, -1e-3))
@settings(max_examples=60, deadline=None)
def test_coefficients_nonnegative_along_multiplet(j):
    rep = RepLabel.bounded_below(j)
    for m in enumerate_multiplet(rep, 8).m_values:
        assert ladder_coefficient(rep.j, m, "raise") >= 0.0
        assert ladder_coefficient(rep.j, m, "lower") >= 0.0


def test_no_finite_multiplet():
    # positivity never terminates a bounded-below ladder: 10^4 raise steps
    for j in (-0.5, -1.5, -3.7):
        m0 = -min(j, -1.0 - j)
        m = m0 + np.arange(10_000)
        raise_sq = m * (m + 1.0) - j * (j + 1.0)
        assert np.all(raise_sq >= 0.0)
        multiplet = enumerate_multiplet(RepLabel.bounded_below(j), 10_000)
        assert len(multiplet.m_values) == 10_000


def test_principal_series():
    rep = RepLabel.principal(beta=2.0, m0=0.25)
    assert rep.rep_class is RepClass.D_P
    assert rep.casimir == pytest.approx(-0.25 - 4.0)
    multiplet = enumerate_multiplet(rep, 5)
    assert len(multiplet.m_values) == 5
    for m in multiplet.m_values:
        lower, upper = positivity_check(rep.j, m, beta=rep.beta)
        assert lower > 0 and upper > 0
    with pytest.raises(ValueError):
        RepLabel.principal(beta=1.0, m0=0.75)


def test_region_examples():
    assert region_of(-1.5, 2.5) is Region.BOUNDED_BELOW
    assert region_of(-1.5, -2.5) is Region.BOUNDED_ABOVE
    assert region_of(-1.5, 0.0) is Region.FORBIDDEN
    assert region_of(-0.5, 0.0) is Region.SQUARE
    assert region_of(-0.4, 0.2) is Region.SQUARE


def _region_by_scalar_rule(j, m):
    # the per-point rule, written out as a chain of plain-float comparisons
    lower, upper = positivity_check(j, m)
    if lower < 0.0 or upper < 0.0:
        return Region.FORBIDDEN
    if m >= 0.5:
        return Region.BOUNDED_BELOW
    if m <= -0.5:
        return Region.BOUNDED_ABOVE
    if j * (j + 1.0) < (abs(m) - 1.0) * abs(m):
        return Region.SQUARE
    return Region.FORBIDDEN


def _numpy_regions(j, m):
    # the reference: region_index, the numpy formula region_of and the raster
    # replaced, with j and m broadcast against each other
    j, m = np.asarray(j, dtype=float), np.asarray(m, dtype=float)
    with np.errstate(all="ignore"):
        lower_sq, raise_sq = positivity_check(j, m)
        band = j * (j + 1.0) < (np.abs(m) - 1.0) * np.abs(m)
    regions = np.array(tuple(Region), dtype=object)
    codes = np.select(
        [(lower_sq < 0.0) | (raise_sq < 0.0), m >= 0.5, m <= -0.5, band], [3, 0, 1, 2], default=3
    )
    return regions[codes]


def _numpy_axis(spec):
    lo, hi, step = map(float, spec.split(":"))
    return np.arange(lo, hi + 0.5 * step, step)


def test_region_raster_matches_scalar_rule():
    # 1/8 steps put cells exactly on m = ±1/2, j = -1/2 and the diamond edge
    j = np.arange(-4.0, 1.0 + 0.0625, 0.125).tolist()
    m = np.arange(-4.0, 4.0 + 0.0625, 0.125).tolist()
    rows = [list(row) for row in region_rows(j, m, {r: [r] * len(m) for r in Region})]
    assert rows == [[_region_by_scalar_rule(jv, mv) for mv in m] for jv in j]
    assert rows == _numpy_regions(np.array(j)[:, None], np.array(m)[None, :]).tolist()
    assert region_of(-0.75, 0.25) is _region_by_scalar_rule(-0.75, 0.25) is Region.FORBIDDEN


_EDGES = [-0.0, 0.0, 0.5, -0.5, -1.0, 1.0, 2.5, -1.5, 1e154, -1e154, 1.3e154, 2e154, 1e200, -1e200, 1e300,
          -1e300, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("j", _EDGES)
def test_region_of_edges_match_numpy_rule(j):
    # j(j+1) and m(m±1) overflow to inf, inf - inf is nan, and nan compares
    # false: every cell keeps the region the numpy rule gave it
    assert [region_of(j, m) for m in _EDGES] == _numpy_regions(j, np.array(_EDGES)).tolist()


def test_region_rows_at_the_edges():
    # the edges as both axes, in an order whose Casimir jumps about
    rows = [list(row) for row in region_rows(_EDGES, _EDGES, {r: [r] * len(_EDGES) for r in Region})]
    assert rows == [[region_of(j, m) for m in _EDGES] for j in _EDGES]


_STEPS = st.sampled_from([1.0, 0.5, 0.25, 0.125, 0.0625, 1 / 64, 0.1, 0.2, 0.3, 0.05, 0.7, 0.01, 1e300])


@st.composite
def _range_specs(draw, edges):
    step = draw(_STEPS | st.floats(1e-3, 10.0))
    lo = draw(st.sampled_from(edges) | st.floats(-6.0, 6.0) | st.floats(-1e300, 1e300))
    hi = lo + draw(st.sampled_from([0.0, 0.0, 0.5]) | st.floats(0.0, 20.0)) * step
    assume(math.isfinite(hi))
    return f"{lo!r}:{hi!r}:{step!r}"


@given(
    j_spec=_range_specs([-0.5, -0.0, 0.0, -1.0, -4.0, 1e154, 2e154, -1e300, 1e300]),
    m_spec=_range_specs([-0.5, 0.5, -0.0, 0.0, -1.0, -4.0, 1.3e154, -2e154, 1e200, -1e300, 1e300]),
)
@settings(max_examples=300, deadline=None)
def test_region_grid_matches_numpy_reference(j_spec, m_spec):
    # binary and decimal steps, single-point and empty axes, the j = -1/2 and
    # m = ±1/2 edges, and magnitudes where the Casimir or m(m±1) overflow
    j, m = _numpy_axis(j_spec), _numpy_axis(m_spec)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["reps", "region-grid", "--j", j_spec, "--m", m_spec])
    empty = next(((flag, spec) for flag, spec, axis in (("--j", j_spec, j), ("--m", m_spec, m))
                  if not axis.size), None)
    if empty is not None:
        # a step that vanishes against equal bounds leaves arange no point: a
        # usage error naming the first such range, not a raster with no cell
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue() == (
            f"error: {empty[0]} range {empty[1]!r}: the step vanishes against min and max, leaving no point\n"
        )
        return
    assert [v.hex() for v in parse_range_spec(j_spec)] == [v.hex() for v in j.tolist()]
    assert [v.hex() for v in parse_range_spec(m_spec)] == [v.hex() for v in m.tolist()]
    regions = _numpy_regions(j[:, None], m[None, :])
    rows = [list(row) for row in region_rows(j.tolist(), m.tolist(), {r: [r] * m.size for r in Region})]
    assert rows == regions.tolist()
    assert code == 0
    text = "j,m,region\n" + "".join(
        f"{jv:.6g}," + f"\n{jv:.6g},".join(f"{mv:.6g},{r.value}" for mv, r in zip(m.tolist(), row)) + "\n"
        for jv, row in zip(j.tolist(), regions.tolist())
    )
    assert out.getvalue() == text


@given(j=st.floats(-6.0, 5.0), m=st.floats(-6.0, 6.0))
@settings(max_examples=120, deadline=None)
def test_region_symmetric_under_label_mirror(j, m):
    # every formula depends on j only through j(j+1); stay clear of region
    # boundaries, where rounding of the -1-j map can flip strict comparisons
    lower, upper = positivity_check(j, m)
    band_margin = j * (j + 1.0) - (abs(m) - 1.0) * abs(m)
    assume(min(abs(lower), abs(upper), abs(band_margin)) > 1e-9)
    assert region_of(j, m) is region_of(-1.0 - j, m)


@given(j=st.floats(-6.0, 5.0), m=st.floats(-6.0, 6.0))
@settings(max_examples=120, deadline=None)
def test_region_forbidden_iff_positivity_fails(j, m):
    lower, upper = positivity_check(j, m)
    if lower < 0 or upper < 0:
        assert region_of(j, m) is Region.FORBIDDEN
    elif abs(m) >= 0.5:
        assert region_of(j, m) in (Region.BOUNDED_BELOW, Region.BOUNDED_ABOVE)


def test_multiplet_casimir_field():
    multiplet = enumerate_multiplet(RepLabel.bounded_below(-2.0), 3)
    assert isinstance(multiplet, Multiplet)
    assert multiplet.casimir == pytest.approx(2.0)
