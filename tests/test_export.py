"""The CSV row formats of ``sips.export``: the bytes of the per-row loop
whether a grid's formats are built or reused, and the bound of their cache."""

import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sips import cli, export
from sips.export import CHUNK, wavefunction_csv_chunks
from sips.grids import Grid, SampledFunction


def _row_loop(psi, metadata):
    lines = [f"# {key}: {value}" for key, value in metadata.items()]
    lines.append("x,psi")
    lines += [f"{x:.12g},{v:.12g}" for x, v in zip(psi.grid.x, psi.values)]
    return "\n".join(lines) + "\n"


_BOUNDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-100.0, 100.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e300, 0.1, -20.0]),
)


# A grid has at least 3 points; CHUNK + 1 ends in a chunk of one row.
@given(
    bounds=st.tuples(_BOUNDS, _BOUNDS).map(sorted),
    n_points=st.sampled_from([3, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=10, deadline=None)
def test_csv_chunks_match_row_loop_cold_and_warm(bounds, n_points, seed):
    x_min, x_max = bounds
    try:
        grid = Grid(x_min, x_max, n_points)
    except ValueError:
        assume(False)
    rng = np.random.default_rng(seed)
    # normal, tiny, huge and subnormal values, and signed zeros
    scales = rng.choice([1.0, 1e-300, 1e300, 5e-324, 0.0], size=n_points)
    first, second = (SampledFunction(grid, rng.standard_normal(n_points) * scales) for _ in range(2))
    metadata = {"model": "scarf", "n": 1}
    export._ROW_FORMATS.clear()
    assert "".join(wavefunction_csv_chunks(first, metadata)) == _row_loop(first, metadata)
    # the formats built for the first file, on an equal grid made anew
    psi = SampledFunction(Grid(x_min, x_max, n_points), second.values)
    assert "".join(wavefunction_csv_chunks(psi, metadata)) == _row_loop(psi, metadata)


@pytest.mark.parametrize("order", [("-1:0:3", "-1:-0.0:3"), ("-1:-0.0:3", "-1:0:3")])
def test_signed_zero_bound_keeps_its_x_text(capsys, order):
    # Grid(-1, 0.0, 3) == Grid(-1, -0.0, 3), but the last x prints as 0 and as -0
    last_rows = {}
    for spec in order:
        assert cli.main(["wavefunction", "--model", "oscillator", "--n", "0", "--grid", spec]) == 0
        last_rows[spec] = capsys.readouterr().out.splitlines()[-1]
    assert last_rows["-1:0:3"] == "0,1.16931455126"
    assert last_rows["-1:-0.0:3"] == "-0,1.16931455126"


def test_row_format_cache_keeps_the_recently_used_within_its_bound():
    export._ROW_FORMATS.clear()
    grids = [Grid(-3.0 - i, 3.0, 3) for i in range(80)]  # more chunks than the cache keeps
    (first,) = export._row_formats(grids[0])
    for grid in grids[1:64]:
        list(export._row_formats(grid))
    assert list(export._row_formats(grids[0])) == [first]  # reused, and now the most recent
    for grid in grids[64:]:
        list(export._row_formats(grid))
    # x text of the longest %.12g form, "-1.xxxxxxxxxxxe-100", in every row
    widest = list(export._row_formats(Grid(-1.99999999999e-100, -1.00000000001e-100, CHUNK)))[0]
    formats = list(export._ROW_FORMATS.values())
    assert len(formats) == 64 and formats[-1] is widest
    assert any(f is first for f in formats)  # the least recent, grids[1:18], went first
    assert 25 * CHUNK < len(widest) <= 26 * CHUNK
    # the docstring's bound: 64 × 26 × 4096 bytes of text, plus a str header each
    assert sum(map(sys.getsizeof, formats)) <= 6_815_744 + 64 * sys.getsizeof("")
