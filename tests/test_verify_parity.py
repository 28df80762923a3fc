"""Verdict parity of `sips verify` with outcomes pinned from the referee that
bisected every level to LAPACK's default ABSTOL, eps·‖T‖₁.

The referee now bisects to 1e-3·min(tol, 1e-3) in energy units. That must
leave every exit code and verdict as it was and move no level by more than
that. The
one verdict that changes on purpose, the steep-wall morse case on
[-20, 20], is tested in test_cli.py (test_verify_steep_wall_passes).
"""

import contextlib
import io
import json

import pytest

from sips.cli import main

# (model, params, grid, levels, tol, exit code, passed, numeric levels);
# None leaves the option at its default. The README commands, a tol so
# large that only the cap on ABSTOL keeps the levels right, the five
# points whose correct closed forms the default grid fails, the oscillator
# grid with too few points, a scarf point whose top level the box pushes
# above the continuum edge, and the corners of the parameter ranges the
# referee benchmark draws from at 1001, 4001 and 16001 points.
PINNED = [
    ("morse", "a=3,B=1", None, None, None, 0, True,
     [-2.64065322607e-05, 4.99993134218, 7.99993486155]),
    ("morse", "a=3,B=1", None, None, 0.001, 0, True,
     [-2.64065322607e-05, 4.99993134218, 7.99993486155]),
    ("poschl_teller", "a=1e9", None, None, None, 2, None, None),
    ("scarf", "a=3,B=1", None, None, 0.01, 0, True,
     [-4.74875136629e-05, 4.99986434261, 7.99986429622]),
    ("scarf", "a=3,B=1", None, None, 1e-06, 1, False,
     [-4.74875136629e-05, 4.99986434261, 7.99986429622]),
    ("scarf", "a=3,B=1", None, None, 1e6, 0, True,
     [-4.74875136629e-05, 4.99986434261, 7.99986429622]),
    ("oscillator", None, "-5:5:9", 20, None, 2, None, None),
    ("scarf", "a=3.026,B=0.32", None, None, None, 2, None, None),
    ("poschl_teller", "a=6", None, None, None, 1, False,
     [-0.000203086857264, 10.9992069794, 19.998508684, 26.9981203814, 31.9982604885]),
    ("scarf", "a=8,B=2", None, None, None, 1, False,
     [-0.00037217574946, 14.998449716, 27.9967878122, 38.995308803, 47.9944795099]),
    ("morse", "a=10,B=1", None, None, None, 1, False,
     [-0.000272872512207, 18.9988591869, 35.9975563244, 50.9962040507, 63.9951034156]),
    ("oscillator", None, None, 32, None, 1, False,
     [-6.25003985719e-06, 1.99996874965, 3.99991874863, 5.99984374644, 7.99974374261,
      9.99961873668, 11.9994687282, 13.9992937166, 15.9990937015, 17.9988686824, 19.9986186589,
      21.9983436305, 23.9980435967, 25.9977185569, 27.9973685109, 29.9969934581, 31.996593398,
      33.9961683302, 35.9957182541, 37.9952431694, 39.9947430755, 41.994217972, 43.9936678585,
      45.9930927344, 47.9924925992, 49.9918674526, 51.991217294, 53.9905421229, 55.989841939,
      57.9891167417, 59.9883665305, 61.9875913051]),
    ("morse", "a=3,B=0.01", None, None, None, 1, False,
     [2.50864463463, 7.16457263173, 8.91887316654]),
    ("scarf", "a=2.6,B=-2.0", "-10.0:10.0:1001", 3, None, 0, True,
     [-0.000150194106764, 4.19962282647, 6.40008228947]),
    ("scarf", "a=2.6,B=2.0", "-10.0:10.0:1001", 3, None, 0, True,
     [-0.000150194106764, 4.19962282647, 6.40008228947]),
    ("scarf", "a=3.0,B=-2.0", "-10.0:10.0:1001", 3, None, 0, True,
     [-0.000199785074092, 4.99943715162, 7.99944454013]),
    ("scarf", "a=3.0,B=2.0", "-10.0:10.0:1001", 3, None, 0, True,
     [-0.000199785074092, 4.99943715162, 7.99944454013]),
    ("poschl_teller", "a=2.6", "-10.0:10.0:1001", 3, None, 0, True,
     [-0.000135994591338, 4.19965013476, 6.39979570058]),
    ("poschl_teller", "a=3.0", "-10.0:10.0:1001", 3, None, 0, True,
     [-0.000185736123447, 4.99946654656, 7.99946367917]),
    ("morse", "a=2.6,B=0.5", "-6.0:14.0:1001", 3, None, 0, True,
     [-0.000190684034685, 4.19955991081, 6.39970809502]),
    ("morse", "a=2.6,B=3.0", "-6.0:14.0:1001", 3, None, 0, True,
     [-0.000190684069001, 4.19955991071, 6.39970985062]),
    ("morse", "a=3.0,B=0.5", "-6.0:14.0:1001", 3, None, 0, True,
     [-0.000250025240955, 4.99934985831, 7.99938306063]),
    ("morse", "a=3.0,B=3.0", "-6.0:14.0:1001", 3, None, 0, True,
     [-0.000250025254571, 4.99934985832, 7.99938306087]),
    ("oscillator", "a=1.0", "-8.0:8.0:1001", 3, None, 0, True,
     [-1.6000257043e-05, 1.99991999769, 3.99979199104]),
    ("scarf", "a=2.6,B=-2.0", "-20.0:20.0:4001", 3, None, 0, True,
     [-3.75455920025e-05, 4.19990572112, 6.39993475757]),
    ("scarf", "a=2.6,B=2.0", "-20.0:20.0:4001", 3, None, 0, True,
     [-3.75455920025e-05, 4.19990572112, 6.39993475757]),
    ("scarf", "a=4.5,B=-2.0", "-20.0:20.0:4001", 3, None, 0, True,
     [-0.00011388844221, 7.99959902806, 13.9993599961]),
    ("scarf", "a=4.5,B=2.0", "-20.0:20.0:4001", 3, None, 0, True,
     [-0.00011388844221, 7.99959902806, 13.9993599961]),
    ("poschl_teller", "a=2.6", "-20.0:20.0:4001", 3, None, 0, True,
     [-3.39959229303e-05, 4.19991254727, 6.39993822763]),
    ("poschl_teller", "a=4.5", "-20.0:20.0:4001", 3, None, 0, True,
     [-0.000110746534389, 7.99960667683, 13.9993682484]),
    ("morse", "a=2.6,B=0.5", "-6.0:20.0:4001", 3, None, 0, True,
     [-2.013935499e-05, 4.19995352401, 6.39996915615]),
    ("morse", "a=2.6,B=3.0", "-6.0:20.0:4001", 3, None, 0, True,
     [-2.01393877927e-05, 4.1999535241, 6.39996915756]),
    ("morse", "a=4.5,B=0.5", "-6.0:20.0:4001", 3, None, 0, True,
     [-5.7434424516e-05, 7.99981052954, 13.9997084158]),
    ("morse", "a=4.5,B=3.0", "-6.0:20.0:4001", 3, None, 0, True,
     [-5.74343309103e-05, 7.99981052951, 13.9997084157]),
    ("oscillator", "a=1.0", "-20.0:20.0:4001", 3, None, 0, True,
     [-6.25004125896e-06, 1.99996874965, 3.99991874863]),
    ("scarf", "a=2.6,B=-2.0", "-20.0:20.0:16001", 3, None, 0, True,
     [-2.34655651137e-06, 4.19999410784, 6.39999592473]),
    ("scarf", "a=2.6,B=2.0", "-20.0:20.0:16001", 3, None, 0, True,
     [-2.34655651137e-06, 4.19999410784, 6.39999592473]),
    ("scarf", "a=4.5,B=-2.0", "-20.0:20.0:16001", 3, None, 0, True,
     [-7.11779063669e-06, 7.99997494097, 13.9999600044]),
    ("scarf", "a=4.5,B=2.0", "-20.0:20.0:16001", 3, None, 0, True,
     [-7.11779063669e-06, 7.99997494097, 13.9999600044]),
    ("poschl_teller", "a=2.6", "-20.0:20.0:16001", 3, None, 0, True,
     [-2.12466066299e-06, 4.19999453452, 6.39999613986]),
    ("poschl_teller", "a=4.5", "-20.0:20.0:16001", 3, None, 0, True,
     [-6.92140434165e-06, 7.99997541901, 13.9999605201]),
    ("morse", "a=2.6,B=0.5", "-6.0:20.0:16001", 3, None, 0, True,
     [-1.25880487125e-06, 4.19999709544, 6.39999807249]),
    ("morse", "a=2.6,B=3.0", "-6.0:20.0:16001", 3, None, 0, True,
     [-1.25843646484e-06, 4.19999709533, 6.39999807401]),
    ("morse", "a=4.5,B=0.5", "-6.0:20.0:16001", 3, None, 0, True,
     [-3.58956563931e-06, 7.99998815844, 13.9999817769]),
    ("morse", "a=4.5,B=3.0", "-6.0:20.0:16001", 3, None, 0, True,
     [-3.58967666147e-06, 7.99998815828, 13.999981777]),
    ("oscillator", "a=1.0", "-20.0:20.0:16001", 3, None, 0, True,
     [-3.90580598663e-07, 1.99999804689, 3.99999492189]),
]


@pytest.mark.parametrize("model,params,grid,levels,tol,code,passed,numeric", PINNED)
def test_verify_verdict_matches_pinned(model, params, grid, levels, tol, code, passed, numeric):
    argv = ["verify", "--model", model, "--format", "json"]
    options = {"--params": params, "--grid": grid, "--levels": levels, "--tol": tol}
    for flag, value in options.items():
        if value is not None:
            argv += [flag, str(value)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == code
    if numeric is None:
        assert out.getvalue() == ""
        return
    payload = json.loads(out.getvalue())
    assert payload["passed"] is passed
    got = payload["spectrum"]["numeric"]
    assert len(got) == len(numeric)
    # pinned to 12 significant digits, far below 1e-3·min(tol, 1e-3)
    moved = max(abs(a - b) for a, b in zip(got, numeric))
    assert moved <= 1e-3 * min(tol or 1e-3, 1e-3)
