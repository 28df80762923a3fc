"""The committed output record of the commands that load no numpy.

For every argv of a seeded corpus, ``output_record.json`` holds the exit code
and the sha256 of stdout, stderr and each file the command leaves (its
``--out``), from one in-process ``sips.cli.main`` run in an empty working
directory. The corpus is the parser corpus of ``test_cli.py`` less the argvs
that run ``verify``, ``wavefunction`` or ``algebra check`` (their numbers come
from numpy and LAPACK, which differ across builds), the README's ``list``,
``spectrum`` and ``reps`` commands, a few usage errors of the numeric commands
raised before any numeric work, a few option values in the wrong form, and a
few hundred seeded ``list``, ``spectrum`` and
``reps classify|enumerate|region-grid`` argvs. All of these are pure-Python
IEEE arithmetic and argparse, so they compare byte for byte.

``test_output_record.py`` replays the record. A change that means to alter
output rewrites it:

    PYTHONPATH=src python tests/output_record.py

and the diff of the JSON file names every argv whose output moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path
from unittest import mock

from sips import cli

RECORD = Path(__file__).with_name("output_record.json")
SEED = 22


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome(argv: list[str]) -> dict:
    """One in-process run of argv in the current (empty) working directory:
    its exit code and the sha256 of its stdout, stderr and the files it left.
    Help text is wrapped at 80 columns whatever the terminal."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse: help, or a usage error
            code = exc.code
    files = {name: _sha(Path(name).read_bytes()) for name in sorted(os.listdir("."))}
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": _sha(stdout.getvalue().encode()),
        "stderr": _sha(stderr.getvalue().encode()),
        "files": files,
    }


def outcome_in_empty_dir(argv: list[str], parent: str) -> dict:
    cwd = os.getcwd()
    os.chdir(tempfile.mkdtemp(dir=parent))
    try:
        return outcome(argv)
    finally:
        os.chdir(cwd)


# --------------------------------------------------------------- the corpus

_README = [
    ["list"], ["list", "--format", "json"],
    ["spectrum", "--model", "scarf", "--params", "a=3,B=1", "--levels", "3"],
    ["spectrum", "--model", "scarf", "--params", "a=3,B=1", "--levels", "3", "--route", "shape"],
    ["spectrum", "--model", "scarf", "--params", "a=3,B=1", "--levels", "3", "--route", "algebra"],
    ["spectrum", "--model", "scarf", "--params", "a=3,B=1", "--levels", "3", "--route", "both"],
    ["reps", "classify", "--j", "-1.5", "--m0", "1.5"],
    ["reps", "enumerate", "--j", "-1.5", "--m0", "1.5", "--count", "5"],
    ["reps", "region-grid", "--j", "-4:1:0.25", "--m", "-4:4:0.25", "--out", "raster.csv"],
]

# usage errors of the numeric commands that end before any numeric work
_NUMERIC_USAGE_ERRORS = [
    ["verify", "--model", "nope", "--params", "a=3"],
    ["verify", "--model", "scarf", "--params", "a=3,C=1"],
    ["verify", "--model", "scarf", "--params", "a=3,B=1", "--grid", "-20:20"],
    ["verify", "--model", "scarf", "--params", "a=3,B=1", "--grid", "0:inf:11"],
    ["verify", "--model", "scarf", "--params", "a=3,B=1", "--grid", "-20:20:2000000"],
    ["verify", "--model", "scarf", "--params", "a=3,B=1", "--tol", "0"],
    ["verify", "--model", "scarf", "--params", "a=3,B=1", "--levels", "0"],
    ["wavefunction", "--model", "scarf", "--params", "a=3,B=1", "--n", "99"],
    ["wavefunction", "--model", "scarf", "--params", "a=3,B=1", "--n", "10001"],
    ["algebra", "check", "--model", "scarf", "--m", "2", "--params", "a=3"],
    ["algebra", "check", "--model", "scarf", "--m", "nan"],
    ["algebra", "check", "--model", "oscillator", "--m", "2", "--tol", "-1"],
]

# option values in the wrong form: a --params item that is not key=value,
# an empty one (skipped), and parts of --params, --grid and range values that
# are no number
_VALUE_FORMS = [
    ["spectrum", "--model", "scarf", "--params", "a3"],
    ["spectrum", "--model", "scarf", "--params", "a=3,,B=1"],
    ["spectrum", "--model", "scarf", "--params", "a=x,B=1"],
    ["verify", "--model", "scarf", "--params", "a=3,B=1", "--grid", "-20:20:4001.5"],
    ["verify", "--model", "scarf", "--params", "a=3,B=1", "--grid", "a:b:11"],
    ["reps", "region-grid", "--j", "0:1:x", "--m", "0:1:1"],
]

_NUMERIC_COMMANDS = ("cmd_verify", "cmd_wavefunction", "cmd_algebra_check")


def _runs_numeric_command(argv: list[str]) -> bool:
    # an argv that parses into verify, wavefunction or algebra check
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = cli.build_parser().parse_args(cli._normalize_argv(argv))
        except SystemExit:
            return False
    return args.func.__name__ in _NUMERIC_COMMANDS


def _real(rng: random.Random) -> str:
    """A number as a user types it: eighths, decimals, random floats, and the
    edges (signed zeros, halves, huge and non-finite values)."""
    kind = rng.randrange(4)
    if kind == 0:
        return repr(rng.randint(-40, 40) / 8.0)
    if kind == 1:
        return f"{rng.uniform(-6.0, 6.0):.{rng.randint(1, 4)}f}"
    if kind == 2:
        return repr(rng.uniform(-12.0, 12.0))
    return rng.choice(["0", "-0.0", "0.5", "-0.5", "1", "-1", "1e300", "-1e300", "1e308",
                       "5e-324", "nan", "inf", "-inf", "2.5", "1e16"])


def _format_and_out(rng: random.Random, formats=("text", "json")) -> list[str]:
    argv = []
    if rng.random() < 0.5:
        argv += ["--format", rng.choice(formats)]
    if rng.random() < 0.3:
        argv += ["--out", "out.txt"]
    return argv


def _spectrum(rng: random.Random) -> list[str]:
    model = rng.choice(["scarf", "poschl_teller", "morse", "oscillator"])
    a = rng.choice([_real(rng), repr(round(rng.uniform(0.1, 12.0), 4)), repr(rng.uniform(0.1, 40.0)),
                    str(rng.randint(1, 9)), "5514385.8263"])
    B = rng.choice([_real(rng), repr(round(rng.uniform(0.01, 10.0), 3)), str(rng.randint(1, 3))])
    params = {"scarf": f"a={a},B={B}", "morse": f"a={a},B={B}", "poschl_teller": f"a={a}",
              "oscillator": ""}[model]
    if rng.random() < 0.15:  # a usage error
        model, params = rng.choice([("rosen_morse", params), (model, f"a={a},a={a}"), (model, f"B={B}"),
                                    (model, f"a={a},C=1")])
    argv = ["spectrum", "--model", model] + (["--params", params] if params else [])
    levels = rng.randint(1, 12) if rng.random() < 0.9 else rng.choice([0, -1, 200, 10_000, 10_001])
    argv += ["--levels", str(levels), "--route", rng.choice(["shape", "algebra", "both"])]
    return argv + _format_and_out(rng)


def _label(rng: random.Random, command: str) -> list[str]:
    if rng.random() < 0.7:  # a valid label of one of the three classes
        j = -rng.randint(1, 40) / 8.0
        m0 = rng.choice([-j, j, rng.randint(-7, 7) / 16.0])
        if abs(m0) < 0.5:
            j = -0.5 - (0.5 - abs(m0)) / 2.0
        j, m0 = repr(j), repr(m0)
    else:
        j, m0 = _real(rng), _real(rng)
    argv = ["reps", command, "--j", j, "--m0", m0]
    if command == "enumerate" and rng.random() < 0.8:
        argv += ["--count", str(rng.choice([rng.randint(1, 12)] * 6 + [0, -1, 10001]))]
    return argv + _format_and_out(rng)


_STEPS = ["0.125", "0.25", "0.5", "1", "0.0625", "0.1", "0.2", "0.05", "0.3", "0.7"]


def _range(rng: random.Random) -> str:
    """A small raster axis (at most 41 values), finite bounds only."""
    kind = rng.randrange(10)
    if kind == 0:  # one point, at an edge or a huge magnitude
        value = rng.choice(["-0.0", "0", "-0.5", "0.5", "1e300", "-1e300", "1e154", "-1e154",
                            "2e154", "1.3e154", _real(rng).replace("nan", "0").replace("inf", "1")])
        return f"{value}:{value}:{rng.choice(_STEPS + ['1e300'])}"
    if kind == 1:  # a usage error
        return rng.choice(["0:1:0", "0:1:-1", "1:0:1", "0:1:nan", "0:1:inf", "0:1", "a:b:c", "",
                           "0:1:2:3", "0:2000000:1", "-0.0:-1:1"])
    if kind == 2:  # a signed-zero bound
        return f"-0.0:{rng.randint(0, 4)}:{rng.choice(_STEPS[:5])}"
    step = rng.choice(_STEPS)
    count = rng.randint(1, 40)
    lo = rng.choice([rng.randint(-24, 8) / 8.0, round(rng.uniform(-4.0, 1.0), rng.randint(1, 3))])
    hi = lo + (count - 1) * float(step) + rng.choice([0.0, 0.0, 0.4 * float(step)])
    return f"{lo!r}:{hi!r}:{step}"


def _region_grid(rng: random.Random) -> list[str]:
    argv = ["reps", "region-grid", "--j", _range(rng), "--m", _range(rng)]
    if rng.random() < 0.3:
        argv += ["--out", "out.txt"]
    return argv


def corpus() -> list[list[str]]:
    from test_cli import _PARSER_CORPUS  # run as a script, tests/ leads sys.path

    rng = random.Random(SEED)
    seeded = [["list", *_format_and_out(rng)] for _ in range(8)]
    seeded += [_spectrum(rng) for _ in range(110)]
    seeded += [_label(rng, "classify") for _ in range(60)]
    seeded += [_label(rng, "enumerate") for _ in range(60)]
    seeded += [_region_grid(rng) for _ in range(100)]
    argvs = [argv for argv in _PARSER_CORPUS if not _runs_numeric_command(argv)]
    argvs += _README + _NUMERIC_USAGE_ERRORS + _VALUE_FORMS + seeded
    unique = []
    for argv in argvs:
        if argv not in unique:
            unique.append(argv)
    return unique


def main() -> None:
    with tempfile.TemporaryDirectory() as parent:
        entries = [outcome_in_empty_dir(argv, parent) for argv in corpus()]
    # one entry a line, so a diff names the argvs that moved
    RECORD.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"wrote {len(entries)} entries to {RECORD}")


if __name__ == "__main__":
    main()
