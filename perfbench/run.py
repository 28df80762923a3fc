"""Benchmark for sips.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src. Workloads
(README.md has the details and the reasons):

    cli_cold          cold `python -m sips.cli` processes over the everyday mix
    referee_sweep     in-process `verify` over the four families and three grids
    ladder_artifacts  in-process `wavefunction --out` files, then region rasters

Every workload is a closed loop with one client that repeats whole rounds of
commands until S seconds of command time are used, and checks every output
against reference.py. With --trace 0 the last line of stdout is the JSON
result with the end-to-end metrics; with --trace 1 the same rounds run once
plain and once with the layers wrapped (tracing.py), and the result holds the
per-layer metrics. Results and traced-run spans go to ./.perfbench; the
temporary artifacts of a run are removed when it ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import tracing
from checks import CheckError, check

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 7  # cold imports per run; setup_s is their median
# On a shared 2-core host the same command runs up to 1.6 times slower while
# the other hardware thread is busy, for stretches of tens of seconds. Every
# time the benchmark reports is scaled by a reference time over the time of a
# calibration probe measured around it, so the figures speak of the program,
# not of the neighbours. In-process commands are probed with a small kernel,
# cold processes with a cold `python -c "import numpy"`: each probe slows the
# way the work it scales does.
REFERENCE_KERNEL_S = 1.4e-3
REFERENCE_COLD_S = 0.13
CHILD_TIMEOUT_S = 60.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cmd_p50_s": "s",
    "cmds_per_s": "1/s",
    "accuracy_digits": "digits",
}

IMPORTS = ["sips.import_s", "algebra.import_s", "susy.import_s", "oracle.import_s", "cli.import_s"]
LADDER_GRIDS = (4001, 16001, 64001)
REFEREE_GRIDS = (1001, 4001, 16001)


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in IMPORTS}
    units.update({name: "s" for name in tracing.TIME_METRICS})
    units.update({name: ("bytes" if name == "export.bytes" else "count") for name in tracing.COUNT_METRICS})
    units.update({f"susy.ladder_err.{n}": "abs" for n in LADDER_GRIDS})
    units.update({f"oracle.max_abs_diff.{n}": "abs" for n in REFEREE_GRIDS})
    units.update({"trace.overhead_s": "s", "trace.wall_s": "s", "trace.unattributed_s": "s"})
    return units


@dataclass
class Done:
    """One executed command."""

    op: object
    rc: int | None
    stdout: str
    stderr: str
    wall: float
    scaled: float  # wall at the reference speed
    summary: dict | None = None  # tracer summary of a traced cold process
    outcome: object = None
    checked: bool = False


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.errors: list[str] = []
        self.tracer = None  # set for the traced half and the coverage round
        self.cold_traced = False
        self.scratch = OUT / f"run-{os.getpid()}"
        self.cold_probe = None  # the cold probe after the previous cold command

    # ------------------------------------------------------------ execution

    def _inprocess(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = sys.modules["sips.cli"].main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a wrong answer, not a crash of the run
                traceback.print_exc()
                rc = None
        return rc, out.getvalue(), err.getvalue()

    def _cold(self, argv) -> tuple:
        if self.cold_traced:
            summary_path = self.scratch / "summary.json"
            cmd = [sys.executable, "-X", "importtime", str(HERE / "coldtrace.py"), str(summary_path), "--"]
        else:
            cmd = [sys.executable, "-m", "sips.cli"]
        try:
            proc = subprocess.run(cmd + list(argv), env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            rc, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            rc, out, err = None, "", f"killed after {CHILD_TIMEOUT_S} s"
        if not self.cold_traced:
            return rc, out, err, None
        try:
            with open(summary_path) as handle:
                summary = json.load(handle)
            os.unlink(summary_path)
        except OSError:  # the process died before writing it; its check fails
            summary = tracing.Tracer().summary()
        summary["imports"] = tracing.import_times(err)
        return rc, out, err, summary

    def execute(self, op, in_process: bool = False) -> Done:
        if self.workload == "cli_cold" and not in_process:
            # A cold probe costs a process start, so the one after a command
            # is also the one before the next.
            before = self.cold_probe or cold_probe_time(self.env)
            t0 = time.perf_counter()
            rc, out, err, summary = self._cold(op.argv)
            wall = time.perf_counter() - t0
            self.cold_probe = cold_probe_time(self.env)
            return Done(op, rc, out, err, wall,
                        to_reference(wall, before, self.cold_probe, REFERENCE_COLD_S), summary)
        before = kernel_time()
        t0 = time.perf_counter()
        if self.tracer is not None:
            rc, out, err = self.tracer.run_op(self._inprocess, op.argv)
        else:
            rc, out, err = self._inprocess(op.argv)
        wall = time.perf_counter() - t0
        return Done(op, rc, out, err, wall, to_reference(wall, before, kernel_time(), REFERENCE_KERNEL_S))

    def check(self, done: Done) -> None:
        done.checked = True
        try:
            done.outcome = check(done.op, done.rc, done.stdout)
        except CheckError as exc:
            self.errors.append(f"{' '.join(done.op.argv)}: {exc}; stderr: {done.stderr.strip()[-300:]}")
        finally:
            if done.op.out and os.path.exists(done.op.out):
                os.unlink(done.op.out)

    def make_round(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        if self.workload == "cli_cold":
            return inputs.cold_round(rng, r, str(self.scratch))
        if self.workload == "referee_sweep":
            return inputs.referee_round(rng, r)
        return inputs.ladder_round(rng, r, str(self.scratch))

    def rounds(self, budget: float, fixed: int | None = None):
        """Whole rounds until ``budget`` seconds of command time are used,
        or exactly ``fixed`` rounds. The referee's checks need LAPACK and wait
        until the rounds are over, so its peak RSS is the program's."""
        check_now = self.workload != "referee_sweep"
        done, busy, count = [], 0.0, 0
        while count < fixed if fixed is not None else busy < budget:
            for op in self.make_round(count):
                d = self.execute(op)
                busy += d.wall
                if check_now:
                    self.check(d)
                done.append(d)
            count += 1
        return done, count

    def warm_up(self) -> None:
        """The first command of each kind in round 0, checked and not
        counted, so first-call costs in this process stay out of the timing."""
        if self.workload == "cli_cold":
            return
        first = {}
        for op in self.make_round(0):
            first.setdefault(op.kind, op)
        for op in first.values():
            self.check(self.execute(op))

    def finish_checks(self, results) -> None:
        for d in results:
            if not d.checked:
                self.check(d)

    # -------------------------------------------------------------- modes

    def setup_times(self) -> list[float]:
        """SETUP_PROBES cold `import sips.cli` processes, at the reference speed."""
        times, before = [], cold_probe_time(self.env)
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import sips.cli"], env=self.env, cwd=ROOT,
                           check=True, timeout=CHILD_TIMEOUT_S, capture_output=True)
            wall = time.perf_counter() - t0
            after = cold_probe_time(self.env)
            times.append(to_reference(wall, before, after, REFERENCE_COLD_S))
            before = after
        return times

    def untraced(self) -> dict:
        setup = statistics.median(self.setup_times())
        self.warm_up()
        results, _ = self.rounds(self.seconds)
        if self.workload == "cli_cold":
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.finish_checks(results)
        walls = [d.wall for d in results]
        scaled = [d.scaled for d in results]
        print(f"perfbench: raw p50 {statistics.median(walls):.5f} raw rate {len(walls) / sum(walls):.4f}", file=sys.stderr)
        gaps = [d.outcome.gap for d in results if d.outcome is not None and d.outcome.gap is not None]
        metrics = {
            "setup_s": setup,
            "peak_rss_mb": rss_kb / 1024.0,
            "cmd_p50_s": statistics.median(scaled),
            "cmds_per_s": len(scaled) / sum(scaled),
            "accuracy_digits": -math.log10(max(max(gaps, default=1.0), 1e-16)),
        }
        return self.result(results, {k: (v, END_TO_END[k]) for k, v in metrics.items()})

    def traced(self) -> dict:
        if self.workload != "cli_cold":
            imports = import_probe(self.env)
        self.warm_up()
        plain, count = self.rounds(self.seconds / 2.0)
        if self.workload == "cli_cold":
            self.cold_traced = True
        else:
            self.tracer = tracing.Tracer()
            tracing.install(self.tracer)
        traced, _ = self.rounds(0.0, fixed=count)
        self.finish_checks(plain + traced)

        wall = sum(d.wall for d in traced)
        speed = sum(d.scaled for d in traced) / wall  # the traced half's factor to reference speed
        if self.workload == "cli_cold":
            summaries = [d.summary for d in traced]
            # A module no command imported took no import time.
            imports = {name: statistics.median([s["imports"][name] for s in summaries
                                                if name in s["imports"]] or [0.0]) for name in IMPORTS}
            installed = set().union(*(s["installed"] for s in summaries))
            missing = sorted(set().union(*(s["missing"] for s in summaries)))
            self_time, layer_counts = _sum_dicts(s["self_time"] for s in summaries), \
                _sum_dicts(s["counts"] for s in summaries)
            unattributed = sum(d.wall - d.summary["op_time"] - _import_total(d.summary["imports"])
                               for d in traced) + self_time.get("unattributed", 0.0)
            # The coverage round runs in this process under a tracer of its own.
            import sips.cli  # noqa: F401  (called in-process through sys.modules)
            self.tracer = tracing.Tracer()
            tracing.install(self.tracer)
        else:
            self_time, layer_counts = dict(self.tracer.self_time), dict(self.tracer.counts)
            installed, missing = self.tracer.installed, self.tracer.missing
            unattributed = self_time.get("unattributed", 0.0)
            summaries = []
        before_time, before_counts = dict(self.tracer.self_time), dict(self.tracer.counts)
        covered = [self.execute(op, in_process=True)
                   for op in inputs.coverage_round(str(self.scratch), REFEREE_GRIDS, LADDER_GRIDS)]
        for d in covered:
            self.check(d)
        cover_speed = sum(d.scaled for d in covered) / sum(d.wall for d in covered)
        cover_time = {k: v - before_time.get(k, 0.0) for k, v in self.tracer.self_time.items()}
        cover_counts = {k: v - before_counts.get(k, 0) for k, v in self.tracer.counts.items()}
        installed = set(installed) | self.tracer.installed
        missing = sorted(set(missing) | set(self.tracer.missing))
        summaries.append(self.tracer.summary())
        with open(OUT / f"spans-{self.workload}-{self.seed}.json", "w") as handle:
            json.dump([s["spans"] for s in summaries], handle)

        units = per_layer_units()
        metrics = {name: imports.get(name, 0.0) * speed for name in IMPORTS}
        for name in tracing.TIME_METRICS:
            layer = name[:-2]
            metrics[name] = self_time.get(layer, 0.0) * speed + cover_time.get(layer, 0.0) * cover_speed
        for name in tracing.COUNT_METRICS:
            metrics[name] = layer_counts.get(name, 0) + cover_counts.get(name, 0)
        for name in sorted(set(tracing.TIME_METRICS + tracing.COUNT_METRICS) - set(installed)):
            print(f"perfbench: {name} reads 0: no function was found to wrap for it", file=sys.stderr)
        # The accuracy at each grid size comes from the coverage round, the
        # same commands on every workload and seed.
        for grids, kind, key, attr in ((LADDER_GRIDS, "wavefunction", "susy.ladder_err", "gap"),
                                       (REFEREE_GRIDS, "verify", "oracle.max_abs_diff", "reported_diff")):
            for n in grids:
                values = [getattr(d.outcome, attr) for d in covered
                          if d.op.kind == kind and d.outcome is not None and d.outcome.grid_points == n
                          and getattr(d.outcome, attr) is not None]
                if not values:
                    self.errors.append(f"coverage round: no {kind} result at {n} points")
                metrics[f"{key}.{n}"] = max(values, default=0.0)
        metrics["trace.wall_s"] = wall * speed
        metrics["trace.unattributed_s"] = unattributed * speed
        metrics["trace.overhead_s"] = sum(d.scaled for d in traced) - sum(d.scaled for d in plain)
        for name in missing:
            print(f"perfbench: not wrapped (missing): {name}", file=sys.stderr)
        return self.result(plain + traced, {k: (metrics[k], units[k]) for k in units})

    def result(self, results, metrics: dict) -> dict:
        failed = sum(1 for d in results if d.outcome is not None and d.outcome.failed)
        out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
        for message in self.errors[:10]:
            print(f"perfbench: CHECK FAILED: {message}", file=sys.stderr)
        return {"correct": not self.errors, "attempted": len(results), "failed": failed, "metrics": out}


_CAL_FLOATS = [((i * 7919) % 10007) / 10007.0 for i in range(4000)]


def _kernel() -> None:
    # The program's three kinds of work in small: an interpreter loop over
    # floats, a numpy pass over an array, and float formatting.
    s = 0.0
    for v in _CAL_FLOATS:
        s = s * 0.5 + v
    np.sort(np.asarray(_CAL_FLOATS * 5))
    ",".join(f"{v:.12g}" for v in _CAL_FLOATS[:1000])


def kernel_time() -> float:
    """Best of three runs of the calibration kernel."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def import_probe(env: dict) -> dict[str, float]:
    """Import seconds of the IMPORTS modules in one cold process; each is
    imported by name, so a module `sips.cli` loads lazily is still timed."""
    probe = subprocess.run([sys.executable, "-X", "importtime", "-c",
                            "import sips.cli, sips.algebra, sips.susy, sips.oracle"],
                           env=env, cwd=ROOT, capture_output=True, text=True,
                           check=True, timeout=CHILD_TIMEOUT_S)
    return tracing.import_times(probe.stderr)


def cold_probe_time(env: dict) -> float:
    """Wall time of one cold `python -c "import numpy"`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=ROOT, check=True,
                   timeout=CHILD_TIMEOUT_S, capture_output=True)
    return time.perf_counter() - t0


def to_reference(wall: float, probe_before: float, probe_after: float, reference: float) -> float:
    """A wall time scaled to the reference speed by the probe times
    measured just before and just after it."""
    return wall * reference / (0.5 * (probe_before + probe_after))


def _import_total(imports: dict) -> float:
    # `import sips.cli` nests the package import inside the cli line.
    return imports.get("cli.import_s", imports.get("sips.import_s", 0.0))


def _sum_dicts(dicts) -> dict:
    total: dict = {}
    for d in dicts:
        for key, value in d.items():
            total[key] = total.get(key, 0) + value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli_cold", "referee_sweep", "ladder_artifacts"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sips" / "__init__.py").is_file():
        print(f"perfbench: no sips package under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    # One CPU for this process and the commands it starts, so the calibration
    # kernel runs where the command it scales runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    if args.workload != "cli_cold":
        import sips.cli  # noqa: F401  (called in-process through sys.modules)

    bench = Bench(args.workload, args.seed, args.seconds)
    bench.scratch.mkdir(parents=True, exist_ok=True)
    try:
        result = bench.traced() if args.trace else bench.untraced()
    finally:
        shutil.rmtree(bench.scratch, ignore_errors=True)
    line = json.dumps(result)
    with open(OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json", "w") as handle:
        handle.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
