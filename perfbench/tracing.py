"""Per-layer timing from outside the library.

`install` wraps the public functions of each `sips` module listed in LAYERS
and rebinds every name in every loaded `sips.*` module that refers to the
original function, so `from .catalog import potential_minus` bindings are
timed too. Each wrapper keeps a stack of open spans: a layer's self time is
its span minus the time of the wrapped calls inside it. Aggregates are kept
for every call; individual spans only up to SPAN_CAP, so a 250k-point raster
does not hold a quarter of a million records.

This module imports nothing from `sips` at import time; it runs inside the
benchmark process and inside traced cold processes (coldtrace.py).
"""

from __future__ import annotations

import re
import sys
import time
from collections import defaultdict

SPAN_CAP = 20000

# (module, function, layer). Functions left out (get_model, shift_params,
# grids.derivative, positivity_check, ...) are cheap or called per point, and
# their time lands in the caller's self time.
LAYERS = [
    ("sips.cli", "main", "cli.dispatch"),
    ("sips.cli", "cmd_list", "cli.dispatch"),
    ("sips.cli", "cmd_spectrum", "cli.dispatch"),
    ("sips.cli", "cmd_verify", "cli.dispatch"),
    ("sips.cli", "cmd_wavefunction", "cli.dispatch"),
    ("sips.cli", "cmd_algebra_check", "cli.dispatch"),
    ("sips.cli", "cmd_reps_classify", "cli.dispatch"),
    ("sips.cli", "cmd_reps_enumerate", "cli.dispatch"),
    ("sips.cli", "cmd_reps_region_grid", "cli.dispatch"),
    ("sips.cli", "build_parser", "cli.parse"),
    ("sips.cli", "parse_params", "cli.parse"),
    ("sips.cli", "parse_grid_spec", "cli.parse"),
    ("sips.cli", "parse_range_spec", "cli.parse"),
    ("sips.catalog", "potential_minus", "catalog.potential"),
    ("sips.catalog", "potential_plus", "catalog.potential"),
    ("sips.catalog", "evaluate_superpotential", "catalog.potential"),
    ("sips.catalog", "closed_form_energy", "catalog.potential"),
    ("sips.catalog", "max_bound_states", "catalog.potential"),
    ("sips.catalog", "list_models", "catalog.potential"),
    ("sips.susy", "verify_shape_invariance", "susy.si_identity"),
    ("sips.susy", "spectrum_by_shape_invariance", "susy.spectrum"),
    ("sips.susy", "ground_state", "susy.ground_state"),
    ("sips.susy", "excited_state_by_ladder", "susy.ladder"),
    ("sips.susy", "apply_a_plus", "susy.ladder"),
    ("sips.algebra", "algebra_spectrum", "algebra.spectrum"),
    ("sips.algebra", "commutator_j3_residual", "algebra.closure"),
    ("sips.algebra", "closure_residual", "algebra.closure"),
    ("sips.algebra", "apply_j_plus", "algebra.closure"),
    ("sips.algebra", "apply_j_minus", "algebra.closure"),
    ("sips.algebra", "apply_j3", "algebra.closure"),
    ("sips.oracle", "lowest_eigenvalues", "oracle.eigenvalues"),
    ("sips.oracle", "sturm_count", "oracle.eigenvalues"),
    ("sips.oracle", "compare_spectra", "oracle.eigenvalues"),
    ("sips.oracle", "discretize_hamiltonian", "oracle.discretize"),
    ("sips.oracle", "residual_norm", "oracle.residual"),
    ("sips.grids", "node_count", "grids.node_count"),
    ("sips.export", "wavefunction_csv_text", "export.csv"),
    ("sips.export", "wavefunction_record", "export.json"),
    ("sips.export", "write_json", "export.json"),
    ("sips.export", "atomic_write_text", "export.write"),
    ("sips.unireps", "region_of", "unireps.region"),
    ("sips.unireps", "classify", "unireps.classify"),
    ("sips.unireps", "enumerate_multiplet", "unireps.classify"),
]


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _one(args, kwargs):
    return 1


# Counts taken at the same boundaries: (module, function) -> (count, increment).
COUNTS = {
    ("sips.susy", "apply_a_plus"): ("susy.raise_steps", _one),
    ("sips.oracle", "lowest_eigenvalues"): ("oracle.levels", lambda a, k: int(_arg(a, k, 1, "k"))),
    ("sips.oracle", "discretize_hamiltonian"):
        ("oracle.grid_points", lambda a, k: int(_arg(a, k, 1, "grid").n_points)),
    ("sips.export", "atomic_write_text"): ("export.bytes", lambda a, k: len(_arg(a, k, 1, "text"))),
    ("sips.unireps", "region_of"): ("unireps.points", _one),
}
LAYER_COUNTS = {"catalog.potential": ("catalog.calls", _one)}  # every call into the layer

TIME_METRICS = [f"{layer}_s" for layer in dict.fromkeys(layer for _, _, layer in LAYERS)]
COUNT_METRICS = [name for name, _ in (*LAYER_COUNTS.values(), *COUNTS.values())]

IMPORT_MODULES = {"sips": "sips.import_s", "sips.algebra": "algebra.import_s",
                  "sips.susy": "susy.import_s", "sips.oracle": "oracle.import_s",
                  "sips.cli": "cli.import_s"}


class Tracer:
    def __init__(self) -> None:
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.op = 0
        self.op_time = 0.0
        self.installed: set[str] = set()
        self.missing: list[str] = []

    def wrap(self, fn, layer: str, counter=None, post=None):
        stack, self_time, counts, spans = self.stack, self.self_time, self.counts, self.spans

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                stack.pop()
                self_time[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((layer, t0, duration, len(stack), self.op))
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs)
            return post(result) if post is not None else result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, fn, *args):
        """Run one operation as the root span; its self time is what no
        layer covers (argv handling, redirection, interpreter work)."""
        self.op += 1
        frame = [0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            duration = time.perf_counter() - t0
            self.stack.pop()
            self.op_time += duration
            self.self_time["unattributed"] += duration - frame[0]

    def summary(self) -> dict:
        return {"self_time": dict(self.self_time), "counts": dict(self.counts),
                "op_time": self.op_time, "installed": sorted(self.installed),
                "missing": self.missing, "spans": self.spans}


def install(tracer: Tracer) -> None:
    """Wrap the LAYERS functions of the loaded `sips` modules. The names of
    the time and count metrics that got a wrapper go to ``tracer.installed``;
    a missing function goes to ``tracer.missing``."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "sips" or name.startswith("sips."))]
    for mod_name, fn_name, layer in LAYERS:
        fn = getattr(sys.modules.get(mod_name), fn_name, None)
        if not callable(fn):
            tracer.missing.append(f"{mod_name}.{fn_name}")
            continue
        counter = COUNTS.get((mod_name, fn_name)) or LAYER_COUNTS.get(layer)
        post = None
        if fn_name == "build_parser":
            # argparse does the parsing in a method of the returned parser.
            def post(parser, _wrap=tracer.wrap):
                parser.parse_args = _wrap(parser.parse_args, "cli.parse")
                return parser
        traced = tracer.wrap(fn, layer, counter, post)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, traced)
        tracer.installed.update([f"{layer}_s"] + ([counter[0]] if counter else []))
    _wrap_json(tracer, modules)


def _wrap_json(tracer: Tracer, modules) -> None:
    # The CLI serializes JSON reports with json.dumps itself; time it as
    # export.json through a stand-in for the json module in sips' namespaces.
    import json
    import types

    proxy = types.ModuleType("json")
    proxy.__dict__.update(json.__dict__)
    proxy.dumps = tracer.wrap(json.dumps, "export.json")
    for module in modules:
        if vars(module).get("json") is json:
            module.json = proxy


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(.*)$")


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of the IMPORT_MODULES from `-X importtime`."""
    out = {}
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            name = match.group(3).strip()
            if name in IMPORT_MODULES:
                out[IMPORT_MODULES[name]] = int(match.group(2)) * 1e-6
    return out
