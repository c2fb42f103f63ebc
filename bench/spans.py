"""Per-layer spans and counts, recorded from outside the program.

The tracer replaces each public function of a pomtx layer (the functions
named in the module's ``__all__``) at every pomtx module attribute that holds
it, so calls the program makes through module globals (``cli.write_table``,
``pulsed.conversion_spectrum``, ``extraction.lorentzian_fit`` looked up by
``calibrate_jitter``) become child spans of the caller.  Spans are kept in
memory and written as JSON lines when the run ends.  Only code that runs
while ``active`` is set is recorded, so untimed reference computations leave
no spans.

A directly recursive call of the same function (``reports.jsonify``) is
folded into the outer span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYER_MODULES = ("device", "em_circuit", "optomech", "piezo", "pulsed", "extraction",
                 "spectra", "reports")

_PULSED_PATHS = {
    "mode_population_trace": "ensemble",
    "conversion_spectrum": "ensemble",
    "loading_efficiency_penalty": "ensemble",
    "calibrate_jitter": "pulsed.calibration",
    "anchor_loading_window": "pulsed.calibration",
    "fit_rise_time": "pulsed.fit",
    "fit_decay_rate": "pulsed.fit",
}
_SPECTRA_PATHS = {"load_spectrum": "spectra.read", "read_table": "spectra.read",
                  "write_table": "spectra.write", "save_spectrum": "spectra.write"}
# size of the sampled grid argument of each ensemble function
_ENSEMBLE_GRID = {"mode_population_trace": "t_grid", "conversion_spectrum": "freq_grid_hz",
                  "loading_efficiency_penalty": "t_points"}

# span record fields
ID, PARENT, OP, NAME, LAYER, START, END, OUTER, COUNTS = range(9)


class Tracer:
    """In-memory span recorder with install/uninstall of function wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.op_id = -1
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- recording -----------------------------------------------------

    def _open(self, name: str, layer: str, counts: dict | None) -> list:
        rec = [len(self.spans), self.stack[-1] if self.stack else -1, self.op_id, name, layer,
               0.0, 0.0, self._depth[layer] == 0, counts]
        self.spans.append(rec)
        self.stack.append(rec[ID])
        self._depth[layer] += 1
        return rec

    def _close(self, rec: list) -> None:
        self.stack.pop()
        self._depth[rec[LAYER]] -= 1

    @contextmanager
    def span(self, name: str, layer: str):
        """Span around a block of the benchmark's own code (an op, a command)."""
        rec = self._open(name, layer, None)
        rec[START] = time.perf_counter()
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._close(rec)

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, module: str):
        tracer = self
        name = f"{module}.{fn.__name__}"
        layer = _PULSED_PATHS.get(fn.__name__, "pulsed.other") if module == "pulsed" else \
            _SPECTRA_PATHS.get(fn.__name__, "spectra") if module == "spectra" else module
        sig = inspect.signature(fn) if layer == "ensemble" else None

        def before(args, kwargs):
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                grid = a[_ENSEMBLE_GRID[fn.__name__]]
                n_grid = grid if isinstance(grid, int) else int(np.size(grid))
                mc = a["method"] == "mc"
                return ("pulsed.mc" if mc else "pulsed.quadrature",
                        {"samples": n_grid * a["n_mc"] if mc else n_grid})
            if layer == "em_circuit":
                arrays = [a for a in args if isinstance(a, (float, int, np.ndarray))]
                return layer, {"points": int(np.broadcast(*arrays).size) if arrays else 1}
            return layer, None

        def after(rec, args, kwargs, result, failed):
            if layer == "extraction" and (failed or hasattr(result, "n_iter")):
                rec[COUNTS] = {"n_iter": 0 if failed else int(result.n_iter),
                               "converged": int(not failed and bool(result.converged))}
            elif layer in ("spectra.read", "spectra.write") or fn.__name__ == "write_report":
                path = args[0] if args else kwargs.get("path")
                try:
                    rec[COUNTS] = {"bytes": os.path.getsize(path)}
                except (OSError, TypeError):
                    rec[COUNTS] = {"bytes": 0}

        def wrapper(*args, **kwargs):
            if not tracer.active or (tracer.stack and tracer.spans[tracer.stack[-1]][NAME] == name):
                return fn(*args, **kwargs)
            span_layer, counts = before(args, kwargs)
            rec = tracer._open(name, span_layer, counts)
            failed = True
            result = None
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                rec[END] = time.perf_counter()
                tracer._close(rec)
                after(rec, args, kwargs, result, failed)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        """Wrap every public layer function at every pomtx attribute holding it."""
        targets = {}
        for module in LAYER_MODULES:
            mod = importlib.import_module(f"pomtx.{module}")
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj):
                    targets[obj] = self._wrap(obj, module)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pomtx" or mod_name.startswith("pomtx.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in targets:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, targets[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    # -- output --------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                row = {"id": rec[ID], "parent": rec[PARENT], "op": rec[OP], "name": rec[NAME],
                       "layer": rec[LAYER], "start_s": rec[START] - self._origin,
                       "end_s": rec[END] - self._origin}
                row.update(rec[COUNTS] or {})
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


TRACED_LAYERS = ("em_circuit", "optomech", "piezo", "device", "pulsed.mc", "pulsed.quadrature",
                 "pulsed.calibration", "pulsed.fit", "pulsed.other", "extraction",
                 "spectra.read", "spectra.write", "reports", "cli")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Busy time, self time, calls and layer counts from recorded spans.

    busy_s is the time at least one span of the layer was open; self_s
    subtracts the time covered by child spans of other layers; calls counts
    the outermost spans of the layer, and counts are summed over them.
    """
    child = defaultdict(float)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    busy, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    counts = defaultdict(float)
    for rec in spans:
        dur = rec[END] - rec[START]
        layer = rec[LAYER]
        self_s[layer] += dur - child[rec[ID]]
        if rec[OUTER]:
            busy[layer] += dur
            calls[layer] += 1
            for key, value in (rec[COUNTS] or {}).items():
                counts[f"{layer}.{key}"] += value
    by_id = {rec[ID]: rec for rec in spans}

    def under_calibration(rec):
        while rec[PARENT] >= 0:
            rec = by_id[rec[PARENT]]
            if rec[NAME] == "pulsed.calibrate_jitter":
                return True
        return False

    out = {}
    for layer in TRACED_LAYERS:
        out[f"{layer}.busy_s"] = busy[layer]
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    out["em_circuit.points_per_s"] = _rate(counts["em_circuit.points"], busy["em_circuit"])
    out["pulsed.mc.samples_per_s"] = _rate(counts["pulsed.mc.samples"], busy["pulsed.mc"])
    out["pulsed.calibration.objective_calls"] = sum(
        1 for rec in spans if rec[NAME] == "pulsed.conversion_spectrum" and under_calibration(rec))
    out["extraction.n_iter_total"] = counts["extraction.n_iter"]
    out["extraction.converged_ratio"] = _rate(counts["extraction.converged"],
                                              calls["extraction"])
    out["spectra.read.bytes"] = counts["spectra.read.bytes"]
    out["spectra.write.bytes"] = counts["spectra.write.bytes"]
    out["reports.bytes"] = counts["reports.bytes"]
    return out


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# -- import-time probe ----------------------------------------------------

_PROBE = ("import time, pomtx; t = time.perf_counter(); pomtx.load_config('paper_device'); "
          "print(time.perf_counter() - t)")
_IMPORT_KEYS = {"pomtx": "import.pomtx_s", "scipy.optimize": "import.scipy_optimize_s",
                "scipy.constants": "import.scipy_constants_s", "numpy": "import.numpy_s"}
_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def import_probe(env: dict, cwd: str, repeats: int) -> dict[str, float]:
    """Median -X importtime cumulative seconds and first load_config time.

    Each repeat is a fresh interpreter.  A module the program no longer
    imports reports 0.
    """
    samples = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", _PROBE], env=env,
                              cwd=cwd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-400:]}")
        seen = dict.fromkeys(_IMPORT_KEYS.values(), 0.0)
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and m.group(3) in _IMPORT_KEYS:
                seen[_IMPORT_KEYS[m.group(3)]] = int(m.group(2)) * 1e-6
        for key, value in seen.items():
            samples[key].append(value)
        samples["device.load_config_s"].append(float(proc.stdout.strip().splitlines()[-1]))
    return {key: statistics.median(values) for key, values in samples.items()}
