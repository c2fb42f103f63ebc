#!/usr/bin/env python3
"""pomtx benchmark.

    python3 bench/run.py --workload {cli-cold,pulsed-mc,design-calibrate} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the run measures the end-to-end metrics for ``--seconds``
(whole cycles of ops, one client, closed loop).  With ``--trace 1`` it runs a
fixed, seed-determined set of ops untraced and then traced, and reports the
per-layer metrics.  The metric names and units come from BENCHMARK.json.
The last line of stdout is the result object; the line before it is the full
report (environment stamp, op_tail_s, failed_ops_ratio, failures).  Reports
and span files are written under bench/out/.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cli-cold", "pulsed-mc", "design-calibrate")
SETUP_REPEATS = 5
IMPORT_PROBE_REPEATS = 3
# ops of the traced run, fixed so that per-layer counts repeat at a seed
TRACED_OPS = {"pulsed-mc": 2, "design-calibrate": 3}
# a cycle is not started when the previous one would end past this
RUN_LIMIT_S = 150.0
COLD = ("cold = a fresh Python interpreter per command; the OS page cache is left "
        "as it is, and nothing on the machine is dropped or pinned")
SETUP_CODE = "import pomtx; pomtx.load_config('paper_device')"
# One client in one process: no BLAS or OpenMP worker threads, here or in
# the interpreters the benchmark starts.
THREAD_LIMITS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        try:
            with open(os.path.join(git, ref_name)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.strip().endswith(" " + ref_name):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy
    import scipy

    import pomtx

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pomtx": pomtx.__version__,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cold": COLD,
    }


def measure_setup(env: dict, workdir: str) -> float:
    """Median wall time of a fresh interpreter importing pomtx and loading the config.

    One untimed interpreter runs first so that bytecode caches exist, as they
    do for every run after installation.
    """
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=workdir, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-400:]}")
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def make_ops(workload: str, rng, index: int):
    """Ops of cycle `index`: a whole cli-cold cycle, or one op of a warm workload."""
    from workloads import cli_cycle, pulsed_op, session_op

    if workload == "cli-cold":
        return cli_cycle(rng, index)
    if workload == "pulsed-mc":
        return [pulsed_op(rng, index)]
    return [session_op(rng, index)]


def warm_up(workload: str, ex) -> None:
    """Run each code path once, untimed, so lazy set-up is done before timing."""
    import numpy as np

    from workloads import Op

    if workload == "pulsed-mc":
        small = ["--n-mc", "64", "--out", "warm.json", "--csv", "warm.csv"]
        ex.execute(Op("warm-up", [["pulse-trace", "--points", "101", *small],
                                  ["spectrum", *small]], lambda _: []))
    elif workload == "design-calibrate":
        op = make_ops(workload, np.random.default_rng(0), -1)[0]
        op.check = lambda _: []
        ex.execute(op)


def peak_rss_mb(cold: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def latency_metrics(results) -> dict:
    lat = sorted(r.latency_s for r in results)
    n = len(lat)
    out = {
        "op_p50_s": statistics.median(lat),
        "ops_per_s": n / sum(lat),
        "failed_ops_ratio": sum(1 for r in results if r.errors) / n,
        "ops": n,
    }
    if n >= 20:
        k = n - 11  # highest rank with at least 10 samples above it
        out["op_tail_s"] = {"value": lat[k], "percentile": 100.0 * (k + 1) / n, "samples": n}
    else:
        out["op_tail_s"] = {"omitted": f"only {n} ops; needs at least 20"}
    return out


def command_p50(results) -> dict:
    by_cmd: dict[str, list[float]] = {}
    for r in results:
        for key, seconds in r.commands_s.items():
            by_cmd.setdefault(key, []).append(seconds)
    return {f"cli.{key}.p50_s": statistics.median(v) for key, v in by_cmd.items()}


def timed_run(args, rng, env, workdir, started) -> tuple[dict, list]:
    from workloads import Executor

    cold = args.workload == "cli-cold"
    ex = Executor(workdir, env, cold)
    warm_up(args.workload, ex)
    results = []
    t0 = time.perf_counter()
    index = 0
    while True:
        tc = time.perf_counter()
        results += [ex.execute(op) for op in make_ops(args.workload, rng, index)]
        index += 1
        now = time.perf_counter()
        if now - t0 >= args.seconds or now - started + (now - tc) > RUN_LIMIT_S:
            break
    metrics = latency_metrics(results)
    metrics["peak_rss_mb"] = peak_rss_mb(cold)
    metrics["elapsed_s"] = time.perf_counter() - t0
    metrics.update(command_p50(results))
    metrics["op_latencies_s"] = [[r.name, r.latency_s] for r in results]
    return metrics, results


def traced_run(args, rng, env, workdir, tag) -> tuple[dict, list]:
    from spans import Tracer, import_probe, layer_metrics
    from workloads import Executor

    metrics = import_probe(env, workdir, IMPORT_PROBE_REPEATS)
    if args.workload == "cli-cold":
        ops = make_ops(args.workload, rng, 0)
    else:
        ops = [make_ops(args.workload, rng, i)[0] for i in range(TRACED_OPS[args.workload])]
    results = []
    if args.workload == "cli-cold":
        cold = [Executor(workdir, env, cold=True).execute(op) for op in ops]
        results += cold
        metrics.update(command_p50(cold))
    warm = Executor(workdir, env, cold=False)
    warm_up(args.workload, warm)
    tracer = Tracer()
    traced_ex = Executor(workdir, env, cold=False, tracer=tracer)
    untraced, traced = [], []
    # each op runs untraced, then traced, so both see the same warm state
    for op in ops:
        untraced.append(warm.execute(op))
        tracer.install()
        try:
            traced.append(traced_ex.execute(op))
        finally:
            tracer.uninstall()
    if args.workload != "cli-cold":
        metrics.update(command_p50(untraced))
    results += untraced + traced
    metrics.update(layer_metrics(tracer.spans))
    metrics["trace.overhead_ratio"] = (
        sum(r.latency_s for r in untraced) / sum(r.latency_s for r in traced))
    metrics["spans"] = len(tracer.spans)
    tracer.write_jsonl(os.path.join(BENCH, "out", f"{tag}.spans.jsonl"))
    return metrics, results


def metric(metrics: dict, name: str) -> float:
    """A metric by name; a command the workload does not run reports 0."""
    if name.startswith("cli.") and name.endswith(".p50_s"):
        return metrics.get(name, 0.0)
    return metrics[name]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "pomtx", "__init__.py")):
        print(f"bench: no pomtx sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for name in THREAD_LIMITS:
        os.environ[name] = "1"
    sys.path.insert(0, SRC)
    import numpy as np

    import pomtx

    if not os.path.abspath(pomtx.__file__).startswith(SRC + os.sep):
        print(f"bench: pomtx imported from {pomtx.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(BENCH, "out", tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.chdir(workdir)
    rng = np.random.default_rng(args.seed)

    setup_s = measure_setup(env, workdir)
    if args.trace:
        metrics, results = traced_run(args, rng, env, workdir, tag)
        wanted = spec["per_layer"]
    else:
        metrics, results = timed_run(args, rng, env, workdir, started)
        wanted = spec["end_to_end"]
    metrics["setup_s"] = setup_s

    failures = [f"{r.name}: {e}" for r in results for e in r.errors]
    report = {"benchmark": "pomtx", "environment": environment(args), "metrics": metrics,
              "failures": failures[:50]}
    text = json.dumps(report, sort_keys=True)
    with open(os.path.join(BENCH, "out", f"{tag}.report.json"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": sum(1 for r in results if r.errors),
        "metrics": {m["name"]: {"value": float(metric(metrics, m["name"])), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
