"""Benchmark of the fusedconv `simulate` and `dse` commands.

    python3 perfbench/run.py --workload vgg7-28 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from `src/`.
Set-up writes the workload's input files from the seed, several times, and
checks the static cost-model anchors. Then passes run as a closed loop, one
at a time in this process: each pass is one `fusedconv.cli.main([...])` call,
exactly what a user runs, followed by the workload's correctness checks.
Before the first pass and after each one, a fixed pure-Python reference
loop is timed, so that each pass can also be read against the host's speed
at that moment. A new pass starts only while a typical pass, with its
reference loop, still ends within `--seconds`.

With `--trace 0` the last stdout line reports the end-to-end metrics, taken
with only two probe timers installed (around `simulate_plan` and
`run_network`):

    pass_s       median host time of one pass (the sample count is printed,
                 and the highest percentile with 10 samples beyond it)
    pass_rel     median over passes of the pass time divided by the mean of
                 the reference-loop times just before and after it: the
                 pass in units of the reference loop, so that drift in the
                 shared host's speed, which moves both, cancels
    setup_s      median time for a fresh interpreter to import the CLI, plus
                 the median time to generate and write the input files
    peak_rss_mb  peak resident memory of this process

The lines above it also give the rates of the pass's main calls, as medians
over passes: sim_cycles_per_s (modeled cycles per second of simulate_plan)
and oracle_macs_per_s (oracle multiply-accumulates per second of
run_network) for simulate workloads, dse_plans_per_s (partitions evaluated
per second of pass) for dse; then the static anchors, and the modeled
result in milliseconds at 120 MHz, marked unvalidated: no workload has a
published reference figure.

With `--trace 1` passes alternate between untraced and traced with spans
around every named layer; the last line reports the per-layer metrics of the
traced passes and the tracing overhead (median traced minus median untraced
pass time), and the spans go to a Chrome trace-event file. Results, samples
and the environment are also written under `.perfbench_work/` in the
checkout.
"""

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    import numpy as np
    import fusedconv
    from fusedconv import cli, costmodel
    from fusedconv.config import parse_plan
    from fusedconv.networks import VGG7_DEFAULT_DPAR, vgg_prefix_7
except ImportError as e:
    print(f"perfbench: cannot import fusedconv from {ROOT}/src: {e}", file=sys.stderr)
    sys.exit(2)
if not os.path.abspath(fusedconv.__file__).startswith(os.path.join(ROOT, "src", "")):
    print(f"perfbench: fusedconv imported from {fusedconv.__file__}, not from "
          f"{ROOT}/src", file=sys.stderr)
    sys.exit(2)

import tracing  # noqa: E402
from workloads import FREQ_MHZ, MODELED_KEYS, WORKLOADS, SimulateWorkload  # noqa: E402

SETUP_REPS = 5
# iterations of the reference loop; one timing takes about 35 ms
REFERENCE_ITERS = 40_000
WORK_DIR = os.path.join(ROOT, ".perfbench_work")


def import_seconds() -> float:
    """Time for a fresh interpreter to start and import the CLI module."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fusedconv.cli"], env=env, check=True)
    return time.perf_counter() - t0


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def value(self, x):
        return self.a * x + self.b


def reference_seconds() -> float:
    """Mean of five timings of a fixed pure-Python loop that mixes object
    creation, method calls, dict stores, str() and a sort. It tracks the
    host's speed for interpreter-bound passes better than plain arithmetic
    does, and it runs no fusedconv code, so a faster program does not make
    it faster."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        table, acc = {}, 0
        for i in range(REFERENCE_ITERS):
            table[(i % 257, i % 11)] = _Point(i, i % 13).value(3)
            acc += len(str(i))
        acc += sum(sorted(table.values(), reverse=True)[:50])
        times.append(time.perf_counter() - t0)
    return statistics.mean(times)


def check_anchors() -> list:
    """Static cost-model anchors for VGG-7 at VGG7_DEFAULT_DPAR. Returns
    (label, expected, got) triples."""
    net = vgg_prefix_7()
    dpar = ",".join(str(x) for x in VGG7_DEFAULT_DPAR)
    fused = costmodel.analyze(parse_plan("0-6", net, dpar), net, 4)
    first = costmodel.analyze(parse_plan("0-2|3|4|5|6", net, dpar), net, 4)
    unfused = costmodel.analyze(parse_plan("0|1|2|3|4|5|6", net, dpar), net, 1)
    return [
        ("fully fused DSP", 2907, fused.dsp),
        ("fully fused traffic at 4 B/value", 6_032_128, fused.traffic["total"]),
        ("group 0-2 DSP", 603, sum(e["dsp"] for e in first.per_layer[:3])),
        ("unfused traffic at 1 B/value", 23_184_064, unfused.traffic["total"]),
    ]


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "fusedconv": fusedconv.__version__, "git_commit": git_commit(),
            "src_lines": src_lines}


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def run_pass(wl, tracer, pass_no, work_dir, out_dir, state) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    tracer.results.clear()
    tracer.current_pass = pass_no
    gc.collect()
    sink = io.StringIO()
    error = None
    span = tracer.open(tracer.intern("cli.main"))
    t0 = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(wl.argv(work_dir, out_dir))
    except Exception:
        code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - t0
    tracer.close(span)
    tracer.current_pass = None

    modeled = dict.fromkeys(MODELED_KEYS, 0)
    if code != 0:
        failures = [f"exit code {code}: {error or sink.getvalue().strip()}"]
    else:
        try:
            failures = wl.check(out_dir, tracer.results, state)
            modeled.update(wl.modeled_counts(out_dir))
        except Exception:
            failures = [f"check raised:\n{traceback.format_exc()}"]
    spans = tracer.spans_of_pass(pass_no)
    totals = tracer.totals(spans)
    children = sum(tracer.duration(j) for j in tracer.children(span, spans))
    if children > tracer.duration(span):
        failures.append(f"child spans {children:.6f} s exceed the pass "
                        f"{tracer.duration(span):.6f} s")
    return {"pass": pass_no, "seconds": seconds, "exit_code": code,
            "failures": failures, "span": span, "spans": spans, "totals": totals,
            "modeled": modeled}


def tail_percentile(values):
    """The highest whole percentile with at least 10 samples beyond it, or
    None when there are too few samples for one at or above the median."""
    n = len(values)
    p = (100 * (n - 10)) // n if n > 10 else 0
    if p < 50:
        return None
    ordered = sorted(values)
    return p, ordered[min(n - 1, -(-p * n // 100) - 1)]


def end_to_end(wl, passes, refs, setup_s):
    """The end-to-end metrics, and the rates of the pass's main calls.
    `refs[i]` and `refs[i + 1]` are the reference-loop times around pass i."""
    pass_times = [p["seconds"] for p in passes]
    metrics = {
        "pass_s": (statistics.median(pass_times), "s"),
        "pass_rel": (statistics.median(t / ((refs[i] + refs[i + 1]) / 2)
                                       for i, t in enumerate(pass_times)), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if isinstance(wl, SimulateWorkload):
        rates = {"sim_cycles_per_s": (_rate(wl.cycles, passes, "dataflow.simulate_plan"),
                                      "cycles/s"),
                 "oracle_macs_per_s": (_rate(wl.macs, passes, "golden.run_network"),
                                       "MAC/s")}
    else:
        rates = {"dse_plans_per_s": (statistics.median(wl.rows / t for t in pass_times),
                                     "plans/s")}
    return metrics, rates


def _rate(work, passes, span_name):
    """Median over passes of work per second of the pass's single call to
    the named span."""
    rates = [work / p["totals"][span_name][1] for p in passes
             if p["totals"][span_name][0] == 1]
    return statistics.median(rates) if rates else 0.0


# network indices of the VGG-7 prefix's conv layers; the other simulate
# workloads have a single conv at index 0
CONV_LAYER_KEYS = (0, 1, 3, 4, 6)


def per_layer(wl, tracer, passes, untraced):
    """Per-layer metrics of each traced pass; each metric is its median over
    the traced passes."""
    name_of = tracer.names
    rows = []
    conv_idx = wl.net.conv_indices()
    for p in passes:
        t = p["totals"]
        s = lambda n: t.get(n, (0, 0.0))[1]  # noqa: E731
        c = lambda n: t.get(n, (0, 0.0))[0]  # noqa: E731
        m = {}
        m["dataflow.simulate_plan_s"] = s("dataflow.simulate_plan")
        m["dataflow.loop_self_s"] = s("dataflow.simulate_group") - s("dataflow.put_window")
        cycles = p["modeled"].get("dataflow.cycles", 0)
        m["dataflow.loop_ns_per_cycle"] = (m["dataflow.loop_self_s"] / cycles * 1e9
                                           if cycles else 0.0)
        m["dataflow.put_window_s"] = s("dataflow.put_window")
        m["dataflow.put_window_calls"] = c("dataflow.put_window")
        m["golden.run_network_s"] = s("golden.run_network")
        conv_spans = [j for j in p["spans"]
                      if name_of[tracer.name_id[j]] == "golden.conv_layer"]
        by_layer = {li: 0.0 for li in CONV_LAYER_KEYS}
        for k, j in enumerate(conv_spans):
            li = conv_idx[k % len(conv_idx)]
            by_layer[li] = by_layer.get(li, 0.0) + tracer.duration(j)
        for li in CONV_LAYER_KEYS:
            m[f"golden.conv_layer_s.l{li}"] = by_layer[li]
        m["golden.maxpool_layer_s"] = s("golden.maxpool_layer")
        m["golden.macs"] = wl.macs if c("golden.run_network") else 0
        m["golden.fallback_calls"] = c("golden.fallback")
        m["golden.fallback_s"] = s("golden.fallback")
        values = getattr(wl, "conv_values", 0) if c("golden.run_network") else 0
        m["golden.fallback_ratio"] = c("golden.fallback") / values if values else 0.0
        for fn in ("layer_dims", "validate_plan"):
            m[f"config.{fn}_calls"] = c(f"config.{fn}")
            m[f"config.{fn}_s"] = s(f"config.{fn}")
        m["dse.sweep_s"] = s("dse.sweep")
        for fn in ("assign_depth_parallelism", "evaluate_plan"):
            m[f"dse.{fn}_calls"] = c(f"dse.{fn}")
            m[f"dse.{fn}_s"] = s(f"dse.{fn}")
        m["dse.pareto_front_s"] = s("dse.pareto_front")
        m["costmodel.analyze_s"] = s("costmodel.analyze")
        m["fileio.io_s"] = sum(s(f"fileio.{fn}") for fn in (
            "read_tensor", "read_weights", "write_tensor", "write_weights"))
        m["fileio.tensor_digest_s"] = s("fileio.tensor_digest")
        span = p["span"]
        m["cli.self_s"] = tracer.duration(span) - sum(
            tracer.duration(j) for j in tracer.children(span, p["spans"]))
        m.update(p["modeled"])
        rows.append(m)
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    setup_reps = [tracer.totals(tracer.spans_of_pass(-1 - k)) for k in range(SETUP_REPS)]
    for fn in ("generate_tensor", "generate_weights"):
        out[f"datagen.{fn}_s"] = statistics.median(
            r[f"datagen.{fn}"][1] for r in setup_reps)
    out["trace.overhead_s"] = (statistics.median(p["seconds"] for p in passes)
                               - statistics.median(p["seconds"] for p in untraced))
    return out


UNITS = {"_s": "s", "_calls": "count", "ns_per_cycle": "ns/cycle",
         "_ratio": "ratio", "macs": "MAC", "cycles": "cycles",
         "saturation_events": "count", "infeasible": "count"}


def unit_of(name: str) -> str:
    if ".conv_layer_s." in name:
        return "s"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    run_dir = os.path.join(WORK_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    in_dir = os.path.join(run_dir, "inputs")
    out_dir = os.path.join(run_dir, "out")

    tracer = tracing.Tracer()
    bindings = tracer.install(tracing.SETUP_LAYERS) if args.trace else []
    setup_reps = []
    for k in range(SETUP_REPS):
        tracer.current_pass = -1 - k
        t0 = time.perf_counter()
        wl.setup(in_dir, args.seed)
        setup_reps.append(time.perf_counter() - t0)
    tracer.current_pass = None
    import_reps = [import_seconds() for _ in range(SETUP_REPS)]
    setup_s = statistics.median(import_reps) + statistics.median(setup_reps)
    anchors = check_anchors()
    bad_anchors = [a for a in anchors if a[1] != a[2]]

    bindings += tracer.install(tracing.PROBES, keep_results=("golden.run_network",))
    passes = []
    state = {}
    t_run = time.perf_counter()
    refs = [reference_seconds()]
    laps = []
    while True:
        t_lap = time.perf_counter()
        # with --trace 1, odd passes are traced and even ones are not
        traced = (tracer.install(tracing.PASS_LAYERS)
                  if args.trace and len(passes) % 2 else [])
        passes.append(run_pass(wl, tracer, len(passes), in_dir, out_dir, state))
        tracer.uninstall(traced)
        refs.append(reference_seconds())
        laps.append(time.perf_counter() - t_lap)
        # start another pass only if a typical one still ends within --seconds
        if (len(passes) > args.trace and time.perf_counter() - t_run
                + statistics.median(laps) > args.seconds):
            break
    tracer.uninstall(bindings)

    failed = [p for p in passes if p["failures"]]
    for p in failed:
        print(f"pass {p['pass']} FAILED: " + "; ".join(p["failures"]), file=sys.stderr)
    for label, want, got in bad_anchors:
        print(f"anchor FAILED: {label}: {got} != {want}", file=sys.stderr)

    env = environment()
    summary = {"workload": wl.name, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "environment": env,
               "setup_reps_s": setup_reps, "import_reps_s": import_reps,
               "reference_s": refs,
               "anchors": [{"what": a, "expected": w, "got": g} for a, w, g in anchors],
               "passes": [{"pass": p["pass"], "seconds": p["seconds"],
                           "exit_code": p["exit_code"], "failures": p["failures"]}
                          for p in passes]}
    print(f"perfbench {wl.name} seed {args.seed}: {len(passes)} passes, "
          f"{len(failed)} failed; {env['nproc']} cpus ({env['cpu_model']}), "
          f"python {env['python']}, numpy {env['numpy']}, "
          f"commit {env['git_commit']}, src {env['src_lines']} lines")
    print("  anchors: " + ", ".join(f"{a} {g}" for a, _, g in anchors)
          + (" ok" if not bad_anchors else " MISMATCH"))
    if isinstance(wl, SimulateWorkload) and passes[0]["modeled"]["dataflow.cycles"]:
        cycles = passes[0]["modeled"]["dataflow.cycles"]
        ms = costmodel.time_ms(cycles, FREQ_MHZ)
        summary["model_error"] = {"cycles": cycles, "ms": ms,
                                  "reference_ms": None, "error": "unvalidated"}
        print(f"  model: {cycles} cycles = {ms:.4f} ms at {FREQ_MHZ:g} MHz, "
              f"unvalidated (no published reference)")

    if args.trace:
        untraced, traced = passes[0::2], passes[1::2]
        values = per_layer(wl, tracer, traced, untraced)
        metrics = {k: (v, unit_of(k)) for k, v in values.items()}
        trace_path = os.path.join(WORK_DIR, f"{wl.name}-seed{args.seed}.trace.json")
        tracer.write_chrome_trace(trace_path, {"workload": wl.name, "seed": args.seed,
                                               "environment": env})
        print(f"  traced passes: {len(traced)}, untraced: {len(untraced)}; "
              f"spans: {len(tracer.start)} -> {trace_path}")
    else:
        metrics, rates = end_to_end(wl, passes, refs, setup_s)
        tail = tail_percentile([p["seconds"] for p in passes])
        print(f"  pass_s samples: {len(passes)} passes"
              + (f", p{tail[0]} {tail[1]:.4f} s" if tail else
                 ", no tail percentile (it needs at least 20 passes)"))
        for k, (v, unit) in rates.items():
            print(f"  {k}: {v:.6g} {unit}")
        summary["rates"] = {k: {"value": v, "unit": u} for k, (v, u) in rates.items()}
    for k, (v, unit) in metrics.items():
        print(f"  {k}: {v:.6g} {unit}")

    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(os.path.join(WORK_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(summary, fh, indent=2)

    print(json.dumps({"correct": not failed and not bad_anchors,
                      "attempted": len(passes), "failed": len(failed),
                      "metrics": summary["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
