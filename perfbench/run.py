"""Layered limcone benchmark.

    python3 perfbench/run.py --workload {scan,count,dual,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
src/.  One caller runs operations back to back (a closed loop) for S
seconds of timed operation time, each operation's outputs are checked
by its workload's gates outside the timed region, and a report is
printed with every metric by name and unit.  A fixed reference kernel is
timed around every operation, and op_cost_p50 divides each operation's
time by it, which cancels the host's speed drift.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.

The traced run alternates untraced and traced rounds, so the tracing
overhead is the traced median operation time against the untraced one.
Spans are kept in memory and written to .perfbench_out/ at the end.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 3
PEAK_OPS = 10          # peak memory covers set-up and this many operations
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# layers the traced run should find dominant, per workload
DOMINANT = {
    "count": ("spectra.cartan_s", "bulk.element_s"),
    "scan": ("bulk.class_s", "spectra.jordan_s"),
    "dual": ("pressure.root_s", "pressure.gibbs_s", "pressure.table_s", "growth.boundary_s",
             "growth.psi_s", "growth.form_s", "growth.audit_s"),
    "cli": ("cli.import_s", "words.enum_s", "cli.self_s"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(DOMINANT))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: run the workload's set-up, print 'ready' and exit")
    return ap.parse_args(argv)


def environment():
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ[k] for k in BLAS_ENV},
        "threads": 1,
    }


def measure_setup(args):
    """Wall time from spawning a fresh process to the end of the
    workload's set-up, median over SETUP_SAMPLES processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(t1 - t0)
    return samples


def tail(durations):
    """Highest percentile with at least ten operations beyond it."""
    n = len(durations)
    if n < 11:
        return None
    return sorted(durations)[n - 11], 100.0 * (n - 10) / n


def run_loop(wl, args, tracer, reference):
    """Closed loop of rounds until args.seconds of timed operation time;
    with a tracer, odd rounds are traced.  The reference kernel is timed
    right before and right after every operation."""
    ops, misses = [], []
    timed, rnd, i = 0.0, 0, 0
    while timed < args.seconds or (tracer is not None and rnd < 2):
        traced = tracer is not None and rnd % 2 == 1
        for _ in range(wl.round_ops):
            inp = wl.make_input(i)
            ref_before = reference()
            error = None
            if traced:
                tracer.install()
                tracer.op = i
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.span("op"):
                        out = wl.op(inp, tracer)
                else:
                    out = wl.op(inp)
            except Exception:
                error = traceback.format_exc()
            dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            ref_s = 0.5 * (ref_before + reference())
            if error is None:
                try:
                    op_misses = wl.gate(inp, out)
                except Exception:
                    op_misses = [traceback.format_exc()]
            else:
                op_misses = [error]
            misses += [f"op {i}: {m}" for m in op_misses]
            ops.append({"i": i, "s": dt, "ref_s": ref_s, "rss_mb": wl.peak_rss_mb(),
                        "traced": traced, "failed": bool(op_misses)})
            timed += dt
            i += 1
        rnd += 1
    return ops, misses


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "limcone" / "__init__.py").is_file():
        print(f"no limcone sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"work-{os.getpid()}"

    from workloads import WORKLOADS, ReferenceKernel

    if args.setup_probe:
        try:
            WORKLOADS[args.workload](args.seed, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_samples = measure_setup(args)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None
    try:
        ops, misses = run_loop(wl, args, tracer, ReferenceKernel())
        extra = wl.extra()
        output_mb = wl.output_mb_per_op()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    plain = [o for o in ops if not o["traced"]]
    durations = [o["s"] for o in plain]
    failed = sum(o["failed"] for o in ops)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "op_cost_p50": statistics.median(o["s"] / o["ref_s"] for o in plain),
        "op_p50_s": statistics.median(durations),
        "ops_per_s": len(durations) / sum(durations),
        "peak_rss_mb": ops[min(PEAK_OPS, len(ops)) - 1]["rss_mb"],
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  closed loop, 1 caller, threads=1")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup_samples)}")
    print(f"untraced operation times (s): {', '.join(f'{s:.4f}' for s in durations)}")
    print(f"reference kernel median: {statistics.median(o['ref_s'] for o in ops):.6g} s")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in ("setup_s", "op_p50_s"):
        print(f"{name} = {metrics[name]:.6g} s")
    t = tail(durations)
    if t is None:
        print(f"op_tail_s = n/a (n={len(durations)} operations, need 11 for a tail with 10 beyond)")
    else:
        print(f"op_tail_s = {t[0]:.6g} s  (p{t[1]:.0f}, n={len(durations)} operations)")
    print(f"ops_per_s = {metrics['ops_per_s']:.6g} 1/s")
    print(f"op_cost_p50 = {metrics['op_cost_p50']:.6g} ref  "
          "(median of operation time / reference-kernel time around it)")
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB  "
          f"(set-up and the first {min(PEAK_OPS, len(ops))} operations)")
    print(f"fail_ratio = {failed / len(ops):.6g}  ({failed} of {len(ops)} operations)")
    for name, value in extra.items():
        print(f"{name} = {value:.6g}")
    print(f"gates: {'all passed' if not misses else f'{len(misses)} missed'}")
    for m in misses:
        print("gate miss: " + m.strip().replace("\n", " | "))

    if args.trace:
        spans = [s.to_dict() for s in tracer.spans]
        traced_ids = [o["i"] for o in ops if o["traced"]]
        traced_s = [o["s"] for o in ops if o["traced"]]
        layers = layer_metrics(spans, traced_ids)
        layers["cli.output_mb"] = output_mb
        layers["op_traced_p50_s"] = statistics.median(traced_s)
        layers["op_untraced_p50_s"] = metrics["op_p50_s"]
        layers["trace.overhead_ratio"] = layers["op_traced_p50_s"] / metrics["op_p50_s"]
        layers["trace.dominant_share"] = (
            sum(layers[m] for m in DOMINANT[args.workload]) / statistics.mean(traced_s))
        print(f"traced operations: {len(traced_s)}, untraced: {len(plain)}")
        for name in sorted(layers):
            print(f"{name} = {layers[name]:.6g} {units.get(name, '')}".rstrip())
        share = layers["trace.dominant_share"]
        print(f"dominant layers {' + '.join(DOMINANT[args.workload])}: {share:.1%} of traced "
              f"operation time ({'majority' if share > 0.5 else 'NOT a majority'})")
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"env": env, "metrics": layers, "ops": ops, "spans": spans}))
        print(f"spans written to {path.relative_to(ROOT)}")
        metrics = layers

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    if not all(math.isfinite(v["value"]) for v in result.values()):
        print("a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not misses, "attempted": len(ops), "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
