"""evoarch benchmark: two closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload search --seed 0 --seconds 50 --trace 0

With ``--trace 0`` the run does the workload's operations, as many as
``--seconds`` buys at their nominal cost, with no tracing and reports the
end-to-end metrics.  With ``--trace 1`` it runs the workload's
fixed traced work as a warm-up, untraced and traced, plus a tiny pass through
every layer, and reports the per-layer metrics.  Either way every output
is checked, a human-readable report and ``.perfbench/BENCH_*.json`` are
written, and the last line of stdout is the JSON result.  BLAS runs on one
thread.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import envinfo

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_op(wl, i):
    from workloads import OpResult

    part, j = wl.member(i)
    start = time.perf_counter()
    try:
        res = part.op(j)
    except Exception as err:  # noqa: BLE001 one failed operation must not end the run
        traceback.print_exc(file=sys.stderr)
        n = part.attempts_per_op
        res = OpResult(wall=time.perf_counter() - start, attempted=n, failed=n, errors=[repr(err)])
    res.kind = part.name
    return res


def probe_setup(wl, tmp_dir):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), wl.name, str(wl.seed), tmp_dir],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


def timed_run(wl, seconds, tmp_dir):
    wl.setup()
    # one set-up probe before each group, so the median of the set-up samples
    # spans the host's speed states over the whole run like wall_s does
    ops, setup_samples = [], []
    for i in range(wl.op_count(seconds)):
        if i % wl.op_group == 0:
            setup_samples.append(probe_setup(wl, tmp_dir))
        ops.append(run_op(wl, i))
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(probe_setup(wl, tmp_dir))
    flags = check_repeats(wl, ops)

    # means over the whole run, not medians: the host's speed shifts
    # between states that last tens of seconds, and a median of a few
    # operations jumps with whichever state held most of them
    metrics = {
        "wall_s": statistics.fmean(op.wall for op in ops),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_per_s": sum(op.work for op in ops) / max(sum(op.work_time for op in ops), 1e-12),
    }
    return ops, metrics, flags, {"setup_samples_s": setup_samples, "steps": sum(len(op.steps) for op in ops)}


def check_repeats(wl, ops):
    """Identical work must give identical output.

    The first search operation of each kind is run again after the
    measured ones and must reproduce its digest, or it fails.  Trained
    operations of one kind all repeat the same inputs, and a differing
    trained digest is only flagged.
    """
    first = {}
    for i, op in enumerate(ops):
        first.setdefault(op.kind, i)
    if wl.trained:
        flags = []
        for kind in first:
            digests = {op.digest for op in ops if op.kind == kind and not op.errors}
            if len(digests) > 1:
                flags.append(f"{kind}: trained digest differs between identical operations: {sorted(digests)}")
        return flags
    for i in first.values():
        if run_op(wl, i).digest != ops[i].digest:
            ops[i].errors.append("output changed when the operation was repeated")
            ops[i].failed = ops[i].attempted
    return []


def traced_run(wl, tmp_dir, nproc):
    import kernels
    from tracer import Tracer
    from workloads import layer_probe

    tracer = Tracer(nproc)
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.uninstall()

    # a first pass pays one-time costs (allocator growth, lazy imports)
    # that would otherwise land on the untraced pass alone
    warmup = [run_op(wl, i) for i in range(wl.trace_ops)]
    start = time.perf_counter()
    plain = [run_op(wl, i) for i in range(wl.trace_ops)]
    untraced_wall = time.perf_counter() - start

    tracer.run_id = "ops"
    tracer.install()
    try:
        start = time.perf_counter()
        traced = [run_op(wl, i) for i in range(wl.trace_ops)]
        traced_wall = time.perf_counter() - start
        tracer.run_id = "probe"
        layer_probe(tmp_dir)
    finally:
        tracer.uninstall()

    ops = warmup + plain + traced
    flags = []
    # the same operation run twice must give the same digest
    for a, b in list(zip(warmup, plain)) + list(zip(plain, traced)):
        if a.digest != b.digest:
            if wl.trained:
                flags.append(f"trained digest differs between runs of one operation: {a.digest} {b.digest}")
            else:
                b.errors.append("output changed when the operation was repeated")
                b.failed = b.attempted
    mismatched = tracer.counts["trainer.iteration_mismatch"]
    if mismatched:
        traced[-1].errors.append(f"{mismatched} training runs ran a different iteration count than planned")
        traced[-1].failed += mismatched

    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    peak = kernels.sgemm_gflops()
    metrics["env.sgemm_gflops"] = peak
    metrics.update(kernels.op_metrics(peak))
    os.makedirs(WORK_DIR, exist_ok=True)
    trace_path = os.path.join(WORK_DIR, f"trace_{wl.name}_s{wl.seed}.json")
    tracer.dump(trace_path)
    return ops, metrics, flags, {"trace_file": os.path.relpath(trace_path, ROOT), "spans": len(tracer.spans)}


def report_lines(wl, ops, metrics, catalog, extra):
    """Human-readable summary, with each metric also under its workload-specific name."""
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    lines = [f"workload {wl.name} seed {wl.seed}: {len(ops)} operations, {attempted} attempted, {failed} failed"]
    for name, value in metrics.items():
        lines.append(f"  {name} {value:.6g} {catalog[name]['unit']}")
    lines.append(f"  failed_ratio {failed / attempted:.6g} ratio")
    steps = sorted(s for op in ops for s in op.steps)
    if steps and "wall_s" in metrics:
        n = len(steps)
        if wl.work_unit == "generations":
            lines.append(f"  generations_per_s {metrics['work_per_s']:.6g} 1/s (n={n} generations)")
            lines.append(f"  generation_ms.p50 {statistics.median(steps) * 1e3:.6g} ms (n={n})")
            if n >= 100:
                p90 = statistics.quantiles(steps, n=10)[-1]
                lines.append(f"  generation_ms.p90 {p90 * 1e3:.6g} ms (n={n})")
        else:
            lines.append(f"  train_samples_per_s {metrics['work_per_s']:.6g} 1/s (n={len(ops)} operations)")
        pop = [op for op in ops if op.kind == "train-population"]
        pop_steps = [s for op in pop for s in op.steps]
        if pop_steps:
            evals = sum(op.attempted - op.failed for op in pop)
            lines.append(f"  evals_per_s {evals / sum(op.wall for op in pop):.6g} 1/s (n={evals} evaluations)")
            lines.append(f"  eval_s.p50 {statistics.median(pop_steps):.6g} s (n={len(pop_steps)})")
    for part, _ in wl.members:
        walls = [op.wall for op in ops if op.kind == part.name]
        if walls and "wall_s" in metrics:
            lines.append(f"  {part.name}.wall_s {statistics.fmean(walls):.6g} s (mean, n={len(walls)} operations)")
        digest = next((op.digest for op in ops if op.kind == part.name and op.digest), None)
        if digest:
            lines.append(f"  sha256({part.digest_of}) of the first {part.name} operation: {digest}")
    for key, value in extra.items():
        lines.append(f"  {key} {value}")
    for op in ops:
        for err in op.errors:
            lines.append(f"  FAILED: {err}")
    return lines


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "evoarch", "__init__.py")):
        print(f"error: evoarch sources not found under {SRC}", file=sys.stderr)
        return 2
    envinfo.pin_blas_threads()
    sys.path.insert(0, SRC)
    import evoarch

    if os.path.realpath(os.path.dirname(evoarch.__file__)) != os.path.realpath(os.path.join(SRC, "evoarch")):
        print(f"error: imported evoarch from {evoarch.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, pick from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    catalog = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    want = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]

    os.makedirs(WORK_DIR, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        wl = WORKLOADS[args.workload](args.seed, tmp_dir)
        wl.write_inputs()
        if args.trace:
            ops, metrics, flags, extra = traced_run(wl, tmp_dir, envinfo.nproc())
        else:
            ops, metrics, flags, extra = timed_run(wl, args.seconds, tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    if sorted(metrics) != sorted(want):
        missing, unknown = sorted(set(want) - set(metrics)), sorted(set(metrics) - set(want))
        print(f"error: metrics disagree with BENCHMARK.json: missing {missing}, unknown {unknown}", file=sys.stderr)
        return 2
    import kernels

    env = envinfo.facts(ROOT, SRC)
    env["sgemm_gflops"] = metrics.get("env.sgemm_gflops") or kernels.sgemm_gflops()
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": catalog[name]["unit"]} for name in want},
    }
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "step": wl.step,
        "work_unit": wl.work_unit,
        "env": env,
        "operations": [
            {"wall": op.wall, "attempted": op.attempted, "failed": op.failed, "digest": op.digest, "errors": op.errors}
            for op in ops
        ],
        "flags": flags,
        **extra,
        "result": result,
    }
    out_path = os.path.join(WORK_DIR, f"BENCH_{wl.name}_s{args.seed}_trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for line in report_lines(wl, ops, metrics, catalog, extra):
        print(line)
    for key, value in env.items():
        print(f"  env.{key} {value}")
    for flag in flags:
        print(f"  FLAG: {flag}")
    print(f"  record {os.path.relpath(out_path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
