"""Benchmark of the oulab probe pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  The run measures the cold start of a fresh interpreter
(setup_s), then repeats the workload's round of operations until S
seconds have passed, and at least twice.  wall_s is the median round
time, peak_rss_mb the peak resident memory of this process after the
rounds.  The first round's outputs are then checked against independent
references.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

With --trace 1 the rounds alternate untraced and traced, at least three
of them; the traced ones record spans around oulab's layers (see
tracer.py) and the metrics are the per-layer ones.  Spans and metrics
are also written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

# one BLAS thread, so rounds do not compete with each other for cores
THREAD_ENV = {"OULAB_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 3
IMPORT_REPS = 3
# two rounds to compare byte for byte; a traced run makes a third, because
# its first untraced round also pays the allocator's warm-up and is left
# out of the overhead comparison
MIN_ROUNDS = 2
MIN_TRACED_ROUNDS = 3

_COLD_START = """\
import sys, time
t0 = time.perf_counter()
for name in sys.argv[1].split(","):
    __import__(name)
exec(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


def cold_start(workload, import_time: bool = False):
    """Seconds a fresh interpreter takes to import the workload's modules
    and build its model; with import_time, also the -X importtime table
    (module -> cumulative seconds)."""
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": SRC}
    cmd = [sys.executable]
    if import_time:
        cmd += ["-X", "importtime"]
    cmd += ["-c", _COLD_START, ",".join(workload.modules),
            workload.setup_code]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    seconds = float(proc.stdout.strip().splitlines()[-1])
    table = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                table[name.strip()] = int(cum) * 1e-6
    return seconds, table


def run_round(workload, tracer=None):
    """One round of the workload's operations: (seconds, results)."""
    total, results = 0.0, {}
    for op in workload.ops:
        if tracer is None:
            t0 = time.perf_counter()
            res = op.run()
            total += time.perf_counter() - t0
        else:
            with tracer.span(f"op:{op.name}"):
                t0 = time.perf_counter()
                res = op.run()
                total += time.perf_counter() - t0
        results[op.name] = res
    return total, results


def layer_metrics(tracer, rounds: int, overhead: float,
                  op_seconds: float, imports: dict) -> dict:
    """Per-layer figures, per round."""
    st = tracer.self_times()
    c = tracer.counts

    def per_round(x):
        return x / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"import.{mod}_s": imports.get(mod, 0.0)
         for mod in ("oulab.geometry", "oulab.kernel", "oulab.torus")}
    for label, metric in (
            ("model.propagators", "model.propagators_s"),
            ("kernel.log_kernel_grid", "kernel.log_kernel_grid_s"),
            ("kernel.logk_time_slope_grid", "kernel.logk_time_slope_grid_s"),
            ("kernel.calibrate_bound", "kernel.calibrate_bound_s"),
            ("kernel.count_kdot_zeros_batch",
             "kernel.count_kdot_zeros_batch_s"),
            ("geometry.local_weight", "geometry.local_weight_s"),
            ("geometry.smooth_step", "geometry.smooth_step_s"),
            ("semigroup.local_global_grid", "semigroup.local_global_grid_s"),
            ("semigroup.weak_type_probe", "semigroup.weak_type_probe.self_s"),
            ("variation.variation_batch", "variation.variation_batch_s"),
            ("variation.variation_values", "variation.variation_values_s"),
            ("torus.chain_values", "torus.chain_values_s"),
            ("report.write_report", "report.write_s")):
        m[metric] = per_round(st.get(label, 0.0))
    for key in ("model.propagators.calls", "model.propagators.times",
                "kernel.log_kernel_grid.evals", "geometry.local_weight.pairs",
                "geometry.smooth_step.elems",
                "semigroup.local_global_grid.nodes", "semigroup.path_values",
                "variation.dp_cells", "torus.chain_values.evals",
                "report.bytes"):
        m[key] = per_round(c[key])
    m["geometry.local_weight.band_ratio"] = ratio(
        c["geometry.local_weight.band"], c["geometry.local_weight.pairs"])
    m["semigroup.refine_rounds"] = per_round(
        c["semigroup.path_batches"]
        - c["semigroup.variation_batch_paths.calls"])
    m["variation.kept_ratio"] = ratio(c["variation.kept"],
                                      c["variation.points"])
    m["trace.overhead_s"] = overhead
    m["trace.layer_share"] = ratio(tracer.below_entry_time(),
                                   op_seconds)
    return m


def _units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or name.endswith("share"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "oulab", "__init__.py")):
        print(f"bench: no oulab sources under {SRC}", file=sys.stderr)
        return 1
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    cls = workloads.WORKLOADS[args.workload]
    for mod in cls.modules:         # also leaves compiled bytecode behind
        __import__(mod)
    out_dir = os.path.join(OUT, args.workload)
    wl = cls(args.seed, out_dir)

    setup, imports = [], {}
    if args.trace:
        tables = [cold_start(wl, import_time=True)[1]
                  for _ in range(IMPORT_REPS)]
        imports = {k: statistics.median(t.get(k, 0.0) for t in tables)
                   for k in tables[0]}
    else:
        setup = [cold_start(wl)[0] for _ in range(SETUP_REPS)]

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    plain, traced = [], []
    first = None
    mismatched = set()
    start = time.perf_counter()
    min_rounds = MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS
    while (len(plain) + len(traced) < min_rounds
           or time.perf_counter() - start < args.seconds):
        use = tracer if (tracer is not None and len(plain) > len(traced)) \
            else None
        if use is not None:
            use.install()
        try:
            seconds, results = run_round(wl, use)
        finally:
            if use is not None:
                use.uninstall()
        (traced if use is not None else plain).append(seconds)
        if first is None:
            first = results
        for name, res in results.items():
            if res.blob != first[name].blob or res.code != first[name].code:
                mismatched.add(name)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rounds = len(plain) + len(traced)
    attempted = rounds * len(wl.ops)
    failed_ops = [op.name for op in wl.ops if op.failed(first[op.name])]
    failed = rounds * len(failed_ops)
    problems = [f"{name}: output differs between rounds"
                for name in sorted(mismatched)]
    problems += wl.check(first)
    for p in problems:
        print(f"CHECK FAILED: {p}")

    if args.trace:
        overhead = statistics.median(traced) - statistics.median(plain[1:])
        metrics = layer_metrics(tracer, len(traced), overhead,
                                sum(traced), imports)
        os.makedirs(OUT, exist_ok=True)
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        with open(os.path.join(OUT, f"{args.workload}.spans.jsonl"),
                  "w") as fh:
            for name, s, e, parent in tracer.spans:
                fh.write(json.dumps({"name": name, "start": s - t0,
                                     "end": e - t0, "parent": parent}) + "\n")
        with open(os.path.join(OUT, f"{args.workload}.layers.json"),
                  "w") as fh:
            json.dump(metrics, fh, indent=1, sort_keys=True)
        print(f"{args.workload}: {len(plain)} untraced and {len(traced)} "
              f"traced rounds; tracing overhead {overhead:.4f} s a round")
        out_metrics = {k: {"value": v, "unit": _units(k)}
                       for k, v in metrics.items()}
    else:
        wall = statistics.median(plain)
        print(f"{args.workload}: wall_s median of {len(plain)} rounds "
              f"{[round(s, 4) for s in plain]}; setup_s median of "
              f"{len(setup)} cold starts {[round(s, 4) for s in setup]}; "
              f"failed ops {failed_ops}")
        out_metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
