"""apranking benchmark.

    python3 perfbench/run.py --workload train-hard|eval-sweep|score-file|all \
        --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/``; the
benchmark makes its inputs from --seed and hands the program only those.
BLAS is pinned to one thread and everything runs in this one process,
apart from the fresh interpreters that time ``import apranking``.

With --trace 0 the result holds the end-to-end metrics, measured with no
wrappers installed. With --trace 1 it holds the per-layer metrics from
spans recorded around the program's public functions (see layers.py); the
spans and each layer's self time are written to
.perfbench-out/trace-<workload>-seed<N>.json.

Every metric is printed as "name value unit", then a stamp of the machine
and the source, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 1 when an output
was wrong and 2 when the program cannot be found or imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOAD_NAMES = ("train-hard", "eval-sweep", "score-file")

# name, unit, what it means (end-to-end metrics; bounds live in BENCHMARK.json)
END_TO_END = (
    ("throughput", "1/s", "work per second, the unit of work depending on the workload"),
    ("setup_s", "s", "median set-up: import apranking, corpus generation, init_model"),
    ("peak_rss_mb", "MB", "peak resident memory of the process up to the end of the timed region"),
    ("ok_ratio", "ratio", "operations that neither failed nor gave a wrong output, over attempted"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description="apranking benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def stamp(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        revision = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except FileNotFoundError:
        revision = "unknown (no git)"
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "apranking")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_workload(name, args, machine, workloads, layers, spans):
    tracer = spans.Tracer() if args.trace else None
    out_dir = os.path.join(OUT, name)  # inputs and reports, overwritten by the next run
    os.makedirs(out_dir, exist_ok=True)
    ctx = workloads.Context(args.seed, args.seconds, SRC, out_dir, tracer)
    outcome = workloads.WORKLOADS[name](ctx)

    lines = []
    if args.trace:
        metrics = {}
        for m in layers.PER_LAYER:
            key = m.source[1] if m.source[0] == "value" else m.name
            metrics[m.name] = {"value": outcome.per_layer.get(key, 0), "unit": m.unit}
            base = f" (base: {m.base})" if m.base else ""
            lines.append(f"{m.name} {metrics[m.name]['value']} {m.unit}  [{m.workload} -> {m.moves}]{base}")
        self_ms = {k: v["self_ns"] / 1e6 for k, v in sorted(tracer.summary().items())}
        lines += [f"self {k} {v:.3f} ms (all traced repetitions)" for k, v in self_ms.items()]
        tracer.dump(os.path.join(OUT, f"trace-{name}-seed{args.seed}.json"),
                    {"workload": name, "stamp": machine, "self_ms": self_ms})
    else:
        values = {
            "throughput": outcome.throughput,
            "setup_s": outcome.setup_s,
            "peak_rss_mb": outcome.peak_rss_mb,
            "ok_ratio": 1.0 - outcome.failed / outcome.attempted,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in END_TO_END}
        lines += [f"{n} {values[n]} {u}  ({meaning})" for n, u, meaning in END_TO_END]
        lines.append(f"  throughput is {workloads.UNITS_OF_WORK[name]}; median of {len(outcome.samples)}"
                     f" repetitions, min {min(outcome.samples)}, max {max(outcome.samples)}")
        lines.append(f"  failed_ratio {outcome.failed}/{outcome.attempted} operations attempted")
    lines += [f"fact {k} {v}" for k, v in outcome.facts.items()]
    return outcome, metrics, lines


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads
    if not os.path.isfile(os.path.join(SRC, "apranking", "__init__.py")):
        print(f"error: no apranking package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        import apranking
    except ImportError as exc:
        print(f"error: cannot import apranking from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(apranking.__file__).startswith(SRC + os.sep):
        print(f"error: apranking was imported from {apranking.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    import spans
    import workloads

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    machine = stamp(args.seed)
    attempted = failed = 0
    merged = {}
    for name in names:
        outcome, metrics, lines = run_workload(name, args, machine, workloads, layers, spans)
        attempted += outcome.attempted
        failed += outcome.failed
        prefix = f"{name}:" if args.workload == "all" else ""
        merged.update({prefix + k: v for k, v in metrics.items()})
        print(f"== {name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
        print("\n".join(lines))
    print("stamp " + json.dumps(machine, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": merged}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
