#!/usr/bin/env python3
"""bohmdec benchmark: one workload per invocation, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload canonical_band --seed 1 --seconds 5 --trace 0

``--trace 0`` times whole passes with no instrumentation and reports the
end-to-end metrics; ``--trace 1`` makes one untraced pass and one traced
pass and reports the per-layer metrics, writing the spans to
``perfbench/out/``. The metric names and units are those declared in
``BENCHMARK.json``. The last line of standard output is the result object;
the line before it records the environment. Gate failures go to standard
error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy loads: threaded BLAS on a small
# machine widens the run-to-run spread of the matmul-heavy transforms.
THREAD_ENV = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(THREAD_ENV)

from tracing import LAYERS, NullTracer, Tracer, public_api  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_PROBES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "bohmdec").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = probe.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": THREAD_ENV,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def probe_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports bohmdec and builds the inputs."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        check=True, cwd=ROOT,
    )
    return time.perf_counter() - start


def run_pass(workload, cfg, run_pass_fn, inputs, tracer):
    from workloads import Ledger, StageFailed

    ledger = Ledger(public_api(tracer), tracer)
    start = time.perf_counter()
    with tracer.span(workload), contextlib.suppress(StageFailed):
        run_pass_fn(ledger, cfg, inputs)
    return time.perf_counter() - start, ledger


def layer_values(tracer, ledger, overhead: float) -> dict:
    """Per-layer values from the traced pass, keyed by declared metric name."""
    values = defaultdict(float)
    for sp, own in zip(tracer.spans, tracer.self_times()):
        if sp.name.split(".")[0] not in LAYERS:
            continue  # workload and stage spans
        name = sp.name
        if "kind" in sp.attrs:
            name = f"{name}.{sp.attrs['kind']}"
        values[f"{name}.s"] += own
        values[f"{name}.calls"] += 1
        for key in ("cells", "points", "pairs", "nodes"):
            if key in sp.attrs:
                values[f"{name}.{key}"] += sp.attrs[key]
        if "path" in sp.attrs:
            values[f"{name}.path.{sp.attrs['path']}"] += 1
        if "error" in sp.attrs:
            values[f"{name}.failed"] += 1
    prop = "quadratic_master.propagate_wigner"
    if values[f"{prop}.s"] > 0.0:
        values[f"{prop}.cells_per_s"] = values[f"{prop}.cells"] / values[f"{prop}.s"]
    values.update(ledger.readings)
    values["trace.overhead_s"] = overhead
    values["failed_share"] = ledger.failed / ledger.attempted
    return values


def layer_shares(tracer) -> dict:
    """Self-time share of each layer and of the top public calls in the pass."""
    own = tracer.self_times()
    total = tracer.spans[0].end - tracer.spans[0].start
    by_layer = defaultdict(float)
    by_call = defaultdict(float)
    for sp, s in zip(tracer.spans, own):
        layer = sp.name.split(".")[0]
        by_layer[layer if layer in LAYERS else "benchmark"] += s
        if layer in LAYERS:
            by_call[sp.name] += s
    top = sorted(by_call.items(), key=lambda kv: -kv[1])[:6]
    return {
        "layers": {k: round(v / total, 4) for k, v in by_layer.items()},
        "top_calls": {k: round(v / total, 4) for k, v in top},
    }


def emit(declared: list, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bohmdec" / "__init__.py").is_file():
        print(f"bohmdec sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    cfg, setup, run_pass_fn = WORKLOADS[args.workload]
    if args.setup_probe:
        setup(public_api(NullTracer()), cfg, args.seed)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_times = []
    if args.trace == 0:  # set-up time is an end-to-end metric only
        setup_times = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    inputs = setup(public_api(NullTracer()), cfg, args.seed)

    info = {"workload": args.workload, **environment(args.seed)}
    attempted = failed = 0
    failures: list[str] = []
    if args.trace == 0:
        times = []
        deadline = time.perf_counter() + args.seconds
        while not times or time.perf_counter() < deadline:
            elapsed, ledger = run_pass(args.workload, cfg, run_pass_fn, inputs, NullTracer())
            times.append(elapsed)
            attempted += ledger.attempted
            failed += ledger.failed
            failures += ledger.failures
        values = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": 1.0 - failed / attempted,
        }
        info.update(passes=len(times), run_s_each=times, setup_s_each=setup_times)
        metrics = emit(spec["end_to_end"], values)
    else:
        untraced, _ = run_pass(args.workload, cfg, run_pass_fn, inputs, NullTracer())
        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-{os.getpid()}-{time.time_ns()}")
        traced, ledger = run_pass(args.workload, cfg, run_pass_fn, inputs, tracer)
        attempted, failed, failures = ledger.attempted, ledger.failed, ledger.failures
        out = ROOT / "perfbench" / "out" / f"trace_{args.workload}_seed{args.seed}.json"
        tracer.write(out)
        info.update(
            untraced_s=untraced, traced_s=traced, spans=len(tracer.spans),
            trace_file=str(out.relative_to(ROOT)), **layer_shares(tracer),
        )
        metrics = emit(spec["per_layer"], layer_values(tracer, ledger, traced - untraced))

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
