#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at reduced sizes (about a minute).

Run from the repository root:

    python3 perfbench/smoke.py

It checks that every metric named in BENCHMARK.json is produced under a
valid name, that no operation fails on the current code, and that a
tampered library output is counted as a failure on every workload. Exit
status 0 means all checks held.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import re
import subprocess
import sys
import types

# run pins the BLAS threads, so it is imported before anything loads numpy
from run import ROOT, SRC, layer_values, run_pass
from tracing import NullTracer, Tracer, public_api

sys.path.insert(0, str(SRC))

from workloads import WORKLOADS, Ledger, StageFailed  # noqa: E402

SMALL = {
    "canonical_band": dict(level=20, width=2, x_span=1.5, min_columns=20),
    "band_ladder": dict(
        bands=((12, 4), (20, 4)), propagated=(0,), oracle_times=(0.01, 0.1, 0.3)
    ),
    "bath_route": dict(
        n_modes=64, t_max=2.0, block_times=(1.0, 2.0), ohmic_t_max=0.5,
        band_modes=64, draws=2, positions=5, cond_times=(0.5, 2.0),
    ),
}

# Library outputs corrupted on purpose: each must trip one of the gates.
TAMPER = {
    "canonical_band": ("classical_band_margin", lambda out: out - 1.0),
    "band_ladder": ("ensemble_velocity", lambda out: out + 1e-3),
    "bath_route": ("conditional_velocity", lambda out: float("nan")),
}

# Per-layer metrics that read zero on a healthy run of every workload.
MAY_BE_ZERO = re.compile(r"\.path\.|\.failed$|^failed_share$")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def tampered(api, name, corrupt):
    fn = getattr(api, name)
    return types.SimpleNamespace(
        **{**vars(api), name: lambda *a, **k: corrupt(fn(*a, **k))}
    )


def check_cli(spec) -> list[str]:
    """One full-size run of the quickest workload through the command line."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "bath_route",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, check=False,
    )
    if proc.returncode != 0:
        return [f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if set(result["metrics"]) != {m["name"] for m in spec["end_to_end"]}:
        problems.append(f"end-to-end metrics {sorted(result['metrics'])}")
    if not result["correct"] or result["failed"]:
        problems.append(f"full-size bath_route failed: {proc.stderr[-2000:]}")
    print(f"cli bath_route: {json.dumps(result['metrics'])}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += [f"bad metric name {n!r}" for n in names if not NAME.fullmatch(n)]
    problems += [f"duplicate metric name {n!r}" for n in set(names) if names.count(n) > 1]

    seen_nonzero = set()
    for workload, (cfg, setup, run_pass_fn) in WORKLOADS.items():
        cfg = dataclasses.replace(cfg, **SMALL[workload])
        inputs = setup(public_api(NullTracer()), cfg, 7)

        untraced, plain = run_pass(workload, cfg, run_pass_fn, inputs, NullTracer())
        tracer = Tracer(run_id=f"smoke-{workload}")
        traced, ledger = run_pass(workload, cfg, run_pass_fn, inputs, tracer)
        values = layer_values(tracer, ledger, traced - untraced)
        seen_nonzero |= {name for name, value in values.items() if value}
        for led in (plain, ledger):
            if led.failed:
                problems.append(f"{workload}: {led.failed} failures: {led.failures}")
        print(f"{workload}: {plain.attempted} operations, untraced {untraced:.2f} s, "
              f"traced {traced:.2f} s")

        name, corrupt = TAMPER[workload]
        bad = Ledger(tampered(public_api(NullTracer()), name, corrupt), NullTracer())
        with contextlib.suppress(StageFailed):
            run_pass_fn(bad, cfg, inputs)
        if not bad.failed:
            problems.append(f"{workload}: tampered {name} was not counted as a failure")
        else:
            print(f"{workload}: tampered {name} -> {bad.failed} failure(s)")

    problems += check_cli(spec)
    silent = [
        m["name"] for m in spec["per_layer"]
        if m["name"] not in seen_nonzero and not MAY_BE_ZERO.search(m["name"])
    ]
    problems += [f"per-layer metric zero on every workload: {n}" for n in silent]

    for line in problems:
        print(f"PROBLEM {line}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
