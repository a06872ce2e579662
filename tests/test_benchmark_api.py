"""The benchmark's three passes at reduced sizes, so that a renamed public
field, keyword or function fails here rather than in a benchmark run."""

from __future__ import annotations

import contextlib
import dataclasses
import sys
from pathlib import Path

import pytest

# only the workloads and the tracer: perfbench/run.py pins BLAS threads
# through os.environ when imported
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import NullTracer, public_api  # noqa: E402
from workloads import WORKLOADS, Ledger, StageFailed  # noqa: E402

# the reduced sizes of perfbench/smoke.py
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


@pytest.mark.parametrize("workload", list(SMALL))
def test_pass_has_no_failed_operations(workload):
    cfg, setup, run_pass = WORKLOADS[workload]
    cfg = dataclasses.replace(cfg, **SMALL[workload])
    api = public_api(NullTracer())
    inputs = setup(api, cfg, 7)
    ledger = Ledger(api, NullTracer())
    with contextlib.suppress(StageFailed):
        run_pass(ledger, cfg, inputs)
    assert ledger.attempted > 0
    assert ledger.failed == 0, ledger.failures
    if workload == "bath_route":
        # the exact bath blocks close their round trip to round-off
        residual = ledger.readings["bath_dynamics.reversibility_residuals.max"]
        assert residual < 1e-9, residual
