"""Row spans of a 2-D grid stage or dense product, one per core, run on threads.

pocketfft, ``scipy.ndimage`` and BLAS release the interpreter lock, so row
blocks of a transform or a matrix product run side by side on threads. Every
grid stage goes through :func:`run_blocks`, one block of rows per call; a
block as long as the grid makes each worker's whole span one call (the
bicubic pullback). The dense products of the explicit bath, the transfer
matrix ``T(t)`` of its exact blocks and the round trip ``T(t) T(-t)``, take
one span of rows per worker from :func:`run_spans`, which also runs under
``run_blocks``. The first span runs on the calling thread and each other
span on a pool thread, so ``n`` spans start ``n - 1`` threads: glibc gives
each thread's work arrays a malloc arena of its own and keeps what they
free, so every extra thread can raise the peak resident memory. Every job
writes only its own rows of an array its caller allocated, so the outputs do
not depend on the worker count: bitwise where each fixed pair of rows is
computed alone (the Wigner transform), and to round-off where a span shifts
the arithmetic (the bicubic pullback's offsets, and the products, whose
rounding depends on the rows in one BLAS call).
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor

try:
    WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    WORKERS = os.cpu_count() or 1


def span_count(n_rows: int) -> int:
    """Number of spans, and so of workers, that :func:`row_spans` cuts
    ``range(n_rows)`` into."""
    return max(1, min(WORKERS, n_rows))


def row_spans(n_rows: int) -> list[tuple[int, int]]:
    """``range(n_rows)`` cut into contiguous ``(lo, hi)`` spans, one per worker."""
    count = span_count(n_rows)
    return [(n_rows * k // count, n_rows * (k + 1) // count) for k in range(count)]


def run_spans(job, spans: list[tuple[int, int]]) -> list:
    """``job(k, lo, hi)`` for each span ``k``, results in span order.

    Span 0 runs inline on the calling thread; each other span runs on a pool
    thread under a copy of the caller's context, so a caller's ``np.errstate``
    holds in every span. An exception from any span is raised here once the
    other spans have finished.
    """
    if len(spans) == 1:
        return [job(0, *spans[0])]
    with ThreadPoolExecutor(len(spans) - 1) as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, job, k, lo, hi)
            for k, (lo, hi) in enumerate(spans[1:], start=1)
        ]
        first = job(0, *spans[0])
        return [first] + [future.result() for future in futures]


def run_blocks(job, first: int, last: int, block: int) -> None:
    """``job(worker, rows)`` on each ``block``-row slice ``rows`` of
    ``first:last``, one span of slices per worker (:func:`row_spans`); the
    worker indices are ``range(span_count(last - first))``."""

    def span(worker: int, lo: int, hi: int) -> None:
        for start in range(first + lo, first + hi, block):
            job(worker, slice(start, min(start + block, first + hi)))

    run_spans(span, row_spans(last - first))
