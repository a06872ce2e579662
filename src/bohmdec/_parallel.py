"""Row spans of a 2-D grid stage or dense product, one per core, run on threads.

pocketfft, ``scipy.ndimage`` and BLAS release the interpreter lock, so row
blocks of a transform or a matrix product run side by side on threads.
:func:`run_blocks` is the one dispatcher: it cuts the rows into one
contiguous span per worker and hands each span to its job one block of rows
per call. A block as long as the rows makes each span one call, as for the
bicubic pullback and the dense products of the explicit bath (the transfer
matrix ``T(t)`` of its exact blocks and the round trip ``T(t) T(-t)``). The
first span runs on the calling thread and each other span on a pool thread,
so ``n`` spans start ``n - 1`` threads: glibc gives each thread's work arrays
a malloc arena of its own and keeps what they free, so every extra thread
can raise the peak resident memory. Every job writes only its own rows of an
array its caller allocated, so the outputs do not depend on the worker
count: bitwise where each fixed pair of rows is computed alone (the Wigner
transform), and to round-off where a span shifts the arithmetic (the bicubic
pullback's offsets, and the products, whose rounding depends on the rows in
one BLAS call).
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
    """Number of spans, and so of workers, that :func:`run_blocks` cuts
    ``n_rows`` rows into."""
    return max(1, min(WORKERS, n_rows))


def run_blocks(job, first: int, last: int, block: int) -> None:
    """``job(worker, rows)`` on each ``block``-row slice ``rows`` of
    ``first:last``, one contiguous span of slices per worker; the worker
    indices are ``range(span_count(last - first))``.

    Span 0 runs inline on the calling thread; each other span runs on a pool
    thread under a copy of the caller's context, so a caller's ``np.errstate``
    holds in every span. An exception from any span is raised here once the
    other spans have finished.
    """
    count = span_count(last - first)
    bounds = [first + (last - first) * k // count for k in range(count + 1)]

    def span(worker: int) -> None:
        for start in range(bounds[worker], bounds[worker + 1], block):
            job(worker, slice(start, min(start + block, bounds[worker + 1])))

    with ThreadPoolExecutor(max(count - 1, 1)) as pool:  # one span starts no thread
        futures = [pool.submit(contextvars.copy_context().run, span, k) for k in range(1, count)]
        span(0)
        for future in futures:
            future.result()
