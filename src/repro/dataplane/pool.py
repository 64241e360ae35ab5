"""Chunked execution, optionally through a thread pool.

The data plane's unit of work is the *chunk*: a slice of clips processed
by one vectorized kernel call.  :func:`imap_chunks` dispatches chunks
serially (``workers == 0``, the safe single-thread default) or over a
``ThreadPoolExecutor``, always yielding per-chunk results in input order.
The helpers are deliberately free of any dataplane imports so lower
layers (``repro.litho``, ``repro.data``) can reuse them without cycles.

A ``timeout`` turns on the **watchdog**: a pooled chunk that does not
answer within the deadline is treated as hung — its future is
cancelled/abandoned, ``on_timeout(chunk_index)`` fires, and the chunk
(plus any chunk the compromised pool had not finished) re-runs
serially in-process, so one stuck worker degrades throughput instead
of stalling the run forever.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from ..analysis.interleave import trace_point

__all__ = ["chunked", "imap_chunks", "on_timeout"]

T = TypeVar("T")
R = TypeVar("R")


def chunked(items: Sequence[T], size: int) -> list[list[T]]:
    """Split ``items`` into consecutive chunks of at most ``size``."""
    if size <= 0:
        raise ValueError(f"chunk size must be positive, got {size}")
    items = list(items)
    return [items[i : i + size] for i in range(0, len(items), size)]


def on_timeout(
    bus, stage: str, timeout: Optional[float]
) -> Optional[Callable[[int], None]]:
    """The watchdog callback of one pooled ``stage``: a chunk that hung
    past ``timeout`` and was re-run serially surfaces on ``bus`` as one
    ``health_alert``/``recovery_applied`` guard event pair.  ``None``
    (nothing to report) without a bus or a deadline."""
    if bus is None or timeout is None:
        return None

    def fired(chunk_index: int) -> None:
        bus.emit(
            "health_alert",
            sentinel="pool_watchdog",
            stage=stage,
            detail=f"chunk {chunk_index} exceeded {timeout}s deadline",
            chunk=chunk_index,
        )
        bus.emit(
            "recovery_applied",
            policy="serial_fallback",
            sentinel="pool_watchdog",
            stage=stage,
            chunk=chunk_index,
        )

    return fired


def _iter_chunks(
    fn: Callable[[list[T]], R],
    parts: list[list[T]],
    workers: int,
    timeout: Optional[float],
    on_timeout: Optional[Callable[[int], None]],
) -> Iterator[R]:
    """Yield per-chunk results in input order (lazy pool consumption).

    Exceptions raised by ``fn`` — including ``OSError`` from a task —
    always propagate; silently re-running chunks serially would mask
    real errors and double-execute side-effectful work (e.g.
    double-simulate litho clips).

    A watchdog ``timeout`` is the one sanctioned degradation: a chunk
    that never *answers* (as opposed to raising) is cancelled at the
    deadline and recomputed serially, and every later chunk the pool had
    not already finished is recomputed serially too — a hung worker has
    poisoned the pool, so no further deadline waits are spent on it.
    """
    if workers <= 0 or len(parts) <= 1:
        yield from (fn(part) for part in parts)
        return
    pool = ThreadPoolExecutor(max_workers=min(workers, len(parts)))
    hung = False
    try:
        futures = [pool.submit(fn, part) for part in parts]
        for index, future in enumerate(futures):
            if hung:
                # pool already compromised: reuse finished results,
                # recompute everything else in-process
                if future.done() and not future.cancelled():
                    yield future.result()
                else:
                    future.cancel()
                    yield fn(parts[index])
                continue
            try:
                result = future.result(timeout=timeout)
                trace_point("pool.chunk.done")
                yield result
            except FuturesTimeoutError:
                hung = True
                future.cancel()
                if on_timeout is not None:
                    on_timeout(index)
                yield fn(parts[index])
    finally:
        # a hung pool must not block interpreter progress on shutdown
        pool.shutdown(wait=not hung, cancel_futures=hung)


def imap_chunks(
    fn: Callable[[list[T]], R],
    items: Sequence[T],
    chunk_size: int,
    workers: int = 0,
    timeout: Optional[float] = None,
    on_timeout: Optional[Callable[[int], None]] = None,
) -> Iterator[R]:
    """Apply ``fn`` to every chunk of ``items``: an iterator of
    per-chunk results, in input order.

    ``workers == 0`` (or a single chunk) runs on the calling thread with
    no pool; task exceptions propagate (see :func:`_iter_chunks`).  Results
    arrive as chunks complete, so callers can commit partial progress
    (e.g. cache litho verdicts per chunk); when ``fn`` raises for chunk
    ``N``, the exception surfaces after chunks ``0..N-1`` were already
    yielded.  ``timeout`` (seconds per pooled chunk) arms the watchdog;
    ``on_timeout`` receives the index of a chunk that was cancelled at
    the deadline and re-run serially.
    """
    if timeout is not None and not (timeout > 0 and math.isfinite(timeout)):
        raise ValueError(
            f"timeout must be positive and finite, or None, got {timeout}"
        )
    parts = chunked(items, chunk_size)
    return _iter_chunks(fn, parts, workers, timeout, on_timeout)
