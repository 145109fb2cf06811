"""Cyclic garbage collector control for bulk materialisation.

A recovery, a corpus load or a resync builds tens of thousands of
container objects (posts, interactions, threads, their dicts) that stay
alive: CPython's cyclic collector, triggered every few hundred
allocations, walks them again and again and can free none of them.
:func:`collector_paused` switches the collector off for such a body and
restores the state it found on exit.  It never collects, freezes or
changes thresholds, so a caller's own collector settings survive every
library call; the first allocation after the pause runs the one young
generation pass the pause deferred.

Apart from a shard worker's freeze (the worker owns its process; see
:mod:`repro.sharding.worker`), this is the only module of the library
that changes the collector's state.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["collector_paused"]

# Module state on purpose: the collector is one per process, so the count
# of pauses open over it must be one per process too.
_lock = threading.Lock()
#: Open :func:`collector_paused` bodies, across every thread.
_depth = 0
#: Whether the collector was enabled when the outermost body began.
_resume = False


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the body with the cyclic collector disabled.

    Re-entrant and safe across threads: the bodies open in the process
    are counted under a lock, and the outermost exit re-enables the
    collector only if it was enabled at the outermost entry.  A collector
    that the caller had disabled stays disabled.
    """
    global _depth, _resume
    with _lock:
        if _depth == 0:
            _resume = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _resume:
                gc.enable()
