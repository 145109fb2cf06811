"""Performance toolkit shared by the hot paths of the reproduction.

The package groups four small utilities used across the assessment
pipeline, the search engine, the sentiment layer and the persistence
and sharding layers:

* :mod:`repro.perf.timers` — monotonic stopwatches and timing helpers for
  the benchmark harness;
* :mod:`repro.perf.counters` — lightweight named counters that the cached
  pipelines use to expose hit/miss and work-done statistics;
* :mod:`repro.perf.cache` — a deterministic LRU cache plus the structural
  fingerprint helpers the incremental assessment state diffs against;
* :mod:`repro.perf.collector` — :func:`collector_paused`, which switches
  the cyclic garbage collector off while a recovery, a corpus load or a
  resync builds objects it could never free, and restores the caller's
  collector state on exit (see ``docs/PERFORMANCE.md``, "Garbage
  collection").

The seed's naive single-object loops are not part of the package: they
live test-side in ``tests/_reference.py``, where the equivalence tests and
the perf benchmark harness use them to prove the optimised paths return
identical results and to record honest baseline timings.
"""

from repro.perf.cache import (
    LRUCache,
    corpus_fingerprint,
    corpus_probe,
    source_fingerprint,
    source_probe,
)
from repro.perf.collector import collector_paused
from repro.perf.counters import PerfCounters
from repro.perf.timers import Stopwatch, time_call, timed

__all__ = [
    "LRUCache",
    "PerfCounters",
    "Stopwatch",
    "collector_paused",
    "corpus_fingerprint",
    "corpus_probe",
    "source_fingerprint",
    "source_probe",
    "time_call",
    "timed",
]
