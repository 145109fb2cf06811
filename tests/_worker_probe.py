"""A shard worker process with one extra request, ``gc_probe``, for tests.

Run as ``python tests/_worker_probe.py --fd N`` with ``src`` on the path.
It serves exactly as ``python -m repro.sharding.worker`` does; ``gc_probe``
reports the worker process's own collector state, which a test process
cannot observe from outside:

* ``freeze_count`` — :func:`gc.get_freeze_count`;
* ``shard_objects`` — the tracked objects reachable from the shard's
  sources (types, modules and functions excluded);
* ``unfrozen`` — how many of those still sit in a collectable generation.
"""

from __future__ import annotations

import argparse
import gc
import socket
import types
from typing import Any

from repro.sharding.wire import WireConnection
from repro.sharding.worker import ShardWorker

_SHARED = (type, types.ModuleType, types.FunctionType, types.CodeType)


def _shard_objects(roots: list[Any]) -> dict[int, Any]:
    seen: dict[int, Any] = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or not gc.is_tracked(obj) or isinstance(obj, _SHARED):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return seen


class ProbedWorker(ShardWorker):
    def _handle_gc_probe(self, message: dict[str, Any]) -> dict[str, Any]:
        shard = _shard_objects(list(self._corpus))
        collectable = {id(obj) for obj in gc.get_objects()}
        return {
            "freeze_count": gc.get_freeze_count(),
            "shard_objects": len(shard),
            "unfrozen": sum(1 for key in shard if key in collectable),
        }

    _HANDLERS = {**ShardWorker._HANDLERS, "gc_probe": _handle_gc_probe}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--fd", type=int, required=True)
    args = parser.parse_args()
    connection = WireConnection(socket.socket(fileno=args.fd), timeout=None)
    ProbedWorker(connection).serve()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
