"""LRU bookkeeping for compiled attention plans.

Pure accounting — an ordered mapping of cache keys to compiled plans plus
hit/miss/eviction counters — split out of :mod:`repro.core.plan` so the
aliasing analyzer's buffer-reuse scope stays focused on the modules that
actually touch numpy memory.  The cache never inspects a plan; compilation
is delegated to the ``build`` callable injected at construction.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Generic, Hashable, TypeVar

from repro.profile.tracer import current_tracer

__all__ = ["PlanCache"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class PlanCache(Generic[K, V]):
    """LRU cache of compiled plans with hit/miss/eviction accounting.

    While a trace session is active every lookup additionally emits a
    ``plan_cache_hit`` / ``plan_cache_miss`` instant event, so cache
    behaviour is visible on the timeline next to the kernels it affects.
    Keys are expected to carry ``mechanism`` / ``backend`` attributes (the
    :class:`~repro.core.plan.PlanKey` fields stamped on those events).

    Thread-safe: lookups may come from several threads, so the counters and
    the OrderedDict recency updates are guarded by an ``RLock``.  A cold key
    may still be built more than once under a race (compilation is pure and
    idempotent — last write wins); the LRU state itself can never corrupt.
    """

    def __init__(self, build: Callable[[K], V], max_entries: int = 64) -> None:
        self._build = build
        self.max_entries = int(max_entries)
        self._plans: "OrderedDict[K, V]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def get(self, key: K) -> V:
        tracer = current_tracer()
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        if plan is not None:
            if tracer is not None:
                tracer.instant(
                    "plan_cache_hit", "cache",
                    mechanism=key.mechanism, backend=key.backend,
                )
            return plan
        if tracer is not None:
            tracer.instant(
                "plan_cache_miss", "cache",
                mechanism=key.mechanism, backend=key.backend,
            )
        # Build outside the lock: compilation can recurse into the registry
        # (and, for delegating backends, into this very cache).
        plan = self._build(key)
        with self._lock:
            self._plans[key] = plan
            while len(self._plans) > self.max_entries:
                self._plans.popitem(last=False)
                self.evictions += 1
        return plan

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.hits = self.misses = self.evictions = 0

    def stats(self) -> Dict[str, int]:
        """``{"size", "hits", "misses", "evictions"}`` since the last clear."""
        with self._lock:
            return {
                "size": len(self._plans),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
