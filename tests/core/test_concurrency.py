"""Thread safety of the one execution path.

Plans hold only resolved kernel functions, so one cached plan may run on
several threads at once; the plan cache and the serving structure cache
guard their LRU state and counters with a lock; and the tracer gives every
thread its own named lane.  Each test drives real threads (numpy releases
the GIL inside the kernels) and checks an invariant that a lost update or a
shared scratch buffer would break.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.attention import dfss_attention
from repro.core.padded_csr import PaddedCSRMatrix
from repro.core.plan import PlanKey, clear_plan_cache, plan_for_structure
from repro.core.plan_cache import PlanCache
from repro.profile.tracer import trace
from repro.serve import StructureCache

THREADS = 4


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _run_threads(fn, n=THREADS):
    """Run ``fn(i)`` on ``n`` threads released together; results in order."""
    barrier = threading.Barrier(n)

    def call(i):
        barrier.wait()
        return fn(i)

    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(call, range(n)))


def _key(i):
    return PlanKey(f"probe_{i}", "nm", "fast", "float32", (i, i, i))


def _qkv(shape, seed):
    rng = np.random.default_rng(seed)
    return tuple(rng.standard_normal(shape).astype(np.float32) for _ in range(3))


class TestPlanCache:
    def test_counters_add_up_under_concurrent_lookups(self):
        cache = PlanCache(lambda key: object(), max_entries=64)
        per_thread = 200
        _run_threads(lambda i: [cache.get(_key(j % 8)) for j in range(per_thread)])
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == THREADS * per_thread
        # a racing cold key may build twice, but every build is one insert
        assert stats["misses"] == stats["size"] + stats["evictions"]
        assert stats["size"] == 8

    def test_eviction_bound_holds_under_concurrent_inserts(self):
        cache = PlanCache(lambda key: object(), max_entries=5)
        _run_threads(lambda i: [cache.get(_key(i * 50 + j)) for j in range(50)])
        stats = cache.stats()
        assert stats["size"] == len(cache) == 5
        assert stats["misses"] == THREADS * 50
        assert stats["evictions"] == THREADS * 50 - 5


class TestStructureCache:
    def test_counters_add_up_under_concurrent_lookups(self):
        cache = StructureCache(max_entries=64)
        per_thread = 200
        _run_threads(
            lambda i: [cache.get(j % 8, lambda: object()) for j in range(per_thread)]
        )
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == THREADS * per_thread
        assert stats["misses"] == stats["size"] + stats["evictions"]
        assert stats["size"] == stats["entries"] == 8

    def test_eviction_bound_holds_under_concurrent_inserts(self):
        cache = StructureCache(max_entries=5)
        _run_threads(
            lambda i: [cache.get((i, j), lambda: object()) for j in range(50)]
        )
        stats = cache.stats()
        assert stats["size"] == len(cache) == 5
        assert stats["evictions"] == THREADS * 50 - 5


class TestSharedPlanExecution:
    def test_nm_plan_runs_bitwise_identically_on_concurrent_threads(self):
        inputs = [_qkv((2, 2, 64, 16), seed) for seed in range(THREADS)]
        serial = [dfss_attention(*qkv, pattern="2:4") for qkv in inputs]
        for _ in range(3):
            threaded = _run_threads(lambda i: dfss_attention(*inputs[i], pattern="2:4"))
            for a, b in zip(serial, threaded):
                np.testing.assert_array_equal(a, b)

    def test_csr_plan_shares_one_structure_across_threads(self):
        mask = np.triu(np.tril(np.ones((48, 48), dtype=bool), 4), -8)
        mask[7] = False
        structure = PaddedCSRMatrix.from_mask(mask).broadcast_to((2,))
        plan = plan_for_structure(structure)
        inputs = [_qkv((2, 48, 16), seed) for seed in range(THREADS)]
        serial = [plan(*qkv, structure=structure) for qkv in inputs]
        for _ in range(3):
            threaded = _run_threads(lambda i: plan(*inputs[i], structure=structure))
            for a, b in zip(serial, threaded):
                np.testing.assert_array_equal(a, b)


class TestTracerThreadLanes:
    def test_each_thread_gets_its_own_named_lane(self):
        def work(i):
            threading.current_thread().name = f"probe-{i}"
            with active.span("probe", "kernel", worker=i):
                pass

        with trace() as active:
            _run_threads(work)
        events = [e for e in active.events if e["name"] == "probe"]
        lanes = {e["args"]["worker"]: e["tid"] for e in events}
        assert len(set(lanes.values())) == THREADS
        names = active.thread_names()
        assert {names[tid] for tid in lanes.values()} == {
            f"probe-{i}" for i in range(THREADS)
        }
        metadata = [e for e in active.payload()["traceEvents"] if e["ph"] == "M"]
        assert {e["tid"] for e in metadata} == set(names)

    def test_concurrent_spans_are_all_recorded(self):
        per_thread = 100

        def work(i):
            for j in range(per_thread):
                with active.span("probe", "kernel", worker=i, step=j):
                    pass

        with trace() as active:
            _run_threads(work)
        events = [e for e in active.events if e["name"] == "probe"]
        assert len(events) == THREADS * per_thread
        for i in range(THREADS):
            steps = [e["args"]["step"] for e in events if e["args"]["worker"] == i]
            assert steps == list(range(per_thread))
