"""Tests for the compiled plan/execute layer (:mod:`repro.core.plan`).

Covers the backend plan-builder registry seam, the rejection of empty
sequences at the plan boundary, the LRU plan cache and its
hit/miss accounting, and the :meth:`AttentionEngine.plan` façade.
"""

import numpy as np
import pytest

from repro.core.backend import (
    FAST,
    REFERENCE,
    available_plan_backends,
    get_plan_builder,
)
from repro.core.padded_csr import PaddedCSRMatrix
from repro.core.patterns import PATTERN_2_4
from repro.core.plan import (
    AttentionPlan,
    PlanKey,
    build_plan,
    clear_plan_cache,
    plan_cache_stats,
    plan_for_nm,
    plan_for_structure,
)
from repro.engine import AttentionEngine


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _qkv(seq=16, d=8, seed=0):
    rng = np.random.default_rng(seed)
    return tuple(
        rng.standard_normal((seq, d), dtype=np.float32) for _ in range(3)
    )


class TestPlanBuilders:
    def test_both_backends_register_builders(self):
        assert set(available_plan_backends()) >= {REFERENCE, FAST}

    def test_fast_builds_fused_reference_builds_staged(self):
        key = PlanKey("dfss_2:4", "nm", FAST, "float32", (16, 16, 8))
        assert build_plan(key).fused is True
        ref_key = PlanKey("dfss_2:4", "nm", REFERENCE, "float32", (16, 16, 8))
        assert build_plan(ref_key).fused is False

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_plan_builder("warp")

    def test_unknown_layout_rejected(self):
        key = PlanKey("dfss_2:4", "blocked", FAST, "float32", (16, 16, 8))
        with pytest.raises(ValueError, match="unknown plan layout"):
            AttentionPlan(key, fused=True)

    @pytest.mark.parametrize("backend", [FAST, REFERENCE])
    def test_every_backend_plans_both_layouts(self, backend):
        # one compiled path per backend: both constructors always return a plan
        nm = plan_for_nm(PATTERN_2_4, 16, 16, backend=backend)
        csr = plan_for_structure(
            PaddedCSRMatrix.from_mask(np.tril(np.ones((16, 16), dtype=bool))),
            backend=backend,
        )
        for plan, layout in ((nm, "nm"), (csr, "csr")):
            assert isinstance(plan, AttentionPlan)
            assert plan.key.layout == layout and plan.key.backend == backend
            assert plan.fused is (backend == FAST)

    def test_csr_plan_requires_structure_to_score(self):
        mask = np.eye(8, dtype=bool)
        structure = PaddedCSRMatrix.from_mask(mask)
        plan = plan_for_structure(structure, backend=FAST)
        q, k, _ = _qkv(seq=8, d=4)
        with pytest.raises(ValueError, match="structure"):
            plan.compute_scores(q, k)


class TestEmptySequence:
    @pytest.mark.parametrize(
        "rows, cols, name", [(0, 8, "query length"), (8, 0, "key length")]
    )
    def test_plan_constructors_name_the_empty_argument(self, rows, cols, name):
        with pytest.raises(ValueError, match=name):
            plan_for_nm(PATTERN_2_4, rows, cols)
        structure = PaddedCSRMatrix.from_mask(np.ones((rows, cols), dtype=bool))
        with pytest.raises(ValueError, match=name):
            plan_for_structure(structure)
        assert plan_cache_stats()["size"] == 0

    def test_dfss_attention_rejects_an_empty_sequence(self):
        from repro.core.attention import dfss_attention

        empty = np.zeros((1, 2, 0, 64), dtype=np.float32)
        keys = np.zeros((1, 2, 8, 64), dtype=np.float32)
        with pytest.raises(ValueError, match="query length"):
            dfss_attention(empty, empty, empty)
        with pytest.raises(ValueError, match="key length"):
            dfss_attention(keys, empty, empty)

    def test_query_length_is_named_first_when_both_are_empty(self):
        with pytest.raises(ValueError, match="query length"):
            plan_for_nm(PATTERN_2_4, 0, 0)

    @pytest.mark.parametrize("op", ["dfss", "masked"])
    def test_autograd_ops_reject_an_empty_sequence(self, op):
        from repro.nn.autograd import Tensor
        from repro.nn.sparse_attention import (
            dfss_sparse_attention,
            masked_sparse_attention,
        )

        empty = Tensor(np.zeros((1, 2, 0, 16), dtype=np.float32))
        keys = Tensor(np.zeros((1, 2, 8, 16), dtype=np.float32))
        if op == "dfss":
            calls = [
                ("query length", lambda: dfss_sparse_attention(empty, empty, empty)),
                ("key length", lambda: dfss_sparse_attention(keys, empty, empty)),
            ]
        else:
            calls = [
                ("query length", lambda: masked_sparse_attention(
                    empty, empty, empty, mask=np.ones((0, 0), dtype=bool))),
                ("key length", lambda: masked_sparse_attention(
                    keys, empty, empty, mask=np.ones((8, 0), dtype=bool))),
            ]
        for name, call in calls:
            with pytest.raises(ValueError, match=name):
                call()

    def test_drop_in_object_rejects_an_empty_sequence(self):
        from repro.core.attention import DfssAttention

        empty = np.zeros((2, 0, 16), dtype=np.float32)
        with pytest.raises(ValueError, match="query length"):
            DfssAttention(pattern="1:2")(empty, empty, empty)

    def test_engine_plan_rejects_an_empty_sequence(self):
        engine = AttentionEngine("local", window=4, seq_len_hint=16)
        with pytest.raises(ValueError, match="query length"):
            engine.plan(n_q=0)

    def test_repro_attention_rejects_an_empty_sequence(self):
        import repro

        empty = np.zeros((1, 2, 0, 64), dtype=np.float32)
        with pytest.raises(ValueError, match="query length"):
            repro.attention(empty, empty, empty, mechanism="dfss")

    @pytest.mark.parametrize("mechanism", ["local", "full"])
    def test_engine_rejects_an_empty_sequence_before_the_mechanism(self, mechanism):
        import repro

        empty = np.zeros((2, 0, 16), dtype=np.float32)
        keys = np.zeros((2, 8, 16), dtype=np.float32)
        with pytest.raises(ValueError, match="non-empty sequence: query length"):
            repro.attention(empty, keys, keys, mechanism=mechanism)
        with pytest.raises(ValueError, match="non-empty sequence: key length"):
            repro.attention(keys, empty, empty, mechanism=mechanism)
        engine = AttentionEngine(mechanism)
        with pytest.raises(ValueError, match="non-empty sequence: query length"):
            engine.attention_mask(empty, keys)


class TestOneExecutionPath:
    """No entry point offers a switch between execution arms."""

    @pytest.mark.parametrize(
        "entry",
        ["dfss_attention", "DfssAttention", "dfss_sparse_attention",
         "masked_sparse_attention"],
    )
    def test_entry_point_takes_no_pipeline_argument(self, entry):
        import inspect

        from repro.core import attention
        from repro.nn import sparse_attention

        fn = getattr(attention, entry, None) or getattr(sparse_attention, entry)
        assert "pipeline" not in inspect.signature(fn).parameters


class TestPlanCache:
    def test_same_geometry_hits(self):
        a = plan_for_nm(PATTERN_2_4, 16, 16, backend=FAST)
        b = plan_for_nm("2:4", 16, 16, backend=FAST)
        assert a is b
        stats = plan_cache_stats()
        assert stats == {"size": 1, "hits": 1, "misses": 2 - 1, "evictions": 0}

    def test_key_axes_separate_plans(self):
        base = plan_for_nm(PATTERN_2_4, 16, 16, backend=FAST)
        assert plan_for_nm(PATTERN_2_4, 32, 32, backend=FAST) is not base
        assert plan_for_nm("1:2", 16, 16, backend=FAST) is not base
        assert plan_for_nm(PATTERN_2_4, 16, 16, backend=REFERENCE) is not base
        assert plan_cache_stats()["misses"] == 4

    def test_structure_plans_share_by_geometry(self):
        mask = np.triu(np.ones((12, 12), dtype=bool), -2)
        a = plan_for_structure(PaddedCSRMatrix.from_mask(mask), backend=FAST)
        b = plan_for_structure(PaddedCSRMatrix.from_mask(mask), backend=FAST)
        assert a is b

    def test_lru_eviction_bounds_the_cache(self):
        from repro.core import plan as plan_module

        for rows in range(8, 8 + plan_module._PLAN_CACHE_MAX + 8):
            plan_for_nm(PATTERN_2_4, rows, 16, backend=FAST)
        assert plan_cache_stats()["size"] == plan_module._PLAN_CACHE_MAX
        assert plan_cache_stats()["evictions"] == 8

    def test_clear_resets_stats(self):
        plan_for_nm(PATTERN_2_4, 16, 16, backend=FAST)
        clear_plan_cache()
        assert plan_cache_stats() == {
            "size": 0, "hits": 0, "misses": 0, "evictions": 0,
        }

    def test_build_plan_is_uncached(self):
        key = PlanKey("dfss_2:4", "nm", FAST, "float32", (16, 16, 8))
        assert build_plan(key) is not build_plan(key)
        assert plan_cache_stats()["size"] == 0


class TestPlanExecution:
    def test_nm_forward_matches_dfss_attention(self):
        from repro.core.attention import dfss_attention

        q, k, v = _qkv()
        plan = plan_for_nm(PATTERN_2_4, 16, 16, backend=FAST)
        np.testing.assert_array_equal(
            plan(q, k, v, scale=0.5),
            dfss_attention(q, k, v, pattern="2:4", scale=0.5, backend=FAST),
        )

    def test_return_probs_row_sums(self):
        q, k, v = _qkv(seed=3)
        plan = plan_for_nm(PATTERN_2_4, 16, 16, backend=FAST)
        out, probs = plan(q, k, v, scale=0.5, return_probs=True)
        assert out.shape == v.shape
        np.testing.assert_allclose(probs.values.sum(-1), 1.0, atol=1e-6)

    def test_compute_probs_owned_false_preserves_scores(self):
        q, k, _ = _qkv(seed=4)
        mask = np.triu(np.ones((16, 16), dtype=bool), -4)
        structure = PaddedCSRMatrix.from_mask(mask)
        plan = plan_for_structure(structure, backend=FAST)
        scores = plan.compute_scores(q, k, structure, scale=0.5)
        before = scores.values.copy()
        probs = plan.compute_probs(scores, owned=False)
        np.testing.assert_array_equal(scores.values, before)
        assert probs.values is not scores.values

    def test_fused_compute_probs_reuses_the_score_buffer(self):
        q, k, _ = _qkv(seed=5)
        plan = plan_for_nm(PATTERN_2_4, 16, 16, backend=FAST)
        scores = plan.compute_scores(q, k, scale=0.5)
        probs = plan.compute_probs(scores)
        assert probs.values is scores.values  # in place: no intermediate


class TestEnginePlan:
    def test_dfss_engine_plans_nm(self):
        plan = AttentionEngine("dfss_2:4", backend=FAST).plan(n_q=32)
        assert plan.key.layout == "nm"
        assert plan.key.mechanism == "dfss_2:4"
        assert plan.key.shape_class[0] == 32

    def test_static_mask_engine_plans_csr_from_its_mask(self):
        engine = AttentionEngine("local", window=4)
        plan = engine.plan(n_q=24)
        assert plan.key.layout == "csr"
        assert plan.key.mechanism == "local"
        assert plan.key.shape_class[:2] == (24, 24)

    @pytest.mark.parametrize(
        "pattern,dtype,planned",
        [
            pytest.param("2:4", "float32", "dfss_2:4", id="float32"),
            pytest.param("2:4", "bfloat16", "dfss_2:4", id="bfloat16"),
            # no explicit pattern: plan with the one the mechanism resolves
            pytest.param(None, "float32", "dfss_1:2", id="default-float32"),
            pytest.param(None, "bfloat16", "dfss_2:4", id="default-bfloat16"),
        ],
    )
    def test_dfss_engine_plan_matches_the_engine_bitwise(self, pattern, dtype, planned):
        engine = AttentionEngine("dfss", pattern=pattern, dtype=dtype)
        plan = engine.plan(64)
        assert plan.key.dtype == dtype
        assert plan.key.mechanism == planned
        rng = np.random.default_rng(11)
        q, k, v = (rng.standard_normal((2, 64, 16), dtype=np.float32) for _ in range(3))
        assert plan.forward(q, k, v).tobytes() == engine(q, k, v).tobytes()

    def test_engine_plan_defaults_to_seq_len_hint(self):
        engine = AttentionEngine("local", window=4, seq_len_hint=16)
        assert engine.plan().key.shape_class[0] == 16

    def test_data_dependent_engine_needs_explicit_structure(self):
        engine = AttentionEngine("topk", k=4)
        with pytest.raises(ValueError, match="structure"):
            engine.plan(n_q=16)
        structure = PaddedCSRMatrix.from_mask(np.eye(16, dtype=bool))
        plan = engine.plan(structure=structure)
        assert plan.key.layout == "csr" and plan.key.mechanism == "topk"

    def test_uncompressed_engine_rejected(self):
        with pytest.raises(ValueError, match="no compressed execution plan"):
            AttentionEngine("full").plan(n_q=16)
