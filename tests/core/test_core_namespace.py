"""The public ``repro.core`` namespace.

The staged kernel entry points the compiled plan subsumes live only in their
submodules (``repro.core.spmm.softmax_spmm``,
``repro.core.attention_grad.dfss_attention_bwd``); importing them from there
is silent, the package root does not forward them, and ``from repro.core
import *`` resolves every exported name without a warning.
"""

import importlib
import warnings

import pytest

import repro.core

SUBMODULE_ONLY = [
    ("softmax_spmm", "repro.core.spmm"),
    ("dfss_attention_bwd", "repro.core.attention_grad"),
]


class TestStagedEntryPointHomes:
    def test_submodule_imports_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.core.attention_grad import dfss_attention_bwd  # noqa: F401
            from repro.core.spmm import softmax_spmm  # noqa: F401

    @pytest.mark.parametrize("name, home", SUBMODULE_ONLY)
    def test_package_root_does_not_forward(self, name, home):
        assert callable(getattr(importlib.import_module(home), name))
        assert name not in repro.core.__all__
        with pytest.raises(AttributeError, match=name):
            getattr(repro.core, name)

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="warp_drive"):
            repro.core.warp_drive


class TestStarImport:
    def test_star_import_is_silent(self):
        namespace = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exec("from repro.core import *", namespace)
        assert {"dfss_attention", "AttentionPlan", "plan_for_nm"} <= set(namespace)

    def test_every_exported_name_resolves(self):
        missing = [name for name in repro.core.__all__ if not hasattr(repro.core, name)]
        assert missing == []
        assert len(set(repro.core.__all__)) == len(repro.core.__all__)
