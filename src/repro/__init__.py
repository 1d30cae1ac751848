"""repro — reproduction of "Dynamic N:M Fine-grained Structured Sparse Attention".

Public API: :func:`repro.attention` / :class:`repro.AttentionEngine` construct
and run any registered attention mechanism through the unified registry
(:mod:`repro.registry`); :func:`repro.available_mechanisms` enumerates them
with capability flags; :mod:`repro.serve` (callable as
``repro.serve(requests)``) is the request-level serving engine that batches
mixed mechanisms and sequence lengths through the compiled attention plan.  See
:mod:`repro.core` for the DFSS kernels, :mod:`repro.gpusim` for the A100-like
performance model, :mod:`repro.baselines` for comparator implementations,
:mod:`repro.nn` for the numpy transformer stack and :mod:`repro.experiments`
for the table/figure reproduction harness.
"""

from repro.core import DfssAttention, dfss_attention, full_attention, NMSparseMatrix
from repro.engine import AttentionConfig, AttentionEngine, attention, available_mechanisms
from repro.registry import describe_mechanism

# the serving package imports repro.engine, so it must come after the facade
from repro import serve
from repro.serve import AttentionServer, ServeRequest, ServeResult

__version__ = "1.2.0"

__all__ = [
    # construction facade
    "attention",
    "AttentionEngine",
    "AttentionConfig",
    "available_mechanisms",
    "describe_mechanism",
    # serving engine (``repro.serve`` is itself callable)
    "serve",
    "AttentionServer",
    "ServeRequest",
    "ServeResult",
    # DFSS core
    "DfssAttention",
    "dfss_attention",
    "full_attention",
    "NMSparseMatrix",
    "__version__",
]
