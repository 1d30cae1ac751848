"""Layer spans for traced runs and self-time attribution from the trace.

Every layer is timed from outside the program: :func:`wrap` replaces a bound
method or module attribute with a wrapper that opens a span on the active
``repro.profile`` tracer, so the benchmark's spans and the program's own
kernel spans share one clock and one event list.  Outside a trace session the
wrappers fall straight through to the wrapped call, and untraced runs install
none at all.

:class:`Attribution` turns traced windows into per-op self times.  A span's
self time is its duration minus the time its direct child spans cover; the
root span of each op (category ``step``) keeps what no layer or kernel span
covers, which is reported as ``unattributed_ms``.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import nullcontext
from typing import Callable, Dict, Iterable, List, Optional

from repro.profile import current_tracer

#: Span category of the benchmark's own layer spans.
LAYER = "layer"
#: Span category of one whole benchmark operation (the attribution root).
ROOT = "step"


def layer(name: str):
    """Context manager opening a layer span when a trace session is active."""
    tracer = current_tracer()
    return nullcontext() if tracer is None else tracer.span(name, LAYER)


def op_span():
    """Context manager opening the root span of one benchmark operation."""
    tracer = current_tracer()
    return nullcontext() if tracer is None else tracer.span("op", ROOT)


def timed(name: str, fn: Callable) -> Callable:
    """``fn`` wrapped in a layer span named ``name``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = current_tracer()
        if tracer is None:
            return fn(*args, **kwargs)
        with tracer.span(name, LAYER):
            return fn(*args, **kwargs)

    return wrapper


def wrap(owner, attr: str, name: str) -> None:
    """Replace ``owner.attr`` by :func:`timed` of itself."""
    setattr(owner, attr, timed(name, getattr(owner, attr)))


# --------------------------------------------------------------------- FLOPs
def _dims(text: Optional[str]) -> Optional[List[int]]:
    if not text:
        return None
    try:
        return [int(d) for d in str(text).split("x")]
    except ValueError:
        return None


def kernel_flops(name: str, args: Dict) -> float:
    """Floating-point operations of one kernel call, computed from shapes.

    ``shape`` is the first array argument the kernel received (``q`` for
    ``sddmm_nm`` and ``attention_bwd``, the value buffer for the fused
    ``masked_softmax``, ``v`` for ``spmm``); ``shape_class`` is the plan's
    ``rows x dense_cols x kept`` geometry.  Dense ``Q Kᵀ`` is counted in full
    for ``sddmm_nm`` because the kernel computes every score before pruning.
    """
    shape, geom = _dims(args.get("shape")), _dims(args.get("shape_class"))
    if shape is None or geom is None or len(geom) != 3:
        return 0.0
    rows, cols, kept = geom
    slices = 1
    for d in shape[:-2]:
        slices *= d
    width = shape[-1]
    if name == "sddmm_nm":
        return 2.0 * slices * rows * cols * width
    if name == "masked_softmax":
        # max, subtract, exp, sum, divide per stored score
        return 5.0 * slices * rows * kept
    if name == "spmm":
        return 2.0 * slices * rows * kept * width
    if name == "attention_bwd":
        # dV = Pᵀ dO, dP = dO Vᵀ, dQ = dS K, dK = dSᵀ Q over the kept scores
        return 8.0 * slices * rows * kept * width
    return 0.0


# --------------------------------------------------------------- attribution
class Attribution:
    """Self-time totals of one or more traced windows (milliseconds)."""

    def __init__(self) -> None:
        self.op_ms = 0.0
        self.unattributed_ms = 0.0
        self.layer_ms: Dict[str, float] = defaultdict(float)
        self.kernel_ms: Dict[str, float] = defaultdict(float)
        self.kernel_calls: Dict[str, int] = defaultdict(int)
        self.kernel_flops: Dict[str, float] = defaultdict(float)

    def add_events(self, events: Iterable[Dict]) -> None:
        spans = [
            e for e in events
            if e.get("ph") == "X" and e.get("cat") in ("kernel", LAYER, ROOT)
        ]
        spans.sort(key=lambda e: (e["tid"], e["ts"], -e["dur"]))
        stack: List[Dict] = []
        child_us: Dict[int, float] = defaultdict(float)
        for e in spans:
            while stack and (
                stack[-1]["tid"] != e["tid"]
                or stack[-1]["ts"] + stack[-1]["dur"] <= e["ts"]
            ):
                self._close(stack.pop(), child_us)
            if stack:
                parent = stack[-1]
                end = min(e["ts"] + e["dur"], parent["ts"] + parent["dur"])
                child_us[id(parent)] += max(end - e["ts"], 0.0)
            stack.append(e)
        while stack:
            self._close(stack.pop(), child_us)

    def _close(self, e: Dict, child_us: Dict[int, float]) -> None:
        self_ms = max(e["dur"] - child_us.pop(id(e), 0.0), 0.0) / 1e3
        cat, name = e["cat"], e["name"]
        if cat == ROOT:
            self.op_ms += e["dur"] / 1e3
            self.unattributed_ms += self_ms
        elif cat == LAYER:
            self.layer_ms[name] += self_ms
        else:
            self.kernel_ms[name] += self_ms
            self.kernel_calls[name] += 1
            self.kernel_flops[name] += kernel_flops(name, e.get("args", {}))

    def to_json(self) -> Dict:
        return {
            "op_ms": self.op_ms,
            "unattributed_ms": self.unattributed_ms,
            "layer_ms": dict(self.layer_ms),
            "kernel_ms": dict(self.kernel_ms),
            "kernel_calls": dict(self.kernel_calls),
            "kernel_flops": dict(self.kernel_flops),
        }
