"""Span recording around calls into ccfrelay's layers, from outside.

``Tracer.patch`` replaces a module attribute (or a class attribute) with a
timing wrapper and ``Tracer.restore`` puts the original back; the library
source is untouched.  Because a module's own code looks its imported names
up in its own namespace at call time, wrapping ``optimizer.mat_rank``
counts exactly the ``mat_rank`` calls made from ``optimizer``: that is the
binding each metric name refers to.

Spans (name, start, end, parent span, operation id) are kept in memory and
written out by ``write`` when the run ends.  The code under test is
single-threaded and synchronous, so spans nest strictly and a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # spans[k] = (name, start_s, end_s, parent index or -1, op id, ok)
        self.spans = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.failed = defaultdict(int)
        # per-operation distinct results of the functions patched with distinct=True
        self.distinct = defaultdict(set)
        self._distinct_names = set()
        self._stack = []  # [span index, seconds spent in direct children]
        self._patched = []
        self.op_id = None

    # -- installation ------------------------------------------------------
    def patch(self, owner, attr: str, name: str, distinct: bool = False) -> None:
        """Wrap ``owner.attr`` so that calls record a span called ``name``.

        With ``distinct`` the wrapper also records the distinct byte images
        of the function's results within each operation."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        if distinct:
            self._distinct_names.add(name)
        setattr(owner, attr, self._wrap(name, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs)

        return wrapper

    # -- recording ---------------------------------------------------------
    def call(self, name: str, fn, args=(), kwargs=None):
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        frame = [index, 0.0]
        self._stack.append(frame)
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            ok = True
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.spans[index] = (name, start, end, parent, self.op_id, ok)
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            if not ok:
                self.failed[name] += 1
            if self._stack:
                self._stack[-1][1] += duration
        if name in self._distinct_names:
            self.distinct[name].add((self.op_id, result.tobytes(), result.shape))
        return result

    def write(self, path) -> None:
        """Write the spans as gzipped CSV, times in microseconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,op,name,start_us,end_us,parent,ok\n")
            for k, (name, start, end, parent, op, ok) in enumerate(self.spans):
                fh.write(f"{k},{op},{name},{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f},{parent},{int(ok)}\n")


def layer_bindings():
    """(owner, attribute, span name) of every wrapped binding.  Owner and
    attribute name the binding; the span name gives the layer defining the
    function.  The galois functions are counted at the optimizer and
    recovery bindings, the lattice point operations at the pipeline and
    recovery bindings."""
    from ccfrelay import lattice, optimizer, pipeline, rates, recovery

    bindings = [
        (optimizer, "evaluate_all", "optimizer.evaluate_all"),
        (optimizer, "select_coefficients", "optimizer.select_coefficients"),
        (optimizer, "lll_reduce", "optimizer.lll_reduce"),
        (optimizer, "pi_d_is_feasible", "optimizer.pi_d_is_feasible"),
        (optimizer, "pi_e_is_feasible", "optimizer.pi_e_is_feasible"),
        (optimizer, "mat_rank", "galois.mat_rank"),
        (optimizer, "computation_rate", "rates.computation_rate"),
        (optimizer, "max_rates_given_structure", "rates.max_rates_given_structure"),
        (optimizer, "second_hop_region", "rates.second_hop_region"),
        (rates, "computation_rate", "rates.computation_rate"),
        (pipeline, "source_encode", "pipeline.source_encode"),
        (pipeline, "relay_combination", "pipeline.relay_combination"),
        (pipeline, "compress", "pipeline.compress"),
        (recovery, "srq", "recovery.srq"),
        (recovery, "srm", "recovery.srm"),
        (recovery, "srmq", "recovery.srmq"),
        (recovery, "mat_inverse", "galois.mat_inverse"),
        (recovery, "residual_submatrix", "galois.residual_submatrix"),
        (lattice.ChainPoint, "__post_init__", "lattice.chainpoint_init"),
    ]
    for module in (pipeline, recovery):
        for fn in ("point_add", "point_scale", "mod_level", "quantize_level"):
            bindings.append((module, fn, f"lattice.{fn}"))
    return bindings


def traced_ccfrelay() -> Tracer:
    """A tracer with every layer binding wrapped; use it as a context
    manager so the originals are restored."""
    tracer = Tracer()
    try:
        for owner, attr, name in layer_bindings():
            tracer.patch(owner, attr, name, distinct=name == "optimizer.select_coefficients")
    except (AttributeError, KeyError):
        tracer.restore()
        raise
    return tracer
