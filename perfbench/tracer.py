"""Run-time span tracer for the dispmat layers.

The tracer wraps public dispmat functions from outside the package. Modules
import names directly (``from .poly import red_family``), so a function can
be bound in several module namespaces at once; the tracer replaces every
binding that is the original function object, in every loaded ``dispmat``
module, and puts the originals back on ``uninstall``. Methods of
``PrimeField`` are patched on the class.

Spans (name, start, end, parent, operation id) are kept in memory. Self
time is a span's duration minus the part of its interval that its child
spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict


def _ntt_counts(args, kwargs, result):
    a = args[1]
    n = a.shape[-1]
    # radix-2 transform of length n: n/2 butterflies per stage, log2(n) stages
    return (("butterflies", a.size * (n.bit_length() - 1) // 2),)


def _conv_counts(args, kwargs, result):
    field, a, b = args[0], args[1], args[2]
    need = len(a) + len(b) - 1
    small = field.dtype is not object and 0 < need <= 1024
    return (("small", int(small)),)


def _lp_inv_counts(args, kwargs, result):
    return (("ok", int(result.ok)),)


def _pade_counts(args, kwargs, result):
    return (("attempts", int(result["attempts"])),)


def _call_count(args, kwargs, result):
    return (("calls", 1),)


# span name -> (module, attribute path, counter hook or None, record spans).
# field.arr runs hundreds of thousands of times per operation on some
# workloads, so it is counted without a span of its own.
TARGETS = {
    "field.ntt": ("dispmat.field", "PrimeField.ntt", _ntt_counts, True),
    "field.conv": ("dispmat.field", "PrimeField.conv", _conv_counts, True),
    "field.mat_mul": ("dispmat.field", "PrimeField.mat_mul", None, True),
    "field.arr": ("dispmat.field", "PrimeField.arr", _call_count, False),
    "polymat.pm_mul": ("dispmat.polymat", "pm_mul", None, True),
    "structmul.struct_mul": ("dispmat.structmul", "struct_mul", None, True),
    "structmul.mulQ": ("dispmat.structmul", "mulQ", None, True),
    "structmul.mul_rec": ("dispmat.structmul", "mul_rec", None, True),
    "poly.family_build": ("dispmat.poly", "family_build", None, True),
    "poly.xgcd": ("dispmat.poly", "xgcd", None, True),
    "poly.red_family": ("dispmat.poly", "red_family", None, True),
    "poly.crt_family": ("dispmat.poly", "crt_family", None, True),
    "poly.comb_family": ("dispmat.poly", "comb_family", None, True),
    "poly.geom_eval": ("dispmat.poly", "geom_eval", None, True),
    "poly.geom_interp": ("dispmat.poly", "geom_interp", None, True),
    "poly.poly_divrem": ("dispmat.poly", "poly_divrem", None, True),
    "poly.series_inv": ("dispmat.poly", "series_inv", None, True),
    "poly.red_transposed": ("dispmat.poly", "red_transposed", None, True),
    "operators.inverse_table": ("dispmat.operators", "inverse_table", None, True),
    "operators.op_invertible": ("dispmat.operators", "op_invertible", None, True),
    "operators.y_apply_family": ("dispmat.operators", "y_apply_family", None, True),
    "operators.modmul_apply": ("dispmat.operators", "modmul_apply", None, True),
    "generators.to_basic": ("dispmat.generators", "to_basic", None, True),
    "generators.to_hankel": ("dispmat.generators", "to_hankel", None, True),
    "generators.from_hankel_inverse": ("dispmat.generators", "from_hankel_inverse", None, True),
    "generators.gen_compress": ("dispmat.generators", "gen_compress", None, True),
    "generators.gen_matvec": ("dispmat.generators", "gen_matvec", None, True),
    "structsolve.largest_rec": ("dispmat.structsolve", "largest_rec", None, True),
    "structsolve.precond": ("dispmat.structsolve", "precond", None, True),
    "structsolve.densify_from_last_row": ("dispmat.structsolve", "densify_from_last_row", None, True),
    "structsolve.lp_inv": ("dispmat.structsolve", "lp_inv", _lp_inv_counts, True),
    "cli.pade_solve": ("dispmat.cli", "pade_solve", _pade_counts, True),
    "cli.pade_generator": ("dispmat.cli", "pade_generator", None, True),
}


class Tracer:
    """Records one span per call of each span target, and the counters of
    every target's hook, while installed.

    ``op_id`` is stamped on every span opened while it is set, so the spans
    of one benchmark operation share an identifier.
    """

    def __init__(self, targets: dict | None = None, package: str = "dispmat"):
        self.targets = TARGETS if targets is None else targets
        self.package = package
        self.names: list[str] = list(self.targets)
        self.spans: list = []  # (name index, start ns, end ns, parent index, op id)
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list = []

    # -- patching --------------------------------------------------------------

    def _wrap(self, idx: int, fn, hook, span: bool):
        spans, stack, counts = self.spans, self._stack, self.counts
        prefix = self.names[idx] + "."
        clock = time.perf_counter_ns

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            for quantity, amount in hook(args, kwargs, result):
                counts[prefix + quantity] += amount
            return result

        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (idx, start, end, parent, self.op_id)
            if hook is not None:
                for quantity, amount in hook(args, kwargs, result):
                    counts[prefix + quantity] += amount
            return result

        wrapper = traced if span else counted
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "traced")
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for idx, (module_name, path, hook, span) in enumerate(self.targets.values()):
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapper = self._wrap(idx, orig, hook, span)
            if outer:  # a method: the class attribute is the only binding
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, name, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls and self seconds."""
        selfs = self_times([(s[1], s[2], s[3]) for s in self.spans])
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for span, own in zip(self.spans, selfs):
            row = out[self.names[span[0]]]
            row["calls"] += 1
            row["self_s"] += own * 1e-9
        return out

    def write(self, path: str) -> None:
        """All spans as CSV: name, start_ns, end_ns, parent, op."""
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            names = self.names
            for idx, start, end, parent, op in self.spans:
                fh.write(f"{names[idx]},{start},{end},{parent},{op}\n")


def self_times(spans) -> list[int]:
    """Self time of each span given as (start, end, parent index).

    A span's self time is its duration minus the length of the union of its
    children's intervals, each clipped to the span's own interval.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (start, end, _) in enumerate(spans):
        ivs = sorted((max(spans[c][0], start), min(spans[c][1], end))
                     for c in children.get(i, ()))
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in ivs:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out
