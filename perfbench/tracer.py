"""Spans around the public functions of each conicval layer.

``Tracer.install`` replaces every wrapped function or method by a recording
wrapper, in its own module and in every conicval module that imported it,
so calls made from those modules are recorded too; ``uninstall`` puts the
originals back.  Each call records a span (name, start, end, parent span,
op id).  Self time is a span's duration minus the time its child spans
cover, accumulated online through a stack of open spans.

The fine-grained arithmetic spans (the HOT set) run millions of times in
one run, so they are only aggregated into calls and self time; the others
are also kept one by one, up to SPAN_CAP, and written out by ``dump``.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

perf = time.perf_counter

# metric prefix, module, attribute (Class.method or function)
SPANS = [
    ("fields.poly_gcd", "conicval.fields", ["poly_gcd"]),
    ("fields.ratfunc_new", "conicval.fields", ["RatFunc.__init__"]),
    ("fields.poly_mul", "conicval.fields", ["Poly.__mul__"]),
    ("fields.is_square", "conicval.fields", ["is_square"]),
    ("fields.factor", "conicval.fields", ["factor"]),
    ("fields.square_class_reduce", "conicval.fields", ["square_class_reduce"]),
    ("valuation.value_of", "conicval.valuation",
     ["PAdicValuation.value_of", "PlaceValuation.value_of",
      "InfinitePlaceValuation.value_of"]),
    ("valuation.residue_of", "conicval.valuation",
     ["PAdicValuation.residue_of", "PlaceValuation.residue_of",
      "InfinitePlaceValuation.residue_of"]),
    ("gauss.value_of", "conicval.gauss", ["GaussExtension.value_of"]),
    ("gauss.residue_of", "conicval.gauss", ["GaussExtension.residue_of"]),
    ("gauss.quadratic_extension_analysis", "conicval.gauss",
     ["quadratic_extension_analysis"]),
    ("quaternion.normalize", "conicval.quaternion", ["normalize"]),
    ("quaternion.decide_unramified_extension", "conicval.quaternion",
     ["decide_unramified_extension"]),
    ("quaternion.is_split", "conicval.quaternion", ["is_split"]),
    ("quaternion.hilbert_symbol", "conicval.quaternion", ["hilbert_symbol"]),
    ("quaternion.rational_support", "conicval.quaternion", ["rational_support"]),
    ("conic.quadruple", "conicval.conic", ["ConicFieldElement.quadruple"]),
    ("conic.element_mul", "conicval.conic", ["ConicFieldElement.__mul__"]),
    ("conic.wstar_value", "conicval.conic", ["DistinguishedExtension.value_of"]),
    ("conic.analyze", "conicval.conic", ["analyze"]),
    ("conic.family", "conicval.conic", ["rational_residue_family"]),
    ("parser.parse_element", "conicval.parser", ["parse_element"]),
]
# counted only: a span per finite-field multiplication would cost more than
# the multiplication
COUNTS = [("fields.ff_mul", "conicval.fields", ["FFElement.__mul__"])]
HOT = {"fields.poly_gcd", "fields.ratfunc_new", "fields.poly_mul",
       "valuation.value_of", "valuation.residue_of"}
SIZED = {"fields.poly_gcd"}
SPAN_CAP = 200_000


def poly_size(p) -> tuple[int, int]:
    """(degree, coefficient bits) of a Poly, descending into rational
    function coefficients; bits of a rational are those of its larger part."""
    deg, bits = len(p.coeffs) - 1, 0
    for c in p.coeffs:
        if isinstance(c, Fraction):
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        elif hasattr(c, "num") and hasattr(c, "den"):
            for part in (c.num, c.den):
                d, b = poly_size(part)
                deg, bits = max(deg, d), max(bits, b)
    return deg, bits


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0] for name, _, _ in SPANS + COUNTS}
        self.stack = []            # open spans: [child time, span id]
        self.spans = []            # (id, name, start, end, parent, op)
        self.next_id = 1
        self.op = None
        self.sizes = {}            # op id -> [max degree, max coefficient bits]
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        for name, module, attrs in SPANS + COUNTS:
            counted = (name, module, attrs) in COUNTS
            for attr in attrs:
                owner, orig = _resolve(module, attr)
                wrapper = (self._counter(name, orig) if counted
                           else self._span(name, orig))
                self._rebind(owner, attr, orig, wrapper)

    def _rebind(self, owner, attr, orig, wrapper):
        if "." in attr:
            # the method and its aliases, such as __rmul__ = __mul__
            targets = [owner]
        else:
            targets = [m for n, m in list(sys.modules.items())
                       if n == "conicval" or n.startswith("conicval.")]
        for target in targets:
            for key, val in list(vars(target).items()):
                if val is orig:
                    setattr(target, key, wrapper)
                    self._undo.append((target, key, orig))

    def uninstall(self):
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    # -- wrappers -----------------------------------------------------------

    def _counter(self, name, fn):
        stat = self.stats[name]

        def counted(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, name, fn):
        stat = self.stats[name]
        stack, spans = self.stack, self.spans
        keep = name not in HOT
        sized = name in SIZED

        def traced(*args, **kwargs):
            if sized:
                self._note_sizes(args)
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                if stack and stack[-1] is frame:
                    stack.pop()
                d = t1 - t0
                stat[0] += 1
                stat[1] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if keep and len(spans) < SPAN_CAP:
                    spans.append((sid, name, t0, t1, parent, self.op))
        traced.__wrapped__ = fn
        return traced

    def _note_sizes(self, polys):
        size = self.sizes.setdefault(self.op, [0, 0])
        for p in polys:
            d, b = poly_size(p)
            if d > size[0]:
                size[0] = d
            if b > size[1]:
                size[1] = b

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id):
        """Open the op's root span, the parent of its layer spans."""
        self.op = op_id
        self._depth = len(self.stack)
        self._root = self.next_id
        self.next_id += 1
        self._t0 = perf()
        self.stack.append([0.0, self._root])

    def end_op(self):
        # a budget cut-off can leave inner frames open; drop them
        del self.stack[self._depth:]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((self._root, "bench.op", self._t0, perf(), None,
                               self.op))
        self.op = None

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            if name not in {n for n, _, _ in COUNTS}:
                out[f"{name}.self_s"] = (self_s, "s")
        sizes = list(self.sizes.values()) or [[0, 0]]
        out["fields.max_degree"] = (max(s[0] for s in sizes), "count")
        out["fields.max_coeff_bits"] = (max(s[1] for s in sizes), "count")
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "op": op}))
                fh.write("\n")


def _resolve(module, attr):
    mod = sys.modules.get(module) or __import__(module, fromlist=["_"])
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        return cls, vars(cls)[meth]
    return mod, getattr(mod, attr)

