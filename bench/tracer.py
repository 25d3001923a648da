"""Per-layer spans and counters, installed from outside the program.

`Tracer.install()` replaces each listed dansurf function with a wrapper.  A
function is often bound under several names (`substitute_poly` is imported
into expmaps, autgroup and isoclass; `Poly.__rmul__` is `Poly.__mul__`), so
every module attribute and class attribute of a `dansurf.*` module that is
the same function object is replaced.  `install()` then scans those
namespaces again and raises if any original is still bound anywhere.

A span records calls, total time (outermost calls only, so recursion is not
counted twice) and self time (its duration minus the time covered by the
spans it caused).  The time spent in the counter hooks themselves is left out
of every self time.  Scalar and field-equality counters count calls only.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from time import perf_counter

# (module, attribute path, metric prefix) of each function that gets a span.
SPANS = (
    ("dansurf.scalars", "nth_roots", "scalars.nth_roots"),
    ("dansurf.polyring", "Poly.__mul__", "polyring.Poly.mul"),
    ("dansurf.polyring", "Poly.__add__", "polyring.Poly.add"),
    ("dansurf.polyring", "Poly.substitute", "polyring.Poly.substitute"),
    ("dansurf.polyring", "Poly.variables", "polyring.Poly.variables"),
    ("dansurf.polyring", "Poly.coeff_of", "polyring.Poly.coeff_of"),
    ("dansurf.surface", "normal_form", "surface.normal_form"),
    ("dansurf.surface", "RElem.__init__", "surface.RElem.init"),
    ("dansurf.surface", "RElem.__mul__", "surface.RElem.mul"),
    ("dansurf.surface", "RElem.__pow__", "surface.RElem.pow"),
    ("dansurf.surface", "substitute_poly", "surface.substitute_poly"),
    ("dansurf.expmaps", "verify_exponential", "expmaps.verify_exponential"),
    ("dansurf.expmaps", "build_exponential", "expmaps.build_exponential"),
    ("dansurf.expmaps", "make_exponential", "expmaps.make_exponential"),
    ("dansurf.expmaps", "ExponentialMap.apply", "expmaps.ExponentialMap.apply"),
    ("dansurf.expmaps", "derivation", "expmaps.derivation"),
    ("dansurf.expmaps", "degree", "expmaps.degree"),
    ("dansurf.expmaps", "expand_in_slice", "expmaps.expand_in_slice"),
    ("dansurf.grading", "homogenize", "grading.homogenize"),
    ("dansurf.autgroup", "compose", "autgroup.compose"),
    ("dansurf.autgroup", "decompose", "autgroup.decompose"),
    ("dansurf.autgroup", "group_structure", "autgroup.group_structure"),
    ("dansurf.autgroup", "Automorphism.apply", "autgroup.Automorphism.apply"),
    ("dansurf.isoclass", "classify", "isoclass.classify"),
    ("dansurf.isoclass", "witness", "isoclass.witness"),
    ("dansurf.cancellation", "build_witness", "cancellation.build_witness"),
    ("dansurf.cancellation", "verify_witness", "cancellation.verify_witness"),
    ("dansurf.cli", "dispatch", "cli.dispatch"),
)
# Functions that are only counted: they run millions of times per workload.
COUNTS = (
    ("dansurf.scalars", "Scalar.__mul__", "scalars.Scalar.mul"),
    ("dansurf.scalars", "Scalar.__add__", "scalars.Scalar.add"),
    ("dansurf.scalars", "FieldSpec.__eq__", "scalars.FieldSpec.eq"),
)
# The parse_* and format_* functions of ioformats share one span each.
GROUPED = (("dansurf.ioformats", "parse_", "ioformats.parse"),
           ("dansurf.ioformats", "format_", "ioformats.format"))

# The per-layer metrics a traced run reports, in BENCHMARK.json order.
PER_LAYER = (
    "scalars.nth_roots.calls", "scalars.nth_roots.self_s", "scalars.nth_roots.scanned",
    "scalars.Scalar.mul.calls", "scalars.Scalar.add.calls", "scalars.FieldSpec.eq.calls",
    "polyring.Poly.mul.calls", "polyring.Poly.mul.self_s", "polyring.Poly.mul.term_pairs",
    "polyring.Poly.mul.terms_out", "polyring.Poly.mul.cancel_ratio",
    "polyring.Poly.mul.max_coeff_bits",
    "polyring.Poly.add.calls", "polyring.Poly.add.self_s",
    "polyring.Poly.substitute.calls", "polyring.Poly.substitute.self_s",
    "polyring.Poly.substitute.max_exp",
    "polyring.Poly.variables.calls", "polyring.Poly.variables.self_s",
    "polyring.Poly.coeff_of.calls", "polyring.Poly.coeff_of.self_s",
    "surface.normal_form.calls", "surface.normal_form.total_s", "surface.normal_form.self_s",
    "surface.RElem.init.calls", "surface.RElem.init.self_s",
    "surface.RElem.mul.calls", "surface.RElem.mul.self_s",
    "surface.RElem.pow.calls", "surface.RElem.pow.self_s", "surface.RElem.pow.max_exp",
    "surface.substitute_poly.calls", "surface.substitute_poly.self_s",
    "surface.substitute_poly.max_exp",
    "expmaps.verify_exponential.calls", "expmaps.verify_exponential.total_s",
    "expmaps.verify_exponential.per_op",
    "expmaps.build_exponential.calls", "expmaps.build_exponential.total_s",
    "expmaps.build_exponential.self_s",
    "expmaps.make_exponential.calls",
    "expmaps.ExponentialMap.apply.calls", "expmaps.ExponentialMap.apply.total_s",
    "expmaps.ExponentialMap.apply.self_s",
    "expmaps.derivation.total_s", "expmaps.degree.total_s",
    "expmaps.expand_in_slice.calls", "expmaps.expand_in_slice.total_s",
    "expmaps.expand_in_slice.self_s",
    "grading.homogenize.calls", "grading.homogenize.total_s", "grading.homogenize.self_s",
    "autgroup.compose.calls", "autgroup.compose.total_s", "autgroup.compose.self_s",
    "autgroup.decompose.total_s", "autgroup.group_structure.total_s",
    "autgroup.Automorphism.apply.total_s",
    "isoclass.classify.total_s", "isoclass.witness.total_s",
    "cancellation.build_witness.total_s", "cancellation.verify_witness.calls",
    "cancellation.verify_witness.total_s",
    "ioformats.parse.calls", "ioformats.parse.self_s",
    "ioformats.format.calls", "ioformats.format.self_s", "ioformats.format.out_chars",
    "cli.dispatch.self_s",
    "trace.overhead_ratio",
)
UNITS = {"calls": "count", "scanned": "count", "term_pairs": "count", "terms_out": "count",
         "total_s": "s", "self_s": "s", "cancel_ratio": "ratio", "overhead_ratio": "ratio",
         "max_coeff_bits": "bits", "max_exp": "exponent", "per_op": "1/op", "out_chars": "chars"}


def unit(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


# Span prefixes each workload must call at least once; together they cover
# every span and counter above, so no listed function goes unexercised.
EXPECTED_CALLS = {
    "cli-mix": {name for _, _, name in SPANS + COUNTS + GROUPED},
    "charp-powers": {
        "polyring.Poly.mul", "polyring.Poly.substitute", "surface.substitute_poly",
        "surface.RElem.pow", "surface.normal_form", "expmaps.build_exponential",
        "expmaps.verify_exponential", "grading.homogenize", "scalars.Scalar.mul",
    },
    "cylinder": {
        "polyring.Poly.mul", "polyring.Poly.variables", "surface.RElem.init",
        "cancellation.build_witness", "cancellation.verify_witness",
        "expmaps.expand_in_slice", "autgroup.Automorphism.apply", "scalars.FieldSpec.eq",
    },
}


def _coeff_bits(v) -> int:
    if isinstance(v, Fraction):
        return max(abs(v.numerator).bit_length(), v.denominator.bit_length())
    return abs(v).bit_length()


class Tracer:
    def __init__(self):
        self.spans = {}      # prefix -> [calls, total_s, self_s]
        self.depth = {}      # prefix -> active nesting depth
        self.counts = {}     # prefix -> [calls]
        self.extra = {}      # metric name -> value
        self.stack = []      # child time of each open span
        self.originals = {}  # id(original) -> original

    # ------------------------------------------------------------ wrappers --

    def _span(self, name, fn, hook=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        self.depth.setdefault(name, 0)
        depth, stack = self.depth, self.stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                stats[0] += 1
                stats[2] += dt - frame[0]
                if not depth[name]:
                    stats[1] += dt
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                h0 = perf_counter()
                hook(args, result)
                if stack:
                    stack[-1][0] += perf_counter() - h0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        box = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --------------------------------------------------------------- hooks --

    def _add(self, name, value):
        self.extra[name] = self.extra.get(name, 0) + value

    def _max(self, name, value):
        self.extra[name] = max(self.extra.get(name, 0), value)

    def _hooks(self):
        from dansurf.polyring import VAR_INDEX, Poly

        def nth_roots(args, result):
            p = args[0].field.characteristic
            if p:
                self._add("scalars.nth_roots.scanned", p - 1)

        def mul(args, result):
            if result is NotImplemented:
                return
            other = args[1]
            width = len(other.terms) if isinstance(other, Poly) else 1
            self._add("polyring.Poly.mul.term_pairs", len(args[0].terms) * width)
            self._add("polyring.Poly.mul.terms_out", len(result.terms))
            bits = max((_coeff_bits(c.value) for c in result.terms.values()), default=0)
            self._max("polyring.Poly.mul.max_coeff_bits", bits)

        def substitute(args, result):
            poly, bindings = args[0], args[1]
            idx = [VAR_INDEX[v] for v in bindings if v in VAR_INDEX]
            top = max((m[i] for m in poly.terms for i in idx), default=0)
            self._max("polyring.Poly.substitute.max_exp", top)

        def substitute_poly(args, result):
            top = max((max(m) for m in args[1].terms), default=0)
            self._max("surface.substitute_poly.max_exp", top)

        def power(args, result):
            self._max("surface.RElem.pow.max_exp", args[1])

        def fmt(args, result):
            if not self.depth["ioformats.format"]:
                self._add("ioformats.format.out_chars", len(result))

        return {
            "scalars.nth_roots": nth_roots,
            "polyring.Poly.mul": mul,
            "polyring.Poly.substitute": substitute,
            "surface.substitute_poly": substitute_poly,
            "surface.RElem.pow": power,
            "ioformats.format": fmt,
        }

    # --------------------------------------------------------- installation --

    @staticmethod
    def _namespaces():
        """Every dansurf module dict and every class dict defined in one."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dansurf" or mod_name.startswith("dansurf.")):
                continue
            yield mod
            for value in list(vars(mod).values()):
                if isinstance(value, type) and value.__module__ == mod_name:
                    yield value

    def _rebind(self, original, wrapper):
        self.originals[id(original)] = original
        found = 0
        for ns in self._namespaces():
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    found += 1
        if not found:
            raise RuntimeError(f"{original!r} is not bound in any dansurf namespace")

    def install(self):
        import dansurf.cli  # noqa: F401  (loads every module the CLI uses)

        hooks = self._hooks()
        for mod_name, path, name in SPANS + COUNTS:
            obj = sys.modules[mod_name]
            for part in path.split("."):
                obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
            if (mod_name, path, name) in COUNTS:
                self._rebind(obj, self._count(name, obj))
            else:
                self._rebind(obj, self._span(name, obj, hooks.get(name)))
        for mod_name, prefix, name in GROUPED:
            mod = sys.modules[mod_name]
            for key, fn in list(vars(mod).items()):
                if (key.startswith(prefix) and callable(fn)
                        and getattr(fn, "__module__", None) == mod_name):
                    self._rebind(fn, self._span(name, fn, hooks.get(name)))
        left = [f"{getattr(ns, '__name__', ns)}.{key}"
                for ns in self._namespaces() for key, value in vars(ns).items()
                if id(value) in self.originals and value is self.originals[id(value)]]
        if left:
            raise RuntimeError("unwrapped aliases left: " + ", ".join(sorted(left)))

    # -------------------------------------------------------------- report --

    def metrics(self, dispatches: int) -> dict:
        """Every per-layer value, named <module>.<function>.<stat>."""
        out = {}
        for name, (calls, total, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        for name, (calls,) in self.counts.items():
            out[f"{name}.calls"] = calls
        for name in ("scalars.nth_roots.scanned", "polyring.Poly.mul.term_pairs",
                     "polyring.Poly.mul.terms_out", "polyring.Poly.mul.max_coeff_bits",
                     "polyring.Poly.substitute.max_exp", "surface.substitute_poly.max_exp",
                     "surface.RElem.pow.max_exp", "ioformats.format.out_chars"):
            out[name] = self.extra.get(name, 0)
        pairs = out["polyring.Poly.mul.term_pairs"]
        out["polyring.Poly.mul.cancel_ratio"] = (
            1 - out["polyring.Poly.mul.terms_out"] / pairs if pairs else 0.0)
        out["expmaps.verify_exponential.per_op"] = (
            out["expmaps.verify_exponential.calls"] / dispatches if dispatches else 0.0)
        return out

    def problems(self, workload: str, wall_s: float) -> list:
        """Self-check of a traced run: listed functions that were never
        called, and self times that add up to more than the wall time."""
        calls = {name: s[0] for name, s in self.spans.items()}
        calls.update({name: c[0] for name, c in self.counts.items()})
        out = [f"{name} recorded no calls" for name in sorted(EXPECTED_CALLS[workload])
               if not calls.get(name)]
        self_sum = sum(s[2] for s in self.spans.values())
        if self_sum > wall_s:
            out.append(f"self times sum to {self_sum:.3f} s > traced wall {wall_s:.3f} s")
        return out
