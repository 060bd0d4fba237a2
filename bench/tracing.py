"""Per-layer spans and counts for the traced run, installed from outside the library.

``Tracer.install`` replaces the public functions and methods of each
``formalballs`` module with wrappers, everywhere a module holds a reference
to them, and wraps the callbacks the library stores (stage functions of
completion points, bound functions of upper reals, raw moduli, carrier
distances) so that their time is charged to the module that defined them.
Callbacks defined by the benchmark itself are charged to ``glue``.

A span's self time is its duration minus the time of the spans it caused;
spans are folded into per-layer totals as they close rather than stored.
Leaves called far more than 10^5 times per run record counts only and
their time is charged to the calling span: ``numbers.half_pow``,
``numbers.is_inf``, ``numbers.bmin``, ``numbers.bmax``,
``UpperReal.bound``, ``CompletionPoint.approx``, ``RealPoint.approx`` and
``ComplexPoint.approx``.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = (
    "numbers", "upper", "carriers", "balls", "completion", "maps",
    "function_locale", "reals", "gelfand", "cli",
)

COUNT_ONLY = {
    ("numbers", "half_pow"), ("numbers", "is_inf"), ("numbers", "bmin"),
    ("numbers", "bmax"), ("upper", "UpperReal.bound"),
    ("completion", "CompletionPoint.approx"), ("reals", "RealPoint.approx"),
    ("reals", "ComplexPoint.approx"),
}

METHOD_COUNTS = {("completion", "CompletionPoint.approx"): "completion.approx_calls"}

# cli helpers whose time is the request's parsing phase
CLI_PARSERS = ("parse_real_expr", "parse_map_expr", "_load_payload",
               "_carrier_from_json", "_open_from_json")


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.phase_s = defaultdict(float)
        self.stage_bits_max = 0
        self._stack = [0.0]
        self._depth = Counter()

    def reset(self):
        """Zero every total in place; installed wrappers keep their references."""
        self.self_s.clear()
        self.counts.clear()
        self.phase_s.clear()
        self.stage_bits_max = 0
        self._stack[:] = [0.0]
        self._depth.clear()

    # -- wrappers ----------------------------------------------------------

    def span(self, layer, fn, count=None):
        stack, self_s, counts = self._stack, self.self_s, self.counts

        def wrapper(*args, **kwargs):
            if count:
                counts[count] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                self_s[layer] += d - stack.pop()
                stack[-1] += d

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, count):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def phase(self, name, fn):
        """Inclusive time of the outermost call, for the cli request phases."""
        phase_s, depth = self.phase_s, self._depth

        def wrapper(*args, **kwargs):
            if depth[name]:
                return fn(*args, **kwargs)
            key = name
            if name == "parse" and depth["handler"]:
                key = "parse_in_handler"
            depth[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                phase_s[key] += perf_counter() - t0
                depth[name] -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def callback(self, fn, count, track_bits=False):
        """Wrap a stored callback, charging it to the module that defined it."""
        module = getattr(fn, "__module__", None) or ""
        if module.startswith("formalballs."):
            layer = module.split(".", 1)[1]
            if layer not in LAYERS:  # lawsuite: charged to its caller
                return self.counter(fn, count)
        else:
            layer = "glue"
        wrapped = self.span(layer, fn, count)
        if not (track_bits and layer == "reals"):
            return wrapped

        def bits(n):
            value = wrapped(n)
            if isinstance(value, Fraction):
                b = value.denominator.bit_length()
                if b > self.stage_bits_max:
                    self.stage_bits_max = b
            return value

        return bits

    # -- installation ------------------------------------------------------

    def install(self, extra_modules=()):
        from formalballs import carriers, completion, maps, upper

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "formalballs" or name.startswith("formalballs.")]
        replace = {}

        for layer in LAYERS:
            mod = sys.modules["formalballs." + layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replace[id(obj)] = (obj, self._wrap(layer, name, obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)

        # carriers: every distance function, including module-level carriers
        def traced_carrier(c):
            if isinstance(c, carriers.MetricCarrier) and not hasattr(c.dist, "__wrapped__"):
                object.__setattr__(c, "dist", self.span("carriers", c.dist, "carriers.dist_calls"))
            return c

        for name in ("rational_line", "finite_space", "finite_space_from_json",
                     "gaussian_rationals", "product_space"):
            orig, wrapped = replace[id(getattr(carriers, name))]
            replace[id(orig)] = (orig, _then(wrapped, traced_carrier))
        for m in modules:
            for obj in vars(m).values():
                traced_carrier(obj)

        # stored callbacks
        _after_init(completion.CompletionPoint, "_fn",
                    lambda fn: self.callback(fn, "completion.stage_evals", track_bits=True))
        _after_init(upper.UpperReal, "_fn",
                    lambda fn: self.callback(fn, "upper.raw_evals"))
        _after_init(maps.ModulusFn, "_raw",
                    lambda fn: self.callback(fn, "maps.modulus_raw_calls"))
        maps.ModulusFn.__call__ = self.span(
            "maps", maps.ModulusFn.__call__, "maps.modulus_calls")
        self._wrap_query_results(upper.UpperReal)

        # cli request phases
        cli = sys.modules["formalballs.cli"]
        for name in CLI_PARSERS:
            fn = getattr(cli, name)
            inner = replace[id(fn)][1] if id(fn) in replace else fn
            replace[id(fn)] = (fn, self.phase("parse", inner))
        for name, fn in list(vars(cli).items()):
            if name.startswith("_cmd_"):
                replace[id(fn)] = (fn, self.phase("handler", self.span("cli", fn)))
        orig_main, main_span = replace[id(cli.main)]
        replace[id(orig_main)] = (orig_main, self._traced_main(main_span))
        orig_bp, bp_span = replace[id(cli.build_parser)]
        replace[id(orig_bp)] = (orig_bp, self._traced_build_parser(bp_span))

        for m in modules + list(extra_modules):
            for name, obj in list(vars(m).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(m, name, hit[1])

    def _wrap(self, layer, name, fn):
        count = f"{layer}.calls"
        if (layer, name) in COUNT_ONLY:
            return self.counter(fn, count)
        counted = {
            ("maps", "apply_map"): "maps.apply_calls",
            ("completion", "member_query"): "completion.member_queries",
            ("function_locale", "check_axiom"): "function_locale.check_calls",
            ("function_locale", "holds"): "function_locale.holds_calls",
        }.get((layer, name), count)
        if layer == "function_locale" and name == "check_axiom":
            return self.span(layer, self._count_result(fn), counted)
        return self.span(layer, fn, counted)

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            static = isinstance(attr, staticmethod)
            fn = attr.__func__ if static else attr
            if not inspect.isfunction(fn):
                continue
            key = (layer, f"{cls.__name__}.{name}")
            count = METHOD_COUNTS.get(key, f"{layer}.calls")
            if key in COUNT_ONLY:
                w = self.counter(fn, count)
            else:
                w = self.span(layer, fn, count)
            setattr(cls, name, staticmethod(w) if static else w)

    def _wrap_query_results(self, upper_real):
        counts = self.counts
        traced = upper_real.less_than

        def less_than(self_, q, effort):
            counts["upper.less_than_calls"] += 1
            ans = traced(self_, q, effort)
            if ans.is_yes:
                counts["upper.less_than_yes"] += 1
            return ans

        upper_real.less_than = less_than

    def _count_result(self, fn):
        counts = self.counts

        def check_axiom(*args, **kwargs):
            report = fn(*args, **kwargs)
            if report.get("result") == "Pass":
                counts["function_locale.pass"] += 1
            return report

        return check_axiom

    def _traced_main(self, main_span):
        counts = self.counts
        timed = self.phase("main", main_span)

        def main(argv=None):
            counts["cli.requests"] += 1
            code = timed(argv)
            if code == 2:
                counts["cli.exit2"] += 1
            return code

        return main

    def _traced_build_parser(self, build_span):
        timed = self.phase("parse", build_span)
        phase = self.phase

        def build_parser():
            parser = timed()
            parser.parse_args = phase("parse", parser.parse_args)
            return parser

        return build_parser

    # -- report ------------------------------------------------------------

    def metrics(self, wall_traced, wall_untraced):
        c, s, ph = self.counts, self.self_s, self.phase_s
        ratio = lambda a, b: a / b if b else 0.0
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (s[layer], "s")
        out.update({
            "numbers.calls": (c["numbers.calls"], "count"),
            "upper.raw_evals": (c["upper.raw_evals"], "count"),
            "upper.less_than_calls": (c["upper.less_than_calls"], "count"),
            "upper.yes_ratio": (ratio(c["upper.less_than_yes"], c["upper.less_than_calls"]), "1"),
            "carriers.dist_calls": (c["carriers.dist_calls"], "count"),
            "balls.calls": (c["balls.calls"], "count"),
            "completion.approx_calls": (c["completion.approx_calls"], "count"),
            "completion.stage_evals": (c["completion.stage_evals"], "count"),
            "completion.stage_hit_ratio": (
                1 - ratio(c["completion.stage_evals"], c["completion.approx_calls"])
                if c["completion.approx_calls"] else 0.0, "1"),
            "completion.member_queries": (c["completion.member_queries"], "count"),
            "maps.apply_calls": (c["maps.apply_calls"], "count"),
            "maps.modulus_calls": (c["maps.modulus_calls"], "count"),
            "maps.modulus_raw_calls": (c["maps.modulus_raw_calls"], "count"),
            "function_locale.check_calls": (c["function_locale.check_calls"], "count"),
            "function_locale.holds_calls": (c["function_locale.holds_calls"], "count"),
            "function_locale.pass_ratio": (
                ratio(c["function_locale.pass"], c["function_locale.check_calls"]), "1"),
            "reals.stage_bits_max": (self.stage_bits_max, "bits"),
            "gelfand.calls": (c["gelfand.calls"], "count"),
            "cli.parse_s": (ph["parse"] + ph["parse_in_handler"], "s"),
            "cli.handler_s": (ph["handler"] - ph["parse_in_handler"], "s"),
            "cli.emit_s": (ph["main"] - ph["handler"] - ph["parse"], "s"),
            "cli.exit2_ratio": (ratio(c["cli.exit2"], c["cli.requests"]), "1"),
            "trace.overhead_ratio": (ratio(wall_traced, wall_untraced), "1"),
            "trace.glue_share": (ratio(s["glue"], wall_traced), "1"),
        })
        return out


def _then(fn, post):
    def wrapper(*args, **kwargs):
        return post(fn(*args, **kwargs))

    wrapper.__wrapped__ = fn
    return wrapper


def _after_init(cls, slot, wrap):
    """Make every new instance of cls store wrap(callback) in the given slot."""
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        setattr(self, slot, wrap(getattr(self, slot)))

    cls.__init__ = __init__
