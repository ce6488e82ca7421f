"""In-memory spans around the public functions of the quadrics layers.

The spans are installed from outside the package: every wrapped function
is replaced on its home module and on each module that bound the name at
import (`cli`, `engine`, `enumerative` and the package itself), and the
two presentation methods and `TruncatedRing.__init__` are replaced on
their classes.  `burnside`, `scalars` and `grading` are called millions
of times per run and get no spans; their cost lands in the self time of
whichever layer calls them.

A span is (id, parent id, op id, layer, phase, start ns, end ns).  Self
time is the span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter_ns

# (layer name, home module, attribute); methods are patched on the class.
FUNCTION_LAYERS = (
    ("presentation.load", "presentation", "load_presentation"),
    ("engine.multiply", "engine", "multiply"),
    ("engine.normal_form", "engine", "normal_form"),
    ("engine.solve", "engine", "solve_with_coefficients"),
    ("engine.verify", "engine", "verify_presentation"),
    ("enumerative.euler_sym3", "enumerative", "euler_sym3"),
    ("cli.run", "cli", "run"),
)
METHOD_LAYERS = (
    ("nonequiv.ring_build", "nonequiv", "TruncatedRing", "__init__"),
    ("presentation.eval_mono", "presentation", "SpacePresentation", "eval_mono"),
    ("presentation.coset_basis", "presentation", "SpacePresentation", "coset_basis"),
)
LAYERS = tuple(name for name, *_ in METHOD_LAYERS + FUNCTION_LAYERS)


class Recorder:
    """Collects spans and per-(phase, layer) call counts and self times."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()  # layer-specific counters, timed phase
        self.phase = "setup"
        self.op = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0

    def wrap(self, layer: str, fn, on_result=None, on_error=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec._next_id += 1
            frame = [rec._next_id, 0]
            parent = rec._stack[-1][0] if rec._stack else 0
            rec._stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if on_error is not None:
                    on_error(rec, err)
                raise
            finally:
                end = perf_counter_ns()
                rec._stack.pop()
                duration = end - start
                if rec._stack:
                    rec._stack[-1][1] += duration
                key = (rec.phase, layer)
                rec.calls[key] += 1
                rec.self_ns[key] += duration - frame[1]
                rec.spans.append((frame[0], parent, rec.op, layer, rec.phase,
                                  start, end))
            if on_result is not None:
                on_result(rec, args, result)
            return result

        return traced

    def count(self, name: str, n: int = 1) -> None:
        if self.phase == "timed":
            self.counts[name] += n

    def install(self) -> None:
        """Replace every layer function with its traced wrapper."""
        import importlib

        import quadrics
        from quadrics.burnside import BurnsideScalar
        from quadrics.engine import AmbiguousSolveError
        from workloads import failure_kind

        def solved(rec, args, result):
            space = args[0]
            _, records, ambiguous = result
            rec.count("engine.solve.ambiguous", int(ambiguous))
            rec.count("engine.solve.unknowns", sum(
                2 if isinstance(c, BurnsideScalar) else 1
                for _, _, c in records))
            rec.count("engine.solve.rows", space.underlying.rank() + sum(
                ring.rank() for ring in space.fixed_rings))

        def solve_failed(rec, err):
            if isinstance(err, AmbiguousSolveError):
                rec.count("engine.solve.ambiguous_raised")

        def multiply_failed(rec, err):
            if failure_kind(err) == "step_bound":
                rec.count("engine.multiply.step_bound_trips")

        hooks = {"engine.solve": (solved, solve_failed),
                 "engine.multiply": (None, multiply_failed)}
        modules = [quadrics] + [importlib.import_module(f"quadrics.{name}")
                                for name in ("presentation", "engine",
                                             "enumerative", "cli")]
        for layer, home, attr in FUNCTION_LAYERS:
            original = getattr(importlib.import_module(f"quadrics.{home}"), attr)
            wrapped = self.wrap(layer, original, *hooks.get(layer, ()))
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)
        for layer, home, cls_name, attr in METHOD_LAYERS:
            cls = getattr(importlib.import_module(f"quadrics.{home}"), cls_name)
            setattr(cls, attr, self.wrap(layer, getattr(cls, attr)))

    def layer_totals(self, phase: str) -> dict[str, tuple[int, int]]:
        """{layer: (calls, self ns)} for one phase."""
        return {layer: (self.calls[(phase, layer)], self.self_ns[(phase, layer)])
                for layer in LAYERS}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\top\tlayer\tphase\tstart_ns\tend_ns\n")
            for span in self.spans:
                out.write("\t".join(map(str, span)) + "\n")
