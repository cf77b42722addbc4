"""Per-layer counts and self times, by wrapping permgate from outside.

``Tracer.install()`` replaces every public function of the six layer
modules, and every public or dunder method of the classes they define,
with a wrapper that keeps a call stack in memory.  A frame's
self time is its duration minus the time of the wrapped calls it made, and
is added to its layer's bucket; nothing is written until the run ends.
Names bound by ``from ... import`` in other permgate modules are rebound
too, so the CLI's calls go through the wrappers.

Bucket rules: each module is one layer, except ``circuit``, which is split
into semantics (embed, circuit_permutation), cancel
(cancel_adjacent_inverses), io (parse, format, load, save) and rewrite
(everything else, e.g. optimize and its scan).  Circuit classes' methods
take the bucket of the circuit call that uses them.  Private helpers are
not wrapped and count toward the public function that calls them.  So do
properties and ``Permutation.__call__``: they are one-line accessors
called millions of times (``__call__`` 1.4 million times per semantics
round, from ``embed``), where a wrapper would cost more than the work it
measures and its cost would land in the caller's self time.
A generator function's body counts toward whoever iterates it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("perm", "counting", "classify", "templates", "circuit", "cli")

_CIRCUIT_BUCKETS = {
    "embed": "circuit.semantics",
    "circuit_permutation": "circuit.semantics",
    "cancel_adjacent_inverses": "circuit.cancel",
    "parse_circuit": "circuit.io",
    "format_circuit": "circuit.io",
    "load_circuit": "circuit.io",
    "save_circuit": "circuit.io",
}

# wrapped name -> counter it bumps, and how much by (None: once per call)
_COUNTERS = {
    "perm.Permutation.__init__": ("perm.constructed", None),
    "perm.Permutation.__mul__": ("perm.composed", None),
    "perm.Permutation.inverse": ("perm.inverted", None),
    "classify.is_separable": ("classify.gates_visited", None),
    "classify.separable_factors": ("classify.factor_attempts", None),
    "classify.Bipartition.__post_init__": ("classify.bipartitions_built", None),
    "templates.two_gate_templates": ("templates.candidates",
                                     lambda args, result: len(result)),
    "templates.expand_template": ("templates.candidates",
                                  lambda args, result: len(result)),
    "templates.TemplateStore.subsumes": ("templates.subsumes_calls", None),
    "templates.Template.canonical_key": ("templates.canonical_keys", None),
    "templates.TemplateStore.add": ("templates.stored",
                                    lambda args, result: int(result is True)),
    "circuit.Circuit.replaced": ("circuit.rewrites", None),
    "circuit.embed": ("circuit.embeds", None),
    "circuit.cancel_adjacent_inverses": (
        "circuit.cancelled",
        lambda args, result: len(args[0].gates) - len(result.gates)),
}
_INCLUSIVE = {"templates.parse_store": "templates.parse"}
_SKIP_METHODS = {"__setattr__", "__delattr__", "__getattribute__",
                 "__init_subclass__", "__class_getitem__", "__call__"}

# (metric, unit) reported by a traced run; times are seconds per round
METRICS = (
    ("perm.constructed", "count"), ("perm.composed", "count"),
    ("perm.inverted", "count"), ("perm.self_s", "s"),
    ("counting.calls", "count"), ("counting.self_s", "s"),
    ("classify.gates_visited", "count"), ("classify.factor_attempts", "count"),
    ("classify.bipartitions_built", "count"), ("classify.self_s", "s"),
    ("templates.candidates", "count"), ("templates.subsumes_calls", "count"),
    ("templates.canonical_keys", "count"), ("templates.stored", "count"),
    ("templates.parse_s", "s"), ("templates.self_s", "s"),
    ("circuit.rewrites", "count"), ("circuit.rewrite_s", "s"),
    ("circuit.embeds", "count"), ("circuit.semantics_s", "s"),
    ("circuit.cancelled", "gates"), ("circuit.cancel_s", "s"),
    ("circuit.io_s", "s"), ("cli.self_s", "s"),
)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [bucket, time spent in wrapped callees]
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.per_function_s: dict[str, float] = defaultdict(float)

    # --- wrapping ------------------------------------------------------------

    def _wrap(self, fn, qualname: str, bucket: str | None):
        stack = self.stack
        self_s, inclusive_s = self.self_s, self.inclusive_s
        calls, counts, per_fn = self.calls, self.counts, self.per_function_s
        counter = _COUNTERS.get(qualname)
        inclusive = _INCLUSIVE.get(qualname)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if bucket is not None:
                frame_bucket = bucket
            elif stack and stack[-1][0].startswith("circuit."):
                frame_bucket = stack[-1][0]
            else:
                frame_bucket = "circuit.rewrite"
            frame = [frame_bucket, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                own = elapsed - frame[1]
                self_s[frame_bucket] += own
                per_fn[qualname] += own
                calls[qualname] += 1
                if stack:
                    stack[-1][1] += elapsed
                if inclusive:
                    inclusive_s[inclusive] += elapsed
            if counter is not None:
                name, amount = counter
                counts[name] += 1 if amount is None else amount(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Wrap the layer modules in place; call once, before any operation."""
        modules = {name: importlib.import_module(f"permgate.{name}")
                   for name in LAYERS}
        replaced = {}
        for name, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(value):
                    self._wrap_class(name, value)
                elif inspect.isfunction(value):
                    bucket = self._bucket(name, attr)
                    wrapped = self._wrap(value, f"{name}.{attr}", bucket)
                    replaced[id(value)] = wrapped
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("permgate"):
                for attr, value in list(vars(module).items()):
                    if id(value) in replaced and inspect.isfunction(value):
                        setattr(module, attr, replaced[id(value)])

    @staticmethod
    def _bucket(layer: str, attr: str | None) -> str | None:
        if layer != "circuit":
            return layer
        return _CIRCUIT_BUCKETS.get(attr) if attr else None

    def _wrap_class(self, layer: str, cls) -> None:
        bucket = self._bucket(layer, None)
        for attr, value in list(vars(cls).items()):
            public = not attr.startswith("_") or (
                attr.startswith("__") and attr.endswith("__"))
            if not public or attr in _SKIP_METHODS:
                continue
            qualname = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                wrapped = type(value)(self._wrap(value.__func__, qualname, bucket))
            elif inspect.isfunction(value):
                wrapped = self._wrap(value, qualname, bucket)
            else:
                continue
            setattr(cls, attr, wrapped)

    # --- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Every reported metric's running total so far."""
        b = self.self_s
        totals = {name: self.counts[name] for name, unit in METRICS
                  if unit != "s"}
        totals["counting.calls"] = sum(
            n for name, n in self.calls.items() if name.startswith("counting."))
        totals.update({
            "perm.self_s": b["perm"],
            "counting.self_s": b["counting"],
            "classify.self_s": b["classify"],
            "templates.self_s": b["templates"],
            "templates.parse_s": self.inclusive_s["templates.parse"],
            "circuit.rewrite_s": b["circuit.rewrite"],
            "circuit.semantics_s": b["circuit.semantics"],
            "circuit.cancel_s": b["circuit.cancel"],
            "circuit.io_s": b["circuit.io"],
            "cli.self_s": b["cli"],
        })
        return totals

    def per_function(self) -> dict:
        return {name: {"calls": self.calls[name],
                       "self_s": self.per_function_s[name]}
                for name in sorted(self.calls)}
