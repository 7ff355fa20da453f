"""Outside-in tracer: wraps the public functions of each postliemi layer.

Nothing in the library knows it is traced.  ``Tracer.install`` rebinds every
traced function by object identity in every loaded ``postliemi.*`` module,
because ``from .x import y`` copies the binding (``derivations.diamond`` is
also ``postlie.derivation_diamond``), and it does the same for values of
module-level dicts (registries such as ``postlie.OPS``).  The ``__add__``
methods of the coefficient containers are replaced on their classes.

A layer is a library module.  Its traced boundaries are its public
module-level functions (leading underscore means private) plus the listed
``__add__`` methods, less the per-key helpers in ``UNTRACED``: those run
millions of times per pass for less work than recording a span costs, and
they are sort keys and guards of their caller's loop, so their time belongs
to the caller.  Each call records a span: boundary id, start, end,
parent span and task id, kept in flat arrays in memory and written out when
the pass ends.  Self time of a span is its duration minus the time its
direct child spans cover; a layer's self time is the sum over its spans.
Work in private helpers counts toward the public function that called them,
which is in the same module.
"""

from __future__ import annotations

import array
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = (
    "multiindex",
    "polyalg",
    "derivations",
    "postlie",
    "enveloping",
    "representation",
    "group",
    "coordinates",
)

# (module, class, boundary name); the name is what the metrics report
ADD_METHODS = (
    ("polyalg", "Polynomial", "add"),
    ("postlie", "LElement", "add"),
    ("enveloping", "SymElement", "sym_add"),
    ("enveloping", "TensorElement", "tensor_add"),
)

# per-key helpers (ranks, norms, degrees, dimension checks, key conversions)
UNTRACED = {
    "multiindex": {"n_norm", "add", "homogeneity", "hom_value", "compare_hom"},
    "derivations": {"derivation_degree", "derivation_rank", "check_derivation_dim"},
    "postlie": {
        "key_derivation",
        "key_poly",
        "key_degree",
        "structural_rank",
        "pbw_rank",
        "key_in_L",
        "check_key_dim",
    },
    "enveloping": {"sym_word", "word_mults", "sigma"},
}

# boundaries whose distinct argument tuples are counted for repeat_ratio
TRACK_ARGS = {
    "enveloping.ext_action_word",
    "enveloping.dual_coproduct_letter",
    "representation.psi_word",
    "representation.rho_bar_word",
    "representation.coaction_contributions",
}

clock = time.perf_counter


def _arg_key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


class Tracer:
    def __init__(self):
        self.names: list = []  # boundary id -> "layer.name"
        self.layer_of: list = []  # boundary id -> layer
        self.span_name = array.array("i")
        self.span_task = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.raised_spans: list = []
        self.seen_args: dict = {}
        self.stack: list = []
        self.task = -1

    def _boundary(self, layer: str, name: str) -> int:
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, bid: int):
        names, tasks, parents = self.span_name, self.span_task, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        raised = self.raised_spans
        seen = self.seen_args.setdefault(bid, set()) if self.names[bid] in TRACK_ARGS else None
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(bid)
            tasks.append(tracer.task)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            if seen is not None:
                seen.add(_arg_key(args, kwargs))
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.append(idx)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        """Wrap every public function of every layer module, then rebind."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "postliemi" or name.startswith("postliemi.")
        }
        replace: dict = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = mods[f"postliemi.{layer}"]
            for attr, value in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and attr not in UNTRACED.get(layer, ())
                    and inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and id(value) not in replace
                ):
                    replace[id(value)] = self._wrap(value, self._boundary(layer, attr))
        for layer, cls_name, name in ADD_METHODS:
            cls = getattr(mods[f"postliemi.{layer}"], cls_name)
            original = cls.__dict__["__add__"]
            cls.__add__ = self._wrap(original, self._boundary(layer, name))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replace:
                            value[k] = replace[id(v)]

    def wrap_root(self, fn, layer: str, name: str):
        """``fn`` traced as the root span of a task; set ``task`` before calling."""
        full = f"{layer}.{name}"
        bid = self.names.index(full) if full in self.names else self._boundary(layer, name)
        return self._wrap(fn, bid)

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Calls, inclusive seconds, self seconds and raised counts."""
        n = len(self.span_start)
        starts, ends, parents, ids = self.span_start, self.span_end, self.span_parent, self.span_name
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        nb = len(self.names)
        calls = [0] * nb
        incl = [0.0] * nb
        self_s: dict = {}
        for i in range(n):
            b = ids[i]
            dur = ends[i] - starts[i]
            calls[b] += 1
            incl[b] += dur
            layer = self.layer_of[b]
            self_s[layer] = self_s.get(layer, 0.0) + dur - child[i]
        raised: dict = {}
        for i in self.raised_spans:
            layer = self.layer_of[ids[i]]
            p = parents[i]
            if p < 0 or self.layer_of[ids[p]] != layer:
                raised[layer] = raised.get(layer, 0) + 1
        repeat = {
            self.names[b]: 1 - len(seen) / calls[b] if calls[b] else 0.0
            for b, seen in self.seen_args.items()
        }
        return {
            "spans": n,
            "calls": {self.names[b]: calls[b] for b in range(nb)},
            "inclusive_s": {self.names[b]: incl[b] for b in range(nb)},
            "self_s": self_s,
            "raised": raised,
            "repeat_ratio": repeat,
        }

    def write(self, stem: Path, seed: int) -> None:
        """Spans as raw arrays in ``<stem>.bin`` plus a JSON header."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        arrays = ("span_name", "span_task", "span_parent", "span_start", "span_end")
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for a in arrays:
                getattr(self, a).tofile(fh)
        header = {
            "seed": seed,
            "count": len(self.span_start),
            "arrays": [[a, getattr(self, a).typecode] for a in arrays],
            "boundaries": self.names,
            "layers": self.layer_of,
            "raised_spans": self.raised_spans,
        }
        stem.with_suffix(".json").write_text(json.dumps(header) + "\n")
