"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps every public function of each ``period_index``
module, the public methods and arithmetic operators of its public classes,
and the constructors of its plain (non-dataclass) classes.  Each wrapper
is rebound under every name that held the original in any
``period_index`` module (``construct`` imports ``find_pair``, ``sieve``
imports ``group_structure``), so calls between modules are seen too.
``uninstall`` puts the originals back.  The program is not edited.

For every span key the tracer keeps the call count, the inclusive seconds
(outermost calls only, so recursion is not counted twice), the self
seconds (duration minus the spans it called) and the number of calls that
returned without raising.
"""

from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = ("cyclo", "localfield", "ecq", "kummer", "sieve", "construct", "cli")

# Operators whose time belongs to the class that defines them.
OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__pow__",
)

# Functions reported under one shared key.  The three certification
# routes are one span: nested calls between them are counted once.
ALIASES = {
    "construct.certify_mode_A": "construct.certify",
    "construct.certify_mode_B": "construct.certify",
    "construct.even_adjust": "construct.certify",
}

CALLS, INCL, SELF, DEPTH, RETURNED = range(5)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self._stack = [0.0]  # child seconds of each open span; [0] is the root
        self._undo: list = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, key: str):
        st = self.stats.setdefault(key, [0, 0.0, 0.0, 0, 0])
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            st[DEPTH] += 1
            t0 = clock()
            returned = False
            try:
                out = fn(*args, **kwargs)
                returned = True
                return out
            finally:
                dt = clock() - t0
                st[DEPTH] -= 1
                st[CALLS] += 1
                st[SELF] += dt - stack.pop()
                if not st[DEPTH]:
                    st[INCL] += dt
                if returned:
                    st[RETURNED] += 1
                stack[-1] += dt

        functools.update_wrapper(span, fn)
        return span

    def _targets(self, layer: str, mod):
        """(owner, attribute, original, wrapper factory, key) to rebind."""
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                if issubclass(obj, BaseException):
                    continue
                yield from self._class_targets(layer, obj)
            elif callable(obj):
                yield mod, name, obj, "%s.%s" % (layer, name)

    def _class_targets(self, layer: str, cls):
        plain = not hasattr(cls, "__dataclass_fields__")
        for name, raw in list(vars(cls).items()):
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if not isinstance(fn, types.FunctionType):
                continue
            if name == "__init__" and plain:
                key = "%s.%s" % (layer, cls.__name__)
            elif name in OPERATORS:
                key = "%s.%s.%s" % (layer, cls.__name__, fn.__name__.strip("_"))
            elif not name.startswith("_"):
                key = "%s.%s.%s" % (layer, cls.__name__, name)
            else:
                continue
            yield cls, name, raw, key

    def install(self):
        mods = {layer: sys.modules["period_index." + layer] for layer in LAYERS}
        wrapped = {}  # id(original) -> wrapper, so aliases share one span
        for layer, mod in mods.items():
            for owner, name, raw, key in self._targets(layer, mod):
                key = ALIASES.get(key, key)
                if id(raw) not in wrapped:
                    if isinstance(raw, (staticmethod, classmethod)):
                        wrapped[id(raw)] = type(raw)(self._wrap(raw.__func__, key))
                    else:
                        wrapped[id(raw)] = self._wrap(raw, key)
                self._undo.append((owner, name, raw))
                setattr(owner, name, wrapped[id(raw)])
        # rebind names imported into other modules
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None and getattr(mod, name) is obj:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, w)

    def uninstall(self):
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    # ------------------------------------------------------------- reports

    def calls(self, key: str) -> int:
        return self.stats.get(key, [0])[CALLS]

    def seconds(self, key: str) -> float:
        st = self.stats.get(key)
        return st[INCL] if st else 0.0

    def returned(self, key: str) -> int:
        st = self.stats.get(key)
        return st[RETURNED] if st else 0

    def self_seconds(self, layer: str) -> float:
        return sum(st[SELF] for key, st in self.stats.items() if key.split(".", 1)[0] == layer)

    def table(self) -> dict:
        """Every span: {key: {calls, s, self_s, returned}}."""
        return {
            key: {"calls": st[CALLS], "s": st[INCL], "self_s": st[SELF], "returned": st[RETURNED]}
            for key, st in sorted(self.stats.items())
        }
