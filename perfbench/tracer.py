"""Per-layer tracing from outside the program.

`Tracer.install` replaces every public function of every `lfport` module,
and every public method of its classes, with a wrapper that counts calls and
measures time.  A function is wrapped once and the same wrapper is bound
wherever a module imported it (`from .lf import check_term` copies the
binding into `oracle`, `schema`, `subsume`, ...), so calls through any module
are seen.  Generator functions are left alone: their work happens while the
caller iterates, and it stays in the caller's self time.

Time is aggregated per function as `{calls, self_s, incl_s}` rather than
kept as one span per call.  A call stack gives self time: each frame
collects the time of the wrapped calls made under it.  A call made directly
from another activation of the same function is merged into that frame, so
recursive `check_term` calls are counted but their time is not counted
twice.  `incl_s` adds only the outermost activation of a function.

The three judgement bindings in `lfport.oracle` get an extra layer that
counts the oracle's judgements and their distinct forms up to
alpha-equivalence; the time spent building those keys is charged to no
function.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import types
from time import perf_counter

_JUDGEMENTS = ("check_context", "check_type", "check_term")


class Stat:
    __slots__ = ("calls", "self_s", "incl_s", "active", "items")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.active = 0
        self.items = 0  # sum of len(result), for functions that return collections


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.stack: list[list] = []  # frames: [stat, time of wrapped children]
        self.judgements: dict[str, int] = {kind: 0 for kind in _JUDGEMENTS}
        self.judgement_keys: set = set()

    def install(self, package) -> None:
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        prefix = package.__name__ + "."
        wrappers: dict[int, object] = {}
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType) and value.__module__.startswith(prefix):
                    if inspect.isgeneratorfunction(value):
                        continue
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self._wrap(value)
                    setattr(mod, name, wrappers[id(value)])
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    for attr, member in list(vars(value).items()):
                        if attr.startswith("_") or not isinstance(member, types.FunctionType):
                            continue
                        setattr(value, attr, self._wrap(member))
        oracle = importlib.import_module(prefix + "oracle")
        for kind in _JUDGEMENTS:
            if hasattr(oracle, kind):
                setattr(oracle, kind, self._judged(kind, getattr(oracle, kind)))

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def _wrap(self, fn):
        stat = self.stat(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}")
        stack = self.stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0] is stat:
                stat.calls += 1
                return fn(*args, **kwargs)
            frame = [stat, 0.0]
            stack.append(frame)
            stat.active += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if not stat.active:
                    stat.incl_s += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if isinstance(result, (tuple, list)):
                stat.items += len(result)
            return result

        return traced

    def _judged(self, kind: str, inner):
        stack = self.stack

        def judged(*args, **kwargs):
            start = perf_counter()
            self.judgements[kind] += 1
            self.judgement_keys.add((kind,) + tuple(alpha_canon(a) for a in args[1:]))
            if stack:
                stack[-1][1] += perf_counter() - start
            return inner(*args, **kwargs)

        return judged

    def snapshot(self) -> dict:
        out = {
            name: {"calls": s.calls, "self_s": s.self_s, "incl_s": s.incl_s, "items": s.items}
            for name, s in self.stats.items()
        }
        out["oracle.judgements"] = {
            "calls": sum(self.judgements.values()),
            "distinct": len(self.judgement_keys),
            "by_kind": {
                kind: (calls, sum(1 for k in self.judgement_keys if k[0] == kind))
                for kind, calls in self.judgements.items()
            },
        }
        return out


_FIELDS: dict[type, tuple[str, ...]] = {}


def alpha_canon(x, env: tuple = ()):
    """A hashable form of a syntax tree, equal for alpha-equivalent trees.

    A dataclass with `var` and `body` fields is read as a binder: names bound
    by it are replaced by their de Bruijn index wherever they occur below.
    Other dataclasses, tuples and leaves are kept as they are, so the key
    stays valid if the program changes how it represents binders.
    """
    if isinstance(x, str):
        for depth in range(len(env) - 1, -1, -1):
            if env[depth] == x:
                return ("#", len(env) - 1 - depth)
        return x
    if isinstance(x, tuple):
        return tuple(alpha_canon(e, env) for e in x)
    if dataclasses.is_dataclass(x):
        cls = type(x)
        if cls not in _FIELDS:
            _FIELDS[cls] = tuple(f.name for f in dataclasses.fields(cls))
        names = _FIELDS[cls]
        if "var" in names and "body" in names:
            inner = env + (x.var,)
            return (type(x).__name__,) + tuple(
                alpha_canon(getattr(x, n), inner if n == "body" else env)
                for n in names
                if n != "var"
            )
        return (type(x).__name__,) + tuple(alpha_canon(getattr(x, n), env) for n in names)
    return x
