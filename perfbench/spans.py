"""In-memory span recording around public functions of the program.

The traced run installs :class:`Recorder` wrappers from outside the
program (monkeypatching module and class attributes) and writes the
spans out when the process ends.  Each span is ``(id, parent, name,
start, end, attrs)``; the parent is the span open on the same thread
when it started.  A generator function is recorded as one span whose
duration is the time spent inside the generator's own ``next`` calls
(its items are produced while the consumer runs), parented on the span
open where the generator was created.

A wrap point that no longer exists is recorded in :attr:`Recorder.missing`
and reported as "layer not found" instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_clock = time.perf_counter


class Recorder:
    """Collects spans from wrapped callables, thread-safely."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self.missing: List[str] = []
        self.generator_steps = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._steps_lock = threading.Lock()

    # -- recording -------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: Any) -> "_Span":
        """Context manager recording one span (for the benchmark's own
        boundaries, such as one whole build)."""
        return _Span(self, name, attrs)

    def wrap_callable(self, fn: Callable, name: str,
                      attrs: Optional[Callable] = None,
                      on_result: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``.  ``attrs(args, kwargs)``
        and ``on_result(result, args)`` return extra span attributes."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        record = self.spans.append
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else None
            extra = attrs(args, kwargs) if attrs is not None else None
            stack.append(sid)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
            if on_result is not None:
                more = on_result(result, args)
                extra = {**(extra or {}), **more} if more else extra
            record((sid, parent, name, start, end, extra))
            return result
        return wrapper

    def _wrap_generator(self, fn: Callable, name: str) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            return recorder._timed_iter(fn(*args, **kwargs), name, parent)
        return wrapper

    def _timed_iter(self, it: Iterable, name: str, parent: Optional[int]):
        sid = next(self._ids)
        busy = 0.0
        steps = 0
        first = None
        gen_next = iter(it).__next__
        try:
            while True:
                t0 = _clock()
                if first is None:
                    first = t0
                try:
                    item = gen_next()
                except StopIteration:
                    busy += _clock() - t0
                    return
                busy += _clock() - t0
                steps += 1
                yield item
        finally:
            with self._steps_lock:
                self.generator_steps += steps
            start = first if first is not None else _clock()
            self.spans.append((sid, parent, name, start, start + busy,
                               {"steps": steps}))

    # -- installation ----------------------------------------------------
    def install(self, target: str, name: str,
                attrs: Optional[Callable] = None,
                on_result: Optional[Callable] = None) -> bool:
        """Wrap ``module:attr`` or ``module:Class.attr`` as span ``name``.

        Returns False (and notes ``target`` in :attr:`missing`) when the
        module, class or attribute does not exist.
        """
        module_name, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{name} ({target})")
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap_callable(raw.__func__, name,
                                                   attrs, on_result))
        elif callable(raw):
            wrapped = self.wrap_callable(raw, name, attrs, on_result)
        else:
            self.missing.append(f"{name} ({target})")
            return False
        setattr(owner, attr, wrapped)
        return True

    # -- output ----------------------------------------------------------
    def dump(self, path: str) -> None:
        doc = {"meta": {"missing": self.missing,
                        "generator_steps": self.generator_steps},
               "spans": [list(s) for s in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class _Span:
    __slots__ = ("recorder", "name", "attrs", "sid", "parent", "start")

    def __init__(self, recorder: Recorder, name: str,
                 attrs: Dict[str, Any]) -> None:
        self.recorder, self.name, self.attrs = recorder, name, attrs

    def __enter__(self) -> "_Span":
        stack = self.recorder._stack()
        self.sid = next(self.recorder._ids)
        self.parent = stack[-1] if stack else None
        stack.append(self.sid)
        self.start = _clock()
        return self

    def __exit__(self, *exc: Any) -> None:
        end = _clock()
        self.recorder._stack().pop()
        self.recorder.spans.append((self.sid, self.parent, self.name,
                                    self.start, end, self.attrs or None))


def wrapper_costs(n: int = 20000) -> Dict[str, float]:
    """Seconds one wrapped call and one wrapped generator step add,
    measured against the unwrapped forms on this machine."""
    rec = Recorder()

    def noop():
        return None

    def gen():
        yield from range(n)

    wrapped = rec.wrap_callable(noop, "calibration")
    wrapped_gen = rec.wrap_callable(gen, "calibration")

    def per_call(fn):
        t0 = _clock()
        for _ in range(n):
            fn()
        return (_clock() - t0) / n

    def per_step(fn):
        t0 = _clock()
        for _ in fn():
            pass
        return (_clock() - t0) / n

    best = {"call_s": float("inf"), "step_s": float("inf")}
    for _ in range(3):
        best["call_s"] = min(best["call_s"],
                             per_call(wrapped) - per_call(noop))
        best["step_s"] = min(best["step_s"],
                             per_step(wrapped_gen) - per_step(gen))
    return {k: max(v, 0.0) for k, v in best.items()}


# ---------------------------------------------------------------------------
# Reading spans back
# ---------------------------------------------------------------------------

class SpanSet:
    """Spans loaded from a dump (those starting at ``since`` or later;
    ``perf_counter`` is one clock across processes on Linux), with
    self times."""

    def __init__(self, doc: Dict[str, Any], since: float = 0.0) -> None:
        self.meta = doc["meta"]
        self.spans = [tuple(s) for s in doc["spans"] if s[3] >= since]
        child_time: Dict[int, float] = {}
        for sid, parent, _name, start, end, _attrs in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        self._child_time = child_time

    @classmethod
    def load(cls, path: str, since: float = 0.0) -> "SpanSet":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh), since)

    def named(self, name: str) -> List[Tuple]:
        return [s for s in self.spans if s[2] == name]

    def durations(self, name: str) -> List[float]:
        return [s[4] - s[3] for s in self.named(name)]

    def self_time(self, span: Tuple) -> float:
        """Duration minus the time its child spans cover."""
        return (span[4] - span[3]) - self._child_time.get(span[0], 0.0)

    def self_times(self, name: str) -> List[float]:
        return [self.self_time(s) for s in self.named(name)]
