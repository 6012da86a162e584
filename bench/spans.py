"""Span tracer that times accmv layers from outside the package.

`Tracer.install` replaces selected public functions with timing wrappers in
every loaded `accmv` module namespace that binds them (a function imported by
name into four modules is wrapped in all four), and can also patch methods and
count property reads.  Each wrapped call records one span: name, start, end,
parent span and self time, where self time is the span's duration minus the
time its child spans cover.  Calls run in one thread and nest strictly, so the
children of a span never overlap.  Spans stay in memory until `write` is
called.  `uninstall` restores every original binding.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from accmv.errors import AccmvError


class Tracer:
    def __init__(self):
        self.spans = []                    # (name, start, end, parent index, self seconds)
        self.counts = defaultdict(float)   # "<span>.calls", "<span>.failed" (AccmvError), extra counters
        self._stack = []                   # [span index, seconds covered by children]
        self._patched = []                 # (owner, attribute, original value)

    # -- recording ---------------------------------------------------------
    def wrap(self, fn, name, on_result=None):
        spans, counts, stack = self.spans, self.counts, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except AccmvError:
                counts[name + ".failed"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = (name, start, end, parent, end - start - frame[1])
                counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(result, counts)
            return result

        return traced

    # -- patching ----------------------------------------------------------
    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install_function(self, module, attr, name, on_result=None):
        """Wrap `module.attr` wherever a loaded `accmv` module binds it."""
        original = getattr(module, attr)
        traced = self.wrap(original, name, on_result)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "accmv" or modname.startswith("accmv.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)

    def install_method(self, cls, attr, name):
        self._set(cls, attr, self.wrap(cls.__dict__[attr], name))

    def count_property(self, cls, attr, counter):
        getter = cls.__dict__[attr].fget
        counts = self.counts

        def counted(obj):
            counts[counter] += 1
            return getter(obj)

        self._set(cls, attr, property(counted))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def self_seconds(self, name) -> float:
        return sum(s[4] for s in self.spans if s[0] == name)

    def total_seconds(self, name) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def durations(self, name, first=0) -> list:
        return [s[2] - s[1] for s in self.spans[first:] if s[0] == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, self_s) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "self": self_s}) + "\n")
