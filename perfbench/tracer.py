"""Outside-in tracer: wraps the public functions and methods of the package.

Every public module-level function and every public plain method of a public
class defined in a module is replaced by a wrapper that records a span
(name, start, end, parent).  Modules import each other with
``from .regions import covered``, so each function is rebound in every module
that holds a reference to it, not only in the module that defines it.
``restore()`` puts every original back.

A span is named ``<module>.<function>``; same-named methods of one module
share a name.  Spans are kept in flat arrays in memory and summarised, or
written out, after the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array


class Tracer:
    def __init__(self, modules, result_sizes=None):
        """``modules``: mapping of layer name -> module object.

        ``result_sizes``: span name -> function of a call's return value
        giving a size, summed per name (for example classes emitted).
        """
        self.modules = dict(modules)
        self.result_sizes = dict(result_sizes or {})
        self.traced = set()      # names of all wrapped callables
        self.names = []          # name id -> span name
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_outer = array("b")   # 1: no open span of the same name
        self.sizes = {}
        self._patches = []       # (owner, attribute, original)
        self._stack = []         # indices of the open spans
        self._open = []          # name id -> open spans of that name

    def _wrap(self, name, fn):
        if name not in self.traced:
            self.traced.add(name)
            self.names.append(name)
            self._open.append(0)
        nid = self.names.index(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, outer = self.span_parent, self.span_outer
        stack = self._stack
        open_count = self._open
        clock = time.perf_counter
        size_of = self.result_sizes.get(name)
        sizes = self.sizes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            outer.append(open_count[nid] == 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            open_count[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_count[nid] -= 1
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if size_of is not None:
                sizes[name] = sizes.get(name, 0) + size_of(result)
            return result

        return wrapper

    def install(self):
        wrappers = {}            # id(original function) -> wrapper
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(
                        obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap("%s.%s" % (layer, attr),
                                                   obj)
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if mname.startswith("_") or not inspect.isfunction(
                                meth):
                            continue
                        self._patches.append((obj, mname, meth))
                        setattr(obj, mname,
                                self._wrap("%s.%s" % (layer, mname), meth))
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a recursive name.
        Self time is a span's duration minus the durations of its direct
        children, which nest inside it without overlapping one another.
        """
        n = len(self.span_name)
        starts, ends, parents = self.span_start, self.span_end, \
            self.span_parent
        child = array("d", [0.0]) * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        stats = [{"calls": 0, "s": 0.0, "self_s": 0.0} for _ in self.names]
        for i in range(n):
            st = stats[self.span_name[i]]
            dur = ends[i] - starts[i]
            st["calls"] += 1
            st["self_s"] += dur - child[i]
            if self.span_outer[i]:
                st["s"] += dur
        return dict(zip(self.names, stats))

    def count_under(self, name, ancestor):
        """Calls of ``name`` made while a span named ``ancestor`` is open."""
        if name not in self.names or ancestor not in self.names:
            return 0
        nid, aid = self.names.index(name), self.names.index(ancestor)
        n = len(self.span_name)
        under = bytearray(n)
        count = 0
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                under[i] = under[p] or self.span_name[p] == aid
            if under[i] and self.span_name[i] == nid:
                count += 1
        return count

    def write(self, path):
        """Write the spans: one JSON header line, then the raw arrays.

        The header names the arrays in order with their typecodes; each
        holds ``count`` native-endian items.  ``name`` indexes ``names``,
        ``parent`` is the index of the enclosing span or -1.
        """
        arrays = (("name", self.span_name), ("start", self.span_start),
                  ("end", self.span_end), ("parent", self.span_parent))
        header = {"names": self.names, "count": len(self.span_name),
                  "arrays": [[key, arr.typecode] for key, arr in arrays]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in arrays:
                arr.tofile(fh)
