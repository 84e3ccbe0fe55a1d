"""Per-layer spans and counters recorded from outside mvb.

``install`` replaces the public functions and methods of the layer
modules with wrappers that record a span (name, start, end, parent)
per call, and rebinds every name another mvb module imported with
``from .x import y``.  ``uninstall`` puts the originals back.  Nothing
in ``src/mvb`` knows about this; the wrappers live only in the
benchmark process that installed them.

Spans are kept in flat arrays while the pass runs and written out at
the end.  A span's self time is its duration minus the durations of
the spans directly inside it.  Constructors of ``IndexSet`` and
``Partition`` and the accessors in ``COUNTED_CALLS`` are only counted:
each runs hundreds of thousands to millions of times per pass, a span
each would swamp the run, and their time is part of their caller's
self time.
"""

import array
import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
import weakref

LAYERS = ("cubecat", "exactlin", "gauge", "atlas", "bundle", "cores", "split",
          "sections", "tower", "formats", "cli", "rand", "certify")
COUNTED_CONSTRUCTORS = (("cubecat", "IndexSet"), ("cubecat", "Partition"))
# Over 300k calls per corpus pass each (2.2M for DimAssignment.dim).
COUNTED_CALLS = ("gauge.DimAssignment.dim", "exactlin.MultiTensor.entry",
                 "exactlin.zero_vector", "exactlin.vec_add", "cubecat.full_set")
# Builder methods whose first argument is a cache key.
KEYED = ("split.DecompositionBuilder.splitting",
         "split.DecompositionBuilder.decomposition")
BYTES_IN = {"formats.parse": "formats.parse.bytes_in"}
BYTES_OUT = {"formats.dumps": "formats.dumps.bytes_out",
             "formats.canonical_bytes": "formats.canonical_bytes.bytes_out"}


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names = []
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack = [-1]
        self.counters = {}
        self.active = True
        self.keys_seen = {name: weakref.WeakKeyDictionary() for name in KEYED}
        self._restore = []

    def name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark glue without recording it."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def span_wrapper(self, name, fn):
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
        return wrapper

    def keyed_wrapper(self, name, fn):
        """Span wrapper that also counts distinct keys per builder."""
        inner = self.span_wrapper(name, fn)
        seen = self.keys_seen[name]
        recorder = self

        @functools.wraps(fn)
        def wrapper(builder, key, *args, **kwargs):
            if recorder.active:
                keys = seen.get(builder)
                if keys is None:
                    keys = seen[builder] = set()
                if key not in keys:
                    keys.add(key)
                    recorder.count(name + ".distinct_keys")
            return inner(builder, key, *args, **kwargs)
        return wrapper

    def bytes_wrapper(self, name, fn):
        inner = self.span_wrapper(name, fn)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            if recorder.active:
                if name in BYTES_IN:
                    recorder.count(BYTES_IN[name], len(args[0]))
                else:
                    recorder.count(BYTES_OUT[name], len(result))
            return result
        return wrapper

    def counting_wrapper(self, name, fn):
        counters = self.counters
        counters[name] = 0
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recorder.active:
                counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counting_new(self, name, new):
        counters = self.counters
        counters[name] = 0

        def counted(cls, *args, **kwargs):
            counters[name] += 1
            return new(cls, *args, **kwargs)
        counted.__wrapped__ = new
        return staticmethod(counted)

    def wrap(self, name, fn):
        if name in COUNTED_CALLS:
            return self.counting_wrapper(name + ".calls", fn)
        if name in KEYED:
            return self.keyed_wrapper(name, fn)
        if name in BYTES_IN or name in BYTES_OUT:
            return self.bytes_wrapper(name, fn)
        return self.span_wrapper(name, fn)

    # -- results ---------------------------------------------------------

    def summary(self):
        """Calls and self seconds per span name, plus the counters."""
        n = len(self.span_start)
        starts, ends = self.span_start, self.span_end
        parents, names = self.span_parent, self.span_name
        inside = [0.0] * n
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                inside[parent] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - inside[i]
        spans = {}
        for nid, name in enumerate(self.names):
            if calls[nid]:
                spans[name] = {"calls": calls[nid], "self_s": self_s[nid]}
        return {"spans": spans, "counters": dict(self.counters), "span_count": n}

    def write_spans(self, path):
        """Every span as four little-endian arrays after a JSON header line:
        name id (int32), parent index (int32, -1 at the root), start and
        end (float64 seconds on the process's perf_counter clock)."""
        header = {"names": self.names, "count": len(self.span_start),
                  "arrays": ["name:i4", "parent:i4", "start:f8", "end:f8"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                if sys.byteorder != "little":
                    column = array.array(column.typecode, column)
                    column.byteswap()
                column.tofile(handle)


def _members(module):
    """Public (name, owner, attribute, original) callables defined in module."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, value in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            if not inspect.isgeneratorfunction(value):
                yield "%s.%s" % (short, attr), module, attr, value
        elif inspect.isclass(value):
            if (short, attr) in COUNTED_CONSTRUCTORS:
                continue
            for method, member in sorted(vars(value).items()):
                if method.startswith("_") and method != "__init__":
                    continue
                func = member
                if isinstance(member, (staticmethod, classmethod)):
                    func = member.__func__
                if not inspect.isfunction(func) or inspect.isgeneratorfunction(func):
                    continue
                label = "init" if method == "__init__" else method
                yield "%s.%s.%s" % (short, attr, label), value, method, member


def install(recorder):
    """Wrap the layers' public callables; rebind imported names in mvb."""
    modules = [importlib.import_module("mvb." + layer) for layer in LAYERS]
    replaced = {}
    for module in modules:
        for name, owner, attr, original in list(_members(module)):
            if isinstance(original, (staticmethod, classmethod)):
                wrapped = type(original)(recorder.wrap(name, original.__func__))
            else:
                wrapped = recorder.wrap(name, original)
                replaced[original] = wrapped
            recorder._restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
    cubecat = importlib.import_module("mvb.cubecat")
    for _, cls_name in COUNTED_CONSTRUCTORS:
        cls = getattr(cubecat, cls_name)
        original = vars(cls)["__new__"]
        recorder._restore.append((cls, "__new__", original))
        cls.__new__ = recorder.counting_new(
            "cubecat.%s.new.calls" % cls_name, original.__func__)
    for module_name, module in sorted(sys.modules.items()):
        if module_name != "mvb" and not module_name.startswith("mvb."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replaced \
                    and getattr(module, attr) is value:
                recorder._restore.append((module, attr, value))
                setattr(module, attr, replaced[value])


def uninstall(recorder):
    """Put back every original, newest replacement first."""
    while recorder._restore:
        owner, attr, original = recorder._restore.pop()
        setattr(owner, attr, original)
