"""Spans and call counts at reflen's public-function boundaries, recorded
from outside the package.

``Tracer.install`` wraps every public function defined in each layer
module, rebinding every module attribute that refers to it (so
``oracle.reflection_length_gl`` is traced as well as
``factorization.reflection_length_gl``), plus ``Matrix.mul``.  The hottest
leaves, ``Matrix`` construction and field ``coerce``, are counted but get no
span: their time stays in the caller's self time.  Spans are kept in
in-memory arrays (name, start, end, parent, operation id) and written out
once the run is over.  The wrappers are in place only around traced passes.
"""

import contextlib
import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("fields", "linalg", "reflection", "factorization", "affine", "oracle",
          "matrixio", "cli")
# (module, class, method, label, spanned)
METHODS = (
    ("linalg", "Matrix", "mul", "linalg.Matrix.mul", True),
    ("linalg", "Matrix", "__init__", "linalg.Matrix", False),
    ("fields", "PrimeField", "coerce", "fields.coerce", False),
    ("fields", "RationalField", "coerce", "fields.coerce", False),
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.depth = []
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.outer = array("b")  # no enclosing span of the same name
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self.stack = [-1]
        self.current_op = -1
        self.active = False
        self.installed = set()
        self.absent = set()
        # span name -> callable(args, kwargs, result), run after the span ends
        self.observers = {}
        self._undo = []

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return self._ids[name]

    def _span(self, fn, name):
        t = self
        nid = self._intern(name)
        depth = self.depth
        clock = self.clock
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not t.active:
                return fn(*args, **kwargs)
            i = len(t.start)
            d = depth[nid]
            depth[nid] = d + 1
            t.name.append(nid)
            t.parent.append(t.stack[-1])
            t.op.append(t.current_op)
            t.outer.append(d == 0)
            t.end.append(0.0)
            t.stack.append(i)
            t.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t.end[i] = clock()
                t.stack.pop()
                depth[nid] = d
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    def _counter(self, fn, name):
        t = self
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if t.active:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, package):
        prefix = package.__name__ + "."
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            try:
                mod = importlib.import_module(prefix + layer)
            except ImportError:
                self.absent.add(layer)
                continue
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = "%s.%s" % (layer, attr)
                    wrappers[id(obj)] = (obj, self._span(obj, name))
                    self.installed.add(name)
        for layer, cls_name, meth, label, spanned in METHODS:
            mod = sys.modules.get(prefix + layer)
            cls = getattr(mod, cls_name, None)
            fn = vars(cls).get(meth) if isinstance(cls, type) else None
            if fn is None:
                self.absent.add("%s.%s.%s" % (layer, cls_name, meth))
                continue
            wrap = self._span if spanned else self._counter
            self._rebind(cls, meth, fn, wrap(fn, label))
            self.installed.add(label)
        for modname, mod in list(sys.modules.items()):
            if modname != package.__name__ and not modname.startswith(prefix):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(mod, attr, obj, hit[1])
        self.active = True

    @contextlib.contextmanager
    def installed_in(self, package):
        self.install(package)
        try:
            yield
        finally:
            self.uninstall()

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        self.active = False
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Untraced stretch inside a traced phase (input copies, checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def table(self):
        """name -> [calls, inclusive seconds, self seconds].  Inclusive time
        counts only the outermost span of a name, so recursion is not
        counted twice; self time is the span minus its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        stats = {name: [0, 0.0, 0.0] for name in self.installed}
        for i, nid in enumerate(self.name):
            st = stats[self.names[nid]]
            st[0] += 1
            if self.outer[i]:
                st[1] += dur[i]
            st[2] += dur[i] - child[i]
        for name, count in self.counts.items():
            stats[name][0] = count
        return stats

    def root_seconds(self):
        """Time covered by top-level spans of measured operations (ids from 1;
        0 is the traced set-up)."""
        return sum(e - s for s, e, p, o in zip(self.start, self.end, self.parent, self.op)
                   if p < 0 and o > 0)

    def write(self, path):
        """All spans as gzipped CSV, times relative to the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for nid, s, e, p, o in zip(self.name, self.start, self.end, self.parent,
                                        self.op):
                fh.write("%s,%.7f,%.7f,%d,%d\n" % (self.names[nid], s - t0, e - t0, p, o))
