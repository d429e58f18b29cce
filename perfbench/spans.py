"""Span recorder for the traced benchmark run.

The tracer replaces the public functions and methods of each dyadlab module
with thin wrappers that open and close a span, and restores the originals
on exit, so untraced runs execute the unmodified code.  A name bound into
another module by ``from .x import y`` is replaced there too.  Spans stay
in memory; self time is computed from them after the run.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("tree", "weights", "forms", "shifts", "embedding", "bellman", "cli")

# numpy.linalg calls made while a forms span is innermost are counted as
# children of that span (the dense SVD / eigensolver cost of form search)
LINALG = {"svd": "svd", "eigh": "eig", "eigvalsh": "eig"}

# span record fields
NAME, START, END, PARENT, ITEM = range(5)


class Recorder:
    """In-memory spans: [name, start, end, parent index, item id]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = -1

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item])
        self.stack.append(idx)

    def close(self):
        self.spans[self.stack.pop()][END] = time.perf_counter()

    def innermost(self):
        return self.spans[self.stack[-1]][NAME] if self.stack else ""


def write(path, recorders):
    """Gzipped CSV of the spans of every recorder (one per traced pass),
    times relative to the pass's first span."""
    with gzip.open(path, "wt") as fh:
        fh.write("pass,name,start_s,end_s,parent,item\n")
        for k, rec in enumerate(recorders):
            t0 = rec.spans[0][START] if rec.spans else 0.0
            for name, start, end, parent, item in rec.spans:
                fh.write(f"{k},{name},{start - t0:.9f},{end - t0:.9f},{parent},{item}\n")


def self_times(spans):
    """Per-span self time: duration minus the durations of its child spans.

    Spans nest (one thread), so children never overlap each other."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def aggregate(spans):
    """{name: [calls, self_s]} per span name, plus {module: self_s}."""
    per_name = defaultdict(lambda: [0, 0.0])
    per_module = defaultdict(float)
    for s, self_s in zip(spans, self_times(spans)):
        entry = per_name[s[NAME]]
        entry[0] += 1
        entry[1] += self_s
        per_module[s[NAME].split(".", 1)[0]] += self_s
    return dict(per_name), dict(per_module)


def _span_wrapper(fn, name, rec):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close()

    return wrapper


def _linalg_wrapper(fn, name, rec):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.innermost().startswith("forms."):
            return fn(*args, **kwargs)
        rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close()

    return wrapper


def _wrappable(obj):
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


class Tracer:
    """Context manager that installs span wrappers and removes them on exit.

    ``patched`` lists (owner, attribute, original) for every replacement, in
    order, so exit restores exactly what was there.  ``form_bytes`` is the
    total nbytes of m, left_map and right_map over every AbsBilinearForm
    built while tracing.
    """

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.patched = []
        self.form_bytes = 0

    def _set(self, owner, attr, value):
        self.patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def _install(self):
        import numpy.linalg

        pkg = importlib.import_module("dyadlab")
        mods = {m: importlib.import_module(f"dyadlab.{m}") for m in MODULES}
        wrappers = {}  # id(original function) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if _wrappable(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = _span_wrapper(obj, f"{short}.{attr}", self.rec)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, f"{short}.{attr}")
        # rebind every module-level name that refers to a wrapped function,
        # including names imported into other modules and the package
        for owner in (pkg, *mods.values()):
            for attr, obj in list(vars(owner).items()):
                if callable(obj) and id(obj) in wrappers:
                    self._set(owner, attr, wrappers[id(obj)])
        for attr, kind in LINALG.items():
            self._set(numpy.linalg, attr, _linalg_wrapper(
                getattr(numpy.linalg, attr), f"numpy.linalg.{kind}", self.rec))
        self._hook_form_init(mods["forms"].AbsBilinearForm)

    def _wrap_class(self, cls, prefix):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, classmethod) and _wrappable(raw.__func__):
                self._set(cls, attr, classmethod(_span_wrapper(raw.__func__, name, self.rec)))
            elif isinstance(raw, staticmethod) and _wrappable(raw.__func__):
                self._set(cls, attr, staticmethod(_span_wrapper(raw.__func__, name, self.rec)))
            elif _wrappable(raw):
                self._set(cls, attr, _span_wrapper(raw, name, self.rec))

    def _hook_form_init(self, cls):
        original = cls.__init__
        tracer = self

        @functools.wraps(original)
        def __init__(form, *args, **kwargs):
            original(form, *args, **kwargs)
            tracer.form_bytes += form.m.nbytes + form.left_map.nbytes + form.right_map.nbytes

        self._set(cls, "__init__", __init__)
