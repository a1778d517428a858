"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions of each ``conechase`` module.  A
function is replaced wherever the package holds it: in its defining
module and in every module that imported it by name, under any alias
(``derive`` binds ``cokernel as group_cokernel`` at import time, and
patching ``groups`` alone would miss those calls).  Methods are wrapped
on their class.

Spans stay in memory while the workload runs and are summarised and
written out at the end.  A span's self time is its duration minus the
durations of the spans it directly caused, so recursive functions such as
``normalize_word`` are not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, function or Class.method) of every wrapped public function
TARGETS = (
    ("cli", "main"),
    ("kb", "load_catalog"),
    ("kb", "KbCatalog.rule_context"),
    ("kb", "KbCatalog.group_fact"),
    ("kb", "KbCatalog.boundary_fact"),
    ("kb", "KbCatalog.boundary_transport"),
    ("kb", "KbCatalog.parse_element"),
    ("rewrite", "normalize_word"),
    ("rewrite", "normalize"),
    ("rewrite", "compose"),
    ("rewrite", "whitehead"),
    ("rewrite", "suspend"),
    ("rewrite", "resolve_triple"),
    ("rewrite", "naturality_push"),
    ("terms", "TermParser.parse"),
    ("les", "express"),
    ("les", "push_forward"),
    ("les", "pi_group_from_fact"),
    ("les", "boundary_value"),
    ("les", "boundary_hom"),
    ("groups", "smith_normal_form"),
    ("groups", "group_from_presentation"),
    ("groups", "cokernel"),
    ("groups", "kernel"),
    ("groups", "quotient_by_elements"),
    ("groups", "solve_extension"),
    ("filtration", "build_filtration"),
    ("derive", "Runner.run"),
    ("derive", "load_scripts"),
)

# constructors that are counted, without spans: (module, Class, counter)
COUNTED = (
    ("terms", "Element", "terms.element_new.calls"),
    ("derive", "RunResult", "derive.executions"),
)

PACKAGE = "conechase"


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def _owner(module, qualname):
    parts = qualname.split(".")
    owner = module
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{q}" for m, q in TARGETS]
        # one entry per span, in the order spans open; typed arrays keep a
        # million spans in tens of megabytes and out of the collector's way
        self.span_op = array("l")      # operation, numbered from 1
        self.span_parent = array("l")  # index of the causing span, or -1
        self.span_name = array("h")    # index into names
        self.span_start = array("q")   # perf_counter_ns
        self.span_end = array("q")
        self.span_raised = array("b")
        self.stack = []
        self.op = 0
        self.counts = Counter()
        self.distinct = set()     # hashed normalize_word keys per context
        self._restore = []

    # -- installation --------------------------------------------------------

    def install(self):
        for idx, (mod, qual) in enumerate(TARGETS):
            module = importlib.import_module(f"{PACKAGE}.{mod}")
            owner, attr = _owner(module, qual)
            original = owner.__dict__[attr]
            before = self._note_word if qual == "normalize_word" else None
            wrapper = self._span(idx, original, before)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                for target in _package_modules():
                    for name, value in list(vars(target).items()):
                        if value is original:
                            self._patch(target, name, wrapper)
        for mod, cls_name, counter in COUNTED:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), cls_name)
            self._patch(cls, "__init__", self._count(counter, cls.__init__))

    def uninstall(self):
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def _patch(self, owner, name, value):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    # -- wrappers --------------------------------------------------------------

    def _span(self, idx, fn, before):
        stack, clock = self.stack, time.perf_counter_ns
        ops, parents, names = self.span_op, self.span_parent, self.span_name
        starts, ends, raised = self.span_start, self.span_end, self.span_raised

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            if stack:
                parent = stack[-1]
            else:           # a top-level span opens the next operation
                parent = -1
                self.op += 1
            sid = len(starts)
            ops.append(self.op)
            parents.append(parent)
            names.append(idx)
            raised.append(1)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                raised[sid] = 0
                return result
            finally:
                ends[sid] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def _count(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _note_word(self, args):
        word, coeff, ctx = args[:3]
        # views of one cached rule context share its rule tables
        self.distinct.add(hash((self.op, id(ctx.word_rules), word.key(),
                                coeff)))

    # -- results -----------------------------------------------------------------

    def summary(self) -> dict:
        """{name: (calls, self seconds, errors)} over every recorded span."""
        spans = range(len(self.span_start))
        child = [0] * len(spans)
        for sid in spans:
            parent = self.span_parent[sid]
            if parent >= 0:
                child[parent] += self.span_end[sid] - self.span_start[sid]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        errors = [0] * len(self.names)
        for sid in spans:
            idx = self.span_name[sid]
            calls[idx] += 1
            self_ns[idx] += (self.span_end[sid] - self.span_start[sid]
                             - child[sid])
            errors[idx] += self.span_raised[sid]
        return {name: (calls[i], self_ns[i] / 1e9, errors[i])
                for i, name in enumerate(self.names)}

    def write(self, path: Path):
        """All spans, one tab-separated line each, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\traised\n")
            for sid in range(len(self.span_start)):
                fh.write(f"{self.span_op[sid]}\t{sid}\t"
                         f"{self.span_parent[sid]}\t"
                         f"{self.names[self.span_name[sid]]}\t"
                         f"{self.span_start[sid]}\t{self.span_end[sid]}\t"
                         f"{self.span_raised[sid]}\n")
