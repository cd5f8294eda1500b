"""Span tracer that wraps stokes2p's public functions from outside the package.

Every wrapped call records a span (name, start, end, parent) in memory.  A
span's self time is its duration minus the time its direct children cover.
Module-level functions are patched under every name that binds them in any
``stokes2p`` module, so a call made through a name another module imported
(``analysis.eval_Psi`` as well as ``evolution.eval_Psi``) is counted too.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass, field

PACKAGE = "stokes2p"


def _kernel_hit(ops, n, m, p, q):
    return (n, m, p, q) in getattr(ops, "_kernels", {})


def _sample_hit(ws, values):
    hit = getattr(ws, "_samples", {}).get(id(values))
    return hit is not None and hit[0] is values


# (module, attribute path, span name, hit predicate or None).  A dotted path
# names a method on a class; a plain one a module-level function.
TARGETS = (
    ("core", "InterfaceProfile.eval_at", "core.eval_at", None),
    ("operators", "DiagonalOps.__init__", "operators.DiagonalOps.init", None),
    ("operators", "DiagonalOps.kernel", "operators.DiagonalOps.kernel", _kernel_hit),
    ("operators", "DiagonalOps.composite", "operators.DiagonalOps.composite", None),
    ("operators", "KernelWorkspace.sample", "operators.KernelWorkspace.sample", _sample_hit),
    ("operators", "KernelWorkspace.contract", "operators.KernelWorkspace.contract", None),
    ("operators", "eval_B0", "operators.eval_B0", None),
    ("operators", "eval_A", "operators.eval_A", None),
    ("operators", "eval_B", "operators.eval_B", None),
    ("operators", "eval_C", "operators.eval_C", None),
    ("evolution", "eval_Psi", "evolution.eval_Psi", None),
    ("evolution", "step", "evolution.step", None),
    ("evolution", "integrate", "evolution.integrate", None),
    ("evolution", "forcing_G", "evolution.forcing_G", None),
    ("fields", "min_interface_distance", "fields.min_interface_distance", None),
    ("fields", "eval_Z", "fields.eval_Z", None),
    ("fields", "sample_flow", "fields.sample_flow", None),
    ("fields", "interface_jump_checks", "fields.interface_jump_checks", None),
    ("analysis", "numeric_jacobian_at_zero", "analysis.numeric_jacobian_at_zero", None),
    ("verify", "check_operator_identities", "verify.check_operator_identities", None),
    ("verify", "check_conservation", "verify.check_conservation", None),
    ("verify", "check_spectrum", "verify.check_spectrum", None),
    ("verify", "check_far_field_constants", "verify.check_far_field_constants", None),
    ("verify", "check_trace_equivalence", "verify.check_trace_equivalence", None),
    ("verify", "check_jump_relations", "verify.check_jump_relations", None),
    ("verify", "check_far_field_limits", "verify.check_far_field_limits", None),
)


# spans whose first call's arguments are kept, to replay that call untraced
# (run.py measures eval_Psi's allocation peak that way)
KEEP_FIRST_ARGS = frozenset({"evolution.eval_Psi"})


@dataclass
class Stat:
    calls: int = 0
    hits: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Install with ``with tracer:``; the wrappers are removed on exit.

    Spans are (name id, start, end, parent span index or -1), times in
    seconds from the tracer's creation.
    """

    names: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    first_args: dict = field(default_factory=dict)
    _t0: float = field(default_factory=time.perf_counter)
    _ids: dict = field(default_factory=dict)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _undo: list = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = Stat()
        return nid

    def _wrap(self, fn, name, hit_fn):
        nid = self._name_id(name)
        stat = self.stats[name]
        local, lock, spans, first_args = self._local, self._lock, self.spans, self.first_args
        clock, t0 = time.perf_counter, self._t0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if name in KEEP_FIRST_ARGS and name not in first_args:
                first_args[name] = (args, kwargs)
            hit = hit_fn is not None and hit_fn(*args, **kwargs)
            with lock:
                index = len(spans)
                spans.append(None)      # reserved so children can name their parent
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]        # [span index, time covered by children]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[index] = (nid, start - t0, end - t0, parent)
                with lock:
                    stat.calls += 1
                    stat.hits += bool(hit)
                    stat.total_s += dur
                    stat.self_s += dur - frame[1]

        return wrapper

    # -- installation ------------------------------------------------------

    def __enter__(self):
        owners = {m: importlib.import_module(f"{PACKAGE}.{m}") for m, *_ in TARGETS}
        modules = [v for k, v in sys.modules.items()
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        try:
            for mod_name, path, span_name, hit_fn in TARGETS:
                self._patch(owners[mod_name], path, span_name, hit_fn, modules)
        except BaseException:
            self.__exit__()     # a target that moved must not leave half the wrappers in
            raise
        return self

    def _patch(self, owner, path, span_name, hit_fn, modules):
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, parts[-1])
        wrapped = self._wrap(original, span_name, hit_fn)
        if len(parts) > 1:
            self._undo.append((owner, parts[-1], original))
            setattr(owner, parts[-1], wrapped)
            return
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    # -- reporting ---------------------------------------------------------

    def stat(self, name) -> Stat:
        return self.stats.get(name, Stat())

    def count_within(self, name, ancestor) -> int:
        """Spans of ``name`` that run inside a span of ``ancestor``."""
        nid, aid = self._ids.get(name), self._ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        count = 0
        for s in self.spans:
            if s[0] != nid:
                continue
            p = s[3]
            while p != -1:
                if self.spans[p][0] == aid:
                    count += 1
                    break
                p = self.spans[p][3]
        return count

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[s[0], round(s[1], 9), round(s[2], 9), s[3]]
                                 for s in self.spans]}, fh, separators=(",", ":"))
