"""Spans around the calls into each fastdiffusion module, from outside the package.

The tracer rebinds module-level names: for every target function it finds
each ``fastdiffusion.*`` module global that is bound to that function (the
defining module and every module that imported it by name) and points it
at a timing wrapper, so calls made through any of those names are seen.
Nothing under ``src/`` changes and ``uninstall`` puts every name back.

A span is ``(id, name, start, end, parent, thread, n, m)``; ``n`` and ``m``
are per-target counts (rows, active pairs, bytes, ...).  Spans are appended
to one list, which is safe from the ensemble's worker threads because
``list.append`` and ``next`` on an ``itertools.count`` are single atomic
steps under the interpreter lock, and each thread keeps its own parent
stack.  ``fold`` turns the spans of one command into per-layer numbers.
"""

from __future__ import annotations

import importlib
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _count_rows(args, kwargs, out):
    shape = np.shape(args[1])
    return (math.prod(shape[:-1]) if len(shape) > 1 else 1), 0


def _count_pairs(args, kwargs, out):
    # argument 8 is the in-place `coupled` mask; after the call it marks the
    # pairs that took this step coupled, so ~mask counts the pairs that did
    # attraction and weight work
    coupled = args[8]
    return int(coupled.size), int(coupled.size - np.count_nonzero(coupled))


def _count_blowups(args, kwargs, out):
    return int(args[0].size), int(out)


def _count_kept(args, kwargs, out):
    kept = out[3]
    return (0 if kept is None else int(kept.nbytes)), 0


def _count_samples(args, kwargs, out):
    return int(args[2] if len(args) > 2 else kwargs.get("n_samples", 2000)), 0


def _count_json(args, kwargs, out):
    return 0, len(out)  # json.dumps escapes to ASCII: characters are bytes


# (span name, module, attribute, count hook)
TARGETS = (
    ("spectral.to_spectral", "spectral", "to_spectral", _count_rows),
    ("spectral.from_spectral", "spectral", "from_spectral", _count_rows),
    ("dynamics.psi_eval", "dynamics", "psi_eval", None),
    ("dynamics.drift_eval", "dynamics", "drift_eval", None),
    ("dynamics.apply_drift", "dynamics", "apply_drift", None),
    ("coupling.pair_kernel", "coupling", "_pair_kernel", _count_pairs),
    ("montecarlo.run_coupled_ensemble", "montecarlo", "run_coupled_ensemble", None),
    ("montecarlo.run_plain", "montecarlo", "_run_plain", _count_kept),
    ("montecarlo.verify_harnack", "montecarlo", "verify_harnack", None),
    ("montecarlo.estimate_invariant", "montecarlo", "estimate_invariant", None),
    ("montecarlo.check_blowups", "montecarlo", "_check_blowups", _count_blowups),
    ("cli.run_command", "cli", "run_command", None),
    ("config.validate_config", "config", "validate_config", None),
    ("bounds.bound_report", "bounds", "bound_report", None),
    ("bounds.harnack_rhs", "bounds", "harnack_rhs", None),
    ("conditions.sampled", "conditions", "check_noise_domination", _count_samples),
    ("conditions.sampled", "conditions", "check_embedding_constant", _count_samples),
    ("conditions.closed_form", "conditions", "hs_check", None),
    ("conditions.closed_form", "conditions", "check_spectral_growth", None),
    ("conditions.closed_form", "conditions", "check_noise_sandwich", None),
    ("conditions.closed_form", "conditions", "check_power_spectrum_window", None),
    ("conditions.closed_form", "conditions", "check_fractional_power", None),
    ("records.make_record", "records", "make_record", None),
    ("records.to_json", "records", "ResultRecord.to_json", _count_json),
)
DISPATCH = ("montecarlo.dispatch", "montecarlo", "_dispatch", None)
ENSEMBLES = ("montecarlo.run_coupled_ensemble", "montecarlo.run_plain")


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, count=None, parent=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        out = done = None
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            done = True
        finally:
            t1 = time.perf_counter()
            stack.pop()
            n, m = count(args, kwargs, out) if done and count is not None else (0, 0)
            self.spans.append((sid, name, t0, t1, parent, threading.get_ident(), n, m))
        return out

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return traced

    def _wrap_dispatch(self, fn):
        # chunks may run on pool threads with empty stacks; give each chunk
        # span the dispatch span as parent
        def traced(work, n_workers):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            items = [
                lambda item=item: self.call("montecarlo.chunk", item, (), {}, parent=sid)
                for item in work
            ]
            t0 = time.perf_counter()
            try:
                return fn(items, n_workers)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (sid, "montecarlo.dispatch", t0, t1, parent, threading.get_ident(), len(items), 0)
                )
        return traced

    def install(self):
        """Rebind every target name in the loaded fastdiffusion modules."""
        importlib.import_module("fastdiffusion")
        modules = [
            m for k, m in list(sys.modules.items())
            if k == "fastdiffusion" or k.startswith("fastdiffusion.")
        ]
        for name, mod_name, attr, count in TARGETS + (DISPATCH,):
            mod = importlib.import_module(f"fastdiffusion.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or not hasattr(cls, meth):
                    continue
                original = getattr(cls, meth)
                setattr(cls, meth, self._wrap(name, original, count))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(mod, attr, None)
            if original is None:
                continue  # removed by a later version: its metrics read 0
            wrapper = (
                self._wrap_dispatch(original) if name == "montecarlo.dispatch"
                else self._wrap(name, original, count)
            )
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def _union_length(intervals, lo, hi) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for sid, _, t0, t1, parent, *_ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    return {
        sid: (t1 - t0) - (_union_length(children[sid], t0, t1) if sid in children else 0.0)
        for sid, _, t0, t1, *_ in spans
    }


def fold(spans, n_steps: int) -> dict:
    """Per-layer numbers for the spans of one command.

    n_steps is the number of time steps of the command's ensemble (0 when
    it runs none).
    """
    own = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    n_sum = defaultdict(float)
    m_sum = defaultdict(float)
    for sid, name, t0, t1, parent, _, n, m in spans:
        calls[name] += 1
        total[name] += t1 - t0
        self_s[name] += own[sid]
        n_sum[name] += n
        m_sum[name] += m

    def layer_self(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    def ratio(a, b):
        return a / b if b else 0.0

    transforms = calls["spectral.to_spectral"] + calls["spectral.from_spectral"]
    spectral_rows = n_sum["spectral.to_spectral"] + n_sum["spectral.from_spectral"]
    chunks = n_sum["montecarlo.dispatch"]
    steps = chunks * n_steps
    pair_rows = n_sum["coupling.pair_kernel"]
    cond_time = total["conditions.sampled"] + total["conditions.closed_form"]
    return {
        "spectral.to_spectral.calls": calls["spectral.to_spectral"],
        "spectral.from_spectral.calls": calls["spectral.from_spectral"],
        "spectral.rows": spectral_rows,
        "spectral.self_s": layer_self("spectral."),
        "spectral.ns_per_row": 1e9 * ratio(layer_self("spectral."), spectral_rows),
        "spectral.transforms_per_step": ratio(transforms, steps),
        "dynamics.drift_eval.calls": calls["dynamics.drift_eval"],
        "dynamics.drift_eval.self_s": self_s["dynamics.drift_eval"],
        "dynamics.apply_drift.self_s": self_s["dynamics.apply_drift"],
        "dynamics.psi_eval.self_s": self_s["dynamics.psi_eval"],
        "coupling.pair_kernel.calls": calls["coupling.pair_kernel"],
        "coupling.pair_kernel.self_s": self_s["coupling.pair_kernel"],
        "coupling.pair_kernel.ns_per_pair_step": 1e9 * ratio(total["coupling.pair_kernel"], pair_rows),
        "coupling.active_pair_frac": ratio(m_sum["coupling.pair_kernel"], pair_rows),
        "montecarlo.ensemble.s": sum(total[k] for k in ENSEMBLES),
        "montecarlo.self_s": layer_self("montecarlo."),
        "montecarlo.chunks": chunks,
        "montecarlo.blowup_frac": ratio(m_sum["montecarlo.check_blowups"], n_sum["montecarlo.check_blowups"]),
        "montecarlo.kept_bytes": n_sum["montecarlo.run_plain"],
        "cli.run_command.s": total["cli.run_command"],
        "cli.self_s": layer_self("cli."),
        "config.validate_config.s": total["config.validate_config"],
        "bounds.bound_report.s": total["bounds.bound_report"],
        "bounds.harnack_rhs.s": total["bounds.harnack_rhs"],
        "conditions.check_s": cond_time,
        "conditions.samples": n_sum["conditions.sampled"],
        "conditions.ns_per_sample": 1e9 * ratio(total["conditions.sampled"], n_sum["conditions.sampled"]),
        "records.make_record.s": total["records.make_record"],
        "records.to_json.s": total["records.to_json"],
        "records.bytes_written": m_sum["records.to_json"],
    }
