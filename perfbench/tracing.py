"""Spans and counters recorded around calls into spikequery's public functions.

The tracer wraps functions by name from the outside: nothing under ``src/``
knows it exists.  Each wrapped call becomes a span with its parent span and
its self time (duration minus the time covered by child spans).  A name that
the package no longer defines is reported as absent and skipped.

Installing also puts a counting view of the hidden matrix into every query
session opened through ``oracle.open_session``, so matrix applications are
counted where the oracle performs them rather than inferred from a formula.
"""

from __future__ import annotations

import copy
import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

PACKAGE = "spikequery"

#: Verify-row margins are clamped to this many standard errors.  A row with
#: zero stderr is an exact comparison, so its margin is +/- the cap.
MARGIN_CAP = 1000.0

# Span name, module, attribute path.  The span name's first component is the
# layer.  Several entry points may share one span name: "algorithms.run" is
# whichever run entry point the package offers.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cli.main", "cli", "main"),
    ("instances.make_spiked", "instances", "make_spiked"),
    ("instances.spectral_norm", "instances", "spectral_norm"),
    ("instances.sample_goe", "instances", "sample_goe"),
    ("instances.check_membership", "instances", "check_membership"),
    ("oracle.open_session", "oracle", "open_session"),
    ("oracle.query", "oracle", "QuerySession.query"),
    ("oracle.finalize", "oracle", "QuerySession.finalize"),
    ("algorithms.run", "algorithms", "run"),
    ("algorithms.run", "algorithms", "run_power"),
    ("algorithms.run", "algorithms", "run_lanczos"),
    ("algorithms.run", "algorithms", "run_random_nonadaptive"),
    ("algorithms.ritz_from_pairs", "algorithms", "ritz_from_pairs"),
) + tuple(
    (f"bounds.{name}", "bounds", name)
    for name in (
        "f_overlap",
        "f_overlap_floor",
        "gamma_of",
        "kl_tau_schedule",
        "c_factor",
        "chi_tau_schedule",
        "estimation_success_bound",
        "main_theorem_bound",
        "detection_tv_bound",
        "detection_error_bound",
        "min_queries",
    )
) + tuple(
    (f"divergences.{name.split('.')[-1]}", "divergences", name)
    for name in (
        "TruncationEvent.__post_init__",
        "TruncationEvent.overlaps",
        "TruncationEvent.holds",
        "d_f",
        "chi2_plus1",
        "kl",
        "phi_f",
        "gen_fano_value_bound",
        "chi2_fano_value_bound",
        "global_fano_bound",
        "truncated_chi2_tv",
        "gaussian_kl",
        "g_chi",
        "likelihood_product_bound",
        "sphere_mgf_bound",
    )
)


class CountingMatrix(np.ndarray):
    """A view of the hidden matrix that counts matrix-vector products."""

    counts: Dict[str, float]

    def __matmul__(self, other):
        other = np.asarray(other)
        d = self.shape[0]
        k = 1 if other.ndim == 1 else other.shape[-1]
        self.counts["matvecs"] += k
        self.counts["matvec_flops"] += 2.0 * k * d * self.shape[1]
        self.counts["matvec_bytes"] += float(self.nbytes)
        return np.matmul(self.view(np.ndarray), other)


class Tracer:
    """Records spans and counters while installed; restores every name on
    uninstall.  One tracer serves one benchmark run.  ``verify_checks`` names
    the entries of ``verify.CHECKS`` to trace as ``verify.<check>`` spans."""

    def __init__(self, verify_checks: Tuple[str, ...]) -> None:
        self.verify_checks = verify_checks
        # span record: (op, index, parent index or -1, name, start, duration, self)
        self.spans: List[Tuple[int, int, int, str, float, float, float]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.instance_bytes: List[int] = []
        self.margins: Dict[str, List[float]] = defaultdict(list)
        self.absent: List[str] = []
        self.op = 0
        self._stack: List[list] = []
        self._undo: List[Callable[[], None]] = []
        self._wrappers: Optional[List[Tuple[object, str, object, object]]] = None

    # ------------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn, before=None, after=None):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), clock(), 0.0]
            spans.append(None)  # reserve the index; filled on exit
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - frame[1]
                if stack:
                    stack[-1][2] += dur
                spans[frame[0]] = (
                    self.op, frame[0], parent, name, frame[1], dur, dur - frame[2]
                )
            if after is not None:
                after(result)
            return result

        return wrapper

    def _hooks(self, name: str):
        if name == "instances.make_spiked":
            return None, self._after_make_spiked
        if name == "oracle.open_session":
            return self._before_open_session, None
        if name == "oracle.finalize":
            return None, self._after_finalize
        if name.startswith("verify."):
            return None, self._after_check(name.split(".", 1)[1])
        return None, None

    def _after_make_spiked(self, inst) -> None:
        arrays = {id(v): v for v in vars(inst).values() if isinstance(v, np.ndarray)}
        self.instance_bytes.append(sum(a.nbytes for a in arrays.values()))

    def _before_open_session(self, args, kwargs):
        inst = args[0] if args else kwargs.get("inst")
        matrix = getattr(inst, "matrix", None)
        if not isinstance(matrix, np.ndarray) or matrix.ndim != 2:
            self.counts["uncounted_sessions"] += 1
            return args, kwargs
        view = matrix.view(CountingMatrix)
        view.counts = self.counts
        proxy = copy.copy(inst)
        object.__setattr__(proxy, "matrix", view)
        if args:
            args = (proxy,) + tuple(args[1:])
        else:
            kwargs = dict(kwargs, inst=proxy)
        return args, kwargs

    def _after_finalize(self, transcript) -> None:
        steps = transcript.steps
        self.counts["transcript_steps"] += len(steps)
        self.counts["useful_steps"] += sum(1 for st in steps if not st.degenerate)
        self.counts["early_terminations"] += bool(transcript.early_termination)

    def _after_check(self, check: str):
        def after(report) -> None:
            for row in report.rows:
                slack = row.bound + 3.0 * row.stderr - row.empirical
                margin = slack / row.stderr if row.stderr > 0 else math.copysign(math.inf, slack)
                self.margins[check].append(max(-MARGIN_CAP, min(MARGIN_CAP, margin)))
        return after

    def _resolve(self):
        """(span name, container, key, original) for every present target."""
        found = []
        for span_name, module, path in TARGETS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
                owner = mod
                *outer, leaf = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module}.{path}")
                continue
            found.append((span_name, owner, leaf, fn))
        try:
            checks = importlib.import_module(f"{PACKAGE}.verify").CHECKS
        except (ImportError, AttributeError):
            checks = {}
        for check in self.verify_checks:
            if check in checks:
                found.append((f"verify.{check}", None, check, checks[check]))
            else:
                self.absent.append(f"verify.CHECKS[{check!r}]")
        return found

    def install(self) -> None:
        """Wrap every present target, including each place the package binds
        the same function object under another name (``from x import f``, or
        a registry dict such as ``verify.CHECKS``)."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        if self._wrappers is None:
            self._wrappers = []
            for span_name, owner, leaf, fn in self._resolve():
                before, after = self._hooks(span_name)
                self._wrappers.append(
                    (owner, leaf, fn, self._wrap(span_name, fn, before, after))
                )
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        by_id = {id(fn): wrapper for _o, _l, fn, wrapper in self._wrappers}
        for owner, leaf, fn, wrapper in self._wrappers:
            if isinstance(owner, type):
                self._replace_attr(owner, leaf, wrapper)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if id(value) in by_id:
                    self._replace_attr(mod, key, by_id[id(value)])
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if id(dvalue) in by_id:
                            self._replace_item(value, dkey, by_id[id(dvalue)])

    def _replace_attr(self, owner, key, new) -> None:
        old = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
        setattr(owner, key, new)
        self._undo.append(lambda: setattr(owner, key, old))

    def _replace_item(self, mapping, key, new) -> None:
        old = mapping[key]
        mapping[key] = new
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
