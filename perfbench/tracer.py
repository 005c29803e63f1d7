"""Outside-in tracing of canonical_region's public functions.

:class:`Tracer` wraps each traced function everywhere callers look it up:
in its defining module, in every ``canonical_region`` module that
imported it by name, and on the class for methods and constructors.
Each call becomes a span ``(name, start, end, parent)`` kept in compact
arrays; work counts are gathered at the same boundaries by hooks that
only read arguments and results.  ``with tracer.installed():`` patches
on entry and restores every attribute on exit, so untraced code runs
the package untouched.

Self time of a span is its duration minus the durations of its direct
children; spans nest strictly because the program is single-threaded.
"""
from __future__ import annotations

import contextlib
import functools
import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "canonical_region"


def _first(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _package_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Spans and counters for the traced rounds of one benchmark run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self._held_joints: dict[int, object] = {}
        self._rate_keys: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # ---- spans -------------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, prepare=None, before=None, after=None):
        nid = self._intern(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            if prepare is not None:
                args = prepare(args, kwargs)
            state = before(args, kwargs) if before is not None else None
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(state, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    # ---- counters ------------------------------------------------------------

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] += amount

    def end_op(self) -> None:
        """Forget per-operation identity bookkeeping (held joints, rate keys)."""
        self._held_joints.clear()
        self._rate_keys.clear()

    def _entropy_hooks(self, lookups: int):
        def before(args, kwargs):
            return len(_first(args, kwargs, 0, "p")._entropy_cache)

        def after(size_before, args, kwargs, result):
            grown = len(_first(args, kwargs, 0, "p")._entropy_cache) - size_before
            self.counters["pmf.entropy.lookups"] += lookups
            self.counters["pmf.entropy.misses"] += grown

        return before, after

    def _rate_lhs_prepare(self, args, kwargs):
        # the group is read again to count distinct pairs, so a one-shot
        # iterator is materialized before the call sees it
        if len(args) >= 2:
            return (args[0], tuple(args[1])) + tuple(args[2:])
        kwargs["group"] = tuple(kwargs["group"])
        return args

    def _rate_lhs_after(self, state, args, kwargs, result):
        # holding the joint until end_op keeps its id from being reused
        joint = _first(args, kwargs, 0, "aug").joint
        group = _first(args, kwargs, 1, "group")
        self._held_joints[id(joint)] = joint
        key = (id(joint), tuple(sorted(set(group))))
        if key not in self._rate_keys:
            self._rate_keys.add(key)
            self.counters["region.rate_lhs.distinct"] += 1

    # ---- installation ----------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, hooks) for every traced callable."""
        from canonical_region import (
            augment, cli, functionals, optimize, pmf, problem_io, region, simplex,
        )

        def lp_after(state, args, kwargs, result):
            a = _first(args, kwargs, 1, "a")
            self.counters["simplex.lp_columns.total"] += np.shape(a)[1]

        def search_after(state, args, kwargs, result):
            spec = _first(args, kwargs, 0, "spec")
            z_sizes = _first(args, kwargs, 2, "z_sizes")
            grid = _first(args, kwargs, 3, "grid")
            points = optimize.estimate_brute_force_evals(spec, z_sizes, grid)
            self.counters["optimize.lattice.points"] += points
            self.counters["optimize.lattice.chunks"] += math.ceil(points / optimize.CHUNK)

        def descent_after(state, args, kwargs, result):
            self.counters["optimize.descent.sweeps"] += result.sweeps_run

        def joint_after(state, args, kwargs, result):
            self.counters["pmf.JointPmf.cells"] += args[0].probs.size

        mi_before, mi_after = self._entropy_hooks(4)
        h_before, h_after = self._entropy_hooks(2)
        return [
            (cli, "main", "cli.main", {}),
            (problem_io, "resolve_problem", "problem_io.resolve_problem", {}),
            (pmf, "mi_sets", "pmf.mi_sets", {"before": mi_before, "after": mi_after}),
            (pmf, "entropy", "pmf.entropy", {"before": h_before, "after": h_after}),
            (pmf.JointPmf, "marginal", "pmf.marginal", {}),
            (pmf.JointPmf, "__init__", "pmf.JointPmf", {"after": joint_after}),
            (augment, "attach_channels", "augment.attach_channels", {}),
            (augment, "forward_to_reverse", "augment.convert", {}),
            (augment, "reverse_to_forward", "augment.convert", {}),
            (region, "membership", "region.membership", {}),
            (region, "corner_point", "region.corner_point", {}),
            (region, "rate_lhs", "region.rate_lhs",
             {"prepare": self._rate_lhs_prepare, "after": self._rate_lhs_after}),
            (region, "enumerate_extreme_points", "region.enumerate_extreme_points", {}),
            (region, "nondegeneracy_report", "region.nondegeneracy_report", {}),
            (region, "verify_noncrossing", "region.verify_noncrossing", {}),
            (region, "verify_chain_identities", "region.verify_chain_identities", {}),
            (functionals, "theta", "functionals.theta", {}),
            (functionals, "direct_weighted_value", "functionals.direct_weighted_value", {}),
            (functionals.FunctionalContext, "__init__", "functionals.FunctionalContext", {}),
            (simplex, "solve_equality_lp", "simplex.solve_equality_lp", {"after": lp_after}),
            (optimize, "brute_force_search", "optimize.brute_force_search",
             {"after": search_after}),
            (optimize, "optimize_single_channel", "optimize.optimize_single_channel", {}),
            (optimize, "coordinate_descent", "optimize.coordinate_descent",
             {"after": descent_after}),
            (optimize, "trace_inner_bound", "optimize.trace_inner_bound", {}),
            (optimize, "verify_alphabet_bound", "optimize.verify_alphabet_bound", {}),
        ]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for owner, attr, name, hooks in self._targets():
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, **hooks)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [mod for mod in modules if any(
                    value is original for value in vars(mod).values()
                )]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ---- results -----------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds)."""
        n = len(self.span_start)
        if n == 0:
            return {}
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        durations = (np.frombuffer(self.span_end, dtype=np.float64)
                     - np.frombuffer(self.span_start, dtype=np.float64))
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], durations[has_parent])
        selfs = durations - child
        calls = np.bincount(names, minlength=len(self.names))
        totals = np.bincount(names, weights=selfs, minlength=len(self.names))
        return {name: (int(calls[i]), float(totals[i])) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span (name, start, end, parent) as a NumPy archive."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
