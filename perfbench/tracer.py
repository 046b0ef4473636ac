"""Span tracing of the polystab layers, installed from outside the package.

``Tracer.install`` replaces the public functions of each layer with thin
wrappers that record a span per call: name, start, end, parent span and
iteration id.  Every module attribute that refers to a wrapped function is
patched, so calls made through ``from .x import f`` names are seen too.
Spans stay in memory until ``write`` dumps them at the end of a run.

A boundary that no longer exists (a renamed or deleted function) is listed
in ``absent`` instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np
import scipy.linalg

import polystab.schemes

# layer -> (module, public callables wrapped at that boundary)
BOUNDARIES = {
    "modal": ("polystab.modal", ("pair_norm_sq", "norm_domain", "energy")),
    "schemes": ("polystab.schemes", ("factorize", "SchemeSolver.run", "SchemeSolver.iterate_raw")),
    "spectra": ("polystab.spectra", (
        "build_coupled_waves", "build_boundary_coupled_waves", "boundary_fixedpoint_residuals",
        "audit_spectrum", "check_gap", "check_obs_lower_bound", "cluster_partition",
        "filtering_cutoff",
    )),
    "ingham": ("polystab.ingham", (
        "estimate_scalar", "estimate_clustered", "q_form", "ingham_ratio_scalar",
    )),
    "diagnostics": ("polystab.diagnostics", (
        "observation_time", "observability_functional", "observability_constant_study",
        "inverse_inequality_check", "high_freq_contraction", "high_freq_observability",
        "decay_fit", "synthetic_trace", "worst_case_family", "uniform_decay_study",
        "decay_recursion_oracle",
    )),
    "config": ("polystab.config", ("load_config", "build_system", "build_init")),
    "cli": ("polystab.cli", ("main",)),
}

# spans whose summed duration / call count make a per-layer metric
_SUM_S = {
    "schemes.factorize_s": ("schemes.factorize",),
    "schemes.step_s": ("schemes.SchemeSolver.run", "schemes.SchemeSolver.iterate_raw"),
    "diagnostics.fit_s": ("diagnostics.decay_fit",),
    "diagnostics.recursion_s": ("diagnostics.decay_recursion_oracle",),
    "ingham.scalar_s": ("ingham.estimate_scalar",),
    "ingham.clustered_s": ("ingham.estimate_clustered",),
    "ingham.q_form_s": ("ingham.q_form",),
    "spectra.build_s": ("spectra.build_coupled_waves", "spectra.build_boundary_coupled_waves"),
    "spectra.audit_s": ("spectra.audit_spectrum",),
    "modal.norm_s": ("modal.pair_norm_sq", "modal.norm_domain", "modal.energy"),
    "config.load_s": ("config.load_config",),
}
_CALLS = {
    "schemes.factorize_calls": ("schemes.factorize",),
    "diagnostics.fit_calls": ("diagnostics.decay_fit",),
    "ingham.q_form_calls": ("ingham.q_form",),
    "spectra.build_calls": ("spectra.build_coupled_waves", "spectra.build_boundary_coupled_waves"),
    "spectra.gap_audit_calls": ("spectra.check_gap",),
    "modal.norm_calls": ("modal.pair_norm_sq", "modal.norm_domain", "modal.energy"),
}
_SELF_S = {"diagnostics.self_s": "diagnostics", "cli.self_s": "cli"}
_COUNTERS = ("schemes.col_steps", "schemes.lu_solves", "ingham.cols")


def _lu_active(solver, damped) -> bool:
    """True when a step of ``solver`` solves the dense damped stage."""
    if damped is None:
        damped = solver.cfg.damping
    return bool(damped and np.any(solver.sys.damp_gram != 0.0))


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, iteration]
        self.counts = []  # (iteration, counter, amount)
        self.resid_max = {}  # iteration -> max identity residual / E0
        self.absent = []
        self.iteration = None
        self._stack = []
        self._undo = []

    # -- recording ------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.iteration])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, counter: str, amount) -> None:
        self.counts.append((self.iteration, counter, amount))

    # -- installation ---------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return traced

    def _wrap_iterate_raw(self, name, fn):
        """One span per step, so consumer work between steps is not counted."""
        tracer = self

        @functools.wraps(fn)
        def traced(solver, x0, n_steps, *args, **kwargs):
            damped = args[0] if args else kwargs.get("damped")
            cols = 1 if np.ndim(x0) == 1 else int(np.shape(x0)[1])
            lu = _lu_active(solver, damped)
            inner = fn(solver, x0, n_steps, *args, **kwargs)
            while True:
                idx = tracer.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                tracer.count("schemes.col_steps", cols)
                if lu:
                    tracer.count("lu_steps", 1)
                yield item

        return traced

    def _after_run(self, trace, solver, *args, **kwargs):
        steps = polystab.schemes.substep_count(solver.cfg.t_final, solver.cfg.dt) + 1
        self.count("schemes.col_steps", steps)
        if _lu_active(solver, None):
            self.count("lu_steps", steps)
        rel = float(np.max(trace.identity_residual)) / trace.e0
        self.resid_max[self.iteration] = max(self.resid_max.get(self.iteration, 0.0), rel)

    def _after_ingham(self, est, freqs, cfg, *args, **kwargs):
        # Gaussian draws plus one cancelling draw per adjacent supported pair
        self.count("ingham.cols", cfg.trials + max(est.n_active - 1, 0))

    def _after_lu_solve(self, out, lu_and_piv, *args, **kwargs):
        self.count("schemes.lu_solves", 1)
        self.count("lu_bytes", lu_and_piv[0].size * 8)

    def _replace(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every boundary; record those that do not exist as absent."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "polystab"]
        afters = {
            "schemes.SchemeSolver.run": self._after_run,
            "ingham.estimate_scalar": self._after_ingham,
            "ingham.estimate_clustered": self._after_ingham,
        }
        for layer, (modname, names) in BOUNDARIES.items():
            mod = sys.modules.get(modname)
            for qual in names:
                span = f"{layer}.{qual}"
                owner, _, attr = qual.rpartition(".")
                obj = mod
                for part in owner.split(".") if owner else ():
                    obj = getattr(obj, part, None)
                fn = getattr(obj, attr, None)
                if not callable(fn):
                    self.absent.append(span)
                    continue
                if owner:  # a method: patch the class only
                    wrap = (self._wrap_iterate_raw(span, fn) if attr == "iterate_raw"
                            else self._wrap(span, fn, afters.get(span)))
                    self._replace(obj, attr, wrap)
                    continue
                wrap = self._wrap(span, fn, afters.get(span))
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            self._replace(m, key, wrap)
        self._replace(scipy.linalg, "lu_solve",
                      self._wrap("scipy.lu_solve", scipy.linalg.lu_solve, self._after_lu_solve))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- reduction ------------------------------------------------------

    def metrics(self, iterations, factors) -> dict:
        """Per-layer totals over the spans of a set of iteration ids.

        Span durations are multiplied by their iteration's speed factor.
        """
        child = {}
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] in iterations]
        for _, (name, t0, t1, parent, it) in spans:
            child[parent] = child.get(parent, 0.0) + (t1 - t0) * factors[it]
        dur, calls, self_s = {}, {}, {}
        for i, (name, t0, t1, _, it) in spans:
            d = (t1 - t0) * factors[it]
            dur[name] = dur.get(name, 0.0) + d
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".")[0]
            self_s[layer] = self_s.get(layer, 0.0) + d - child.get(i, 0.0)
        counts = dict.fromkeys(_COUNTERS + ("lu_steps", "lu_bytes"), 0)
        for it, counter, amount in self.counts:
            if it in iterations:
                counts[counter] += amount
        out = {k: sum(dur.get(n, 0.0) for n in names) for k, names in _SUM_S.items()}
        out.update({k: sum(calls.get(n, 0) for n in names) for k, names in _CALLS.items()})
        out.update({k: self_s.get(layer, 0.0) for k, layer in _SELF_S.items()})
        out.update({k: counts[k] for k in _COUNTERS})
        out["schemes.lu_solves_per_step"] = (
            counts["schemes.lu_solves"] / counts["lu_steps"] if counts["lu_steps"] else 0.0)
        # computed, not measured: every solve streams the whole (2n)^2 factor
        out["schemes.lu_bytes_per_step_computed"] = (
            counts["lu_bytes"] / counts["lu_steps"] if counts["lu_steps"] else 0.0)
        out["schemes.us_per_col_step"] = (
            1e6 * out["schemes.step_s"] / counts["schemes.col_steps"]
            if counts["schemes.col_steps"] else 0.0)
        out["schemes.identity_resid_rel_max"] = max(
            (self.resid_max.get(it, 0.0) for it in iterations), default=0.0)
        out["trace.absent_boundaries"] = len(self.absent)
        return out

    def write(self, path: str) -> None:
        """Dump the spans as CSV: index,name,start,end,parent,iteration."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# absent boundaries: {' '.join(self.absent) or 'none'}\n")
            fh.write("index,name,start,end,parent,iteration\n")
            for i, (name, t0, t1, parent, it) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent},{it}\n")
