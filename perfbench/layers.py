"""Outside-in layer tracing: per-function call counts and self time.

The tracer wraps public entry points of the `equibundle` modules from
the outside.  It rebinds every module-level name in the package that
holds the original object (found by identity, so `eval_point_term` is
caught in `cyclotomic`, `congruence` and `moduli` alike) and every
class slot that aliases a wrapped method (`__mul__` and `__rmul__`).
`uninstall` restores each binding.  A name that is gone from the
package is reported as absent on stderr and its metrics read 0.

Self time is a span's duration minus the durations of the wrapped
spans it caused.  Spans are aggregated as they close; no span list is
kept, because a field pass makes a great many wrapped calls.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

# (metric key, module, attribute, kind).  Kinds: "timed" counts calls
# and self time, "count" only counts calls, "exit" also counts the CLI
# exit codes, "convolve" also sums len(a) * len(b), "battery" also
# counts calls made by the search, "search" times each step of the
# generator.  Entries that share a key are summed.
ACTION_MODEL = (
    "action_from_dict", "validate", "action_to_dict", "connected_sum_points", "connected_sum_spheres")
SPEC = [
    ("cli.main", "cli", "main", "exit"),
    *[(f"action_model.{n}", "action_model", n, "timed") for n in ACTION_MODEL],
    *[(f"congruence.{n}", "congruence", n, "timed") for n in (
        "gsignature_check", "gsign_value", "check_su2", "check_line_bundle", "solve_theorem_a")],
    ("congruence.check_rotation_relations", "congruence", "check_rotation_relations", "battery"),
    ("congruence.search_realizable", "congruence", "search_realizable", "search"),
    *[(f"moduli.{n}", "moduli", n, "timed") for n in (
        "dim_invariant_moduli", "defect_terms", "rho_lens", "rho_surface")],
    *[(f"cyclotomic.{n}", "cyclotomic", n, "timed") for n in (
        "galois_sum", "eval_point_term", "eval_sphere_term", "zeta_minus_one_inv", "sin2_term")],
    ("cyclotomic.CycloNum.mul", "cyclotomic", "CycloNum.__mul__", "timed"),
    ("cyclotomic.CycloNum.add", "cyclotomic", "CycloNum.__add__", "timed"),
    ("series.series_mul", "series", "series_mul", "timed"),
    ("series.series_invert_unit", "series", "series_invert_unit", "timed"),
    *[("series.expand", "series", f"expand_{n}_term", "timed") for n in (
        "point", "sphere", "boundary", "su2_point", "su2_sphere")],
    ("poly.convolve", "_poly", "convolve", "convolve"),
    ("poly.cleared", "_poly", "cleared", "timed"),
    ("exact_arith.is_prime", "exact_arith", "is_prime", "count"),
    ("exact_arith.rational_mod", "exact_arith", "rational_mod", "count"),
]

# Metric key -> the statistics reported for it.
REPORTED = {
    "cli.main": ("calls", "self_s"),
    **{f"action_model.{n}": ("self_s",) for n in ACTION_MODEL},
    "series.expand": ("self_s",),
    "poly.convolve": ("calls", "self_s", "mults"),
    "exact_arith.is_prime": ("calls",),
    "exact_arith.rational_mod": ("calls",),
}
EXIT_CODES = (0, 1, 2, 3)
SEARCH_COUNTS = ("search.candidates", "search.battery_calls", "search.accepted")


def metric_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in SPEC order."""
    names = []
    for key in dict.fromkeys(k for k, *_ in SPEC):
        names += [f"{key}.{stat}" for stat in REPORTED.get(key, ("calls", "self_s"))]
        if key == "cli.main":
            names += [f"cli.exit_{c}" for c in EXIT_CODES]
    ratios = ["search.prefilter_pass_ratio", "search.accept_ratio"]
    return names + list(SEARCH_COUNTS) + ratios + ["trace.request_s", "trace.overhead_frac"]


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_ratio", "_frac")) else "count"


class Tracer:
    """Collects one traced pass.  Create, `install`, run, `uninstall`,
    then read `metrics()`."""

    def __init__(self, package: str, candidates):
        self.package = package
        self.candidates = candidates  # (p, n_points, n_spheres, alphas) -> search space size
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.absent = []
        self._stack = [0]  # child time of each open span
        self._searching = 0
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def _timed(self, key, fn, before=None, after=None):
        stack, calls, self_ns = self._stack, self.calls, self.self_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                self_ns[key] += dt - stack.pop()
                stack[-1] += dt
                calls[key] += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, key, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _search(self, key, fn):
        def wrapper(p, n_points, n_spheres, sphere_alphas, *rest, **kwargs):
            self.calls[key] += 1
            size = self.candidates(p, n_points, n_spheres, tuple(sphere_alphas))
            self.counts["search.candidates"] += size
            return self._steps(key, fn(p, n_points, n_spheres, sphere_alphas, *rest, **kwargs))

        return wrapper

    def _steps(self, key, gen):
        # A generator does its work when advanced, so each step is a span.
        stack = self._stack
        while True:
            stack.append(0)
            self._searching += 1
            t0 = perf_counter_ns()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                dt = perf_counter_ns() - t0
                self.self_ns[key] += dt - stack.pop()
                stack[-1] += dt
                self._searching -= 1
            self.counts["search.accepted"] += 1
            yield item

    def _wrap(self, key, kind, fn):
        if kind == "count":
            return self._counted(key, fn)
        if kind == "search":
            return self._search(key, fn)
        if kind == "exit":
            return self._timed(key, fn, after=self._count_exit)
        if kind == "convolve":
            return self._timed(key, fn, before=self._count_mults)
        if kind == "battery":
            return self._timed(key, fn, before=self._count_battery_call)
        return self._timed(key, fn)

    def _count_exit(self, code) -> None:
        self.counts[f"cli.exit_{code}"] += 1

    def _count_mults(self, args) -> None:
        self.counts["poly.convolve.mults"] += len(args[0]) * len(args[1])

    def _count_battery_call(self, args) -> None:
        if self._searching:
            self.counts["search.battery_calls"] += 1

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        pkg = self.package
        modules = [m for n, m in list(sys.modules.items()) if n == pkg or n.startswith(pkg + ".")]
        for key, modname, attr, kind in SPEC:
            owner_name, _, name = attr.rpartition(".")
            owner = sys.modules.get(f"{pkg}.{modname}")
            if owner is not None and owner_name:
                owner = vars(owner).get(owner_name)
            target = vars(owner).get(name) if owner is not None else None
            if target is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(key, kind, target)
            holders = [owner] if owner_name else modules
            for holder in holders:
                for slot, value in list(vars(holder).items()):
                    if value is target:
                        setattr(holder, slot, wrapper)
                        self._undo.append((holder, slot, value))

    def uninstall(self) -> None:
        for holder, slot, value in reversed(self._undo):
            setattr(holder, slot, value)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in metric_names():
            key, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = self.calls[key]
            elif stat == "self_s":
                out[name] = self.self_ns[key] / 1e9
            else:
                out[name] = self.counts[name]
        cand, battery, accepted = (self.counts[n] for n in SEARCH_COUNTS)
        out["search.prefilter_pass_ratio"] = battery / cand if cand else 0.0
        out["search.accept_ratio"] = accepted / battery if battery else 0.0
        return out
