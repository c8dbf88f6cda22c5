"""Per-layer spans and counters recorded from outside the program.

The tracer replaces public functions and methods of the ``markoff_padic``
modules with wrappers, and restores them on ``uninstall``.  A function
imported into another module (``from .padic import newton_solve``) is a
second binding of the same object, so every attribute of every module of the
package that *is* the original gets the wrapper too.

Two kinds of wrapper:

* a span records wall time and a call count.  Spans nest on a stack; a
  span's self time is its duration minus the time of the spans it
  directly contains.
* a tally only counts calls.  Hot leaves (``PadicInt`` ring operations,
  generator applications) are tallied, not timed, so the counting adds
  one C-level increment per call and leaves span self times nearly
  undistorted.

The certification pipeline has no function per stage, so its stages are
spans opened and closed at the stage boundaries the pipeline crosses:
entry (base point and chart), ``strict_move_search`` (strict move), its
return (residual transitivity) and the return of ``residual_transitivity``
(minimal subdisk).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pkgutil
import sys
import time
from collections import defaultdict

_RING_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__neg__", "__pow__",
)

_CERTIFY_STAGES = (
    "certify.base_point",
    "certify.strict_move",
    "certify.residual_transitivity",
    "certify.minimal_subdisk",
)


class Tally:
    """A call counter whose increment is a single C call."""

    def __init__(self):
        self._it = itertools.count()
        self.tick = self._it.__next__
        self._reads = 0

    def read(self) -> int:
        value = next(self._it) - self._reads
        self._reads += 1
        return value


class Tracer:
    """Spans and counters for one traced pass over a workload."""

    def __init__(self):
        self._stack: list[list] = []  # [name, start, child_seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.tallies: dict[str, Tally] = {}
        self._patches: list[tuple[object, str, object]] = []
        # census bookkeeping
        self._census_depth = 0
        self._last_base_points = 0
        self.census_points = 0
        self.census_enum_s = 0.0
        self.census_bytes_est = 0
        self.census_orbits = 0
        self.brute_s: dict[tuple, float] = {}  # (p, k, workers) -> scan seconds
        # certify bookkeeping
        self.strict_tried = 0
        self.strict_found = 0
        self.stage_failures = 0
        self.word_letters_built = 0

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _close(self) -> float:
        name, start, child = self._stack.pop()
        dt = time.perf_counter() - start
        self.self_s[name] += dt - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dt
        return dt

    def _switch(self, expected: str, new: str) -> None:
        """Close the open stage span ``expected`` and open ``new``."""
        if self._stack and self._stack[-1][0] == expected:
            self._close()
            self._open(new)

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return functools.wraps(fn)(wrapper)

    # -- patching -----------------------------------------------------------

    def _patch_function(self, modules, owner, attr: str, wrapper) -> None:
        """Rebind owner.attr and every other module binding of the same object."""
        original = getattr(owner, attr)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def _patch_method(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> "Tracer":
        mods = _package_modules()
        padic, cheb, surface, flow, polydisk, census, certify = (
            mods[f"markoff_padic.{name}"]
            for name in ("padic", "chebyshev", "surface", "flow", "polydisk", "census", "certify")
        )
        mods = list(mods.values())

        def span_fn(owner, attr, name):
            self._patch_function(mods, owner, attr, self._span(name, getattr(owner, attr)))

        def tally_fn(owner, attr, name):
            fn = getattr(owner, attr)
            self._patch_function(mods, owner, attr, _tallied(fn, self._tally(name).tick))

        # padic: ring operations and allocations are tallied per call
        ring = self._tally("padic.ring_ops").tick
        for op in _RING_OPS:
            self._patch_method(padic.PadicInt, op, _tallied(padic.PadicInt.__dict__[op], ring))
        init = padic.PadicInt.__init__
        alloc = self._tally("padic.alloc").tick

        def padic_init(obj, prime, precision, residue):
            alloc()
            init(obj, prime, precision, residue)

        self._patch_method(padic.PadicInt, "__init__", padic_init)
        span_fn(padic, "newton_solve", "padic.newton_solve")
        tally_fn(padic, "sqrt", "padic.sqrt.calls")

        # chebyshev
        span_fn(cheb, "chebyshev_T", "chebyshev.family")
        span_fn(cheb, "chebyshev_U", "chebyshev.family")
        span_fn(cheb, "companion_power", "chebyshev.companion_power")
        span_fn(cheb, "verify_companion_estimates", "chebyshev.estimates")
        tally_fn(cheb, "fixed_point_Tp", "chebyshev.fixed_point_Tp.calls")

        # surface
        tally_fn(surface, "apply_generator", "surface.letters_applied")
        span_fn(surface, "apply_word", "surface.apply_word")
        span_fn(surface, "lift_point", "surface.lift_point")
        power = surface.AutWord.power

        def word_power(word, n):
            result = power(word, n)
            if n >= 0:  # a negative power recurses once with -n
                self.word_letters_built += len(result.letters)
            return result

        self._patch_method(surface.AutWord, "power", word_power)

        # flow
        self._patch_method(
            flow.PointMap, "__init__", self._span("flow.point_map", flow.PointMap.__init__)
        )
        span_fn(flow, "local_minimality_det", "flow.minimality_det")
        span_fn(flow, "twisted_minimality_det", "flow.minimality_det")
        span_fn(flow, "mahler_flow", "flow.mahler_flow")

        # polydisk
        chart = polydisk.PolydiskChart
        self._patch_method(
            chart, "apply_word_uv", self._span("polydisk.apply_word_uv", chart.apply_word_uv)
        )
        xi_tick = self._tally("polydisk.xi.calls").tick
        self._patch_method(chart, "xi", _tallied(chart.xi, xi_tick))
        span_fn(polydisk, "recentre", "polydisk.recentre")
        span_fn(polydisk, "verify_xi_expansion", "polydisk.verify")
        span_fn(polydisk, "verify_stabilizer_expansions", "polydisk.verify")

        # census
        self._patch_function(
            mods, census, "enumerate_points", self._enumerate_wrapper(census.enumerate_points)
        )
        orbits = self._span("census.bfs", census.orbits)

        def census_orbits(*args, **kwargs):
            part = orbits(*args, **kwargs)
            self.census_orbits += len(part.orbit_sizes)
            return part

        self._patch_function(mods, census, "orbits", functools.wraps(census.orbits)(census_orbits))
        span_fn(census, "check_transitivity", "census.bfs")
        span_fn(census, "finite_orbit_catalog", "census.catalog")

        # certify: stage spans inside the pipeline
        self._patch_function(
            mods, certify, "certify_minimal_polydisk",
            self._certify_wrapper(certify.certify_minimal_polydisk),
        )
        self._patch_function(
            mods, certify, "strict_move_search", self._strict_wrapper(certify.strict_move_search)
        )
        residual = certify.residual_transitivity

        def residual_transitivity(*args, **kwargs):
            try:
                return residual(*args, **kwargs)
            finally:
                self._switch(_CERTIFY_STAGES[2], _CERTIFY_STAGES[3])

        self._patch_function(
            mods, certify, "residual_transitivity",
            functools.wraps(residual)(residual_transitivity),
        )
        span_fn(certify, "check_XD", "certify.xd")
        return self

    def _tally(self, name: str) -> Tally:
        return self.tallies.setdefault(name, Tally())

    def _enumerate_wrapper(self, fn):
        def enumerate_points(p, k, D, mode="auto", workers=1, max_mem=None):
            kind = mode if mode != "auto" else ("brute" if k == 1 else "lift")
            outermost = self._census_depth == 0
            self._census_depth += 1
            self._open("census.lift" if kind == "lift" else "census.brute")
            try:
                pts = fn(p, k, D, mode=mode, workers=workers, max_mem=max_mem)
            finally:
                dt = self._close()
                self._census_depth -= 1
            # the budget formulas of enumerate_points, evaluated on this call
            if kind == "brute":
                estimate = 8 * (p**k) ** 2 * 4
                self._last_base_points = len(pts)
            else:
                estimate = 8 * self._last_base_points * p ** (2 * (k - 1)) * 4
            self.census_bytes_est = max(self.census_bytes_est, estimate)
            if outermost:
                self.census_points += len(pts)
                self.census_enum_s += dt
                if kind == "brute":
                    self.brute_s.setdefault((p, k, workers), dt)
            return pts

        return functools.wraps(fn)(enumerate_points)

    def _certify_wrapper(self, fn):
        def certify_minimal_polydisk(*args, **kwargs):
            depth = len(self._stack)
            self._open(_CERTIFY_STAGES[0])
            try:
                cert = fn(*args, **kwargs)
            finally:
                while len(self._stack) > depth:
                    self._close()
            self.stage_failures += len(cert["stage_failures"])
            return cert

        return functools.wraps(fn)(certify_minimal_polydisk)

    def _strict_wrapper(self, fn):
        def strict_move_search(*args, **kwargs):
            self._switch(_CERTIFY_STAGES[0], _CERTIFY_STAGES[1])
            before = self.calls["surface.apply_word"]
            try:
                result = fn(*args, **kwargs)
                self.strict_found += 1
                return result
            finally:
                self.strict_tried += self.calls["surface.apply_word"] - before
                self._switch(_CERTIFY_STAGES[1], _CERTIFY_STAGES[2])

        return functools.wraps(fn)(strict_move_search)

    # -- results ------------------------------------------------------------

    def counts(self) -> dict[str, float]:
        """Counters of the pass; these must repeat exactly between passes."""
        out = {name: tally.read() for name, tally in self.tallies.items()}
        for name in ("padic.newton_solve", "chebyshev.family", "chebyshev.companion_power",
                     "surface.apply_word", "surface.lift_point", "flow.mahler_flow",
                     "polydisk.apply_word_uv"):
            out[name + ".calls"] = self.calls.get(name, 0)
        out["surface.word_letters_built"] = self.word_letters_built
        out["census.points"] = self.census_points
        out["census.bytes_est"] = self.census_bytes_est / 2**20
        out["census.orbits"] = self.census_orbits
        out["certify.strict_move.candidates"] = (
            self.strict_tried / self.strict_found if self.strict_found else 0.0
        )
        out["certify.stage_failures"] = self.stage_failures
        return out

    def timings(self) -> dict[str, float]:
        """Self times and rates of the pass, in seconds or per second."""
        out = {name + ".s": seconds for name, seconds in self.self_s.items()}
        out["census.points_per_s"] = (
            self.census_points / self.census_enum_s if self.census_enum_s else 0.0
        )
        effs = [
            seconds / (2 * self.brute_s[(p, k, 2)])
            for (p, k, workers), seconds in self.brute_s.items()
            if workers == 1 and (p, k, 2) in self.brute_s
        ]
        out["census.brute.scaling_eff"] = min(effs) if effs else 0.0
        return out


def _package_modules() -> dict:
    """Every module of the package, imported, so each binding can be rebound.

    Importing them all first means no module is first loaded while the
    wrappers are in place, where it would keep a wrapper after ``uninstall``.
    """
    import markoff_padic

    for info in pkgutil.walk_packages(markoff_padic.__path__, "markoff_padic."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    return {name: mod for name, mod in sys.modules.items()
            if name == "markoff_padic" or name.startswith("markoff_padic.")}


def _tallied(fn, tick):
    """fn with a tally tick; plain one- and two-argument calls skip packing."""
    code = fn.__code__
    plain = not (code.co_flags & 0x0C or code.co_kwonlyargcount or fn.__defaults__)
    if plain and code.co_argcount == 1:
        def wrapper(obj):
            tick()
            return fn(obj)
    elif plain and code.co_argcount == 2:
        def wrapper(obj, other):
            tick()
            return fn(obj, other)
    else:
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)
    return functools.wraps(fn)(wrapper)
