"""Per-function call counts and self times for the ``ecta`` modules.

The tracer replaces each target function by a wrapper at every binding
of it in the loaded ``ecta.*`` modules (``region_automaton`` imports
``decompose``, ``post_edge`` and ``pre_edge`` by name, and the package
re-exports most of them), and each target method on its class.  It
keeps one running total per name instead of a span per call, so its
memory does not grow with the length of a search.

Self time is a call's wall time minus the wall time of the traced calls
nested inside it.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

# metric prefix -> (module, attribute path); "Edbm.x" names a method.
TARGETS = {
    **{
        f"edbm.{m}": ("ecta.edbm", f"Edbm.{m}")
        for m in (
            "normalize", "future", "past", "intersect", "release",
            "includes", "subtract", "with_cells", "sample", "is_empty",
        )
    },
    "regions.decompose": ("ecta.regions", "decompose"),
    "regions.region_to_zone": ("ecta.regions", "region_to_zone"),
    "regions.region_of": ("ecta.regions", "region_of"),
    "region_automaton.build": ("ecta.region_automaton", "build"),
    "region_automaton.language_empty": ("ecta.region_automaton", "language_empty"),
    "analysis.post_edge": ("ecta.analysis", "post_edge"),
    "analysis.pre_edge": ("ecta.analysis", "pre_edge"),
    "analysis.forw_exact": ("ecta.analysis", "forw_exact"),
    "analysis.back_exact": ("ecta.analysis", "back_exact"),
    "core.parse_guard": ("ecta.core", "parse_guard"),
    "automaton.parse_ecta": ("ecta.automaton", "parse_ecta"),
}

# Counts read off a target's result, keyed by metric prefix.
EXTRAS: dict[str, dict[str, Callable[[object], int]]] = {
    "edbm.includes": {"true": int},
    "regions.decompose": {"regions_out": len},
    "analysis.post_edge": {"zones_out": len},
    "analysis.pre_edge": {"zones_out": len},
    "region_automaton.build": {
        "states": lambda r: len(r.states),
        "edges": lambda r: len(r.edges),
    },
    "analysis.forw_exact": {"dequeued": lambda r: r.steps_used},
    "analysis.back_exact": {"dequeued": lambda r: r.steps_used},
}


class Tracer:
    """Wraps the targets in place; ``stats`` maps each prefix to
    ``{"calls": n, "self_s": t, ...extras}``."""

    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = {}
        self._stack: list[float] = []

    def install(self) -> None:
        for prefix, (module, path) in TARGETS.items():
            owner = sys.modules[module]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self._wrap(prefix, getattr(cls, attr)))
            else:
                original = getattr(owner, path)
                _rebind(original, self._wrap(prefix, original))
        self._count_decompose_work()

    def _wrap(self, prefix: str, fn: Callable) -> Callable:
        extras = EXTRAS.get(prefix, {})
        stat = self.stats.setdefault(
            prefix, {"calls": 0, "self_s": 0.0, **dict.fromkeys(extras, 0)}
        )
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat["calls"] += 1
                stat["self_s"] += elapsed - inner
            for key, count in extras.items():
                stat[key] += count(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_decompose_work(self) -> None:
        """Count ``normalize`` calls made inside ``decompose`` calls that
        missed its cache (every call, if it has none), and the regions
        those calls returned."""
        traced = sys.modules["ecta.regions"].decompose
        cache_info = getattr(traced.__wrapped__, "cache_info", None)
        normalize = self.stats["edbm.normalize"]
        stat = self.stats.setdefault(
            "regions.decompose_misses", {"normalize": 0, "regions": 0}
        )

        def counting(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            before = normalize["calls"]
            result = traced(*args, **kwargs)
            if cache_info is None or cache_info().misses > misses:
                stat["normalize"] += normalize["calls"] - before
                stat["regions"] += len(result)
            return result

        _rebind(traced, counting)


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every binding of ``original`` in the ``ecta`` modules at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name == "ecta" or name.startswith("ecta."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
