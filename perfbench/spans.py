"""Outside-in tracing: spans around the public functions of each layer.

Each traced function is rebound, in every `circulant` module that holds it
by name, to a wrapper that counts calls and records a span.  A span's self
time is its duration minus the durations of the traced spans it caused.
The library itself is not modified; `remove` restores the originals.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# layer (module) -> traced public functions
LAYERS = {
    "core": ("edge_set", "reflexive_reduce", "symmetric_closure"),
    "theta": ("classify_t", "theta_image", "detect_circulant", "classification_table"),
    "type1": ("phi_apply", "type1_witnesses", "type1_set", "type1_group", "units"),
    "groups": ("v_set", "t2_set", "t2_group", "v_group", "census"),
    "families": ("family_verify",),
    "oracle": ("brute_force_isomorphic", "spectral_fingerprint", "gcd_signature_check"),
    "cli": ("main", "build_parser"),
}
SPANS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Call counts, self times and outcome counters for the traced spans."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        # outcome counters behind the ratio metrics
        self.steps_circulant = 0
        self.witness_hits = 0
        self.census_examined = 0
        self.census_rederived = 0
        self.problems: list[str] = []
        self._children: list[float] = []  # traced time below each open span
        self._census_seen: set | None = None
        self._census_start = 0
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "circulant" or name.startswith("circulant.")]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"circulant.{layer}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for module in modules:
                    if getattr(module, fn, None) is original:
                        self._patched.append((module, fn, original))
                        setattr(module, fn, wrapper)

    def remove(self) -> None:
        for module, fn, original in reversed(self._patched):
            setattr(module, fn, original)
        self._patched.clear()

    def _wrap(self, span: str, fn):
        children = self._children
        observe = getattr(self, "_observe_" + span.split(".")[1], None)
        is_census = span == "groups.census"

        def traced(*args, **kwargs):
            children.append(0.0)
            if is_census:
                self._census_seen = set()
                self._census_start = self.census_examined
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                below = children.pop()
                if children:
                    children[-1] += elapsed
                self.self_s[span] += elapsed - below
                self.calls[span] += 1
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _observe_classify_t(self, row) -> None:
        if row.image is not None:
            self.steps_circulant += 1

    def _observe_type1_witnesses(self, wits) -> None:
        if wits:
            self.witness_hits += 1

    def _observe_t2_set(self, s) -> None:
        # census sweeps each candidate with one t2_set call; a candidate whose
        # multi-member class is already known is re-derived work
        if self._census_seen is None:
            return
        self.census_examined += 1
        if len(s.members) > 1:
            key = tuple(sorted(g.jumps for g in s.members))
            if key in self._census_seen:
                self.census_rederived += 1
            self._census_seen.add(key)

    def _observe_census(self, result) -> None:
        self._census_seen = None
        traced = self.census_examined - self._census_start
        if result.summary.examined != traced:
            self.problems.append(f"census examined {result.summary.examined}, traced {traced} candidates")

    def ratios(self) -> dict[str, float]:
        def share(part: int, whole: int) -> float:
            return part / whole if whole else 0.0

        return {
            "theta.classify_t.circulant_frac": share(self.steps_circulant, self.calls["theta.classify_t"]),
            "type1.type1_witnesses.hit_frac": share(self.witness_hits, self.calls["type1.type1_witnesses"]),
            "groups.census.rederived_frac": share(self.census_rederived, self.census_examined),
        }
