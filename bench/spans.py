"""Layer tracing for the benchmark, installed from outside the library.

Every public function of the six layer modules (plus the few constructors and
steps named in EXTRA) is replaced, in every mla_forge module namespace that
holds it, by a wrapper that records a span: name, layer, start, end and the
span that was open when it was called. Nothing in src/ changes; the
wrappers are removed again by ``uninstall``.

A span's self time is its duration minus the time its child spans cover;
summed per layer, the self times account for all traced time spent inside
the library. Metric groups ("cats") add up the duration of the outermost
span of the group, so nested calls (load_bracket -> group_from_doc) are
counted once.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable

LAYERS = ("groups", "brackets", "construction", "search", "serialization", "cli")

# Called once per table cell or per relabeling: a span there would cost more
# than the work it measures.
SKIP = {
    "groups": {"pair_index", "pair_split", "conjugate", "commutator"},
    "brackets": {"pushforward_table"},
    "search": {"tau"},
}

# Non-public steps and constructors that are layer boundaries all the same.
EXTRA = {
    "groups": ("FiniteGroup.from_table",),
    "brackets": ("LieBracket.make",),
    "construction": ("Action.make", "GammaMap.make", "PairingMap.make", "ConstructionData.make"),
    "search": ("_classify",),
}

CATS = {
    "search._classify": "search.classify",
    "search.enumerate_gamma": "search.gamma",
    "search.enumerate_pairings": "search.pairings",
    "brackets.canonical_bracket_key": "brackets.canonical_key",
    "brackets.verify_mla": "brackets.verify_mla",
    "groups.automorphisms": "groups.automorphisms",
    "groups.FiniteGroup.from_table": "groups.from_table",
    "construction.check_theorem_conditions": "construction.conditions",
}
for _name in ("load_group", "load_bracket", "load_construction", "group_from_doc",
              "bracket_from_doc", "construction_from_doc"):
    CATS[f"serialization.{_name}"] = "serialization.load"
for _name in ("save_group", "save_bracket", "save_construction", "group_to_doc", "bracket_to_doc",
              "construction_to_doc", "condition_report_to_doc", "enumeration_to_doc",
              "canonical_dumps"):
    CATS[f"serialization.{_name}"] = "serialization.save"


class RoundStats:
    """Per-round totals: self time per layer, time and calls per cat, and the
    counters the wrappers keep."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.cat_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)
        self.actions: set = set()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.stack: list[list] = []  # [span index, layer, cat, start, child time]
        self.depth: dict[str, int] = defaultdict(int)
        self.stats = RoundStats()
        self.origin = time.perf_counter()
        self._patched: list[tuple[Any, str, Any]] = []
        self._last_aut_count = 0

    # -- spans -------------------------------------------------------------------

    def _enter(self, name: str, layer: str, cat: str | None) -> None:
        start = time.perf_counter()
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append([name, parent, start - self.origin, 0.0])
        self.stack.append([len(self.spans) - 1, layer, cat, start, 0.0])
        if cat:
            self.depth[cat] += 1
            self.stats.calls[cat] += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        index, layer, cat, start, child = self.stack.pop()
        duration = end - start
        self.spans[index][3] = end - self.origin
        self.stats.self_s[layer] += duration - child
        if self.stack:
            self.stack[-1][4] += duration
        if cat:
            self.depth[cat] -= 1
            if self.depth[cat] == 0:
                self.stats.cat_s[cat] += duration

    def new_round(self) -> RoundStats:
        done, self.stats = self.stats, RoundStats()
        return done

    # -- counters kept by particular wrappers ---------------------------------------

    def _after(self, key: str, site: str, fn: Callable, args: tuple, kwargs: dict, result: Any) -> None:
        count = self.stats.count
        if key == "brackets.verify_mla" and site == "search":
            count["search.leaves"] += 1
            count["search.leaves_accepted"] += not result
        elif key == "construction.check_theorem_conditions":
            count["construction.conditions_passed"] += bool(result.passed)
        elif key == "groups.automorphisms":
            self._last_aut_count = len(result)
        elif key == "brackets.canonical_bracket_key":
            arg = _arguments(fn, args, kwargs)
            autos = arg.get("autos")
            n_autos = len(autos) if autos is not None else self._last_aut_count
            count["brackets.relabelings"] += n_autos * (2 if arg.get("include_reversal") else 1)
        elif key == "groups.make_semidirect":
            count["construction.product_builds"] += 1
            arg = _arguments(fn, args, kwargs)
            self.stats.actions.add((arg["H"].cayley, arg["K"].cayley, tuple(map(tuple, arg["sigma"]))))
        elif key == "serialization.canonical_dumps":
            count["serialization.bytes_written"] += len(result.encode("utf-8"))

    def _wrap(self, fn: Callable, key: str, layer: str, site: str) -> Callable:
        cat = CATS.get(key)
        tracer = self

        def traced(*args, **kwargs):
            tracer._enter(key, layer, cat)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            tracer._after(key, site, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ---------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded mla_forge module."""
        modules = {n: m for n, m in sys.modules.items() if n == "mla_forge" or n.startswith("mla_forge.")}
        targets: dict[int, tuple[Callable, str, str]] = {}
        for layer in LAYERS:
            module = modules.get(f"mla_forge.{layer}")
            if module is None:
                continue
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and name not in SKIP.get(layer, ())
                ):
                    targets[id(obj)] = (obj, f"{layer}.{name}", layer)
            for dotted in EXTRA.get(layer, ()):
                owner_name, _, attr = dotted.rpartition(".")
                if owner_name:
                    cls = getattr(module, owner_name, None)
                    desc = vars(cls).get(attr) if cls is not None else None
                    if isinstance(desc, classmethod):
                        wrapped = classmethod(self._wrap(desc.__func__, f"{layer}.{dotted}", layer, layer))
                        setattr(cls, attr, wrapped)
                        self._patched.append((cls, attr, desc))
                elif inspect.isfunction(getattr(module, attr, None)):
                    obj = getattr(module, attr)
                    targets[id(obj)] = (obj, f"{layer}.{attr}", layer)
        for site_name, module in modules.items():
            site = site_name.rpartition(".")[2]
            for name, obj in list(vars(module).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    fn, key, layer = hit
                    setattr(module, name, self._wrap(fn, key, layer, site))
                    self._patched.append((module, name, obj))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()


def _arguments(fn: Callable, args: tuple, kwargs: dict) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def round_metrics(stats: RoundStats, wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced round (see README)."""
    cat, calls, count = stats.cat_s, stats.calls, stats.count
    leaves = count["search.leaves"]
    checked = calls["construction.conditions"]
    builds = count["construction.product_builds"]
    attributed = sum(stats.self_s[layer] for layer in LAYERS)
    out = {f"{layer}.self_s": stats.self_s[layer] for layer in LAYERS}
    out.update({
        "search.leaves": leaves,
        "search.leaf_accept_ratio": count["search.leaves_accepted"] / leaves if leaves else 0.0,
        "search.classify_s": cat["search.classify"],
        "search.gamma_s": cat["search.gamma"],
        "search.pairings_s": cat["search.pairings"],
        "brackets.canonical_key_calls": calls["brackets.canonical_key"],
        "brackets.canonical_key_s": cat["brackets.canonical_key"],
        "brackets.relabelings": count["brackets.relabelings"],
        "brackets.verify_mla_calls": calls["brackets.verify_mla"],
        "brackets.verify_mla_s": cat["brackets.verify_mla"],
        "groups.automorphisms_calls": calls["groups.automorphisms"],
        "groups.automorphisms_s": cat["groups.automorphisms"],
        "groups.from_table_calls": calls["groups.from_table"],
        "groups.from_table_s": cat["groups.from_table"],
        "construction.conditions_calls": checked,
        "construction.conditions_s": cat["construction.conditions"],
        "construction.conditions_pass_ratio": (
            count["construction.conditions_passed"] / checked if checked else 0.0
        ),
        "construction.product_builds": builds,
        "construction.product_builds_per_action": builds / len(stats.actions) if stats.actions else 0.0,
        "serialization.load_s": cat["serialization.load"],
        "serialization.save_s": cat["serialization.save"],
        "serialization.bytes_written": count["serialization.bytes_written"],
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - attributed,
    })
    return out
