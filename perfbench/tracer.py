"""Spans and counters recorded from outside the program.

`Tracer.install()` replaces every public function of every `hlab` module
with a wrapper that records a span (name, start, end, parent, request,
self time), and rebinds it in each `hlab` module that imported the
function by name, so calls between modules are seen too.  Counters are
derived from call arguments.  `uninstall()` restores the originals.
Spans are kept in memory and written out by the caller.

A span's self time is its duration minus the durations of its child
spans; a layer's self time is the sum over spans of its functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from collections import Counter
from math import comb
from time import perf_counter_ns

# Called once per element of a loop (per vertex subset, per pair, per
# word), so a span each would cost more than the work it times.  Their
# time stays in the calling span's self time.
UNSPANNED = frozenset({
    "hlab.hypergraph.binom", "hlab.hypergraph.rank_subset",
    "hlab.hypergraph.unrank_subset", "hlab.hypergraph.subsets_colex",
    "hlab.hypergraph.canonical_bound", "hlab.rng.mix64",
    "hlab.rng.raw_u64", "hlab.rng.stream_key", "hlab.measure.fraction_str",
})

# Counted but given no span: mask_chunks only lays out the grid, and
# map_chunks runs its caller's closure, whose time belongs to the caller.
COUNT_ONLY = frozenset({"hlab.measure.mask_chunks", "hlab.measure.map_chunks"})


def _row_masks(c, masks, n, r, fam, within=None):
    scope = n if within is None else len(within)
    c["family.row_masks"] += masks.shape[0] * sum(
        comb(scope, h) for h in fam.orders() if h <= scope)


# Counters taken from the arguments of a call, keyed by function.
ARG_COUNTERS = {
    "hlab.measure.mask_chunks": lambda c, nbits: c.update(
        {"measure.scans": 1, "measure.masks_enumerated": 1 << nbits}),
    "hlab.family.batch_contains": _row_masks,
    "hlab.measure.mc_measure": lambda c, n, r, p, pred, samples, *a, **k:
        c.update({"measure.samples": samples}),
    "hlab.rng.substream_blocks": lambda c, seed, first, count, draws:
        c.update({"rng.block_draws": count * draws}),
    "hlab.rng.raw_u64_block": lambda c, key, first, count:
        c.update({"rng.block_draws": count}),
}


def hlab_modules() -> list:
    """The layers: every module of the hlab package, imported."""
    pkg = importlib.import_module("hlab")
    return [importlib.import_module(f"hlab.{m.name}")
            for m in pkgutil.iter_modules(pkg.__path__)]


def _public_functions(mod) -> dict:
    out = {}
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            qual = f"{mod.__name__}.{name}"
            if qual not in UNSPANNED:
                out[qual] = obj
    return out


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent, request, self_ns)
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list = []  # [span index, child ns] of open spans
        self._undo: list = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name] += 1
            if count is not None:
                count(counts, *args, **kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0]
            spans.append(None)
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans[frame[0]] = (name, t0, t1, parent, self.request,
                                   t1 - t0 - frame[1])
        return traced

    def _counted(self, name: str, fn, count=None):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            if count is not None:
                count(counts, *args, **kwargs)
            return fn(*args, **kwargs)
        return counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = hlab_modules()
        wrapped = {}
        for mod in mods:
            for qual, fn in _public_functions(mod).items():
                short = qual.removeprefix("hlab.")
                make = self._counted if qual in COUNT_ONLY else self.wrap
                wrapped[id(fn)] = make(short, fn, ARG_COUNTERS.get(qual))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
        Rng = sys.modules["hlab.rng"].Rng
        self._set(Rng, "shuffle", self.wrap("rng.Rng.shuffle", Rng.shuffle))
        self._set(Rng, "next_u64", self._counted("rng.Rng.next_u64",
                                                  Rng.next_u64))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_seconds(self) -> Counter:
        """Self time in seconds per span name."""
        out: Counter = Counter()
        for name, _, _, _, _, self_ns in self.spans:
            out[name] += self_ns / 1e9
        return out


def clear_caches() -> None:
    """Empty every lru_cache in hlab, so the next pass starts from caches
    as empty as those of a fresh CLI process."""
    for mod in hlab_modules():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_info"):
                obj.cache_clear()


def cache_stats() -> dict:
    """(hits, misses) of each lru_cache in hypergraph and family."""
    out = {}
    for mod in ("hlab.hypergraph", "hlab.family"):
        for name, obj in vars(sys.modules[mod]).items():
            if hasattr(obj, "cache_info"):
                info = obj.cache_info()
                out[f"{mod}.{name}"] = (info.hits, info.misses)
    return out
