"""Span tracing for the benchmark, installed from outside the program.

`install` replaces public functions and methods of every bartgrid module with
wrappers that time each call.  Spans are aggregated in memory, keyed by
(phase, parent span, span), so a traced run of millions of calls stays small;
a layer's self time is its spans' time minus the time of their child spans.
Nothing under `src/` knows about this module.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from typing import Callable

from bartgrid import analysis, cli, cluster, datagen, perf, protocol, sampler, trees

# Modules whose public functions become spans, by layer name.  `perf` only
# analyses timings and is on no fit or predict path, so it is not traced.
LAYERS = {
    "trees": trees,
    "sampler": sampler,
    "protocol": protocol,
    "cluster": cluster,
    "datagen": datagen,
    "analysis": analysis,
    "cli": cli,
}
ALL_MODULES = [*LAYERS.values(), perf]

# Not wrapped here: the chain driver, which the harness wraps itself (see
# run.ChainObserver), and the command-line entry and its parser.  Generators
# (such as datagen.iter_rows) are skipped below: a wrapper would time only
# their creation.
SKIP = {"run_chain_core", "main", "build_parser"}

OnReturn = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Aggregated spans plus counts recorded at the same boundaries."""

    def __init__(self):
        self.phase = "setup"
        self._stack: list[list] = []  # frames: [name, phase, child seconds]
        # (phase, parent name or "", name) -> [calls, seconds, child seconds]
        self.spans: dict[tuple[str, str, str], list] = {}
        self.counts: dict[tuple[str, str], float] = {}

    def count(self, name: str, amount: float) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(self, name: str, fn: Callable, on_return: OnReturn | None = None) -> Callable:
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, self.phase, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += elapsed
                key = (frame[1], parent[0] if parent else "", name)
                rec = spans.get(key)
                if rec is None:
                    spans[key] = [1, elapsed, frame[2]]
                else:
                    rec[0] += 1
                    rec[1] += elapsed
                    rec[2] += frame[2]
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    # -- queries ---------------------------------------------------------------

    def calls(self, name: str, phase: str) -> int:
        return sum(r[0] for (ph, _, nm), r in self.spans.items() if ph == phase and nm == name)

    def seconds(self, name: str, phase: str) -> float:
        """Inclusive time of a span; nested calls of the same span count once."""
        return sum(
            r[1] for (ph, parent, nm), r in self.spans.items()
            if ph == phase and nm == name and parent != name
        )

    def self_seconds(self, phase: str) -> dict[str, float]:
        """Self time per layer: the span name's module, with the shard
        kernels (`ShardData` methods) split from the rest of the sampler."""
        out: dict[str, float] = {}
        for (ph, _, nm), (_, total, child) in self.spans.items():
            if ph == phase:
                layer = nm.split(".", 1)[0]
                if nm.startswith("sampler.ShardData."):
                    layer = "sampler.shard"
                out[layer] = out.get(layer, 0.0) + total - child
        return out

    def counted(self, name: str, phase: str) -> float:
        return self.counts.get((phase, name), 0.0)

    # -- transport between processes ---------------------------------------------

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {
                    "spans": [[*key, *rec] for key, rec in self.spans.items()],
                    "counts": [[*key, value] for key, value in self.counts.items()],
                    "extra": extra,
                },
                fh,
            )

    @classmethod
    def load(cls, path: str) -> tuple["Tracer", dict]:
        with open(path, "r", encoding="ascii") as fh:
            raw = json.load(fh)
        tracer = cls()
        tracer.spans = {(ph, parent, nm): [c, s, ch] for ph, parent, nm, c, s, ch in raw["spans"]}
        tracer.counts = {(ph, nm): v for ph, nm, v in raw["counts"]}
        return tracer, raw["extra"]

    def table(self, phase: str, limit: int = 25) -> list[str]:
        """Widest spans of one phase by self time, for a human reader."""
        rows = sorted(
            ((r[1] - r[2], r[0], r[1], parent, nm)
             for (ph, parent, nm), r in self.spans.items() if ph == phase),
            reverse=True,
        )[:limit]
        return [
            f"{self_s * 1e3:10.1f} ms self {total * 1e3:10.1f} ms total {calls:9d} calls"
            f"  {nm}  <- {parent or '-'}"
            for self_s, calls, total, parent, nm in rows
        ]


def _rebind(original: object, replacement: object) -> None:
    """Point every bartgrid module's binding of `original` at `replacement`."""
    for module in ALL_MODULES:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _pass_rows(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    """Each shard kernel makes one pass over all of the shard's rows."""
    tracer.count("sampler.shard.rows_scanned", args[0].n)


def _move_rows(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    """Rows a move-stats pass scans, and the rows that fall in the moved node."""
    _pass_rows(tracer, args, kwargs, result)
    tracer.count("sampler.shard.move_stats.rows_scanned", args[0].n)
    tracer.count("sampler.shard.move_stats.useful_rows", sum(lt.n + rt.n for lt, rt in result))


def _eval_rows(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.count("trees.evaluate_rows.rows", len(result))


ON_RETURN: dict[str, OnReturn] = {
    "sampler.ShardData.move_stats_blocks": _move_rows,
    "sampler.ShardData.mu_stats_blocks": _pass_rows,
    "sampler.ShardData.rss_blocks": _pass_rows,
    "sampler.ShardData.apply_birth": _pass_rows,
    "sampler.ShardData.apply_death": _pass_rows,
    "sampler.ShardData.apply_mus": _pass_rows,
    "trees.evaluate_rows": _eval_rows,
}


def install(tracer: Tracer, hooks: dict[str, OnReturn] | None = None) -> None:
    """Wrap the public functions and methods of every traced module.

    `hooks` adds per-span callbacks that run after the call returns.
    """
    hooks = {**ON_RETURN, **(hooks or {})}
    for layer, module in LAYERS.items():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or attr in SKIP:
                continue
            if getattr(value, "__module__", None) != module.__name__:
                continue  # imported from elsewhere; wrapped where it is defined
            if inspect.isfunction(value):
                if inspect.isgeneratorfunction(value):
                    continue
                name = f"{layer}.{attr}"
                _rebind(value, tracer.wrap(name, value, hooks.get(name)))
            elif inspect.isclass(value) and not issubclass(value, BaseException):
                for meth, fn in list(vars(value).items()):
                    if meth.startswith("_") or not inspect.isfunction(fn):
                        continue
                    if inspect.isgeneratorfunction(fn):
                        continue
                    name = f"{layer}.{attr}.{meth}"
                    setattr(value, meth, tracer.wrap(name, fn, hooks.get(name)))
