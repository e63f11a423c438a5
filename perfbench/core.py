"""Closed-loop runner, spans and the statistics shared by every workload."""
from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Callable

from oracles import Breach, Mismatch


@dataclass
class Op:
    """One timed call into a layer of the program.

    `kind` names the metric stem (for example ``bell.chsh_scan``); `check`
    raises Mismatch for a wrong answer and Breach for a broken invariant.
    `trials` is the sample count of a Monte Carlo call.
    """

    kind: str
    layer: str
    call: Callable[[], object]
    check: Callable[[object], None]
    trials: int = 0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    rounds: int = 0
    # (successful ops, busy seconds) of each round
    round_rates: list[tuple[int, float]] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    failures: dict[str, int] = field(default_factory=dict)
    # successful latencies by kind, seconds
    latency: dict[str, list[float]] = field(default_factory=dict)
    failed_by_kind: dict[str, int] = field(default_factory=dict)
    trials: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed


class Tracer:
    """Spans (id, parent, name, layer, start, end) kept in memory.

    With tracing off nothing is recorded; the op timings the metrics use
    are taken the same way in both modes.
    """

    def __init__(self, on: bool):
        self.on = on
        self.spans: list[dict] = []
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, name: str, layer: str, start: float, end: float, parent: int | None = None,
            span_id: int | None = None) -> None:
        if self.on:
            self.spans.append({
                "id": span_id if span_id is not None else self.new_id(),
                "parent": parent, "name": name, "layer": layer, "start": start, "end": end,
            })

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time minus the part of it covered by child spans."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out: dict[str, float] = {}
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for a, b in sorted(children.get(s["id"], [])):
                a, b = max(a, reach), min(b, s["end"])
                if b > a:
                    covered += b - a
                    reach = b
            out[s["layer"]] = out.get(s["layer"], 0.0) + (s["end"] - s["start"] - covered)
        return out


def run_op(op: Op, tally: Tally, tracer: Tracer, parent: int | None) -> None:
    tally.attempted += 1
    tally.trials.setdefault(op.kind, op.trials)
    start = perf_counter()
    try:
        result = op.call()
        error = None
    except Exception as exc:  # the program's error is the op's outcome
        result, error = None, f"{type(exc).__name__}: {exc}"
    end = perf_counter()
    tally.busy_s += end - start
    tracer.add(op.kind, op.layer, start, end, parent)
    if error is None:
        try:
            op.check(result)
        except Breach as exc:
            error = f"Breach: {exc}"
        except Mismatch as exc:
            tally.mismatches.append(f"{op.kind}: {exc}")
        except Exception as exc:  # a check that cannot run counts as a wrong answer
            tally.mismatches.append(f"{op.kind}: check raised {type(exc).__name__}: {exc}")
    if error is not None:
        tally.failed += 1
        tally.failed_by_kind[op.kind] = tally.failed_by_kind.get(op.kind, 0) + 1
        key = f"{op.kind}: {error.splitlines()[0][:200]}"
        tally.failures[key] = tally.failures.get(key, 0) + 1
    else:
        tally.latency.setdefault(op.kind, []).append(end - start)


def run_rounds(make_round: Callable[[random.Random], list[list[Op]]], rng: random.Random,
               seconds: float, tally: Tally, tracer: Tracer, first: list[list[Op]] | None = None,
               max_rounds: int | None = None) -> None:
    """Closed loop, one client: whole rounds until `seconds` have passed.

    A round holds every operation kind; its groups (an op plus the ops
    that need its result, in order) run in a shuffled order so kinds
    interleave. Rounds are whole, so the failed share of a run does not
    depend on its length.
    """
    began = perf_counter()
    groups = first
    while True:
        if groups is None:
            groups = make_round(rng)
        rng.shuffle(groups)
        rid = tracer.new_id()
        start, ok0, busy0 = perf_counter(), tally.ok, tally.busy_s
        for group in groups:
            for op in group:
                run_op(op, tally, tracer, rid)
        tracer.add("round", "bench", start, perf_counter(), None, rid)
        tally.rounds += 1
        tally.round_rates.append((tally.ok - ok0, tally.busy_s - busy0))
        groups = None
        if perf_counter() - began >= seconds or (max_rounds and tally.rounds >= max_rounds):
            return


def geomean(xs: list[float]) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def end_to_end(tally: Tally) -> dict[str, float]:
    """ops_per_s is the median over rounds of successful ops per busy second,
    so one slow stretch of a shared machine moves it less than a total would."""
    kinds = [median(v) * 1e3 for v in tally.latency.values()]
    return {
        "ops_per_s": median([ok / busy for ok, busy in tally.round_rates]),
        "op_ms.geomean": geomean(kinds),
    }


def warn(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
