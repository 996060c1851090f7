"""Simulated-annealing baseline over the pragma configuration space.

Searches per-loop pipeline/unroll settings and per-array partition factors
against the analytical simulator, as a non-generative point of comparison
for the refinement loop. Factor ladders are powers of two up to the trip
count (or element count) plus the full value itself, which is the slice of
the space HLS practice actually uses.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product

from .errors import ValidationError
from .kb import FpgaTarget
from .reports import RESOURCE_NAMES, QoRReport
from .toolchain import KernelModel, KernelShape, Settings, _check_settings, _wns_cents, coster
from .toolchain import evaluate

PENALTY = 10**6


def factor_ladder(full: int) -> tuple[int, ...]:
    """1, 2, 4, ... capped by the full (complete) value, which is included."""
    steps = [1]
    while steps[-1] * 2 < full:
        steps.append(steps[-1] * 2)
    if full > 1:
        steps.append(full)
    return tuple(steps)


@dataclass(frozen=True)
class PragmaConfig:
    """A point of the search space by loop and array name, as `anneal`
    and `brute_force` return it."""

    pipeline: dict  # loop label -> bool
    unroll: dict  # loop label -> factor
    partition: dict  # array name -> factor


@dataclass(frozen=True)
class ConfigSpace:
    """Mutable dimensions the search may touch, with their ladders.

    A point of the space is a flat tuple of values, one per field of
    `fields`; a pipeline field holds the requested II, as `Settings`
    does, and its ladder is (None, 1). Restricting a space (fewer loops,
    shorter ladders) keeps brute-force enumeration tractable for oracle
    comparisons.
    """

    pipeline_loops: tuple[str, ...]
    unroll_ladders: dict  # loop label -> tuple of factors
    partition_ladders: dict  # array name -> tuple of factors

    @classmethod
    def for_model(cls, model: KernelModel) -> "ConfigSpace":
        return cls(
            pipeline_loops=tuple(l.label for l in model.loops()),
            unroll_ladders={l.label: factor_ladder(l.trip_count) for l in model.loops()},
            partition_ladders={a.name: factor_ladder(a.elements) for a in model.arrays},
        )

    @cached_property
    def fields(self) -> tuple[tuple[str, str], ...]:
        """(kind, name) of each value of a point, in point order: the
        pipeline loops in space order, then the unroll labels and the
        partition names, each sorted."""
        return (
            tuple(("pipeline", label) for label in self.pipeline_loops)
            + tuple(("unroll", label) for label in sorted(self.unroll_ladders))
            + tuple(("partition", name) for name in sorted(self.partition_ladders))
        )

    @cached_property
    def ladders(self) -> tuple[tuple, ...]:
        """The values each field of a point may take, in point order."""
        return (
            ((None, 1),) * len(self.pipeline_loops)
            + tuple(self.unroll_ladders[label] for label in sorted(self.unroll_ladders))
            + tuple(self.partition_ladders[name] for name in sorted(self.partition_ladders))
        )

    @cached_property
    def mutable_dims(self) -> tuple[tuple[int, tuple], ...]:
        """(position, ladder) of every field a neighbor step can change:
        each pipeline field, then each ladder with more than one rung."""
        return tuple((i, ladder) for i, ladder in enumerate(self.ladders) if len(ladder) > 1)

    def initial(self) -> tuple:
        """The point with no loop pipelined and every ladder on its first rung."""
        return tuple(ladder[0] for ladder in self.ladders)

    def config(self, point: tuple) -> PragmaConfig:
        """The point as a PragmaConfig, whose pipeline values are flags."""
        cfg = PragmaConfig(pipeline={}, unroll={}, partition={})
        for (kind, name), value in zip(self.fields, point):
            getattr(cfg, kind)[name] = value is not None if kind == "pipeline" else value
        return cfg

    def points(self):
        """Every point, in deterministic order."""
        return product(*self.ladders)


@dataclass(frozen=True)
class AnnealSchedule:
    t0: float = 1.0
    alpha: float = 0.95
    steps: int = 500
    seed: int = 0

    def validate(self) -> None:
        if self.t0 <= 0:
            raise ValidationError("t0 must be > 0")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must be in (0, 1)")
        if self.steps < 1:
            raise ValidationError("steps must be >= 1")


def _positions(model: KernelModel, space: ConfigSpace):
    """Where each loop's requested II and unroll factor, and each array's
    partition factor, sit in a point followed by the fixed values:
    (pipeline positions, unroll positions, partition positions, fixed
    values), each in model order.

    A loop or array the space leaves out reads a fixed value past the
    point's end: not pipelined, and the model's factor. Raises
    ValidationError when a field names no loop or array of the model,
    appears twice, has an empty ladder or repeats a rung.
    """
    loops = model.loops()
    offered = {(kind, l.label) for l in loops for kind in ("pipeline", "unroll")}
    offered |= {("partition", a.name) for a in model.arrays}
    at: dict[tuple[str, str], int] = {}
    for i, ((kind, name), ladder) in enumerate(zip(space.fields, space.ladders)):
        if (kind, name) not in offered:
            raise ValidationError(f"space: {kind} {name!r} is not in the kernel model")
        if (kind, name) in at:
            raise ValidationError(f"space: {kind} {name!r} appears twice")
        if not ladder:
            raise ValidationError(f"space: {kind} {name!r} has an empty ladder")
        if len(set(ladder)) < len(ladder):
            rung = next(v for k, v in enumerate(ladder) if v in ladder[:k])
            raise ValidationError(f"space: {kind} {name!r} repeats rung {rung}")
        at[kind, name] = i
    end = len(space.fields)
    fixed = (None,) + tuple(l.unroll_factor for l in loops)
    fixed += tuple(a.partition_factor for a in model.arrays)
    ii_at = tuple(at.get(("pipeline", l.label), end) for l in loops)
    unroll_at = tuple(at.get(("unroll", l.label), end + 1 + k) for k, l in enumerate(loops))
    partition_at = tuple(
        at.get(("partition", a.name), end + 1 + len(loops) + k)
        for k, a in enumerate(model.arrays)
    )
    return ii_at, unroll_at, partition_at, fixed


def _settings_at(positions) -> Callable[[tuple], Settings]:
    """The function from a point to its settings, given `_positions`: a
    loop or array the space leaves out keeps the model's factor and is
    not pipelined."""
    ii_at, unroll_at, partition_at, fixed = positions

    def settings(point: tuple) -> Settings:
        values = point + fixed
        return Settings(
            tuple([values[i] for i in ii_at]),
            tuple([values[i] for i in unroll_at]),
            tuple([values[i] for i in partition_at]),
        )

    return settings


def objective(qor: QoRReport) -> float:
    """Latency plus 10^6 per violated constraint; lower is better.

    Violations: negative slack counts once, and each overflowed resource
    counts once. The penalty magnitude dominates any realistic latency so
    the search prefers any feasible design over any infeasible one, while
    infeasible regions stay traversable.
    """
    violations = (1 if qor.timing.wns_ns < 0 else 0) + len(qor.resources.overflow)
    return float(qor.latency_cycles) + PENALTY * violations


def neighbor(point: tuple, rng: random.Random, space: ConfigSpace) -> tuple:
    """A point differing from point in exactly one field.

    Each field moves one rung up or down its ladder (a pipeline field
    toggles); at a ladder end only the inward step is possible.
    """
    dims = space.mutable_dims
    i, ladder = dims[rng.randrange(len(dims))]
    pos = ladder.index(point[i])
    if pos == 0:
        pos = 1
    elif pos == len(ladder) - 1:
        pos -= 1
    else:
        pos += 1 if rng.random() < 0.5 else -1
    return point[:i] + (ladder[pos],) + point[i + 1 :]


def _search(model: KernelModel, space: ConfigSpace, target: FpgaTarget, clock_ns: float):
    """(shape, settings_of, score), score(point) being objective(evaluate(...)).

    Checks the space against the model and its smallest rungs, valid iff
    every point is. A point's cost comes from `toolchain.coster`, built
    once per search over the ladders; the target's capacities are read
    once, and the slack of each logic-level count on its first use.
    """
    shape = KernelShape.of(model)
    positions = _positions(model, space)
    ii_at, unroll_at, partition_at, fixed = positions
    settings_of = _settings_at(positions)
    # Each ladder's smallest rung; None (not pipelined) is always valid.
    lowest = tuple(min(ladder, key=lambda v: 0 if v is None else v) for ladder in space.ladders)
    _check_settings(shape.loops, shape.arrays, settings_of(lowest))
    rungs = space.ladders + tuple((value,) for value in fixed)  # the values each position takes
    cost_of = coster(shape, rungs, ii_at, unroll_at, partition_at)
    cap_ff, cap_lut, cap_dsp, cap_bram = map(target.capacity, RESOURCE_NAMES)
    late = cache(lambda levels: _wns_cents(levels, target, clock_ns) < 0)

    def score(point: tuple) -> float:
        latency, ff, lut, dsp, bram, levels = cost_of(point + fixed)
        violations = late(levels) + (ff > cap_ff) + (lut > cap_lut) + (dsp > cap_dsp)
        violations += bram > cap_bram
        return float(latency) + PENALTY * violations

    return shape, settings_of, score


def anneal(
    model: KernelModel,
    target: FpgaTarget,
    schedule: AnnealSchedule,
    space: ConfigSpace | None = None,
) -> tuple[PragmaConfig, QoRReport, list[tuple[int, float]]]:
    """Metropolis annealing at the target's default clock; returns (best
    config, its QoR, trace).

    The trace holds (step, current objective) pairs starting at step 0;
    runs are deterministic per seed. Once the temperature has decayed to
    zero no uphill move is accepted; a space with no mutable field keeps
    its one point for every step. Objectives are memoized by point, so
    revisiting a configuration costs a dict lookup, and a miss costs the
    point through tables built once per search. Only the best point's
    QoR report is built, after the walk.
    """
    schedule.validate()
    if space is None:
        space = ConfigSpace.for_model(model)
    clock = target.default_clock_ns
    shape, settings_of, objective_of = _search(model, space, target, clock)
    rng = random.Random(schedule.seed)

    current = space.initial()
    current_obj = objective_of(current)
    memo: dict[tuple, float] = {current: current_obj}
    best, best_obj = current, current_obj
    trace: list[tuple[int, float]] = [(0, current_obj)]
    temperature = schedule.t0
    walk = schedule.steps if space.mutable_dims else 0  # no field to change: stay, draw nothing
    for step in range(1, walk + 1):
        candidate = neighbor(current, rng, space)
        cand_obj = memo.get(candidate)
        if cand_obj is None:
            cand_obj = memo[candidate] = objective_of(candidate)
        delta = cand_obj - current_obj
        if delta <= 0 or rng.random() < (math.exp(-delta / temperature) if temperature else 0.0):
            current, current_obj = candidate, cand_obj
        if current_obj < best_obj:
            best, best_obj = current, current_obj
        trace.append((step, current_obj))
        temperature *= schedule.alpha
    trace += [(step, current_obj) for step in range(walk + 1, schedule.steps + 1)]
    return space.config(best), evaluate(shape, settings_of(best), target, clock), trace


def brute_force(
    model: KernelModel,
    target: FpgaTarget,
    space: ConfigSpace,
) -> tuple[PragmaConfig, float]:
    """Exhaustive optimum over a (small) space at the target's default
    clock; the oracle for anneal."""
    score = _search(model, space, target, target.default_clock_ns)[2]
    best_point = None
    best_obj = math.inf
    for point in space.points():
        obj = score(point)
        if obj < best_obj:
            best_point, best_obj = point, obj
    return space.config(best_point), best_obj
