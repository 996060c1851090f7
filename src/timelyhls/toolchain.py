"""Toolchain adapters: external vendor commands and an analytical simulator.

The simulator is a first-order model, not a vendor emulator. Every number
it produces is reproducible by hand from these fixed constants:

  op depths (cycles)      mul=4  add=1  load=2  store=2
  memory ports per bank   2
  DSP per multiply        1 when datapath <= 18 bits, else 3, per unroll copy
  FF per loop             ceil(ops*unroll*bits/4), plus ceil(D*bits*unroll/8)
                          of pipeline registers when pipelined
  LUT per loop            ceil(ops*unroll*bits/2)
  BRAM per array          ceil(elements*bits / (18432*pf)) * pf
  logic levels per loop   4 when pipelined, else 4 + ceil(log2(unroll))
                          + 2 when the loop multiplies
  critical path           max loop levels * logic_delay_ns (2 decimals)
  WNS                     clock - critical path;  TNS = min(0, WNS) * #loops

Loop schedules: effective trips Teff = ceil(trip/unroll). A pipelined
leaf takes min((Teff-1)*II + D, Teff*D) cycles with II the max of the
request, the memory-port floor ceil(accesses*unroll/(2*pf)) over the
arrays, and the carried-dependence distance; a sequential leaf takes
Teff*D. An enclosing loop contributes trip_count * inner latency plus its
own depth when it has ops of its own.

A kernel model is a shape, which no pragma or search setting changes
(loops, op totals, depths, arrays, datapath width), plus settings (the
requested II and unroll factor of each loop, the partition factor of
each array). The term helpers hold the only copy of the formula table:
`_loop_terms` gives one loop's DSP, FF, LUT and logic levels at a
pipeline flag and an unroll factor, `_array_bram` one array's BRAM at a
partition factor, and `_leaf_latency` the innermost loop's cycles at its
requested II, its factor and the partition factors. `coster` is the only
code that combines them: it tabulates the terms per rung of the values
each setting takes, folds the enclosing loops into one fixed
multiply-and-add, and returns a function that costs settings read from a
flat tuple, the same on every target. The search in `dse` calls it over
its ladders; `evaluate` calls it with one rung per setting, adds the
target's rules (WNS and TNS at a clock, overflow against capacity) and
each loop's achieved II, and builds the report.
"""

from __future__ import annotations

import json
import re
import shlex
import shutil
import subprocess
from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .errors import MappingError, ParseError, ToolMissing, ToolTimeout, ValidationError
from .hls_source import AnchorPoint, PragmaDirective, PragmaKind, SourceUnit, anchor_for_line
from .kb import FpgaTarget
from .reports import RESOURCE_NAMES, LoopMetric, QoRReport, ResourceUsage, TimingSummary
from .reports import canonical_load, default_profile, parse_vendor_report, write_file

PHASES = ("hls_synth", "c_sim", "rtl_synth", "rtl_sim")
SYNTH_PHASES = ("hls_synth", "rtl_synth")

OP_DEPTH = {"mul": 4, "add": 1, "load": 2, "store": 2}
MEM_PORTS = 2
BRAM_BITS = 18432


def _log2_ceil(n: int) -> int:
    return (n - 1).bit_length()


@dataclass(frozen=True)
class LoopDescriptor:
    """One loop of the kernel nest (a chain: at most one child per loop)."""

    label: str
    trip_count: int
    op_counts: dict  # {"mul": n, "add": n, "load": n, "store": n}
    carried_dependence_distance: int = 0  # 0 = no recurrence
    child: "LoopDescriptor | None" = None
    pipeline_ii: int | None = None  # requested II; None = not pipelined
    unroll_factor: int = 1

    def ops_total(self) -> int:
        return sum(self.op_counts.get(k, 0) for k in OP_DEPTH)

    def depth_cycles(self) -> int:
        return sum(OP_DEPTH[k] * self.op_counts.get(k, 0) for k in OP_DEPTH)

    def chain(self) -> list["LoopDescriptor"]:
        out, cur = [], self
        while cur is not None:
            out.append(cur)
            cur = cur.child
        return out


@dataclass(frozen=True)
class ArraySpec:
    name: str
    elements: int
    accesses_per_iteration: int
    partition_factor: int = 1


@dataclass(frozen=True)
class KernelModel:
    """Abstract kernel description consumed by the analytical simulator."""

    root: LoopDescriptor
    arrays: tuple[ArraySpec, ...] = ()
    datapath_bits: int = 32

    def loops(self) -> list[LoopDescriptor]:
        return self.root.chain()

    def validate(self) -> None:
        _check_structure(self)
        _check_settings(self.loops(), self.arrays, Settings.of(self))


def _check_structure(model: KernelModel) -> None:
    """The checks on what no setting changes."""
    labels = []
    for loop in model.loops():
        labels.append(loop.label)
        if loop.trip_count < 1:
            raise ValidationError(f"loop {loop.label!r}: trip_count must be >= 1")
        if min(loop.op_counts.values(), default=0) < 0:
            raise ValidationError(f"loop {loop.label!r}: negative op count")
        unknown = sorted(loop.op_counts.keys() - OP_DEPTH.keys())
        if unknown:
            raise ValidationError(
                f"loop {loop.label!r}: unknown op {unknown[0]!r}, not one of {', '.join(OP_DEPTH)}"
            )
    if len(labels) != len(set(labels)):
        raise ValidationError(f"duplicate loop labels: {labels}")
    names = [a.name for a in model.arrays]
    if len(names) != len(set(names)):
        raise ValidationError(f"duplicate array names: {names}")
    for a in model.arrays:
        if a.elements < 1 or a.accesses_per_iteration < 0:
            raise ValidationError(f"array {a.name!r}: bad spec")
    if model.datapath_bits < 1:
        raise ValidationError("datapath_bits must be >= 1")


def _check_settings(loops, arrays, settings: Settings) -> None:
    """The checks on settings given in the order of the loops (anything
    with a label) and the arrays (anything with a name)."""
    pipeline_ii, unroll, partition = settings
    if (len(pipeline_ii), len(unroll), len(partition)) != (len(loops), len(loops), len(arrays)):
        raise ValidationError("settings do not match the kernel's loops and arrays")
    for loop, ii, u in zip(loops, pipeline_ii, unroll):
        if u < 1:
            raise ValidationError(f"loop {loop.label!r}: unroll_factor must be >= 1")
        if ii is not None and ii < 1:
            raise ValidationError(f"loop {loop.label!r}: pipeline_ii must be >= 1")
    for a, pf in zip(arrays, partition):
        if pf < 1:
            raise ValidationError(f"array {a.name!r}: bad spec")


class LoopShape(NamedTuple):
    """What no setting changes about a loop: its ops summed once."""

    label: str
    trip_count: int
    ops: int  # ops per iteration
    depth: int  # D, cycles per iteration
    muls: int
    carried_dependence_distance: int


class ArrayShape(NamedTuple):
    name: str
    elements: int
    accesses_per_iteration: int


class KernelShape(NamedTuple):
    """The part of a kernel model that no pragma or search setting changes.

    Built and structurally validated once per model, so a search can
    evaluate many settings against it without rebuilding a model.
    """

    loops: tuple[LoopShape, ...]  # outermost first
    arrays: tuple[ArrayShape, ...]
    datapath_bits: int

    @classmethod
    def of(cls, model: KernelModel) -> "KernelShape":
        """The model's shape; raises ValidationError on a structural fault."""
        _check_structure(model)
        return cls(
            loops=tuple(
                LoopShape(
                    label=loop.label,
                    trip_count=loop.trip_count,
                    ops=loop.ops_total(),
                    depth=loop.depth_cycles(),
                    muls=loop.op_counts.get("mul", 0),
                    carried_dependence_distance=loop.carried_dependence_distance,
                )
                for loop in model.loops()
            ),
            arrays=tuple(
                ArrayShape(a.name, a.elements, a.accesses_per_iteration) for a in model.arrays
            ),
            datapath_bits=model.datapath_bits,
        )


class Settings(NamedTuple):
    """What pragmas and the search set, in the order of a shape's loops
    (requested II, None = not pipelined; unroll factor) and arrays
    (partition factor)."""

    pipeline_ii: tuple[int | None, ...]
    unroll: tuple[int, ...]
    partition: tuple[int, ...]

    @classmethod
    def of(cls, model: KernelModel) -> "Settings":
        loops = model.loops()
        return cls(
            pipeline_ii=tuple(loop.pipeline_ii for loop in loops),
            unroll=tuple(loop.unroll_factor for loop in loops),
            partition=tuple(a.partition_factor for a in model.arrays),
        )


def _loop_from_json(raw: dict) -> LoopDescriptor:
    child = _loop_from_json(raw["child"]) if raw.get("child") else None
    applied = raw.get("applied", {})
    return LoopDescriptor(
        label=raw["label"],
        trip_count=int(raw["trip_count"]),
        op_counts={k: int(v) for k, v in raw.get("op_counts", {}).items()},
        carried_dependence_distance=int(raw.get("carried_dependence_distance", 0)),
        child=child,
        pipeline_ii=applied.get("pipeline_ii"),
        unroll_factor=int(applied.get("unroll_factor", 1)),
    )


def load_model(path: str | Path) -> KernelModel:
    """A kernel model file; ValidationError names the file, and the field
    when one is missing."""
    name = Path(path).name
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{name}: not valid JSON: {exc}") from exc
    try:
        model = KernelModel(
            root=_loop_from_json(raw["root_loop"]),
            arrays=tuple(
                ArraySpec(
                    name=a["name"],
                    elements=int(a["elements"]),
                    accesses_per_iteration=int(a["accesses_per_iteration"]),
                    partition_factor=int(a.get("partition_factor", 1)),
                )
                for a in raw.get("arrays", [])
            ),
            datapath_bits=int(raw.get("datapath_bits", 32)),
        )
        model.validate()
    except KeyError as exc:
        raise ValidationError(f"{name}: missing {exc}") from exc
    except (AttributeError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"{name}: {exc}") from exc
    return model


# ---------------------------------------------------------------------------
# Analytical simulation


def _memory_floor(arrays, partition, unroll_factor: int) -> int:
    """Port-pressure floor on II from arrays (anything with accesses per
    iteration) partitioned as given, for a loop unrolled by the given factor."""
    floor = 1
    for a, pf in zip(arrays, partition):
        need = -(-a.accesses_per_iteration * unroll_factor // (MEM_PORTS * pf))  # ceil
        if need > floor:
            floor = need
    return floor


def _achieved_ii(arrays, partition, loop, requested: int, unroll_factor: int) -> int:
    """The II a loop (anything with a carried-dependence distance) achieves
    pipelined at the requested II, over arrays partitioned as given."""
    floor = _memory_floor(arrays, partition, unroll_factor)
    return max(requested, floor, loop.carried_dependence_distance, 1)  # distance 0 means 1


def _loop_logic_levels(pipelined: bool, unroll_factor: int, muls: int) -> int:
    if pipelined:
        return 4
    return 4 + _log2_ceil(unroll_factor) + (2 if muls > 0 else 0)


def _loop_terms(
    loop: LoopShape, bits: int, pipelined: bool, unroll_factor: int
) -> tuple[int, int, int, int]:
    """(DSP, FF, LUT, logic levels) of one loop at a pipeline flag and an
    unroll factor, for a datapath of the given width. The term helpers
    write ceil(a / b) as -(-a // b).
    """
    work = loop.ops * unroll_factor * bits
    ff = -(-work // 4)
    if pipelined:
        ff += -(-loop.depth * bits * unroll_factor // 8)
    dsp = loop.muls * unroll_factor * (1 if bits <= 18 else 3)
    return dsp, ff, -(-work // 2), _loop_logic_levels(pipelined, unroll_factor, loop.muls)


def _array_bram(array: ArrayShape, bits: int, partition_factor: int) -> int:
    """BRAM of one array at a partition factor, for a datapath of the given width."""
    return -(-array.elements * bits // (BRAM_BITS * partition_factor)) * partition_factor


def _leaf_latency(
    leaf: LoopShape, arrays, requested_ii: int | None, unroll_factor: int, partition
) -> int:
    """Cycles of the innermost loop at a requested II (None = not
    pipelined) and an unroll factor, over arrays partitioned as given.

    Only the leaf's pipeline and unroll settings shape its schedule.
    """
    teff = -(-leaf.trip_count // unroll_factor)
    latency = teff * leaf.depth
    if requested_ii is not None:
        ii = _achieved_ii(arrays, partition, leaf, requested_ii, unroll_factor)
        # A pipelined loop never schedules worse than its own sequential form.
        latency = min((teff - 1) * ii + leaf.depth, latency)
    return latency


def coster(shape: KernelShape, rungs, ii_at, unroll_at, partition_at):
    """cost_of(values): the shape's (latency in cycles, FF, LUT, DSP,
    BRAM, the most logic levels of any loop) at settings read from a
    flat tuple by position. Loop k's requested II (None = not pipelined)
    is values[ii_at[k]] and its unroll factor values[unroll_at[k]]; array
    k's partition factor is values[partition_at[k]]. rungs[i] holds every
    value position i takes.

    The only code that combines the term helpers: each loop's terms are
    tabulated per (II, factor) rung pair and each array's BRAM per rung;
    the leaf latency is memoized by what it reads, the partition factors
    only when the leaf is pipelined. An enclosing loop multiplies the
    inner latency by its trip count and adds its own depth (0 without
    ops of its own); no setting enters, so the fold is one fixed
    multiply-and-add.
    """
    bits = shape.datapath_bits
    loop_tables = [
        ({(ii, u): _loop_terms(loop, bits, ii is not None, u) for ii in rungs[i] for u in rungs[j]},
         i, j)
        for loop, i, j in zip(shape.loops, ii_at, unroll_at)
    ]
    bram_tables = [
        ({pf: _array_bram(a, bits, pf) for pf in rungs[k]}, k)
        for a, k in zip(shape.arrays, partition_at)
    ]
    scale, offset = 1, 0
    for loop in shape.loops[-2::-1]:
        scale *= loop.trip_count
        offset = loop.trip_count * offset + loop.depth
    leaf, arrays, leaf_ii_at = shape.loops[-1], shape.arrays, ii_at[-1]
    sequential_key = itemgetter(leaf_ii_at, unroll_at[-1])
    pipelined_key = itemgetter(leaf_ii_at, unroll_at[-1], *partition_at)
    leaf_latency: dict[tuple, int] = {}

    def cost_of(values: tuple) -> tuple[int, int, int, int, int, int]:
        dsp = ff = lut = levels = bram = 0
        for table, i, j in loop_tables:
            loop_dsp, loop_ff, loop_lut, loop_levels = table[values[i], values[j]]
            dsp += loop_dsp
            ff += loop_ff
            lut += loop_lut
            if loop_levels > levels:
                levels = loop_levels
        for table, k in bram_tables:
            bram += table[values[k]]
        key = (sequential_key if values[leaf_ii_at] is None else pipelined_key)(values)
        latency = leaf_latency.get(key)
        if latency is None:
            latency = leaf_latency[key] = _leaf_latency(leaf, arrays, key[0], key[1], key[2:])
        return scale * latency + offset, ff, lut, dsp, bram, levels

    return cost_of


def _overflow(usage, target: FpgaTarget) -> frozenset[str]:
    """The resources of a ResourceUsage above the target's capacity."""
    return frozenset([n for n in RESOURCE_NAMES if getattr(usage, n) > target.capacity(n)])


def _wns_cents(levels: int, target: FpgaTarget, clock_ns: float) -> int:
    """WNS in integer hundredths of a ns, so WNS + critical path == clock exactly."""
    return round(clock_ns * 100) - round(levels * target.logic_delay_ns * 100)


def evaluate(
    shape: KernelShape, settings: Settings, target: FpgaTarget, clock_ns: float
) -> QoRReport:
    """Deterministic QoR of a kernel shape under settings, on a target at a
    clock: `coster` with one rung per setting, the target's timing and
    capacity rules, and each loop's achieved II. Raises ValidationError on
    a setting below 1.

    Pure function: equal inputs give equal reports. Resource overflow is
    reported through flags, not an error, so the refinement loop can feed
    it back to the generator.
    """
    _check_settings(shape.loops, shape.arrays, settings)
    values = (*settings.pipeline_ii, *settings.unroll, *settings.partition)
    n, at = len(shape.loops), range(len(values))
    cost_of = coster(shape, [(v,) for v in values], at[:n], at[n : 2 * n], at[2 * n :])
    latency, ff, lut, dsp, bram, levels = cost_of(values)
    usage = ResourceUsage(ff, lut, dsp, bram)
    metrics = []
    for loop, ii, u in zip(shape.loops, settings.pipeline_ii, settings.unroll):
        if ii is not None:
            ii = _achieved_ii(shape.arrays, settings.partition, loop, ii, u)
        metrics.append(LoopMetric(loop.label, ii, loop.depth, ii is not None))
    wns_cents = _wns_cents(levels, target, clock_ns)
    return QoRReport(
        latency_cycles=latency,
        timing=TimingSummary.from_wns(
            wns_cents / 100, min(0, wns_cents) * len(metrics) / 100, round(clock_ns * 100) / 100
        ),
        resources=replace(usage, overflow=_overflow(usage, target)),
        loops=tuple(metrics),
        source_phase="simulated",
    )


def critical_path_ns(report: QoRReport) -> float:
    return round(report.timing.clock_ns - report.timing.wns_ns, 2)


# ---------------------------------------------------------------------------
# Mapping pragmas onto settings


def pragma_settings(
    model: KernelModel,
    pragmas: list[PragmaDirective] | tuple[PragmaDirective, ...],
    anchors: list[AnchorPoint] | tuple[AnchorPoint, ...],
) -> Settings:
    """The model's settings with the pipeline/unroll/partition pragmas applied.

    PIPELINE and UNROLL resolve through their enclosing loop anchor to a
    model loop of the same label; ARRAY_PARTITION resolves by variable
    name. Other kinds are no-ops at the model level. A loop or array no
    pragma names keeps its settings. Unknown labels or arrays raise
    MappingError.
    """
    trips = {loop.label: loop.trip_count for loop in model.loops()}
    elements = {a.name: a.elements for a in model.arrays}
    pipeline_ii: dict[str, int] = {}
    unroll: dict[str, int] = {}
    partition: dict[str, int] = {}

    for p in pragmas:
        if p.kind in (PragmaKind.PIPELINE, PragmaKind.UNROLL):
            owner = anchor_for_line(anchors, p.source_line)
            if owner is None or owner.kind != "loop_body_start":
                raise MappingError(
                    f"line {p.source_line}: {p.kind.value} pragma is not inside a loop body"
                )
            if owner.label not in trips:
                raise MappingError(
                    f"line {p.source_line}: loop {owner.label!r} not in kernel model"
                )
            if p.kind is PragmaKind.PIPELINE:
                pipeline_ii[owner.label] = p.ii if p.ii is not None else 1
            else:  # UNROLL with no factor: full unroll
                unroll[owner.label] = p.factor if p.factor is not None else trips[owner.label]
        elif p.kind is PragmaKind.ARRAY_PARTITION:
            if p.variable is None or p.variable not in elements:
                raise MappingError(
                    f"line {p.source_line}: array {p.variable!r} not in kernel model"
                )
            if p.partition_type == "complete":
                partition[p.variable] = elements[p.variable]
            else:
                partition[p.variable] = p.factor if p.factor is not None else 2
        # DATAFLOW / INTERFACE / INLINE: not modeled

    loops = model.loops()
    return Settings(
        tuple([pipeline_ii.get(l.label, l.pipeline_ii) for l in loops]),
        tuple([unroll.get(l.label, l.unroll_factor) for l in loops]),
        tuple([partition.get(a.name, a.partition_factor) for a in model.arrays]),
    )


# ---------------------------------------------------------------------------
# Outcomes and the toolchain interface


@dataclass(frozen=True)
class SynthesisOutcome:
    ok: bool
    phase: str
    log: str
    qor: QoRReport | None = None


class Toolchain:
    """Interface the refinement loop drives, one phase at a time."""

    def run_phase(self, phase: str, source_text: str, workdir: Path) -> SynthesisOutcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Simulated toolchain


def render_synth_log(
    report: QoRReport, shape: KernelShape, settings: Settings, target: FpgaTarget
) -> str:
    """Human-readable synthesis log mirroring what a vendor tool prints,
    for the report of the settings on the shape. Each achieved II is
    read from the report."""
    lines = [
        f"synthesis for part {target.part} ({target.family})",
        f"Total Latency (cycles): {report.latency_cycles}",
    ]
    for m in report.loops:
        ii = m.ii if m.ii is not None else "-"
        lines.append(f"* Loop {m.loop_label}: II = {ii}, Depth = {m.depth}")
    levels = {}
    for loop, m, ii, u in zip(shape.loops, report.loops, settings.pipeline_ii, settings.unroll):
        if ii is not None and m.ii > ii:
            lines.append(
                f"pipeline violation: loop '{loop.label}' achieved II = {m.ii} "
                f"exceeds requested II = {ii}"
            )
        levels[loop.label] = _loop_logic_levels(ii is not None, u, loop.muls)
    lines.append(
        f"timing: {max(levels.values())} logic levels, "
        f"est. {critical_path_ns(report):.2f} ns against clock {report.timing.clock_ns:.2f} ns"
    )
    lines.append(f"WNS(ns): {report.timing.wns_ns:.2f}    TNS(ns): {report.timing.tns_ns:.2f}")
    if report.timing.wns_ns < 0:
        worst = max(levels, key=levels.get)
        lines.append(
            f"critical path: {levels[worst]} levels through loop "
            f"'{worst}' (est. {critical_path_ns(report):.2f} ns)"
        )
    for name in sorted(report.resources.overflow):
        lines.append(
            f"resource overflow: {name} demand {report.resources.get(name)} exceeds "
            f"capacity {target.capacity(name)}"
        )
    usage = report.resources
    lines.append(f"resources: FF={usage.ff} LUT={usage.lut} DSP={usage.dsp} BRAM={usage.bram}")
    return "\n".join(lines) + "\n"


class SimulatedToolchain(Toolchain):
    """Deterministic stand-in for the vendor flow, driven by a kernel model.

    Synthesis phases map the source's pragmas onto the model and run the
    analytical simulator; simulation phases check the generated kernel
    parses as synthesis parses it and has the reference's code tokens
    (pragmas must not change semantics, anything else is a functional
    mismatch).
    """

    def __init__(
        self,
        model: KernelModel,
        reference_source: str,
        top_function: str,
        target: FpgaTarget,
        clock_ns: float,
    ):
        self.model = model
        self.shape = KernelShape.of(model)  # pragmas change only the settings
        self.reference_source = reference_source
        self.top_function = top_function
        self.target = target
        self.clock_ns = clock_ns

    def run_phase(self, phase: str, source_text: str, workdir: Path) -> SynthesisOutcome:
        if phase in SYNTH_PHASES:
            return self._synthesize(phase, source_text)
        return self._simulate_functional(phase, source_text)

    def _synthesize(self, phase: str, source_text: str) -> SynthesisOutcome:
        try:
            unit = SourceUnit.from_text(source_text)
        except ParseError as exc:
            return SynthesisOutcome(ok=False, phase=phase, log=f"error: {exc}\n")
        functions = [a.label for a in unit.anchors if a.kind == "function_body_start"]
        if self.top_function not in functions:
            return SynthesisOutcome(
                ok=False,
                phase=phase,
                log=f"error: top function '{self.top_function}' not found "
                f"(saw: {', '.join(functions) or 'none'})\n",
            )
        try:
            settings = pragma_settings(self.model, unit.pragmas, unit.anchors)
        except MappingError as exc:
            return SynthesisOutcome(ok=False, phase=phase, log=f"error: {exc}\n")
        report = evaluate(self.shape, settings, self.target, self.clock_ns)
        return SynthesisOutcome(
            ok=True,
            phase=phase,
            log=render_synth_log(report, self.shape, settings, self.target),
            qor=report,
        )

    def _simulate_functional(self, phase: str, source_text: str) -> SynthesisOutcome:
        level = "C" if phase == "c_sim" else "RTL"
        try:
            got = SourceUnit.from_text(source_text).tokens
        except ParseError as exc:
            return SynthesisOutcome(ok=False, phase=phase, log=f"error: {exc}\n")
        want = SourceUnit.from_text(self.reference_source).tokens
        lines = [f"{level} simulation: top '{self.top_function}' against reference testbench"]
        if got == want:  # one tuple comparison; the pairs are walked only to name a mismatch
            lines.append("RESULT: PASS")
            return SynthesisOutcome(ok=True, phase=phase, log="\n".join(lines) + "\n")
        mismatches = []
        for i, (w, g) in enumerate(zip(want, got)):
            if w != g:
                mismatches.append(f"functional mismatch: token {i}: expected {w!r} got {g!r}")
            if len(mismatches) >= 8:
                break
        if len(want) != len(got):
            mismatches.append(
                f"functional mismatch: token count differs: expected {len(want)} got {len(got)}"
            )
        lines += mismatches
        lines.append("RESULT: FAIL")
        return SynthesisOutcome(ok=False, phase=phase, log="\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# External toolchain (vendor commands)


REPORT_FORMATS = ("vendor", "canonical")
_PLACEHOLDER = re.compile(r"\{(part|clock_ns|top|workdir)\}")


@dataclass(frozen=True)
class PhaseCommand:
    """How to run one phase externally: a shell template plus report rules.

    The command may use {part}, {clock_ns}, {top}, and {workdir} (the
    phase's own directory) placeholders; every other brace is passed to
    the shell as written. For synth phases, the first file
    matching report_glob in that directory is parsed (vendor text through
    the profile, or canonical JSON) to produce the QoR.
    """

    command: str
    timeout_s: float = 1800.0
    report_glob: str = "*.rpt"
    report_format: str = "vendor"  # one of REPORT_FORMATS
    profile: dict | None = None


class ExternalToolchain(Toolchain):
    """Drives real vendor tools through configured shell command templates.

    Phase p runs in workdir/p/, which holds the candidate as kernel.cpp and
    a copy of the testbench; reports an earlier run left there are deleted
    before the command runs.
    """

    def __init__(
        self,
        phases: dict,
        target: FpgaTarget,
        clock_ns: float,
        top_function: str,
        testbench_path: str | Path | None = None,
    ):
        self.phases = phases  # phase name -> PhaseCommand
        self.target = target  # its part fills {part}, its capacities check a report
        self.clock_ns = clock_ns
        self.top_function = top_function
        self.testbench_path = Path(testbench_path) if testbench_path else None

    def run_phase(self, phase: str, source_text: str, workdir: Path) -> SynthesisOutcome:
        """Run one external phase and collect its outcome.

        Exit 127 means the tool binary is missing (ToolMissing); exceeding the
        per-phase timeout raises ToolTimeout; any other nonzero exit is an
        ok=False outcome carrying the captured log. The log and a vendor
        report are decoded as UTF-8, with U+FFFD for each invalid byte. A
        report's overflow flags are joined by those of the target's
        capacities; a vendor report with no clock gets the toolchain's.
        """
        try:
            spec = self.phases[phase]
        except KeyError:
            raise ToolMissing(f"no command configured for phase {phase!r}")
        workdir = Path(workdir) / phase
        workdir.mkdir(parents=True, exist_ok=True)
        for stale in workdir.glob(spec.report_glob):
            stale.unlink()
        write_file(workdir / "kernel.cpp", source_text)
        if self.testbench_path is not None:
            shutil.copyfile(self.testbench_path, workdir / self.testbench_path.name)
        values = {
            "part": self.target.part,
            "clock_ns": str(self.clock_ns),
            "top": self.top_function,
            "workdir": str(workdir),
        }
        command = _PLACEHOLDER.sub(lambda m: values[m[1]], spec.command)
        try:
            proc = subprocess.run(
                command,
                shell=True,
                cwd=workdir,
                capture_output=True,
                encoding="utf-8",
                errors="replace",
                timeout=spec.timeout_s,
            )
        except subprocess.TimeoutExpired as exc:
            raise ToolTimeout(f"phase {phase}: {command!r} exceeded {spec.timeout_s}s") from exc
        log_text = proc.stdout + proc.stderr
        if proc.returncode == 127:
            raise ToolMissing(f"phase {phase}: command not found: {shlex.split(command)[0]!r}")
        if proc.returncode != 0:
            log_text = log_text or f"exit {proc.returncode}\n"
            return SynthesisOutcome(ok=False, phase=phase, log=log_text)
        if phase not in SYNTH_PHASES:
            return SynthesisOutcome(ok=True, phase=phase, log=log_text)
        reports_found = sorted(workdir.glob(spec.report_glob))
        if not reports_found:
            return SynthesisOutcome(
                ok=False,
                phase=phase,
                log=log_text + f"error: no report matching {spec.report_glob!r} in {workdir}\n",
            )
        report_path = reports_found[0]
        if spec.report_format == "canonical":
            qor = canonical_load(report_path)
        else:
            qor = parse_vendor_report(
                report_path.read_text(encoding="utf-8", errors="replace"),
                spec.profile if spec.profile is not None else default_profile(),
                self.clock_ns,
                phase,
            )
        overflow = qor.resources.overflow | _overflow(qor.resources, self.target)
        qor = replace(qor, resources=replace(qor.resources, overflow=overflow))
        return SynthesisOutcome(ok=True, phase=phase, log=log_text, qor=qor)
