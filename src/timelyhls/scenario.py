"""Builders for scripted-backend scenarios.

A scenario script is the JSON file the scripted backend replays: an
ordered list of {stage, response} entries. The default scenario mimics a
plausible generation trajectory: the first attempt unrolls the hot loop
aggressively (fast but long combinational chains), and the repair falls
back to II=1 pipelining plus cyclic partitioning of the busiest array.
CORDIC instead repairs by fully unrolling its recurrence-bound loop, so
some devices never close timing on it and the matrix keeps a realistic
failure texture.
"""

from __future__ import annotations

from pathlib import Path

from .bench import BenchmarkDescriptor
from .hls_source import PragmaDirective, PragmaKind, SourceUnit, inject_pragma
from .reports import json_dumps, write_file
from .toolchain import KernelModel

INITIAL_UNROLL = 8
REPAIR_PARTITION = 4

# benchmarks whose repair strategy deviates from pipeline-everything
UNROLL_REPAIR_BENCHMARKS = ("cordic",)


def _anchor(unit: SourceUnit, kind: str, label: str):
    for a in unit.anchors:
        if (a.kind, a.label) == (kind, label):
            return a
    raise KeyError(f"no {kind} anchor labeled {label!r}")


def _busiest_array(model: KernelModel):
    return max(model.arrays, key=lambda a: (a.accesses_per_iteration, a.name))


def unrolled_variant(source: str, model: KernelModel, factor: int | None = INITIAL_UNROLL) -> str:
    """Source with the innermost model loop unrolled by the given factor,
    or completely when it is None."""
    unit = SourceUnit.from_text(source)
    innermost = model.loops()[-1]
    anchor = _anchor(unit, "loop_body_start", innermost.label)
    unit = inject_pragma(unit, anchor, PragmaDirective(kind=PragmaKind.UNROLL, factor=factor))
    return unit.text


def pipelined_variant(source: str, model: KernelModel, top_function: str) -> str:
    """Source with every model loop pipelined at II=1 and the busiest
    array cyclically partitioned."""
    unit = SourceUnit.from_text(source)
    for loop in model.loops():
        anchor = _anchor(unit, "loop_body_start", loop.label)
        unit = inject_pragma(unit, anchor, PragmaDirective(kind=PragmaKind.PIPELINE, ii=1))
    if model.arrays:
        array = _busiest_array(model)
        anchor = _anchor(unit, "function_body_start", top_function)
        unit = inject_pragma(
            unit,
            anchor,
            PragmaDirective(
                kind=PragmaKind.ARRAY_PARTITION,
                variable=array.name,
                partition_type="cyclic",
                factor=REPAIR_PARTITION,
                dim=1,
            ),
        )
    return unit.text


def _response(note: str, code: str) -> str:
    return f"{note}\n\n```cpp\n{code.rstrip()}\n```\n"


def default_script_entries(benchmark: BenchmarkDescriptor) -> list[dict]:
    """The default 3-entry scenario for one benchmark."""
    source = benchmark.source_text()
    model = benchmark.model()
    initial = _response(
        f"Unrolled the hot loop by {INITIAL_UNROLL}x to expose parallelism.",
        unrolled_variant(source, model),
    )
    if benchmark.id in UNROLL_REPAIR_BENCHMARKS:
        repair_code = unrolled_variant(source, model, None)  # complete unrolling
        repair_note = "Fully unrolled the recurrence-bound loop to break the dependence chain."
    else:
        repair_code = pipelined_variant(source, model, benchmark.top_function)
        repair_note = (
            "Replaced aggressive unrolling with II=1 pipelining and cyclic "
            "array partitioning to shorten the critical path."
        )
    repair = _response(repair_note, repair_code)
    return [
        {"stage": "initial", "response": initial},
        {"stage": "hls_repair", "response": repair},
        {"stage": "rtl_repair", "response": repair},
    ]


def write_matrix_scripts(
    benchmarks: list[BenchmarkDescriptor], out_dir: str | Path
) -> dict[str, Path]:
    """One script file per benchmark, named <id>.json, for matrix runs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    for b in benchmarks:
        path = out_dir / f"{b.id}.json"
        write_file(path, json_dumps(default_script_entries(b)) + "\n")
        written[b.id] = path
    return written
