"""Benchmark corpus descriptors and QoR metric aggregation.

Computes speedups and resource deltas between baseline and optimized
reports, and emits deterministic CSV/markdown tables plus a per-family
success matrix and plot data from a tree of run archives.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, fields
from functools import cached_property
from operator import attrgetter, itemgetter
from pathlib import Path

from . import toolchain
from .errors import ContractError, ValidationError, VersionError
from .reports import RESOURCE_NAMES, QoRReport, ResourceUsage, canonical_load, write_file

# the state.json keys that collecting and tabling a run read
STATE_KEYS = ("benchmark_id", "part", "family", "final_verdict", "iterations")


@dataclass(frozen=True)
class BenchmarkDescriptor:
    id: str
    title: str
    challenge: str
    source_path: Path
    testbench_path: Path
    model_path: Path
    top_function: str

    def source_text(self) -> str:
        """The kernel source, read on the first call. A descriptor lives as
        long as the command that loaded its manifest, so a command reads
        each source once; a read that raises stores nothing, and threads
        racing on the first call may each read the same file."""
        return self._source

    @cached_property
    def _source(self) -> str:
        return self.source_path.read_text(encoding="utf-8")

    def model(self) -> toolchain.KernelModel:
        """The kernel model, loaded on the first call and kept like the source."""
        return self._model

    @cached_property
    def _model(self) -> toolchain.KernelModel:
        return toolchain.load_model(self.model_path)


def load_manifest(path: str | Path) -> list[BenchmarkDescriptor]:
    """Read bench/manifest.json; every referenced path must exist.
    ValidationError names the file, and the entry and fields at fault."""
    path = Path(path)
    base = path.parent
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path.name}: not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise ValidationError(f"{path.name}: not a JSON array")
    out: list[BenchmarkDescriptor] = []
    seen: set[str] = set()
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValidationError(f"{path.name}: entry {i}: not a JSON object")
        bad = [f.name for f in fields(BenchmarkDescriptor) if not isinstance(entry.get(f.name), str)]
        if bad:
            raise ValidationError(f"{path.name}: entry {i}: not a string: {', '.join(bad)}")
        desc = BenchmarkDescriptor(
            id=entry["id"],
            title=entry["title"],
            challenge=entry["challenge"],
            source_path=base / entry["source_path"],
            testbench_path=base / entry["testbench_path"],
            model_path=base / entry["model_path"],
            top_function=entry["top_function"],
        )
        if desc.id in seen:
            raise ValidationError(f"duplicate benchmark id {desc.id!r}")
        seen.add(desc.id)
        for p in (desc.source_path, desc.testbench_path, desc.model_path):
            if not p.is_file():
                raise ValidationError(f"benchmark {desc.id!r}: missing file {p}")
        out.append(desc)
    return out


def bundled_manifest_path() -> Path:
    from . import data_path

    return data_path("bench", "manifest.json")


def find_benchmark(benchmarks: list[BenchmarkDescriptor], benchmark_id: str) -> BenchmarkDescriptor:
    for b in benchmarks:
        if b.id == benchmark_id:
            return b
    from .errors import NotFound

    raise NotFound(f"benchmark {benchmark_id!r} not in manifest")


# ---------------------------------------------------------------------------
# Metric arithmetic


def compute_speedup(base_cycles: int, opt_cycles: int) -> float:
    """Latency ratio base/opt; > 1 means the optimized design is faster.

    Full precision is kept so reciprocal pairs multiply to exactly 1;
    rendering to 4 significant digits happens at table-emission time.
    """
    if base_cycles <= 0 or opt_cycles <= 0:
        raise ContractError(f"cycle counts must be > 0, got ({base_cycles}, {opt_cycles})")
    return base_cycles / opt_cycles


def format_speedup(speedup: float) -> str:
    return f"{speedup:.4g}"


def compute_resource_delta(base: ResourceUsage, opt: ResourceUsage) -> dict[str, float | str]:
    """Per-resource percent change (2 decimals), or "new" when the base
    design used none of a resource the optimized one does."""
    out: dict[str, float | str] = {}
    for name in RESOURCE_NAMES:
        b, o = base.get(name), opt.get(name)
        if b == 0:
            out[name] = "new" if o > 0 else 0.0
        else:
            out[name] = round((o - b) / b * 100.0, 2)
    return out


def _min_ii(report: QoRReport) -> int | None:
    iis = [m.ii for m in report.loops if m.ii is not None]
    return min(iis) if iis else None


@dataclass(frozen=True)
class QoRDelta:
    """Base-versus-optimized comparison for one benchmark on one part."""

    benchmark_id: str
    part: str
    family: str
    speedup: float
    ff_base: int
    ff_opt: int
    ff_change_pct: float | str
    lut_base: int
    lut_opt: int
    lut_change_pct: float | str
    dsp_base: int
    dsp_opt: int
    ii_base: int | None
    ii_opt: int | None
    wns_base: float
    wns_opt: float


def delta_from_reports(
    benchmark_id: str, part: str, family: str, base: QoRReport, opt: QoRReport
) -> QoRDelta:
    pct = compute_resource_delta(base.resources, opt.resources)
    return QoRDelta(
        benchmark_id=benchmark_id,
        part=part,
        family=family,
        speedup=compute_speedup(base.latency_cycles, opt.latency_cycles),
        ff_base=base.resources.ff,
        ff_opt=opt.resources.ff,
        ff_change_pct=pct["ff"],
        lut_base=base.resources.lut,
        lut_opt=opt.resources.lut,
        lut_change_pct=pct["lut"],
        dsp_base=base.resources.dsp,
        dsp_opt=opt.resources.dsp,
        ii_base=_min_ii(base),
        ii_opt=_min_ii(opt),
        wns_base=base.timing.wns_ns,
        wns_opt=opt.timing.wns_ns,
    )


# ---------------------------------------------------------------------------
# Table emission


def _fmt_pct(v: float | str) -> str:
    return v if isinstance(v, str) else f"{v:.2f}"


def _fmt_ii(v: int | None) -> str:
    return "-" if v is None else str(v)


# column header -> the text of a delta's cell, in the full table's order
_COLUMNS = {
    "Benchmark": attrgetter("benchmark_id"),
    "Family": attrgetter("family"),
    "Part": attrgetter("part"),
    "Speedup": lambda d: format_speedup(d.speedup),
    "FF Used": lambda d: str(d.ff_opt),
    "FF Change (%)": lambda d: _fmt_pct(d.ff_change_pct),
    "LUTs Used": lambda d: str(d.lut_opt),
    "LUTs Change (%)": lambda d: _fmt_pct(d.lut_change_pct),
    "DSP Base": lambda d: str(d.dsp_base),
    "DSP Optimized": lambda d: str(d.dsp_opt),
    "Base II": lambda d: _fmt_ii(d.ii_base),
    "Optimized II": lambda d: _fmt_ii(d.ii_opt),
    "WNS Base (ns)": lambda d: f"{d.wns_base:.2f}",
    "WNS Optimized (ns)": lambda d: f"{d.wns_opt:.2f}",
}

# table name -> its column headers, each table a selection of the full one
TABLES = {
    "ff": ("Benchmark", "Family", "Part", "FF Used", "FF Change (%)"),
    "lut": ("Benchmark", "Family", "Part", "LUTs Used", "LUTs Change (%)"),
    "latency": ("Benchmark", "Family", "Part", "Speedup", "WNS Base (ns)", "WNS Optimized (ns)"),
    "loop_ii": ("Benchmark", "Part", "Base II", "Optimized II"),
    "full": tuple(_COLUMNS),
}

_ROW_ORDER = attrgetter("benchmark_id", "part")


def _full_rows(deltas: list[QoRDelta]) -> list[list[str]]:
    """Every delta's cells in the full table's columns, rows sorted by
    (benchmark, part)."""
    cells = _COLUMNS.values()
    return [[cell(d) for cell in cells] for d in sorted(deltas, key=_ROW_ORDER)]


def _select(table: str, rows: list[list[str]]) -> tuple[tuple[str, ...], list]:
    """(header, rows) of a table, its columns picked from full-table rows."""
    header = TABLES[table]
    pick = itemgetter(*map(TABLES["full"].index, header))
    return header, [pick(row) for row in rows]


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _markdown(header, rows) -> str:
    lines = ["| " + " | ".join(header) + " |", "| " + " | ".join("---" for _ in header) + " |"]
    lines += ["| " + " | ".join(r) + " |" for r in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Success matrix


def success_matrix_csv(states: list[dict]) -> str:
    """Per-family attempted and converged runs and the success percentage
    (1 decimal place). Families with no attempted runs are absent."""
    attempted: dict[str, int] = {}
    converged: dict[str, int] = {}
    for state in states:
        family = state["family"]
        attempted[family] = attempted.get(family, 0) + 1
        if state["final_verdict"] == "converged":
            converged[family] = converged.get(family, 0) + 1
    rows = []
    for family, n in sorted(attempted.items()):
        c = converged.get(family, 0)
        rows.append([family, n, c, f"{100.0 * c / n:.1f}"])
    return _csv(["family", "attempted", "converged", "success_pct"], rows)


# ---------------------------------------------------------------------------
# Run-archive collection


def final_report(run_dir: Path, state: dict) -> QoRReport | None:
    """Last iteration's RTL-synthesis report (falls back to HLS synth).

    The iterations and the phases that produced a report come from the
    run's state.json, so files an earlier run left in the directory are
    never read.
    """
    for it in reversed(state["iterations"]):
        for phase in ("rtl_synth", "hls_synth"):
            if "latency_cycles" in it["phases"].get(phase, {}):
                return canonical_load(Path(run_dir) / f"iter_{it['index']}" / f"{phase}_qor.json")
    return None


def collect_results(runs_root: str | Path) -> tuple[list[QoRDelta], list[dict]]:
    """Walk runs/<benchmark>/<part>/ archives into deltas and state dicts.

    Deltas are only produced for converged runs that have both a baseline
    and a final report; every run contributes to the success matrix.
    """
    runs_root = Path(runs_root)
    deltas: list[QoRDelta] = []
    states: list[dict] = []
    for state_file in sorted(runs_root.glob("*/*/state.json")):
        run_dir = state_file.parent
        try:
            state = json.loads(state_file.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise VersionError(f"{state_file}: not valid JSON: {exc}") from exc
        if not isinstance(state, dict):
            raise VersionError(f"{state_file}: not a JSON object: {type(state).__name__}")
        missing = [key for key in STATE_KEYS if key not in state]
        if missing:
            raise VersionError(f"{state_file}: missing {', '.join(missing)}")
        iterations = state["iterations"]
        if not isinstance(iterations, list) or not all(
            isinstance(it, dict) and type(it.get("index")) is int and isinstance(it.get("phases"), dict)
            for it in iterations
        ):
            raise VersionError(f"{state_file}: iterations: expected a list of objects, "
                               "each with an integer index and an object of phases")
        for key in ("benchmark_id", "part", "family", "final_verdict"):
            if not isinstance(state[key], str):
                raise VersionError(
                    f"{state_file}: {key}: expected a string, got {type(state[key]).__name__}"
                )
        for i, it in enumerate(iterations):
            for phase, summary in it["phases"].items():
                if not isinstance(summary, dict):
                    raise VersionError(f"{state_file}: iterations[{i}].phases.{phase}: "
                                       f"expected an object, got {type(summary).__name__}")
        states.append(state)
        if state["final_verdict"] != "converged":
            continue
        base_file = run_dir / "base_qor.json"
        if not base_file.is_file():
            continue
        final = final_report(run_dir, state)
        if final is None:
            continue
        deltas.append(
            delta_from_reports(
                benchmark_id=state["benchmark_id"],
                part=state["part"],
                family=state["family"],
                base=canonical_load(base_file),
                opt=final,
            )
        )
    return deltas, states


def _slug(name: str) -> str:
    return re.sub(r"[^0-9a-z]+", "_", name.lower()).strip("_")


def write_results(deltas: list[QoRDelta], states: list[dict], out_dir: str | Path) -> list[Path]:
    """Emit tables, success matrix, and plot data under out_dir."""
    out_dir = Path(out_dir)
    tables_dir = out_dir / "tables"
    plot_dir = out_dir / "plotdata"
    tables_dir.mkdir(parents=True, exist_ok=True)
    plot_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    full_rows = _full_rows(deltas)
    for table in TABLES:
        header, rows = _select(table, full_rows)
        for ext, render in (("csv", _csv), ("md", _markdown)):
            path = tables_dir / f"{table}.{ext}"
            write_file(path, render(header, rows))
            written.append(path)
    matrix_path = out_dir / "success_matrix.csv"
    write_file(matrix_path, success_matrix_csv(states))
    written.append(matrix_path)
    by_family: dict[str, list[QoRDelta]] = {}
    for d in deltas:
        by_family.setdefault(d.family, []).append(d)
    for family, rows in sorted(by_family.items()):
        # each benchmark's speedup on the family's first converged part in
        # part order, not its best
        first: dict[str, float] = {}
        for d in sorted(rows, key=_ROW_ORDER):
            first.setdefault(d.benchmark_id, d.speedup)
        plot = [[benchmark_id, format_speedup(s)] for benchmark_id, s in sorted(first.items())]
        path = plot_dir / f"speedup_{_slug(family)}.csv"
        write_file(path, _csv(["benchmark", "speedup"], plot))
        written.append(path)
    return written
