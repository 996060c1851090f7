"""Command-line entry point.

Subcommands: `kb validate`, `optimize`, `matrix`, `dse`, `report render`.
Exit codes form a stable CI contract: 0 success/converged, 1 domain
failure (validation errors, non-convergence), 2 usage errors (unknown
ids, missing files, bad flags).
"""

from __future__ import annotations

import functools
import json
import logging
import os
import sys
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import click

from . import bench as bench_mod
from . import data_path, dse as dse_mod, kb as kb_mod, scenario
from .errors import ConfigError, NotFound, TimelyHlsError, ValidationError, VersionError
from .llm import BACKEND_KINDS, BackendConfig, HttpChatBackend, ScriptedBackend, load_script
from .loop import RefinementConfig, run_refinement
from .reports import json_dumps, to_canonical_dict, write_file
from .toolchain import (
    REPORT_FORMATS,
    ExternalToolchain,
    PhaseCommand,
    SimulatedToolchain,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

TOOLCHAIN_KINDS = ("simulated", "external")


@dataclass
class AppConfig:
    kb_dir: Path
    bench_manifest: Path
    results_dir: Path
    backend: BackendConfig
    toolchain_kind: str  # one of TOOLCHAIN_KINDS
    adapter_phases: dict  # phase -> PhaseCommand (external only)
    refinement: RefinementConfig
    jobs: int


def _default_config() -> AppConfig:
    return AppConfig(
        kb_dir=data_path("kb"),
        bench_manifest=bench_mod.bundled_manifest_path(),
        results_dir=Path("results"),
        backend=BackendConfig(kind="scripted", script_path=None),
        toolchain_kind="simulated",
        adapter_phases={},
        refinement=RefinementConfig(),
        jobs=os.cpu_count() or 1,
    )


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", dict: "an object"}


def load_config(path: str | None) -> AppConfig:
    cfg = _default_config()
    if path is None:
        return cfg
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} is not a JSON object")

    def get(section: dict, prefix: str, key: str, kind: type, default=None):
        """section[key], or default when it is absent or null. A float
        kind takes any number; a value of another JSON type is a
        ConfigError naming the file and the field."""
        value = section.get(key)
        if value is None:
            return default
        kinds = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, kinds):
            got = json.dumps(value)
            raise ConfigError(f"{path}: {prefix}{key}: expected {_KIND_NAMES[kind]}, got {got}")
        return value

    def one_of(section: dict, prefix: str, key: str, choices: tuple[str, ...]) -> str:
        """get() of a name that must be one of choices; absent, the first."""
        value = get(section, prefix, key, str, choices[0])
        if value not in choices:
            expected, got = " or ".join(json.dumps(c) for c in choices), json.dumps(value)
            raise ConfigError(f"{path}: {prefix}{key}: expected {expected}, got {got}")
        return value

    for key in ("kb_dir", "bench_manifest", "results_dir"):
        if get(raw, "", key, str):
            setattr(cfg, key, Path(raw[key]))
    cfg.jobs = get(raw, "", "jobs", int, cfg.jobs)
    backend_raw = get(raw, "", "backend", dict, {})
    if backend_raw:
        b = "backend."
        cfg.backend = BackendConfig(
            kind=one_of(backend_raw, b, "kind", BACKEND_KINDS),
            endpoint=get(backend_raw, b, "endpoint", str),
            model=get(backend_raw, b, "model", str),
            temperature=float(get(backend_raw, b, "temperature", float, 0.7)),
            max_retries=get(backend_raw, b, "max_retries", int, 2),
            script_path=get(backend_raw, b, "script_path", str),
        )
    tool_raw = get(raw, "", "toolchain", dict, {})
    if tool_raw:
        cfg.toolchain_kind = one_of(tool_raw, "toolchain.", "kind", TOOLCHAIN_KINDS)
        cfg.adapter_phases = {}
        for phase in get(tool_raw, "toolchain.", "phases", dict, {}):
            spec = get(tool_raw["phases"], "toolchain.phases.", phase, dict, {})
            p = f"toolchain.phases.{phase}."
            if get(spec, p, "command", str) is None:
                raise ConfigError(f"{path}: {p}command: missing")
            cfg.adapter_phases[phase] = PhaseCommand(
                command=spec["command"],
                timeout_s=float(get(spec, p, "timeout_s", float, 1800.0)),
                report_glob=get(spec, p, "report_glob", str, "*.rpt"),
                report_format=one_of(spec, p, "report_format", REPORT_FORMATS),
                profile=get(spec, p, "profile", dict),
            )
    refine_raw = get(raw, "", "refinement", dict, {})
    if refine_raw:
        r = "refinement."
        cfg.refinement = RefinementConfig(
            max_iterations=get(refine_raw, r, "max_iterations", int, 10),
            k_docs=get(refine_raw, r, "k_docs", int, 4),
            clock_ns=get(refine_raw, r, "clock_ns", float),
            log_excerpt_lines=get(refine_raw, r, "log_excerpt_lines", int, 40),
        )
    _check_config(cfg)
    return cfg


def _check_config(cfg: AppConfig) -> None:
    """Raise ConfigError on a setting no run can use."""
    if cfg.jobs < 1:
        raise ConfigError("jobs must be >= 1")
    try:
        cfg.refinement.validate()
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_script(cfg: AppConfig, benchmark_id: str) -> str:
    script = cfg.backend.script_path
    if script is None:
        raise ConfigError("scripted backend needs backend.script_path (file or directory)")
    path = Path(script)
    if path.is_dir():
        path = path / f"{benchmark_id}.json"
    if not path.is_file():
        raise ConfigError(f"script not found: {path}")
    return str(path)


def _archive(cfg: AppConfig, benchmark, target) -> Path:
    return cfg.results_dir / "runs" / benchmark.id / target.part


def _make_cell(cfg: AppConfig, benchmark, target, script_entries: Callable[[str], tuple]):
    """Backend + toolchain + archive dir for one benchmark x part cell;
    script_entries is load_script, or one cache of it for many cells."""
    clock_ns = cfg.refinement.clock_for(target)
    if cfg.toolchain_kind == "simulated":
        toolchain = SimulatedToolchain(
            model=benchmark.model(),
            reference_source=benchmark.source_text(),
            top_function=benchmark.top_function,
            target=target,
            clock_ns=clock_ns,
        )
    else:
        toolchain = ExternalToolchain(
            phases=cfg.adapter_phases,
            target=target,
            clock_ns=clock_ns,
            top_function=benchmark.top_function,
            testbench_path=benchmark.testbench_path,
        )
    archive = _archive(cfg, benchmark, target)
    if cfg.backend.kind != "scripted":
        return HttpChatBackend(cfg.backend), toolchain, archive
    script = _resolve_script(cfg, benchmark.id)
    cfg.backend.validate()  # a script was found, so only the other fields can fail
    return ScriptedBackend(script, script_entries(script)), toolchain, archive


def _apply_common_overrides(cfg: AppConfig, backend, toolchain, max_iters, results_dir, jobs=None):
    if backend:
        cfg.backend = replace(cfg.backend, kind={"scripted": "scripted", "http": "http_chat"}[backend])
    if toolchain:
        cfg.toolchain_kind = toolchain
    if max_iters is not None:
        cfg.refinement = replace(cfg.refinement, max_iterations=max_iters)
    if results_dir:
        cfg.results_dir = Path(results_dir)
    if jobs is not None:
        cfg.jobs = jobs
    _check_config(cfg)
    return cfg


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool) -> None:
    """Architecture-aware HLS optimization orchestrator."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.group()
def kb() -> None:
    """Knowledge-base management."""


@kb.command("validate")
@click.option("--kb-dir", type=click.Path(), default=None, help="KB directory (default: bundled).")
def kb_validate(kb_dir: str | None) -> None:
    """Ingest a knowledge base and report its contents."""
    directory = Path(kb_dir) if kb_dir else data_path("kb")
    try:
        targets, index = kb_mod.ingest(directory)
    except (ConfigError, ValidationError) as exc:
        click.echo(f"validation failed: {exc}", err=True)
        sys.exit(EXIT_FAILURE)
    click.echo(f"{len(targets)} targets, {len(index.docs)} docs, 0 errors")
    sys.exit(EXIT_OK)


@main.command()
@click.option("--benchmark", required=True, help="Benchmark id from the manifest.")
@click.option("--part", required=True, help="FPGA part number from the knowledge base.")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--backend", type=click.Choice(["scripted", "http"]), default=None)
@click.option("--script-path", type=click.Path(), default=None, help="Scripted backend responses.")
@click.option("--toolchain", type=click.Choice(TOOLCHAIN_KINDS), default=None)
@click.option("--max-iters", type=int, default=None)
@click.option("--results-dir", type=click.Path(), default=None)
def optimize(benchmark, part, config_path, backend, script_path, toolchain, max_iters, results_dir):
    """Run the refinement loop for one benchmark on one device."""
    try:
        cfg = load_config(config_path)
        cfg = _apply_common_overrides(cfg, backend, toolchain, max_iters, results_dir)
        if script_path:
            cfg.backend = replace(cfg.backend, script_path=script_path)
        targets, index = kb_mod.ingest(cfg.kb_dir)
        target = kb_mod.find_target(targets, part)
        benchmarks = bench_mod.load_manifest(cfg.bench_manifest)
        desc = bench_mod.find_benchmark(benchmarks, benchmark)
        gen_backend, tool, archive = _make_cell(cfg, desc, target, load_script)
    except (NotFound, ConfigError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    except TimelyHlsError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_FAILURE)
    # the cell is built before the run, so a missing script is a usage error
    state = run_refinement(desc, target, cfg.refinement, lambda: (gen_backend, tool), archive, index)
    click.echo(f"{benchmark} on {part}: {state.final_verdict} "
               f"after {len(state.iterations)} iteration(s); archive: {archive}")
    sys.exit(EXIT_OK if state.final_verdict == "converged" else EXIT_FAILURE)


def _pool_workers(cfg: AppConfig) -> int:
    """The threads `matrix` runs its cells on.

    A cell that waits outside the interpreter, on the HTTP backend or on an
    external toolchain's commands, releases the interpreter lock while it
    waits, so it gets cfg.jobs threads. A scripted, simulated cell never
    leaves the interpreter, and more threads would only contend for the
    lock, so it gets one, unless the interpreter has no lock: on a
    free-threaded build (3.13+), sys._is_gil_enabled() returns False.
    Before 3.13 that function is absent, and the lock is always on. Once a
    toolchain is a runner per phase, "external" becomes "some phase runs a
    command".
    """
    waits_outside = cfg.backend.kind == "http_chat" or cfg.toolchain_kind == "external"
    gil_enabled = getattr(sys, "_is_gil_enabled", lambda: True)()
    return cfg.jobs if waits_outside or not gil_enabled else 1


def _run_cell(cfg: AppConfig, desc, target, index, script_entries) -> str:
    """Run one matrix cell, building it inside the run; returns its final verdict."""
    return run_refinement(
        desc, target, cfg.refinement, lambda: _make_cell(cfg, desc, target, script_entries)[:2],
        _archive(cfg, desc, target), index,
    ).final_verdict


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--jobs", type=int, default=None,
              help="Parallel cells for the HTTP backend or an external toolchain "
                   "(default: CPUs); scripted, simulated cells run on one thread.")
@click.option("--backend", type=click.Choice(["scripted", "http"]), default=None)
@click.option("--script-path", type=click.Path(), default=None,
              help="Script file or per-benchmark script directory.")
@click.option("--toolchain", type=click.Choice(TOOLCHAIN_KINDS), default=None)
@click.option("--max-iters", type=int, default=None)
@click.option("--results-dir", type=click.Path(), default=None)
@click.option("--write-scripts", is_flag=True,
              help="Generate default per-benchmark scenario scripts first.")
def matrix(config_path, jobs, backend, script_path, toolchain, max_iters, results_dir, write_scripts):
    """Run every benchmark on every device and emit result tables."""
    try:
        cfg = load_config(config_path)
        cfg = _apply_common_overrides(cfg, backend, toolchain, max_iters, results_dir, jobs)
        if script_path:
            cfg.backend = replace(cfg.backend, script_path=script_path)
        targets, index = kb_mod.ingest(cfg.kb_dir)
        benchmarks = bench_mod.load_manifest(cfg.bench_manifest)
        if write_scripts and cfg.backend.kind == "scripted":
            script_dir = Path(cfg.backend.script_path or cfg.results_dir / "scripts")
            scenario.write_matrix_scripts(benchmarks, script_dir)
            cfg.backend = replace(cfg.backend, script_path=str(script_dir))
    except (NotFound, ConfigError, ValidationError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)

    # neither the descriptors nor the cache keep a failed load: each cell retries it
    cells = [(desc, target) for desc in benchmarks for target in targets]
    script_entries = functools.cache(load_script)
    with ThreadPoolExecutor(max_workers=_pool_workers(cfg)) as pool:
        verdicts = list(pool.map(lambda cell: _run_cell(cfg, *cell, index, script_entries), cells))

    try:
        deltas, states = bench_mod.collect_results(cfg.results_dir / "runs")
    except VersionError as exc:  # a corrupt archive file; the message names it
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_FAILURE)
    written = bench_mod.write_results(deltas, states, cfg.results_dir)
    converged = verdicts.count("converged")
    click.echo(f"matrix: {converged}/{len(verdicts)} cells converged; "
               f"{len(written)} result files under {cfg.results_dir}")
    sys.exit(EXIT_OK)


@main.command()
@click.option("--benchmark", required=True)
@click.option("--part", required=True)
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--steps", type=int, default=500)
@click.option("--seed", type=int, default=0)
@click.option("--t0", type=float, default=1.0)
@click.option("--alpha", type=float, default=0.95)
@click.option("--results-dir", type=click.Path(), default=None)
def dse(benchmark, part, config_path, steps, seed, t0, alpha, results_dir):
    """Simulated-annealing pragma search against the analytical model."""
    try:
        cfg = load_config(config_path)
        if results_dir:
            cfg.results_dir = Path(results_dir)
        targets = kb_mod.load_targets(kb_mod.targets_file(cfg.kb_dir))
        target = kb_mod.find_target(targets, part)
        benchmarks = bench_mod.load_manifest(cfg.bench_manifest)
        desc = bench_mod.find_benchmark(benchmarks, benchmark)
        model = desc.model()
        schedule = dse_mod.AnnealSchedule(t0=t0, alpha=alpha, steps=steps, seed=seed)
        schedule.validate()
    except (NotFound, ConfigError, ValidationError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    best, best_qor, trace = dse_mod.anneal(model, target, schedule)
    out_dir = cfg.results_dir / "dse"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{benchmark}_{part}.json"
    payload = {
        "benchmark_id": benchmark,
        "part": part,
        "schedule": {"t0": t0, "alpha": alpha, "steps": steps, "seed": seed},
        "best_config": {
            "pipeline": dict(sorted(best.pipeline.items())),
            "unroll": dict(sorted(best.unroll.items())),
            "partition": dict(sorted(best.partition.items())),
        },
        "best_qor": to_canonical_dict(best_qor),
    }
    # The trace is appended in json_dumps's layout by one join, about twice
    # as fast on its hundreds of two-element rows as the walk; every
    # objective is a finite float, so repr is what json writes.
    rows = ",\n".join(f"    [\n      {step},\n      {obj!r}\n    ]" for step, obj in trace)
    text = json_dumps(payload)[:-2] + f',\n  "trace": [\n{rows}\n  ]\n}}\n'
    write_file(out_path, text)
    click.echo(f"dse: best objective {trace and min(o for _, o in trace)}; wrote {out_path}")
    sys.exit(EXIT_OK)


@main.group()
def report() -> None:
    """Result-archive utilities."""


@report.command("render")
@click.option("--runs", "runs_dir", type=click.Path(), default=None,
              help="Runs tree (default: <results>/runs).")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Output root (default: results).")
@click.option("--config", "config_path", type=click.Path(), default=None)
def report_render(runs_dir, out_dir, config_path):
    """Re-emit tables and the success matrix from existing run archives."""
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    runs_root = Path(runs_dir) if runs_dir else cfg.results_dir / "runs"
    out_root = Path(out_dir) if out_dir else cfg.results_dir
    if not runs_root.is_dir():
        click.echo(f"error: runs directory not found: {runs_root}", err=True)
        sys.exit(EXIT_USAGE)
    try:
        deltas, states = bench_mod.collect_results(runs_root)
    except VersionError as exc:  # a corrupt archive file; the message names it
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_FAILURE)
    written = bench_mod.write_results(deltas, states, out_root)
    click.echo(f"rendered {len(deltas)} delta rows from {len(states)} runs; "
               f"{len(written)} files under {out_root}")
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
