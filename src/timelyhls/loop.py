"""Two-stage iterative refinement: generate, verify at the HLS level,
verify at the RTL level, digest failures, regenerate.

Each iteration runs the phases hls_synth -> c_sim -> rtl_synth -> rtl_sim
and short-circuits to feedback on the first failure (a resource overflow
counts as a failure even though synthesis nominally succeeds). The run
converges when every phase passes, RTL slack is non-negative, and nothing
overflowed; otherwise it stops at the iteration cap. Every iteration is
persisted to the run archive before the next one starts.
"""

from __future__ import annotations

import logging
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import kb as kb_mod
from . import llm
from .bench import BenchmarkDescriptor
from .errors import BackendError, ExtractionError, TimelyHlsError, ToolMissing, ToolTimeout
from .hls_source import SourceUnit, strip_pragmas
from .kb import FpgaTarget, KbIndex
from .llm import GenerationBackend, PromptBundle
from .reports import canonical_save, json_dumps, write_file
from .toolchain import PHASES, SYNTH_PHASES, SynthesisOutcome, Toolchain

log = logging.getLogger(__name__)

STATE_SCHEMA_VERSION = 1

# keyword-classified kinds; timing_violation and resource_overflow are
# derived from the QoR itself, not from log text
DIGEST_KEYWORDS: dict[str, tuple[str, ...]] = {
    "syntax_error": ("error:",),
    "resource_binding": ("resource binding",),
    "pipeline_violation": ("pipeline violation",),
    "functional_mismatch": ("functional mismatch",),
    "critical_path": ("critical path:",),
}


@dataclass(frozen=True)
class RefinementConfig:
    max_iterations: int = 10
    k_docs: int = 4  # 0: no retrieval
    clock_ns: float | None = None  # None: use the target's default clock
    log_excerpt_lines: int = 40

    def validate(self) -> None:
        from .errors import ValidationError

        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if self.k_docs < 0:
            raise ValidationError("k_docs must be >= 0")
        if self.clock_ns is not None and self.clock_ns <= 0:
            raise ValidationError("clock_ns must be > 0")

    def clock_for(self, target: FpgaTarget) -> float:
        """The clock period a run on target is held to."""
        return target.default_clock_ns if self.clock_ns is None else self.clock_ns


@dataclass(frozen=True)
class DigestEntry:
    kind: str
    excerpt: str


@dataclass(frozen=True)
class FeedbackDigest:
    origin: str  # "hls_stage" | "rtl_stage"
    categories: tuple[DigestEntry, ...]


@dataclass
class IterationRecord:
    index: int
    prompt: PromptBundle
    generated_source: str
    outcomes: dict[str, SynthesisOutcome]
    digest: FeedbackDigest | None
    verdict: str  # "converged" | "continue" | "budget_exhausted"


@dataclass
class RunState:
    benchmark_id: str
    target: FpgaTarget
    clock_ns: float
    iterations: list[IterationRecord] = field(default_factory=list)
    final_verdict: str = "running"
    abort_reason: str | None = None


# ---------------------------------------------------------------------------
# Convergence and feedback


def evaluate_convergence(outcomes: dict[str, SynthesisOutcome]) -> str:
    """"converged" only when every phase passed, RTL slack is >= 0, and no
    synthesis phase flagged a resource overflow; otherwise "continue"."""
    for phase in PHASES:
        out = outcomes.get(phase)
        if out is None or not out.ok:
            return "continue"
    for phase in SYNTH_PHASES:
        qor = outcomes[phase].qor
        if qor is None or qor.resources.overflow:
            return "continue"
    rtl_qor = outcomes["rtl_synth"].qor
    if rtl_qor.timing.wns_ns < 0:
        return "continue"
    return "converged"


def _tail(lines: list[str], limit: int) -> str:
    return "\n".join(lines[-limit:])


def build_digest(outcome: SynthesisOutcome, cfg: RefinementConfig) -> FeedbackDigest:
    """Classify a failing outcome's log into categorized excerpts.

    Keyword rules come from DIGEST_KEYWORDS; negative slack and
    overflow flags come straight from the attached QoR. An outcome that
    matches nothing degrades to a syntax_error entry with the raw log
    tail so the generator always receives actionable text.
    """
    lines = outcome.log.split("\n")
    limit = cfg.log_excerpt_lines
    entries: list[DigestEntry] = []
    for kind, keywords in DIGEST_KEYWORDS.items():
        matching = [ln for ln in lines if any(kw in ln for kw in keywords)]
        if matching:
            entries.append(DigestEntry(kind=kind, excerpt=_tail(matching, limit)))
    qor = outcome.qor
    if qor is not None and qor.timing.wns_ns < 0:
        wns_lines = [ln for ln in lines if "WNS" in ln]
        excerpt = _tail(wns_lines, limit) if wns_lines else f"WNS(ns): {qor.timing.wns_ns:.2f}"
        entries.append(DigestEntry(kind="timing_violation", excerpt=excerpt))
    if qor is not None and qor.resources.overflow:
        ov_lines = [ln for ln in lines if "overflow" in ln]
        excerpt = (
            _tail(ov_lines, limit)
            if ov_lines
            else "resource overflow: " + ", ".join(sorted(qor.resources.overflow))
        )
        entries.append(DigestEntry(kind="resource_overflow", excerpt=excerpt))
    if not entries:
        tail_lines = [ln for ln in lines if ln.strip()]
        entries.append(DigestEntry(kind="syntax_error", excerpt=_tail(tail_lines, limit) or "(empty log)"))
    origin = "hls_stage" if outcome.phase in ("hls_synth", "c_sim") else "rtl_stage"
    return FeedbackDigest(origin=origin, categories=tuple(entries))


# ---------------------------------------------------------------------------
# Persistence


def _phase_summary(out: SynthesisOutcome) -> dict:
    summary: dict = {"ok": out.ok}
    if out.qor is not None:
        summary["latency_cycles"] = out.qor.latency_cycles
        summary["wns_ns"] = out.qor.timing.wns_ns
        summary["overflow"] = sorted(out.qor.resources.overflow)
    return summary


def state_to_dict(state: RunState) -> dict:
    return {
        "schema_version": STATE_SCHEMA_VERSION,
        "benchmark_id": state.benchmark_id,
        "part": state.target.part,
        "family": state.target.family,
        "clock_ns": state.clock_ns,
        "final_verdict": state.final_verdict,
        "abort_reason": state.abort_reason,
        "iterations": [
            {
                "index": rec.index,
                "stage": rec.prompt.stage,
                "verdict": rec.verdict,
                "phases": {p: _phase_summary(o) for p, o in rec.outcomes.items()},
                "digest_categories": (
                    [e.kind for e in rec.digest.categories] if rec.digest else None
                ),
            }
            for rec in state.iterations
        ],
    }


def _persist_state(state: RunState, run_dir: Path) -> None:
    write_file(run_dir / "state.json", json_dumps(state_to_dict(state)) + "\n")


def _persist_iteration(rec: IterationRecord, iter_dir: Path) -> set[str]:
    """Write one iteration's archive files; returns their names."""
    written = {"kernel.cpp", "log.txt", "verdict.txt"}
    write_file(iter_dir / "kernel.cpp", rec.generated_source)
    log_parts = []
    for phase, out in rec.outcomes.items():
        log_parts.append(f"===== {phase} =====")
        log_parts.append(out.log.rstrip("\n"))
        if out.qor is not None:
            canonical_save(out.qor, iter_dir / f"{phase}_qor.json")
            written.add(f"{phase}_qor.json")
    write_file(iter_dir / "log.txt", "\n".join(log_parts) + "\n")
    if rec.digest is not None:
        written.add("digest.json")
        digest_dict = {
            "origin": rec.digest.origin,
            "categories": [
                {"kind": e.kind, "excerpt": e.excerpt} for e in rec.digest.categories
            ],
        }
        write_file(iter_dir / "digest.json", json_dumps(digest_dict) + "\n")
    write_file(iter_dir / "verdict.txt", rec.verdict + "\n")
    return written


def _write_prompt(prompt: PromptBundle, iter_dir: Path) -> None:
    text = (
        f"=== SYSTEM ===\n{prompt.system}\n\n"
        f"=== USER [{prompt.stage}] ===\n{prompt.user}\n\n"
        f"=== CONTEXT DOCS ===\n{', '.join(prompt.context_docs) or '(none)'}\n"
    )
    write_file(iter_dir / "prompt.txt", text)


# every file name a run writes into an iteration directory
ITERATION_FILES = frozenset(
    {"prompt.txt", "kernel.cpp", "log.txt", "digest.json", "verdict.txt"}
    | {f"{phase}_qor.json" for phase in SYNTH_PHASES}
)


def _drop_unwritten(iter_dir: Path, written: set[str]) -> None:
    """Remove the archive files an earlier run into the same directory
    left in iter_dir and this iteration did not rewrite. Files an
    external toolchain made there stay."""
    for name in ITERATION_FILES - written:
        (iter_dir / name).unlink(missing_ok=True)


def _drop_iterations_after(run_dir: Path, last_index: int) -> None:
    """Remove an earlier run's iterations beyond this run's last. Runs
    number their iterations from 1 without gaps, so they end at the first
    missing index."""
    index = last_index + 1
    while (run_dir / f"iter_{index}").is_dir():
        shutil.rmtree(run_dir / f"iter_{index}")
        index += 1


# ---------------------------------------------------------------------------
# The refinement loop


def run_refinement(
    benchmark: BenchmarkDescriptor,
    target: FpgaTarget,
    cfg: RefinementConfig,
    connect: Callable[[], tuple[GenerationBackend, Toolchain]],
    archive_dir: str | Path,
    kb_index: KbIndex | None = None,
) -> RunState:
    """Drive one benchmark on one target until convergence or budget.

    `connect` builds the run's generator and toolchain inside the run, so
    a cell that cannot be built aborts like any other. Once the archive
    directory exists, every exception ends the run with final_verdict
    "aborted": backend and tool errors (missing tool, exhausted script,
    transport failure) with a reason naming the iteration, anything else
    with "<ExceptionType>: <message>". The state is persisted and returned
    rather than raised, so matrix drivers can record the cell and move on.
    """
    cfg.validate()
    run_dir = Path(archive_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    # an earlier run's state must not survive an interrupt before the first persist
    (run_dir / "state.json").unlink(missing_ok=True)
    state = RunState(benchmark_id=benchmark.id, target=target, clock_ns=cfg.clock_for(target))
    # a rerun into the same directory leaves exactly what a run into an
    # empty one would: the files each iteration wrote, no later iteration,
    # and a baseline only when this run wrote one
    index, written, has_baseline = 0, set(), False
    try:
        generator, toolchain = connect()
        kernel = SourceUnit.from_text(benchmark.source_text(), path=str(benchmark.source_path))
        has_baseline = _write_baseline(kernel, toolchain, run_dir, f"{benchmark.id}/{target.part}")

        objective = (
            f"Optimize the '{benchmark.title}' kernel for timing closure and latency on "
            f"{target.family} ({target.part}). Known challenge: {benchmark.challenge}"
        )
        docs = []
        if kb_index is not None and cfg.k_docs > 0:
            query = f"{objective} {target.family} {target.part}"
            docs = kb_mod.retrieve(kb_index, query, target, cfg.k_docs)
        prompt = llm.build_initial_prompt(kernel, objective, target, docs)

        for index in range(1, cfg.max_iterations + 1):
            iter_dir = run_dir / f"iter_{index}"
            iter_dir.mkdir(exist_ok=True)
            _write_prompt(prompt, iter_dir)
            written = {"prompt.txt"}

            try:
                result = generator.generate(prompt)
            except (BackendError, ExtractionError) as exc:
                return _abort(state, run_dir, f"generation failed at iteration {index}: {exc}")

            outcomes: dict[str, SynthesisOutcome] = {}
            failing: SynthesisOutcome | None = None
            try:
                for phase in PHASES:
                    out = toolchain.run_phase(phase, result.code, iter_dir)
                    outcomes[phase] = out
                    if not out.ok or (out.qor is not None and out.qor.resources.overflow):
                        failing = out
                        break
            except (ToolMissing, ToolTimeout) as exc:
                rec = IterationRecord(index, prompt, result.code, outcomes, None, "continue")
                written |= _persist_iteration(rec, iter_dir)
                state.iterations.append(rec)
                return _abort(state, run_dir, f"toolchain failed at iteration {index}: {exc}")

            verdict = evaluate_convergence(outcomes)
            digest = None
            if verdict != "converged":
                source_outcome = failing if failing is not None else outcomes["rtl_synth"]
                digest = build_digest(source_outcome, cfg)
                if index == cfg.max_iterations:
                    verdict = "budget_exhausted"

            rec = IterationRecord(
                index=index,
                prompt=prompt,
                generated_source=result.code,
                outcomes=outcomes,
                digest=digest,
                verdict=verdict,
            )
            written |= _persist_iteration(rec, iter_dir)
            state.iterations.append(rec)
            state.final_verdict = verdict if verdict != "continue" else "running"
            _persist_state(state, run_dir)

            if verdict in ("converged", "budget_exhausted"):
                return state
            _drop_unwritten(iter_dir, written)
            prompt = llm.build_feedback_prompt(prompt, result.code, digest)
    except Exception as exc:  # a fault in one cell must not take down a matrix
        return _abort(state, run_dir, f"{type(exc).__name__}: {exc}", exc_info=True)
    finally:
        if not has_baseline:
            (run_dir / "base_qor.json").unlink(missing_ok=True)
        _drop_unwritten(run_dir / f"iter_{index}", written)
        _drop_iterations_after(run_dir, index)

    return state  # unreachable: the cap iteration always returns above


def _write_baseline(kernel: SourceUnit, toolchain: Toolchain, run_dir: Path, cell: str) -> bool:
    """Synthesize the pragma-stripped kernel once for delta reporting;
    returns whether base_qor.json was written."""
    stripped = strip_pragmas(kernel)
    try:
        # an external toolchain creates the workdir; the simulator needs none
        out = toolchain.run_phase("rtl_synth", stripped.text, run_dir / "baseline")
    except TimelyHlsError as exc:
        log.warning("%s: baseline synthesis failed: %s", cell, exc)
        return False
    if out.ok and out.qor is not None:
        canonical_save(out.qor, run_dir / "base_qor.json")
        return True
    log.warning("%s: baseline synthesis did not produce a report", cell)
    return False


def _abort(state: RunState, run_dir: Path, reason: str, exc_info: bool = False) -> RunState:
    log.warning("cell %s/%s aborted: %s", state.benchmark_id, state.target.part, reason,
                exc_info=exc_info)
    state.final_verdict = "aborted"
    state.abort_reason = reason
    _persist_state(state, run_dir)
    return state
