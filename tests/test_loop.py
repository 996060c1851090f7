"""Convergence logic, feedback digests, and full refinement runs."""

from __future__ import annotations

import json
import logging
import shlex
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import timelyhls
from timelyhls import bench, kb, scenario
from timelyhls.bench import BenchmarkDescriptor, collect_results
from timelyhls.errors import ToolMissing, ValidationError
from timelyhls.kb import build_index
from timelyhls.llm import ScriptedBackend
from timelyhls.loop import (
    RefinementConfig,
    build_digest,
    evaluate_convergence,
    run_refinement,
    state_to_dict,
)
from timelyhls.reports import QoRReport, ResourceUsage, TimingSummary
from timelyhls.toolchain import (
    PHASES,
    ArraySpec,
    ExternalToolchain,
    KernelModel,
    LoopDescriptor,
    PhaseCommand,
    SimulatedToolchain,
    SynthesisOutcome,
    load_model,
)

from conftest import FIXTURES


# ---------------------------------------------------------------------------
# Convergence


def _qor(wns=1.0, overflow=()):
    return QoRReport(
        latency_cycles=100,
        timing=TimingSummary.from_wns(wns, min(0.0, wns), 10.0),
        resources=ResourceUsage(ff=1, lut=1, dsp=1, bram=1, overflow=frozenset(overflow)),
        loops=(),
        source_phase="simulated",
    )


def _outcomes(hls=True, csim=True, rtl=True, rtlsim=True, wns=1.0, overflow=()):
    return {
        "hls_synth": SynthesisOutcome(ok=hls, phase="hls_synth", log="x", qor=_qor() if hls else None),
        "c_sim": SynthesisOutcome(ok=csim, phase="c_sim", log="x"),
        "rtl_synth": SynthesisOutcome(
            ok=rtl, phase="rtl_synth", log="x", qor=_qor(wns, overflow) if rtl else None
        ),
        "rtl_sim": SynthesisOutcome(ok=rtlsim, phase="rtl_sim", log="x"),
    }


class TestConvergence:
    def test_boundary_zero_slack_converges(self):
        assert evaluate_convergence(_outcomes(wns=0.0)) == "converged"

    def test_negative_slack_does_not(self):
        assert evaluate_convergence(_outcomes(wns=-0.08)) == "continue"

    def test_csim_failure_blocks_regardless_of_timing(self):
        assert evaluate_convergence(_outcomes(csim=False, wns=5.0)) == "continue"

    def test_overflow_blocks(self):
        assert evaluate_convergence(_outcomes(overflow=("dsp",))) == "continue"

    def test_missing_phase_blocks(self):
        outcomes = _outcomes()
        del outcomes["rtl_sim"]
        assert evaluate_convergence(outcomes) == "continue"

    @given(
        hls=st.booleans(),
        csim=st.booleans(),
        rtl=st.booleans(),
        rtlsim=st.booleans(),
        wns=st.floats(min_value=-10, max_value=10, allow_nan=False).map(lambda x: round(x, 2)),
        overflow=st.sets(st.sampled_from(["ff", "lut", "dsp", "bram"])),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_conjunction(self, hls, csim, rtl, rtlsim, wns, overflow):
        outcomes = _outcomes(hls, csim, rtl, rtlsim, wns, tuple(overflow))
        expected = hls and csim and rtl and rtlsim and wns >= 0 and not overflow
        got = evaluate_convergence(outcomes) == "converged"
        assert got == expected


class TestRefinementConfig:
    def test_clock_is_the_setting_or_the_device_default(self, roomy_target):
        assert RefinementConfig().clock_for(roomy_target) == roomy_target.default_clock_ns
        assert RefinementConfig(clock_ns=4.5).clock_for(roomy_target) == 4.5

    @pytest.mark.parametrize("clock_ns", [0, -5.0])
    def test_clock_must_be_positive(self, clock_ns):
        with pytest.raises(ValidationError, match="clock_ns must be > 0"):
            RefinementConfig(clock_ns=clock_ns).validate()


# ---------------------------------------------------------------------------
# Digests


class TestDigest:
    def cfg(self, **kw):
        return RefinementConfig(**kw)

    def test_error_lines_become_one_syntax_entry(self):
        log = "info: start\nerror: one\nok\nerror: two\nerror: three\n"
        out = SynthesisOutcome(ok=False, phase="hls_synth", log=log)
        digest = build_digest(out, self.cfg())
        assert [e.kind for e in digest.categories] == ["syntax_error"]
        assert digest.categories[0].excerpt == "error: one\nerror: two\nerror: three"
        assert digest.origin == "hls_stage"

    def test_overflow_only_yields_single_entry(self):
        out = SynthesisOutcome(
            ok=True,
            phase="rtl_synth",
            log="all good, timing met\n",
            qor=_qor(wns=1.0, overflow=("dsp",)),
        )
        digest = build_digest(out, self.cfg())
        assert [e.kind for e in digest.categories] == ["resource_overflow"]
        assert "dsp" in digest.categories[0].excerpt
        assert digest.origin == "rtl_stage"

    def test_excerpt_caps_at_last_n_lines(self):
        lines = [f"error: line {i}" for i in range(500)]
        out = SynthesisOutcome(ok=False, phase="hls_synth", log="\n".join(lines))
        digest = build_digest(out, self.cfg(log_excerpt_lines=40))
        excerpt = digest.categories[0].excerpt.split("\n")
        assert len(excerpt) == 40
        assert excerpt[-1] == "error: line 499"
        assert excerpt[0] == "error: line 460"

    def test_negative_wns_adds_timing_entry_with_wns_line(self):
        out = SynthesisOutcome(
            ok=True,
            phase="rtl_synth",
            log="stuff\nWNS(ns): -0.08    TNS(ns): -0.24\n",
            qor=_qor(wns=-0.08),
        )
        digest = build_digest(out, self.cfg())
        kinds = [e.kind for e in digest.categories]
        assert kinds == ["timing_violation"]
        assert "-0.08" in digest.categories[0].excerpt

    def test_unclassifiable_failure_gets_log_tail(self):
        out = SynthesisOutcome(ok=False, phase="c_sim", log="something odd happened\n")
        digest = build_digest(out, self.cfg())
        assert [e.kind for e in digest.categories] == ["syntax_error"]
        assert "something odd happened" in digest.categories[0].excerpt

    def test_functional_mismatch_classified(self):
        out = SynthesisOutcome(
            ok=False, phase="c_sim", log="functional mismatch: token 4: expected '2' got '3'\n"
        )
        digest = build_digest(out, self.cfg())
        assert [e.kind for e in digest.categories] == ["functional_mismatch"]
        assert digest.origin == "hls_stage"


# ---------------------------------------------------------------------------
# Full runs on a tuned single-loop benchmark


KERNEL = """\
#include <cstdint>

void scale(const int32_t a[16], const int32_t b[16], int32_t c[16]) {
    MAIN: for (int i = 0; i < 16; i++) {
        c[i] = a[i] * b[i] + 1;
    }
}
"""

PIPELINED = KERNEL.replace(
    "        c[i] = a[i] * b[i] + 1;",
    "        #pragma HLS pipeline II=1\n        c[i] = a[i] * b[i] + 1;",
)

BROKEN = "void scale( {\n"


def _model():
    return KernelModel(
        root=LoopDescriptor(
            label="MAIN", trip_count=16, op_counts={"mul": 1, "add": 1, "load": 2, "store": 1}
        ),
        arrays=(ArraySpec("a", 16, 1), ArraySpec("b", 16, 1), ArraySpec("c", 16, 1)),
    )


@pytest.fixture
def toy_benchmark(tmp_path):
    src = tmp_path / "scale.cpp"
    src.write_text(KERNEL)
    tb = tmp_path / "scale_tb.cpp"
    tb.write_text("int main() { return 0; }\n")
    model_path = tmp_path / "scale.json"
    model_path.write_text(
        json.dumps(
            {
                "datapath_bits": 32,
                "root_loop": {
                    "label": "MAIN",
                    "trip_count": 16,
                    "op_counts": {"mul": 1, "add": 1, "load": 2, "store": 1},
                },
                "arrays": [
                    {"name": "a", "elements": 16, "accesses_per_iteration": 1},
                    {"name": "b", "elements": 16, "accesses_per_iteration": 1},
                    {"name": "c", "elements": 16, "accesses_per_iteration": 1},
                ],
            }
        )
    )
    return BenchmarkDescriptor(
        id="scale",
        title="Scale",
        challenge="toy",
        source_path=src,
        testbench_path=tb,
        model_path=model_path,
        top_function="scale",
    )


def _fence(code):
    return f"revised:\n\n```cpp\n{code}```\n"


def _run(toy_benchmark, tmp_path, entries, target, max_iterations=10, index=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    script = tmp_path / "script.json"
    script.write_text(json.dumps(entries))
    backend = ScriptedBackend(script)
    tool = SimulatedToolchain(
        model=_model(),
        reference_source=KERNEL,
        top_function="scale",
        target=target,
        clock_ns=target.default_clock_ns,
    )
    cfg = RefinementConfig(max_iterations=max_iterations, clock_ns=target.default_clock_ns)
    return run_refinement(
        toy_benchmark, target, cfg, lambda: (backend, tool), tmp_path / "run", index
    )


class TestRunRefinement:
    def test_two_iteration_timing_repair(self, toy_benchmark, tmp_path, slack_target):
        """Unpragma'd multiply loop lands at WNS -0.08; the pipelined repair
        reaches +0.10 and converges at iteration 2."""
        entries = [
            {"stage": "initial", "response": _fence(KERNEL)},
            {"stage": "rtl_repair", "response": _fence(PIPELINED)},
        ]
        state = _run(toy_benchmark, tmp_path, entries, slack_target)
        assert state.final_verdict == "converged"
        assert len(state.iterations) == 2
        first, second = state.iterations
        assert first.outcomes["rtl_synth"].qor.timing.wns_ns == -0.08
        assert first.digest is not None
        assert "timing_violation" in [e.kind for e in first.digest.categories]
        assert second.prompt.stage == "rtl_repair"
        assert second.outcomes["rtl_synth"].qor.timing.wns_ns == 0.10
        assert second.digest is None

    def test_always_failing_hits_budget_cap(self, toy_benchmark, tmp_path, slack_target):
        entries = [{"stage": "initial", "response": _fence(BROKEN)}]
        entries += [{"stage": "hls_repair", "response": _fence(BROKEN)} for _ in range(9)]
        state = _run(toy_benchmark, tmp_path, entries, slack_target, max_iterations=10)
        assert state.final_verdict == "budget_exhausted"
        assert len(state.iterations) == 10
        assert state.iterations[-1].verdict == "budget_exhausted"
        assert all(r.verdict == "continue" for r in state.iterations[:-1])

    def test_first_try_convergence_has_no_digest(self, toy_benchmark, tmp_path, roomy_target):
        entries = [{"stage": "initial", "response": _fence(PIPELINED)}]
        state = _run(toy_benchmark, tmp_path, entries, roomy_target)
        assert state.final_verdict == "converged"
        assert len(state.iterations) == 1
        assert state.iterations[0].digest is None

    def test_exhausted_script_aborts_with_partial_state(self, toy_benchmark, tmp_path, slack_target):
        entries = [{"stage": "initial", "response": _fence(KERNEL)}]  # no repair queued
        state = _run(toy_benchmark, tmp_path, entries, slack_target)
        assert state.final_verdict == "aborted"
        assert "stage" in state.abort_reason
        assert len(state.iterations) == 1
        run_dir = tmp_path / "run"
        # the aborted iteration's directory still exists, with the prompt
        assert (run_dir / "iter_2" / "prompt.txt").is_file()
        persisted = json.loads((run_dir / "state.json").read_text())
        assert persisted["final_verdict"] == "aborted"
        assert len(persisted["iterations"]) == 1

    def test_exhausted_script_abort_is_path_independent(self, toy_benchmark, tmp_path, slack_target):
        entries = [{"stage": "initial", "response": _fence(KERNEL)}]  # no repair queued
        state = _run(toy_benchmark, tmp_path / "a", entries, slack_target)
        _run(toy_benchmark, tmp_path / "b", entries, slack_target)
        assert "script script.json has no remaining" in state.abort_reason
        assert str(tmp_path) not in state.abort_reason
        run_a, run_b = tmp_path / "a" / "run", tmp_path / "b" / "run"
        files = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
        for rel in files:
            assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel

    def test_short_circuit_skips_rtl_phases(self, toy_benchmark, tmp_path, slack_target):
        mutant = KERNEL.replace("+ 1", "+ 2")
        entries = [
            {"stage": "initial", "response": _fence(mutant)},
            {"stage": "hls_repair", "response": _fence(PIPELINED)},
        ]
        state = _run(toy_benchmark, tmp_path, entries, slack_target, max_iterations=3)
        first = state.iterations[0]
        assert not first.outcomes["c_sim"].ok
        assert "rtl_synth" not in first.outcomes
        assert first.digest.origin == "hls_stage"
        # repair consumed the hls_repair entry and converged on timing-capable code
        assert state.iterations[1].prompt.stage == "hls_repair"

    def test_archive_layout(self, toy_benchmark, tmp_path, slack_target):
        entries = [
            {"stage": "initial", "response": _fence(KERNEL)},
            {"stage": "rtl_repair", "response": _fence(PIPELINED)},
        ]
        _run(toy_benchmark, tmp_path, entries, slack_target)
        run_dir = tmp_path / "run"
        for name in ("prompt.txt", "kernel.cpp", "log.txt", "verdict.txt", "hls_synth_qor.json",
                     "rtl_synth_qor.json", "digest.json"):
            assert (run_dir / "iter_1" / name).is_file(), name
        assert not (run_dir / "iter_2" / "digest.json").exists()
        assert (run_dir / "base_qor.json").is_file()
        assert (run_dir / "state.json").is_file()
        assert not (run_dir / "baseline").exists()  # the simulator needs no workdir

    def test_rerun_is_byte_identical(self, toy_benchmark, tmp_path, slack_target):
        entries = [
            {"stage": "initial", "response": _fence(KERNEL)},
            {"stage": "rtl_repair", "response": _fence(PIPELINED)},
        ]
        index = build_index([])
        _run(toy_benchmark, tmp_path / "a", entries, slack_target, index=index)
        _run(toy_benchmark, tmp_path / "b", entries, slack_target, index=index)
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            if rel.parts[0] == "script.json":
                continue
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel

    def test_iteration_indices_contiguous_and_capped(self, toy_benchmark, tmp_path, slack_target):
        entries = [{"stage": "initial", "response": _fence(BROKEN)}]
        entries += [{"stage": "hls_repair", "response": _fence(BROKEN)} for _ in range(20)]
        state = _run(toy_benchmark, tmp_path, entries, slack_target, max_iterations=4)
        assert [r.index for r in state.iterations] == [1, 2, 3, 4]
        assert state.final_verdict == "budget_exhausted"

    def test_state_dict_checkable_convergence(self, toy_benchmark, tmp_path, slack_target):
        entries = [
            {"stage": "initial", "response": _fence(KERNEL)},
            {"stage": "rtl_repair", "response": _fence(PIPELINED)},
        ]
        state = _run(toy_benchmark, tmp_path, entries, slack_target)
        doc = state_to_dict(state)
        last = doc["iterations"][-1]
        assert last["verdict"] == "converged"
        phases = last["phases"]
        assert all(phases[p]["ok"] for p in ("hls_synth", "c_sim", "rtl_synth", "rtl_sim"))
        assert phases["rtl_synth"]["wns_ns"] >= 0
        assert phases["rtl_synth"]["overflow"] == []
        assert phases["hls_synth"]["overflow"] == []


# Scripts for reruns into one archive directory, on a target where the
# unpragma'd kernel also closes timing.
RERUN_SCRIPTS = {
    # two syntax errors, then the plain kernel converges at iteration 3
    "three": [
        {"stage": "initial", "response": _fence(BROKEN)},
        {"stage": "hls_repair", "response": _fence(BROKEN)},
        {"stage": "hls_repair", "response": _fence(KERNEL)},
    ],
    # the pipelined kernel converges at iteration 1
    "one": [{"stage": "initial", "response": _fence(PIPELINED)}],
    # c_sim fails (no RTL report), then no repair is queued: aborted at 2
    "mismatch": [{"stage": "initial", "response": _fence(KERNEL.replace("+ 1", "+ 2"))}],
}


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class _FailingToolchain(SimulatedToolchain):
    """Raises `error` from the phase `fail_phase` run in `fail_dir`, and
    returns a failed baseline outcome when `bad_baseline` is set."""

    fail_phase, fail_dir, error, bad_baseline = None, None, None, False

    def run_phase(self, phase, source_text, workdir):
        if (phase, workdir.name) == (self.fail_phase, self.fail_dir):
            raise self.error
        if self.bad_baseline and workdir.name == "baseline":
            return SynthesisOutcome(ok=False, phase=phase, log="error: no report\n")
        return super().run_phase(phase, source_text, workdir)


def _toolchain(target, **failure):
    tool = _FailingToolchain(
        model=_model(),
        reference_source=KERNEL,
        top_function="scale",
        target=target,
        clock_ns=target.default_clock_ns,
    )
    tool.__dict__.update(failure)
    return tool


def _run_named(toy_benchmark, tmp_path, runs_root, name, target, **failure):
    """Run RERUN_SCRIPTS[name] into runs_root/<benchmark>/<part>."""
    script = tmp_path / f"{name}.json"
    script.write_text(json.dumps(RERUN_SCRIPTS[name]))
    backend = ScriptedBackend(script)
    tool = _toolchain(target, **failure)
    cfg = RefinementConfig(max_iterations=5, clock_ns=target.default_clock_ns)
    archive = runs_root / toy_benchmark.id / target.part
    return run_refinement(toy_benchmark, target, cfg, lambda: (backend, tool), archive)


class TestRerunIntoSameDirectory:
    @pytest.mark.parametrize(
        "first, second",
        [("three", "one"), ("one", "mismatch"), ("three", "mismatch"), ("mismatch", "three")],
    )
    def test_rerun_equals_run_into_empty_directory(
        self, toy_benchmark, tmp_path, roomy_target, first, second
    ):
        _run_named(toy_benchmark, tmp_path, tmp_path / "rerun", first, roomy_target)
        _run_named(toy_benchmark, tmp_path, tmp_path / "rerun", second, roomy_target)
        _run_named(toy_benchmark, tmp_path, tmp_path / "fresh", second, roomy_target)
        assert _tree(tmp_path / "rerun") == _tree(tmp_path / "fresh")
        assert collect_results(tmp_path / "rerun") == collect_results(tmp_path / "fresh")

    def test_results_report_the_rerun_qor(self, toy_benchmark, tmp_path, roomy_target):
        state = _run_named(toy_benchmark, tmp_path, tmp_path / "runs", "three", roomy_target)
        assert len(state.iterations) == 3
        (old,), _ = collect_results(tmp_path / "runs")
        state = _run_named(toy_benchmark, tmp_path, tmp_path / "runs", "one", roomy_target)
        assert len(state.iterations) == 1
        (new,), states = collect_results(tmp_path / "runs")
        assert len(states[0]["iterations"]) == 1
        assert new.speedup > old.speedup  # the pipelined kernel, not the stale iter_3
        assert not (tmp_path / "runs" / "scale" / roomy_target.part / "iter_3").exists()

    def test_crashed_rerun_keeps_nothing_of_the_earlier_run(self, toy_benchmark, tmp_path, roomy_target):
        """A run that crashes is aborted with the exception as its reason,
        and no file of the earlier run survives it."""
        _run_named(toy_benchmark, tmp_path, tmp_path / "runs", "three", roomy_target)
        state = _run_named(toy_benchmark, tmp_path, tmp_path / "runs", "one", roomy_target,
                           fail_phase="c_sim", fail_dir="iter_1", error=RuntimeError("fault"))
        assert (state.final_verdict, state.abort_reason) == ("aborted", "RuntimeError: fault")
        run_dir = tmp_path / "runs" / "scale" / roomy_target.part
        assert sorted(p.name for p in run_dir.iterdir()) == ["base_qor.json", "iter_1", "state.json"]
        assert [p.name for p in (run_dir / "iter_1").iterdir()] == ["prompt.txt"]
        persisted = json.loads((run_dir / "state.json").read_text())
        assert persisted["abort_reason"] == "RuntimeError: fault" and persisted["iterations"] == []


    def test_unbuildable_rerun_keeps_nothing_of_the_earlier_run(
        self, toy_benchmark, tmp_path, roomy_target
    ):
        """A cell whose generator or toolchain cannot be built aborts with
        the error as its reason, in place of the earlier run's archive."""
        _run_named(toy_benchmark, tmp_path, tmp_path / "runs", "three", roomy_target)
        run_dir = tmp_path / "runs" / "scale" / roomy_target.part

        def connect():
            raise ValidationError("script scale.json is not a JSON array")

        state = run_refinement(toy_benchmark, roomy_target, RefinementConfig(), connect, run_dir)
        reason = "ValidationError: script scale.json is not a JSON array"
        assert (state.final_verdict, state.abort_reason) == ("aborted", reason)
        assert [p.name for p in run_dir.iterdir()] == ["state.json"]
        assert json.loads((run_dir / "state.json").read_text())["clock_ns"] == 10.0


class TestCellNamedWarnings:
    def test_abort_names_the_cell(self, toy_benchmark, tmp_path, slack_target, caplog):
        entries = [{"stage": "initial", "response": _fence(KERNEL)}]  # no repair queued
        with caplog.at_level(logging.WARNING, logger="timelyhls.loop"):
            _run(toy_benchmark, tmp_path, entries, slack_target)
        assert "cell scale/xc7tuned aborted: generation failed at iteration 2" in caplog.text

    def test_toolchain_abort_names_the_cell(self, toy_benchmark, tmp_path, roomy_target, caplog):
        with caplog.at_level(logging.WARNING, logger="timelyhls.loop"):
            state = _run_named(
                toy_benchmark, tmp_path, tmp_path / "runs", "one", roomy_target,
                fail_phase="rtl_sim", fail_dir="iter_1", error=ToolMissing("xsim not found"),
            )
        assert state.final_verdict == "aborted"
        assert "cell scale/xc7test aborted: toolchain failed at iteration 1: xsim not found" in caplog.text

    @pytest.mark.parametrize(
        "failure, message",
        [
            (dict(fail_phase="rtl_synth", fail_dir="baseline", error=ToolMissing("vivado not found")),
             "scale/xc7test: baseline synthesis failed: vivado not found"),
            (dict(bad_baseline=True), "scale/xc7test: baseline synthesis did not produce a report"),
        ],
    )
    def test_baseline_failure_names_the_cell(
        self, toy_benchmark, tmp_path, roomy_target, caplog, failure, message
    ):
        runs = tmp_path / "runs"
        _run_named(toy_benchmark, tmp_path, runs, "one", roomy_target)
        with caplog.at_level(logging.WARNING, logger="timelyhls.loop"):
            _run_named(toy_benchmark, tmp_path, runs, "one", roomy_target, **failure)
        assert message in caplog.text
        # the earlier run's baseline does not survive the failed one
        assert not (runs / "scale" / roomy_target.part / "base_qor.json").exists()


class TestExternalParity:
    """A stand-in vendor tool that runs the simulator, driven through the
    external toolchain, leaves the archive the simulated toolchain does."""

    @pytest.mark.parametrize(
        "part, verdict, iterations",
        [("xc7a200tfbg676-2", "converged", 2), ("xave2602-nsvh1369-1LJ-i-L", "aborted", 2)],
    )
    def test_archive_matches_the_simulated_toolchain(self, tmp_path, part, verdict, iterations):
        manifest = bench.load_manifest(bench.bundled_manifest_path())
        benchmark = bench.find_benchmark(manifest, "vecadd")
        target = kb.find_target(kb.load_targets(kb.targets_file(timelyhls.data_path("kb"))), part)
        script = scenario.write_matrix_scripts([benchmark], tmp_path / "scripts")["vecadd"]
        cfg = RefinementConfig()
        clock_ns = cfg.clock_for(target)
        simulated = SimulatedToolchain(
            model=load_model(benchmark.model_path),
            reference_source=benchmark.source_text(),
            top_function=benchmark.top_function,
            target=target,
            clock_ns=clock_ns,
        )
        # phases run with their own directory as cwd, so every path is absolute
        src = Path(timelyhls.__file__).parents[1]
        tool = " ".join(
            shlex.quote(str(p)) for p in (sys.executable, FIXTURES / "fake_vendor_tool.py", src)
        )
        external = ExternalToolchain(
            phases={
                p: PhaseCommand(
                    command=f"{tool} {p} {{part}} {{clock_ns}} {{top}}",
                    report_glob="qor.json",
                    report_format="canonical",
                )
                for p in PHASES
            },
            target=target,
            clock_ns=clock_ns,
            top_function=benchmark.top_function,
            testbench_path=benchmark.testbench_path,
        )
        trees = []
        for name, toolchain in (("simulated", simulated), ("external", external)):
            backend = ScriptedBackend(script)
            state = run_refinement(
                benchmark, target, cfg, lambda: (backend, toolchain), tmp_path / name
            )
            assert (state.final_verdict, len(state.iterations)) == (verdict, iterations)
            trees.append(_tree(tmp_path / name))
        archive, with_phase_dirs = trees
        assert (Path("baseline") / "rtl_synth" / "qor.json") in with_phase_dirs
        assert (Path("iter_1") / "hls_synth" / "kernel.cpp") in with_phase_dirs
        outside = {"baseline", *PHASES}
        assert archive == {p: b for p, b in with_phase_dirs.items() if not outside & set(p.parts)}
