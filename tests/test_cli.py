"""CLI subcommands and their exit-code contract."""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from click.testing import CliRunner

import timelyhls
from timelyhls import bench, cli, scenario, toolchain
from timelyhls.cli import main
from timelyhls.loop import RefinementConfig
from timelyhls.toolchain import SimulatedToolchain


@pytest.fixture
def runner():
    return CliRunner()


def write_small_kb(root: Path, parts=None) -> Path:
    kb_dir = root / "kb"
    (kb_dir / "docs").mkdir(parents=True)
    parts = parts or [
        {"family": "Artix-7", "part": "xc7a200tfbg676-2", "logic_delay_ns": 0.9},
        {"family": "Spartan-7", "part": "xc7s50-ftgb196-2", "logic_delay_ns": 1.9},
    ]
    targets = [
        {
            "family": p["family"],
            "part": p["part"],
            "luts": 100000,
            "ffs": 200000,
            "dsps": 500,
            "brams": 300,
            "default_clock_ns": 10.0,
            "logic_delay_ns": p["logic_delay_ns"],
            "tier": "midrange",
        }
        for p in parts
    ]
    (kb_dir / "targets.json").write_text(json.dumps(targets))
    (kb_dir / "docs" / "note.md").write_text(
        "---\nid: note\nkind: heuristic\ntitle: note\n---\npipeline first\n"
    )
    return kb_dir


def write_small_manifest(root: Path, ids=("matmul", "vecadd")) -> Path:
    bundled = bench.load_manifest(bench.bundled_manifest_path())
    entries = []
    for b in bundled:
        if b.id in ids:
            entries.append(
                {
                    "id": b.id,
                    "title": b.title,
                    "challenge": b.challenge,
                    "source_path": str(b.source_path),
                    "testbench_path": str(b.testbench_path),
                    "model_path": str(b.model_path),
                    "top_function": b.top_function,
                }
            )
    path = root / "manifest.json"
    path.write_text(json.dumps(entries))
    return path


def write_config(root: Path, kb_dir, manifest, script_path, results) -> Path:
    cfg = {
        "kb_dir": str(kb_dir),
        "bench_manifest": str(manifest),
        "results_dir": str(results),
        "backend": {"kind": "scripted", "script_path": str(script_path)},
        "toolchain": {"kind": "simulated"},
        "refinement": {"max_iterations": 10},
    }
    path = root / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def stub_toolchain(root: Path, ffs=247, c_sim="true") -> dict:
    """An external toolchain section whose synthesis phases copy one vendor
    report (timing met, ffs registers), and whose c_sim runs c_sim."""
    report = root / "stub.rpt"
    report.write_text(
        "WNS(ns): 0.50    TNS(ns): 0.00\n"
        f"| Slice LUTs | 619 |\n| Slice Registers | {ffs} |\n| DSPs | 5 |\n"
        "| Block RAM Tile | 3 |\nTotal Latency (cycles): 16531\n"
    )
    synth = {"command": f"cp {report} {{workdir}}/synth.rpt"}
    return {
        "kind": "external",
        "phases": {"hls_synth": synth, "rtl_synth": synth,
                   "c_sim": {"command": c_sim}, "rtl_sim": {"command": "true"}},
    }


class TestKbValidate:
    def test_bundled(self, runner):
        result = runner.invoke(main, ["kb", "validate"])
        assert result.exit_code == 0
        assert "10 targets" in result.output
        assert "0 errors" in result.output

    def test_duplicate_part_exits_one(self, runner, tmp_path):
        kb_dir = write_small_kb(tmp_path)
        targets = json.loads((kb_dir / "targets.json").read_text())
        targets.append(targets[0])
        (kb_dir / "targets.json").write_text(json.dumps(targets))
        result = runner.invoke(main, ["kb", "validate", "--kb-dir", str(kb_dir)])
        assert result.exit_code == 1
        assert "xc7a200tfbg676-2" in result.output

    def test_empty_dir_exits_one(self, runner, tmp_path):
        result = runner.invoke(main, ["kb", "validate", "--kb-dir", str(tmp_path / "empty")])
        assert result.exit_code == 1

    @pytest.mark.parametrize("text", ["5", "{}"])
    def test_targets_not_an_array_exits_one(self, runner, tmp_path, text):
        kb_dir = write_small_kb(tmp_path)
        (kb_dir / "targets.json").write_text(text)
        result = runner.invoke(main, ["kb", "validate", "--kb-dir", str(kb_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == "validation failed: targets.json: not a JSON array\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("field, value", [("family", 7), ("part", 5), ("tier", None)])
    def test_target_field_not_a_string_exits_one(self, runner, tmp_path, field, value):
        kb_dir = write_small_kb(tmp_path)
        targets = json.loads((kb_dir / "targets.json").read_text())
        targets[1][field] = value
        (kb_dir / "targets.json").write_text(json.dumps(targets))
        result = runner.invoke(main, ["kb", "validate", "--kb-dir", str(kb_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"validation failed: targets.json: entry 1: not a string: {field}\n"
        assert result.stdout == ""


class TestOptimize:
    def setup_scene(self, tmp_path, ids=("matmul",)):
        kb_dir = write_small_kb(tmp_path)
        manifest = write_small_manifest(tmp_path, ids)
        benchmarks = bench.load_manifest(manifest)
        scripts = tmp_path / "scripts"
        scenario.write_matrix_scripts(benchmarks, scripts)
        config = write_config(tmp_path, kb_dir, manifest, scripts, tmp_path / "results")
        return config

    def test_converging_run_exits_zero(self, runner, tmp_path):
        config = self.setup_scene(tmp_path)
        result = runner.invoke(
            main,
            ["optimize", "--benchmark", "matmul", "--part", "xc7a200tfbg676-2",
             "--config", str(config)],
        )
        assert result.exit_code == 0, result.output
        state = json.loads(
            (tmp_path / "results" / "runs" / "matmul" / "xc7a200tfbg676-2" / "state.json").read_text()
        )
        assert state["final_verdict"] == "converged"

    @pytest.mark.parametrize("ffs, verdict", [(247, "converged"), (99_999_999, "budget_exhausted")])
    def test_external_report_over_capacity_does_not_converge(self, runner, tmp_path, ffs, verdict):
        """A stub vendor tool reports timing met; FFs above the part's
        200,000 are an overflow the cell must not converge with."""
        config = self.setup_scene(tmp_path)
        raw = json.loads(config.read_text())
        raw["toolchain"] = stub_toolchain(tmp_path, ffs=ffs)
        raw["refinement"] = {"max_iterations": 2}
        config.write_text(json.dumps(raw))
        result = runner.invoke(
            main,
            ["optimize", "--benchmark", "matmul", "--part", "xc7a200tfbg676-2",
             "--config", str(config)],
        )
        assert result.exit_code == (0 if verdict == "converged" else 1), result.output
        run_dir = tmp_path / "results" / "runs" / "matmul" / "xc7a200tfbg676-2"
        state = json.loads((run_dir / "state.json").read_text())
        assert state["final_verdict"] == verdict
        qor = bench.final_report(run_dir, state)
        assert qor.resources.ff == ffs and qor.timing.wns_ns == 0.5
        assert qor.resources.overflow == (frozenset() if verdict == "converged" else {"ff"})
        assert qor.timing.clock_ns == 10.0  # no clock in the report: the adapter's

    def test_external_rtl_synth_reads_its_own_report(self, runner, tmp_path):
        """Both synthesis stubs write a *.rpt file. Post-synthesis timing is
        negative, so the cell must not converge on the HLS estimate."""
        config = self.setup_scene(tmp_path)
        phases = {"c_sim": {"command": "true"}, "rtl_sim": {"command": "true"}}
        stubs = (("hls_synth", "csynth.rpt", "1.00"), ("rtl_synth", "impl.rpt", "-2.00"))
        for phase, name, wns in stubs:
            report = tmp_path / name
            report.write_text(
                f"WNS(ns): {wns}    TNS(ns): 0.00\n"
                "| Slice LUTs | 619 |\n| Slice Registers | 247 |\n| DSPs | 5 |\n"
                "| Block RAM Tile | 3 |\nTotal Latency (cycles): 16531\n"
            )
            phases[phase] = {"command": f"cp {report} {name}"}
        raw = json.loads(config.read_text())
        raw["toolchain"] = {"kind": "external", "phases": phases}
        raw["refinement"] = {"max_iterations": 2}
        config.write_text(json.dumps(raw))
        result = runner.invoke(main, [*COMMANDS["optimize"], "--config", str(config)])
        assert result.exit_code == 1, result.output
        run_dir = tmp_path / "results" / "runs" / "matmul" / "xc7a200tfbg676-2"
        state = json.loads((run_dir / "state.json").read_text())
        assert state["final_verdict"] == "budget_exhausted"
        qor = bench.final_report(run_dir, state)
        assert (qor.timing.wns_ns, qor.source_phase) == (-2.0, "rtl_synth")

    def test_tool_output_that_is_not_utf8_is_logged_with_replacements(self, runner, tmp_path):
        """A c_sim tool that prints the Latin-1 byte 0xE9 does not abort the
        cell: the byte reaches log.txt as U+FFFD."""
        config = self.setup_scene(tmp_path)
        raw = json.loads(config.read_text())
        raw["toolchain"] = stub_toolchain(tmp_path, c_sim="printf 'caf\\351 PASS\\n'")
        config.write_text(json.dumps(raw))
        result = runner.invoke(main, [*COMMANDS["optimize"], "--config", str(config)])
        assert result.exit_code == 0, result.output
        run_dir = tmp_path / "results" / "runs" / "matmul" / "xc7a200tfbg676-2"
        state = json.loads((run_dir / "state.json").read_text())
        assert (state["final_verdict"], len(state["iterations"])) == ("converged", 1)
        assert "caf\ufffd PASS\n" in (run_dir / "iter_1" / "log.txt").read_text(encoding="utf-8")

    def test_failing_run_exits_one(self, runner, tmp_path):
        config = self.setup_scene(tmp_path)
        bad_script = tmp_path / "bad.json"
        entries = [{"stage": "initial", "response": "```c\nvoid matmul( {\n```"}]
        entries += [{"stage": "hls_repair", "response": "```c\nvoid matmul( {\n```"}] * 9
        bad_script.write_text(json.dumps(entries))
        result = runner.invoke(
            main,
            ["optimize", "--benchmark", "matmul", "--part", "xc7a200tfbg676-2",
             "--config", str(config), "--script-path", str(bad_script)],
        )
        assert result.exit_code == 1
        assert "budget_exhausted" in result.output

    def test_crash_during_the_run_is_recorded_and_exits_one(self, runner, tmp_path, monkeypatch):
        config = self.setup_scene(tmp_path)

        def crash(self, phase, source_text, workdir):
            raise RuntimeError("simulator fault")

        monkeypatch.setattr(SimulatedToolchain, "run_phase", crash)
        result = runner.invoke(main, [*COMMANDS["optimize"], "--config", str(config)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "matmul on xc7a200tfbg676-2: aborted after 0 iteration(s)" in result.output
        state = json.loads(
            (tmp_path / "results" / "runs" / "matmul" / "xc7a200tfbg676-2" / "state.json").read_text()
        )
        assert state["final_verdict"] == "aborted"
        assert state["abort_reason"] == "RuntimeError: simulator fault"

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("[{", "script bad.json is not valid JSON: "),
            ("{}", "script bad.json is not a JSON array"),
            ("[1]", "script bad.json entry 0 malformed: 1"),
        ],
    )
    def test_malformed_script_exits_one_naming_the_file(self, runner, tmp_path, text, reason):
        config = self.setup_scene(tmp_path)
        (tmp_path / "bad.json").write_text(text)
        result = runner.invoke(
            main,
            [*COMMANDS["optimize"], "--config", str(config), "--script-path", str(tmp_path / "bad.json")],
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: {reason}")
        assert not (tmp_path / "results").exists()

    def test_unknown_part_exits_two(self, runner, tmp_path):
        config = self.setup_scene(tmp_path)
        result = runner.invoke(
            main,
            ["optimize", "--benchmark", "matmul", "--part", "xc9nope", "--config", str(config)],
        )
        assert result.exit_code == 2

    def test_unknown_benchmark_exits_two(self, runner, tmp_path):
        config = self.setup_scene(tmp_path)
        result = runner.invoke(
            main,
            ["optimize", "--benchmark", "ghost", "--part", "xc7a200tfbg676-2",
             "--config", str(config)],
        )
        assert result.exit_code == 2


class TestMatrix:
    def test_small_matrix_emits_results_tree(self, runner, tmp_path):
        kb_dir = write_small_kb(tmp_path)
        manifest = write_small_manifest(tmp_path, ("matmul", "vecadd"))
        benchmarks = bench.load_manifest(manifest)
        scripts = tmp_path / "scripts"
        scenario.write_matrix_scripts(benchmarks, scripts)
        results = tmp_path / "results"
        config = write_config(tmp_path, kb_dir, manifest, scripts, results)
        result = runner.invoke(main, ["matrix", "--config", str(config), "--jobs", "2"])
        assert result.exit_code == 0, result.output
        assert (results / "success_matrix.csv").is_file()
        assert (results / "tables" / "ff.csv").is_file()
        assert (results / "tables" / "full.md").is_file()
        assert len(list((results / "runs").glob("*/*/state.json"))) == 4

    def test_failed_cell_does_not_abort_matrix(self, runner, tmp_path):
        kb_dir = write_small_kb(tmp_path)
        manifest = write_small_manifest(tmp_path, ("matmul", "vecadd"))
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        benchmarks = bench.load_manifest(manifest)
        scenario.write_matrix_scripts(benchmarks, scripts)
        # cripple one benchmark's script: responses for the wrong stage only
        (scripts / "vecadd.json").write_text(
            json.dumps([{"stage": "rtl_repair", "response": "```c\nint x;\n```"}])
        )
        results = tmp_path / "results"
        config = write_config(tmp_path, kb_dir, manifest, scripts, results)
        result = runner.invoke(main, ["matrix", "--config", str(config), "--jobs", "1"])
        assert result.exit_code == 0
        states = {
            p.parent.parent.name + "/" + p.parent.name: json.loads(p.read_text())["final_verdict"]
            for p in (results / "runs").glob("*/*/state.json")
        }
        assert states["matmul/xc7a200tfbg676-2"] == "converged"
        assert states["vecadd/xc7a200tfbg676-2"] == "aborted"

    def setup_scene(self, tmp_path):
        """Scripts for matmul and vecadd on the two-device kb; returns the
        config and the script directory."""
        kb_dir = write_small_kb(tmp_path)
        manifest = write_small_manifest(tmp_path, ("matmul", "vecadd"))
        scripts = tmp_path / "scripts"
        scenario.write_matrix_scripts(bench.load_manifest(manifest), scripts)
        return write_config(tmp_path, kb_dir, manifest, scripts, tmp_path / "results"), scripts

    def matrix(self, runner, config, results):
        result = runner.invoke(
            main, ["matrix", "--config", str(config), "--jobs", "2", "--results-dir", str(results)]
        )
        assert result.exit_code == 0, result.output
        return result.output

    def test_script_that_is_not_json_aborts_its_cells_only(self, runner, tmp_path):
        config, scripts = self.setup_scene(tmp_path)
        (scripts / "vecadd.json").write_text('[{"stage": ')
        results = tmp_path / "results"
        assert "matrix: 2/4 cells converged" in self.matrix(runner, config, results)
        rows = (results / "tables" / "latency.csv").read_text().splitlines()[1:]
        assert {(r.split(",")[0], r.split(",")[2]) for r in rows} == {
            ("matmul", "xc7a200tfbg676-2"),
            ("matmul", "xc7s50-ftgb196-2"),
        }
        for part in ("xc7a200tfbg676-2", "xc7s50-ftgb196-2"):
            run_dir = results / "runs" / "vecadd" / part
            state = json.loads((run_dir / "state.json").read_text())
            assert state["final_verdict"] == "aborted"
            assert state["abort_reason"].startswith(
                "ValidationError: script vecadd.json is not valid JSON: "
            )
            assert sorted(p.name for p in run_dir.iterdir()) == ["state.json"]

    def test_rerun_without_a_script_equals_a_fresh_run(self, runner, tmp_path):
        """Cells whose script is gone abort and keep nothing of the earlier
        run, so the tables hold only the cells that ran this time."""
        config, scripts = self.setup_scene(tmp_path)
        rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
        assert "matrix: 4/4 cells converged" in self.matrix(runner, config, rerun)
        (scripts / "vecadd.json").unlink()
        for results in (rerun, fresh):
            assert "matrix: 2/4 cells converged" in self.matrix(runner, config, results)
        tree = {p.relative_to(fresh): p.read_bytes() for p in fresh.rglob("*") if p.is_file()}
        assert {p.relative_to(rerun): p.read_bytes() for p in rerun.rglob("*") if p.is_file()} == tree
        rows = [r.split(",") for r in (rerun / "success_matrix.csv").read_text().splitlines()[1:]]
        assert [(r[1], r[2]) for r in rows] == [("2", "1"), ("2", "1")]  # attempted, converged
        state = json.loads((rerun / "runs" / "vecadd" / "xc7s50-ftgb196-2" / "state.json").read_text())
        assert state["final_verdict"] == "aborted"
        assert state["abort_reason"] == f"ConfigError: script not found: {scripts / 'vecadd.json'}"

    def test_crashing_cell_is_recorded_and_the_rest_still_tabled(
        self, runner, tmp_path, monkeypatch, caplog
    ):
        """An exception outside the library's own errors, raised inside
        run_refinement for one cell, aborts that cell only."""
        kb_dir = write_small_kb(tmp_path)
        manifest = write_small_manifest(tmp_path, ("matmul", "vecadd"))
        scripts = tmp_path / "scripts"
        scenario.write_matrix_scripts(bench.load_manifest(manifest), scripts)
        results = tmp_path / "results"
        config = write_config(tmp_path, kb_dir, manifest, scripts, results)

        class Crashing(SimulatedToolchain):
            def run_phase(self, phase, source_text, workdir):
                raise RuntimeError("simulator fault")

        make_cell = cli._make_cell

        def faulty_make_cell(cfg, desc, target, script_entries):
            backend, tool, archive = make_cell(cfg, desc, target, script_entries)
            if (desc.id, target.part) == ("vecadd", "xc7s50-ftgb196-2"):
                tool.__class__ = Crashing
            return backend, tool, archive

        monkeypatch.setattr(cli, "_make_cell", faulty_make_cell)
        result = runner.invoke(main, ["matrix", "--config", str(config), "--jobs", "2"])
        assert result.exit_code == 0, result.output
        assert "matrix: 3/4 cells converged" in result.output
        assert "cell vecadd/xc7s50-ftgb196-2 aborted: RuntimeError: simulator fault" in caplog.text
        crashed = json.loads(
            (results / "runs" / "vecadd" / "xc7s50-ftgb196-2" / "state.json").read_text()
        )
        assert crashed["final_verdict"] == "aborted"
        assert crashed["abort_reason"] == "RuntimeError: simulator fault"
        assert crashed["family"] == "Spartan-7" and crashed["iterations"] == []
        rows = (results / "tables" / "latency.csv").read_text().splitlines()[1:]
        assert {(r.split(",")[0], r.split(",")[2]) for r in rows} == {
            ("matmul", "xc7a200tfbg676-2"),
            ("matmul", "xc7s50-ftgb196-2"),
            ("vecadd", "xc7a200tfbg676-2"),
        }
        assert "Spartan-7,2,1,50.0" in (results / "success_matrix.csv").read_text()


    def test_k_docs_zero_turns_retrieval_off(self, runner, tmp_path):
        """With refinement.k_docs 0 no cell aborts, and the results tree
        equals the default one apart from the prompts, which name no
        context documents."""
        kb_dir = write_small_kb(tmp_path)
        manifest = write_small_manifest(tmp_path, ("matmul", "vecadd"))
        scripts = tmp_path / "scripts"
        scenario.write_matrix_scripts(bench.load_manifest(manifest), scripts)
        config = write_config(tmp_path, kb_dir, manifest, scripts, tmp_path / "results")
        trees = {}
        for k_docs in (4, 0):
            raw = json.loads(config.read_text())
            raw["refinement"]["k_docs"] = k_docs
            config.write_text(json.dumps(raw))
            results = tmp_path / f"results_k{k_docs}"
            result = runner.invoke(
                main,
                ["matrix", "--config", str(config), "--jobs", "1", "--results-dir", str(results)],
            )
            assert result.exit_code == 0, result.output
            assert "matrix: 4/4 cells converged" in result.output
            trees[k_docs] = {
                str(p.relative_to(results)): p.read_text()
                for p in sorted(results.rglob("*"))
                if p.is_file()
            }
        assert trees[0].keys() == trees[4].keys()
        prompts = [name for name in trees[0] if name.endswith("prompt.txt")]
        assert prompts
        for name, text in trees[0].items():
            if name in prompts:
                assert text.endswith("=== CONTEXT DOCS ===\n(none)\n")
                assert trees[4][name].endswith("=== CONTEXT DOCS ===\nnote\n")
                if name.endswith("iter_1/prompt.txt"):
                    assert "\nCONTEXT\n(no context documents)\n" in text
            else:
                assert text == trees[4][name], name

    def model_scene(self, tmp_path, monkeypatch):
        """setup_scene with vecadd's model copied into tmp_path; returns the
        config, the copy, and the model paths each load_model call read."""
        config, _ = self.setup_scene(tmp_path)
        manifest = tmp_path / "manifest.json"
        entries = json.loads(manifest.read_text())
        model = tmp_path / "vecadd_model.json"
        vecadd = next(e for e in entries if e["id"] == "vecadd")
        model.write_text(Path(vecadd["model_path"]).read_text())
        vecadd["model_path"] = str(model)
        manifest.write_text(json.dumps(entries))
        loads = []
        load_model = toolchain.load_model
        monkeypatch.setattr(toolchain, "load_model", lambda path: loads.append(path) or load_model(path))
        return config, model, loads

    def test_malformed_model_aborts_every_cell_of_its_benchmark_alike(
        self, runner, tmp_path, monkeypatch
    ):
        config, model, loads = self.model_scene(tmp_path, monkeypatch)
        model.write_text('{"root_loop": ')
        results = tmp_path / "results"
        assert "matrix: 2/4 cells converged" in self.matrix(runner, config, results)
        reasons = set()
        for part in ("xc7a200tfbg676-2", "xc7s50-ftgb196-2"):
            assert json.loads(
                (results / "runs" / "matmul" / part / "state.json").read_text()
            )["final_verdict"] == "converged"
            state = json.loads((results / "runs" / "vecadd" / part / "state.json").read_text())
            assert state["final_verdict"] == "aborted" and state["iterations"] == []
            reasons.add(state["abort_reason"])
        assert len(reasons) == 1 and reasons.pop().startswith(f"ValidationError: {model.name}: ")
        # a failed load is tried again by the next cell; a good one is not
        assert loads.count(model) == 2 and len(loads) == 3

    def test_each_invocation_loads_the_inputs_afresh(self, runner, tmp_path, monkeypatch):
        """Inputs are kept for one command only: a second matrix in the same
        process sees a model edited after the first."""
        config, model, loads = self.model_scene(tmp_path, monkeypatch)
        assert "matrix: 4/4 cells converged" in self.matrix(runner, config, tmp_path / "first")
        assert len(loads) == 2  # once per benchmark, not once per cell
        model.write_text('{"root_loop": ')
        assert "matrix: 2/4 cells converged" in self.matrix(runner, config, tmp_path / "second")
        assert len(loads) == 5  # matmul once more, the broken model once per cell

    def test_each_kernel_source_is_read_once_per_command(self, runner, tmp_path, monkeypatch):
        """The bundled 10x10 matrix, writing its scenario scripts first,
        reads each of the 10 kernel sources once, not once per cell."""
        sources = {b.source_path for b in bench.load_manifest(bench.bundled_manifest_path())}
        reads, read_text = [], Path.read_text

        def counting(path, *args, **kwargs):
            if path in sources:
                reads.append(path)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        result = runner.invoke(main, [
            "matrix", "--backend", "scripted", "--write-scripts", "--jobs", "1",
            "--results-dir", str(tmp_path / "results"),
        ])
        assert result.exit_code == 0, result.output
        assert sorted(reads) == sorted(sources)

    def test_corrupt_archive_from_an_earlier_run_exits_one_naming_the_file(self, runner, tmp_path):
        kb_dir = write_small_kb(tmp_path)
        manifest = write_small_manifest(tmp_path, ("matmul",))
        scripts = tmp_path / "scripts"
        scenario.write_matrix_scripts(bench.load_manifest(manifest), scripts)
        results = tmp_path / "results"
        stray = results / "runs" / "zzz" / "part" / "state.json"
        stray.parent.mkdir(parents=True)
        stray.write_text("[]")
        config = write_config(tmp_path, kb_dir, manifest, scripts, results)
        result = runner.invoke(main, ["matrix", "--config", str(config), "--jobs", "1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: {stray}: not a JSON object: list\n"

    def test_each_model_is_loaded_once_per_command(self, runner, tmp_path, monkeypatch):
        """The bundled 10x10 matrix, writing its scenario scripts first,
        loads each of the 10 kernel models once: the scripts and the cells
        share the model its descriptor keeps."""
        models = {b.model_path for b in bench.load_manifest(bench.bundled_manifest_path())}
        reads, read_text = [], Path.read_text

        def counting(path, *args, **kwargs):
            if path in models:
                reads.append(path)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        result = runner.invoke(main, [
            "matrix", "--backend", "scripted", "--write-scripts", "--jobs", "1",
            "--results-dir", str(tmp_path / "results"),
        ])
        assert result.exit_code == 0, result.output
        assert sorted(reads) == sorted(models)


class TestMatrixWorkers:
    """Scripted, simulated cells run on one pool thread whatever --jobs
    says; cells that wait outside the interpreter get --jobs threads."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The max_workers of every pool `matrix` makes, in order."""
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", Recording)
        return sizes

    def scene(self, tmp_path, external: bool) -> Path:
        kb_dir = write_small_kb(tmp_path)
        manifest = write_small_manifest(tmp_path, ("matmul", "vecadd"))
        scripts = tmp_path / "scripts"
        scenario.write_matrix_scripts(bench.load_manifest(manifest), scripts)
        config = write_config(tmp_path, kb_dir, manifest, scripts, tmp_path / "results")
        if external:
            raw = json.loads(config.read_text())
            raw["toolchain"] = stub_toolchain(tmp_path)
            config.write_text(json.dumps(raw))
        return config

    def test_scripted_simulated_cells_run_on_one_thread(
            self, runner, tmp_path, monkeypatch, pool_sizes):
        idents = []
        run_cell = cli._run_cell

        def recording(*args):
            idents.append(threading.get_ident())
            verdict = run_cell(*args)
            idents.append(threading.get_ident())
            return verdict

        monkeypatch.setattr(cli, "_run_cell", recording)
        monkeypatch.delattr(sys, "_is_gil_enabled", raising=False)
        config = self.scene(tmp_path, external=False)
        result = runner.invoke(main, ["matrix", "--jobs", "4", "--config", str(config)])
        assert result.exit_code == 0, result.output
        assert len(idents) == 8 and len(set(idents)) == 1
        assert pool_sizes == [1]

    def test_external_matrix_is_the_same_at_any_jobs(self, runner, tmp_path, pool_sizes):
        config = self.scene(tmp_path, external=True)
        trees = {}
        for jobs in (1, 4):
            out = tmp_path / f"jobs{jobs}"
            result = runner.invoke(main, ["matrix", "--jobs", str(jobs), "--config", str(config),
                                          "--results-dir", str(out)])
            assert result.exit_code == 0, result.output
            assert result.output.startswith("matrix: 4/4 cells converged")
            trees[jobs] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert pool_sizes == [1, 4]
        assert (tmp_path / "jobs1/runs/vecadd/xc7s50-ftgb196-2/iter_1/c_sim/kernel.cpp").is_file()
        assert trees[1] == trees[4]

    @pytest.mark.parametrize(
        "backend, toolchain_kind, workers",
        [("scripted", "simulated", 1), ("scripted", "external", 6),
         ("http_chat", "simulated", 6), ("http_chat", "external", 6)],
    )
    def test_rule(self, monkeypatch, backend, toolchain_kind, workers):
        monkeypatch.delattr(sys, "_is_gil_enabled", raising=False)
        cfg = cli._default_config()
        cfg = dataclasses.replace(cfg, backend=dataclasses.replace(cfg.backend, kind=backend),
                                  toolchain_kind=toolchain_kind, jobs=6)
        assert cli._pool_workers(cfg) == workers

    @pytest.mark.parametrize("gil_enabled, workers", [(True, 1), (False, 6)])
    def test_free_threaded_interpreter_keeps_jobs(self, monkeypatch, gil_enabled, workers):
        monkeypatch.setattr(sys, "_is_gil_enabled", lambda: gil_enabled, raising=False)
        cfg = dataclasses.replace(cli._default_config(), jobs=6)
        assert cli._pool_workers(cfg) == workers


class TestDse:
    def dse_args(self, config):
        return ["dse", "--benchmark", "vecadd", "--part", "xc7a200tfbg676-2",
                "--config", str(config), "--steps", "20"]

    def test_missing_kb_dir_exits_two(self, runner, tmp_path):
        manifest = write_small_manifest(tmp_path, ("vecadd",))
        config = write_config(tmp_path, tmp_path / "no_kb", manifest, tmp_path, tmp_path / "results")
        result = runner.invoke(main, self.dse_args(config))
        assert result.exit_code == 2
        assert "knowledge base directory not found" in result.output

    def test_missing_targets_file_exits_two(self, runner, tmp_path):
        kb_dir = write_small_kb(tmp_path)
        (kb_dir / "targets.json").unlink()
        manifest = write_small_manifest(tmp_path, ("vecadd",))
        config = write_config(tmp_path, kb_dir, manifest, tmp_path, tmp_path / "results")
        result = runner.invoke(main, self.dse_args(config))
        assert result.exit_code == 2
        assert "missing targets file" in result.output

    def test_reads_only_the_device_list(self, runner, tmp_path):
        """A malformed note stops kb validate and optimize, not dse."""
        kb_dir = write_small_kb(tmp_path)
        (kb_dir / "docs" / "broken.md").write_text("no front matter\n")
        manifest = write_small_manifest(tmp_path, ("vecadd",))
        config = write_config(tmp_path, kb_dir, manifest, tmp_path, tmp_path / "results")
        result = runner.invoke(main, self.dse_args(config))
        assert result.exit_code == 0, result.output
        assert (tmp_path / "results" / "dse" / "vecadd_xc7a200tfbg676-2.json").is_file()
        assert runner.invoke(main, ["kb", "validate", "--kb-dir", str(kb_dir)]).exit_code == 1
        result = runner.invoke(
            main,
            ["optimize", "--benchmark", "vecadd", "--part", "xc7a200tfbg676-2",
             "--config", str(config)],
        )
        assert result.exit_code == 1
        assert "broken.md" in result.output

    def test_writes_results_file(self, runner, tmp_path):
        kb_dir = write_small_kb(tmp_path)
        manifest = write_small_manifest(tmp_path, ("vecadd",))
        config = write_config(tmp_path, kb_dir, manifest, tmp_path / "unused", tmp_path / "results")
        result = runner.invoke(
            main,
            ["dse", "--benchmark", "vecadd", "--part", "xc7a200tfbg676-2",
             "--config", str(config), "--steps", "50", "--seed", "3"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(
            (tmp_path / "results" / "dse" / "vecadd_xc7a200tfbg676-2.json").read_text()
        )
        assert payload["schedule"]["seed"] == 3
        assert len(payload["trace"]) == 51
        assert "best_config" in payload and "best_qor" in payload

    @pytest.mark.parametrize("part", ["xc7a200tfbg676-2", "xave2602-nsvh1369-1LJ-i-L"])
    def test_file_is_json_dumps_indent_2(self, runner, tmp_path, part):
        """The trace is written apart from the encoder, in its layout; the
        Versal cell's trace holds penalised objectives above 10**6."""
        result = runner.invoke(
            main,
            ["dse", "--benchmark", "matmul", "--part", part, "--steps", "60",
             "--results-dir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        text = (tmp_path / "dse" / f"matmul_{part}.json").read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2) + "\n"
        assert len(payload["trace"]) == 61
        if part.startswith("xave"):
            assert min(o for _, o in payload["trace"]) > 10**6

    def test_frozen_schedule_exits_zero(self, runner, tmp_path):
        """The temperature underflows to 0.0 after 1075 steps at alpha 0.5."""
        result = runner.invoke(
            main,
            ["dse", "--benchmark", "matmul", "--part", "xc7a200tfbg676-2", "--steps", "2000",
             "--alpha", "0.5", "--results-dir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "dse" / "matmul_xc7a200tfbg676-2.json").read_text())
        assert len(payload["trace"]) == 2001

    def test_unknown_benchmark_exits_two(self, runner, tmp_path):
        kb_dir = write_small_kb(tmp_path)
        manifest = write_small_manifest(tmp_path, ("vecadd",))
        config = write_config(tmp_path, kb_dir, manifest, tmp_path / "unused", tmp_path / "results")
        result = runner.invoke(
            main,
            ["dse", "--benchmark", "ghost", "--part", "xc7a200tfbg676-2", "--config", str(config)],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--steps", "0", "steps must be >= 1"),
            ("--alpha", "1.5", "alpha must be in (0, 1)"),
            ("--t0", "0", "t0 must be > 0"),
        ],
    )
    def test_bad_schedule_flag_exits_two(self, runner, tmp_path, flag, value, message):
        kb_dir = write_small_kb(tmp_path)
        manifest = write_small_manifest(tmp_path, ("vecadd",))
        config = write_config(tmp_path, kb_dir, manifest, tmp_path / "unused", tmp_path / "results")
        result = runner.invoke(main, self.dse_args(config) + [flag, value])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: {message}\n"
        assert not (tmp_path / "results" / "dse").exists()


# a converged run's state.json with the given iterations
CONVERGED_STATE = (
    '{"benchmark_id": "matmul", "part": "xc7a200tfbg676-2", "family": "Artix-7", '
    '"final_verdict": "converged", "iterations": %s}'
)


# iterations naming the final report of the test's converged matmul run
FINAL_ITERATION = '[{"index": 1, "phases": {"rtl_synth": {"latency_cycles": 1}}}]'


class TestReportRender:
    def test_rerender_from_archives(self, runner, tmp_path):
        kb_dir = write_small_kb(tmp_path)
        manifest = write_small_manifest(tmp_path, ("matmul",))
        benchmarks = bench.load_manifest(manifest)
        scripts = tmp_path / "scripts"
        scenario.write_matrix_scripts(benchmarks, scripts)
        results = tmp_path / "results"
        config = write_config(tmp_path, kb_dir, manifest, scripts, results)
        assert runner.invoke(main, ["matrix", "--config", str(config)]).exit_code == 0
        out = tmp_path / "rendered"
        result = runner.invoke(
            main, ["report", "render", "--runs", str(results / "runs"), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert (out / "tables" / "ff.csv").read_text() == (results / "tables" / "ff.csv").read_text()

    def test_missing_runs_dir_exits_two(self, runner, tmp_path):
        result = runner.invoke(main, ["report", "render", "--runs", str(tmp_path / "none")])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "name, text, reason",
        [
            ("base_qor.json", '{"schema_version": 1, "latency', "not valid JSON"),
            ("base_qor.json", "[]", "canonical report is not a JSON object"),
            ("state.json", '{"schema_version": 1,', "not valid JSON"),
            ("state.json", "{}", "missing benchmark_id, part, family, final_verdict, iterations"),
            ("state.json", "[1]", "not a JSON object: list"),
            ("state.json", CONVERGED_STATE % "5", "iterations: expected a list of objects"),
            ("state.json", CONVERGED_STATE % '[{"index": 1}]', "iterations: expected a list of objects"),
            ("state.json", CONVERGED_STATE % '[{"index": 1, "phases": {"rtl_synth": 5}}]',
             "iterations[0].phases.rtl_synth: expected an object, got int"),
            ("state.json", CONVERGED_STATE.replace('"Artix-7"', "null") % FINAL_ITERATION,
             "family: expected a string, got NoneType"),
            ("iter_1/rtl_synth_qor.json", None, "cannot read: No such file or directory"),
        ],
    )
    def test_corrupt_archive_exits_one_naming_the_file(self, runner, tmp_path, name, text, reason):
        kb_dir = write_small_kb(tmp_path)
        manifest = write_small_manifest(tmp_path, ("matmul",))
        scripts = tmp_path / "scripts"
        scenario.write_matrix_scripts(bench.load_manifest(manifest), scripts)
        results = tmp_path / "results"
        config = write_config(tmp_path, kb_dir, manifest, scripts, results)
        assert runner.invoke(main, ["matrix", "--config", str(config)]).exit_code == 0
        run_dir = results / "runs" / "matmul" / "xc7a200tfbg676-2"
        assert json.loads((run_dir / "state.json").read_text())["final_verdict"] == "converged"
        if text is None:  # the converged run names iter_1/rtl_synth_qor.json as its final report
            (run_dir / name).unlink()
        else:
            (run_dir / name).write_text(text)
        result = runner.invoke(
            main, ["report", "render", "--runs", str(results / "runs"), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: {run_dir / name}: {reason}")


class TestMalformedInputs:
    """A malformed manifest or kernel model is `error: <file>: <reason>`,
    exit 2 from matrix and dse and exit 1 from optimize, as for a manifest
    naming a missing file. In a matrix a broken model only aborts its own
    cells (TestMatrix)."""

    ARGS = {
        "matrix": ["matrix", "--jobs", "1"],
        "dse": ["dse", "--benchmark", "vecadd", "--part", "xc7a200tfbg676-2", "--steps", "20"],
        "optimize": ["optimize", "--benchmark", "vecadd", "--part", "xc7a200tfbg676-2"],
    }
    EXITS = {"matrix": 2, "dse": 2, "optimize": 1}

    def run(self, runner, tmp_path, command, name, edit):
        """Run command after edit(text) replaced the text of the manifest,
        of vecadd's model (a copy) or of the device list, as name says."""
        kb_dir = write_small_kb(tmp_path)
        manifest = write_small_manifest(tmp_path, ("vecadd",))
        scripts = tmp_path / "scripts"
        scenario.write_matrix_scripts(bench.load_manifest(manifest), scripts)
        entries = json.loads(manifest.read_text())
        model = tmp_path / "vecadd_model.json"
        model.write_text(Path(entries[0]["model_path"]).read_text())
        entries[0]["model_path"] = str(model)
        manifest.write_text(json.dumps(entries))
        path = {"manifest": manifest, "model": model, "targets": kb_dir / "targets.json"}[name]
        path.write_text(edit(path.read_text()))
        config = write_config(tmp_path, kb_dir, manifest, scripts, tmp_path / "results")
        return runner.invoke(main, self.ARGS[command] + ["--config", str(config)])

    @pytest.mark.parametrize("command", ["matrix", "dse", "optimize"])
    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda text: json.dumps([{k: v for k, v in json.loads(text)[0].items() if k != "title"}]),
             "manifest.json: entry 0: not a string: title"),
            (lambda text: text[:40], "manifest.json: not valid JSON"),
            (lambda text: json.dumps({"benchmarks": json.loads(text)}), "manifest.json: not a JSON array"),
        ],
    )
    def test_malformed_manifest(self, runner, tmp_path, command, edit, reason):
        result = self.run(runner, tmp_path, command, "manifest", edit)
        assert result.exit_code == self.EXITS[command]
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: {reason}")
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("command", ["dse", "optimize"])
    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "root_loop"}),
             "vecadd_model.json: missing 'root_loop'"),
            (lambda text: text[:40], "vecadd_model.json: not valid JSON"),
            (lambda text: text.replace('"add"', '"mult"'),
             "vecadd_model.json: loop 'ADD': unknown op 'mult', not one of mul, add, load, store"),
        ],
    )
    def test_malformed_model(self, runner, tmp_path, command, edit, reason):
        result = self.run(runner, tmp_path, command, "model", edit)
        assert result.exit_code == self.EXITS[command]
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: {reason}")
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("command", ["matrix", "dse", "optimize"])
    @pytest.mark.parametrize("text", ["5", "{}"])
    def test_targets_not_an_array(self, runner, tmp_path, command, text):
        result = self.run(runner, tmp_path, command, "targets", lambda _: text)
        assert result.exit_code == self.EXITS[command]
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == "error: targets.json: not a JSON array\n"
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("command", ["matrix", "dse", "optimize"])
    @pytest.mark.parametrize("field", ["family", "part", "tier"])
    def test_target_field_not_a_string(self, runner, tmp_path, command, field):
        def edit(text):
            targets = json.loads(text)
            targets[0][field] = 5
            return json.dumps(targets)

        result = self.run(runner, tmp_path, command, "targets", edit)
        assert result.exit_code == self.EXITS[command]
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: targets.json: entry 0: not a string: {field}\n"
        assert not (tmp_path / "results").exists()


class TestLoadConfig:
    def test_every_refinement_field_is_settable(self, tmp_path):
        """A RefinementConfig field the config file cannot set is an option
        nothing can use; adding one fails here until load_config reads it."""
        values = {"max_iterations": 3, "k_docs": 7, "clock_ns": 4.5, "log_excerpt_lines": 12}
        assert set(values) == {f.name for f in dataclasses.fields(RefinementConfig)}
        defaults = dataclasses.asdict(RefinementConfig())
        assert all(defaults[name] != value for name, value in values.items())
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"refinement": values}))
        assert dataclasses.asdict(cli.load_config(str(path)).refinement) == values


COMMANDS = {
    "optimize": ["optimize", "--benchmark", "matmul", "--part", "xc7a200tfbg676-2"],
    "matrix": ["matrix"],
    "dse": ["dse", "--benchmark", "matmul", "--part", "xc7a200tfbg676-2"],
    "report render": ["report", "render"],
}


class TestUsageErrors:
    """A zero or negative setting, a config that is not a JSON object, a
    config value of the wrong JSON type and an unknown kind or report
    format are usage errors: `error: <reason>` and exit 2, before
    anything runs."""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize(
        "raw, reason",
        [
            ([], "is not a JSON object"),
            ({"jobs": 0}, "jobs must be >= 1"),
            ({"refinement": {"max_iterations": 0}}, "max_iterations must be >= 1"),
            ({"refinement": {"k_docs": -1}}, "k_docs must be >= 0"),
            ({"refinement": {"clock_ns": 0}}, "clock_ns must be > 0"),
            ({"refinement": {"clock_ns": -5}}, "clock_ns must be > 0"),
        ],
    )
    def test_config_value(self, runner, tmp_path, command, raw, reason):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(main, [*COMMANDS[command], "--config", str(path)])
            assert not Path("results").exists()
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: ") and reason in result.stderr

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize(
        "raw, reason",
        [
            ({"jobs": "two"}, 'jobs: expected an integer, got "two"'),
            ({"jobs": True}, "jobs: expected an integer, got true"),
            ({"refinement": [1]}, "refinement: expected an object, got [1]"),
            ({"refinement": []}, "refinement: expected an object, got []"),
            ({"refinement": {"clock_ns": "5"}}, 'refinement.clock_ns: expected a number, got "5"'),
            ({"backend": "x"}, 'backend: expected an object, got "x"'),
            ({"backend": {"temperature": [1]}}, "backend.temperature: expected a number, got [1]"),
            ({"toolchain": {"phases": []}}, "toolchain.phases: expected an object, got []"),
            ({"toolchain": {"phases": {"c_sim": {}}}}, "toolchain.phases.c_sim.command: missing"),
            ({"results_dir": 7}, "results_dir: expected a string, got 7"),
            ({"backend": {"kind": "x"}}, 'backend.kind: expected "scripted" or "http_chat", got "x"'),
            ({"toolchain": {"kind": "bogus"}},
             'toolchain.kind: expected "simulated" or "external", got "bogus"'),
            ({"toolchain": {"phases": {"rtl_synth": {"command": "true", "report_format": "json"}}}},
             'toolchain.phases.rtl_synth.report_format: expected "vendor" or "canonical", got "json"'),
        ],
    )
    def test_config_type(self, runner, tmp_path, command, raw, reason):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(main, [*COMMANDS[command], "--config", str(path)])
            assert not Path("results").exists()
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {path}: {reason}\n"

    @pytest.mark.parametrize(
        "args, reason",
        [
            ([*COMMANDS["optimize"], "--max-iters", "0"], "max_iterations must be >= 1"),
            (["matrix", "--max-iters", "0"], "max_iterations must be >= 1"),
            (["matrix", "--jobs", "0"], "jobs must be >= 1"),
        ],
    )
    def test_zero_flag(self, runner, tmp_path, args, reason):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(main, args)
            assert not Path("results").exists()
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {reason}\n"
