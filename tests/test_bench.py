"""Metric arithmetic, table emission, and the success matrix."""

from __future__ import annotations

import random

import pytest

from timelyhls.bench import (
    QoRDelta,
    compute_resource_delta,
    compute_speedup,
    delta_from_reports,
    format_speedup,
    load_manifest,
    success_matrix_csv,
    write_results,
)
from timelyhls.errors import ContractError, ValidationError
from timelyhls.reports import LoopMetric, QoRReport, ResourceUsage, TimingSummary


def sig4(x: float) -> float:
    return float(f"{x:.4g}")


class TestSpeedup:
    def test_known_cycle_counts(self):
        assert sig4(compute_speedup(16531, 4277)) == 3.865

    def test_identity(self):
        assert compute_speedup(100, 100) == 1.0

    def test_slowdown_representable(self):
        assert sig4(compute_speedup(19, 64)) == 0.2969

    def test_zero_opt_rejected(self):
        with pytest.raises(ContractError):
            compute_speedup(100, 0)

    def test_zero_base_rejected(self):
        with pytest.raises(ContractError):
            compute_speedup(0, 10)

    def test_reciprocal_product_is_one(self):
        rng = random.Random(41)
        for _ in range(200):
            a, b = rng.randint(1, 10**6), rng.randint(1, 10**6)
            assert compute_speedup(a, b) * compute_speedup(b, a) == pytest.approx(1.0, abs=1e-6)

    def test_format(self):
        assert format_speedup(compute_speedup(16531, 4277)) == "3.865"


def usage(ff=0, lut=0, dsp=0, bram=0):
    return ResourceUsage(ff=ff, lut=lut, dsp=dsp, bram=bram)


class TestResourceDelta:
    def test_viterbi_ff_reduction(self):
        delta = compute_resource_delta(usage(ff=579), usage(ff=247))
        assert delta["ff"] == -57.34

    def test_identity_is_exact_zero(self):
        u = usage(ff=17, lut=33, dsp=5, bram=2)
        delta = compute_resource_delta(u, u)
        assert all(delta[r] == 0.0 for r in ("ff", "lut", "dsp", "bram"))

    def test_dsp_explosion(self):
        delta = compute_resource_delta(usage(dsp=5), usage(dsp=160))
        assert delta["dsp"] == 3100.0

    def test_new_marker_for_zero_base(self):
        delta = compute_resource_delta(usage(dsp=0), usage(dsp=12))
        assert delta["dsp"] == "new"

    def test_zero_base_zero_opt(self):
        delta = compute_resource_delta(usage(), usage())
        assert delta["dsp"] == 0.0


def make_delta(**overrides):
    base = dict(
        benchmark_id="viterbi",
        part="xc7a200tfbg676-2",
        family="Artix-7",
        speedup=1.5,
        ff_base=579,
        ff_opt=247,
        ff_change_pct=-57.34,
        lut_base=1196,
        lut_opt=619,
        lut_change_pct=-48.24,
        dsp_base=5,
        dsp_opt=160,
        ii_base=None,
        ii_opt=1,
        wns_base=-0.08,
        wns_opt=0.1,
    )
    base.update(overrides)
    return QoRDelta(**base)


def table(out_dir, deltas, name="full", ext="csv"):
    """The text of one table file `write_results` writes for the deltas."""
    write_results(deltas, [], out_dir)
    return (out_dir / "tables" / f"{name}.{ext}").read_text(encoding="utf-8")


class TestTables:
    def test_ff_row_contains_expected_values(self, tmp_path):
        text = table(tmp_path, [make_delta()], "ff")
        assert "247" in text
        assert "-57.34" in text
        assert text.splitlines()[0] == "Benchmark,Family,Part,FF Used,FF Change (%)"

    def test_every_table_selects_its_columns_of_the_full_one(self, tmp_path):
        text = table(tmp_path, [make_delta()])
        assert text == (
            "Benchmark,Family,Part,Speedup,FF Used,FF Change (%),LUTs Used,LUTs Change (%),"
            "DSP Base,DSP Optimized,Base II,Optimized II,WNS Base (ns),WNS Optimized (ns)\n"
            "viterbi,Artix-7,xc7a200tfbg676-2,1.5,247,-57.34,619,-48.24,5,160,-,1,-0.08,0.10\n"
        )
        assert table(tmp_path, [make_delta()], "latency").splitlines() == [
            "Benchmark,Family,Part,Speedup,WNS Base (ns),WNS Optimized (ns)",
            "viterbi,Artix-7,xc7a200tfbg676-2,1.5,-0.08,0.10",
        ]
        assert table(tmp_path, [make_delta()], "loop_ii").splitlines() == [
            "Benchmark,Part,Base II,Optimized II",
            "viterbi,xc7a200tfbg676-2,-,1",
        ]

    def test_empty_list_is_header_only(self, tmp_path):
        assert len(table(tmp_path, []).splitlines()) == 1

    def test_deterministic(self, tmp_path):
        deltas = [make_delta(), make_delta(benchmark_id="vecadd", part="xc7s50-ftgb196-2")]
        assert table(tmp_path / "one", deltas) == table(tmp_path / "two", deltas)

    def test_row_order_by_benchmark_then_part(self, tmp_path):
        deltas = [
            make_delta(benchmark_id="zz", part="a"),
            make_delta(benchmark_id="aa", part="b"),
            make_delta(benchmark_id="aa", part="a"),
        ]
        rows = table(tmp_path, deltas, "loop_ii").splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [["aa", "a"], ["aa", "b"], ["zz", "a"]]

    def test_distinct_inputs_distinct_bytes(self, tmp_path):
        one = table(tmp_path / "one", [make_delta()])
        other = table(tmp_path / "other", [make_delta(ff_opt=248)])
        assert one != other

    def test_markdown_shape(self, tmp_path):
        lines = table(tmp_path, [make_delta()], "lut", "md").splitlines()
        assert lines[0].startswith("| Benchmark | Family | Part | LUTs Used")
        assert lines[1].startswith("| --- |")
        assert "619" in lines[2]

    def test_ii_renders_dash_when_absent(self, tmp_path):
        text = table(tmp_path, [make_delta(ii_base=None, ii_opt=1)], "loop_ii")
        assert ",-,1" in text.splitlines()[1]

    def test_new_marker_rendered(self, tmp_path):
        text = table(tmp_path, [make_delta(ff_change_pct="new")], "ff")
        assert ",new" in text.splitlines()[1]


class TestDeltaFromReports:
    def test_pulls_min_pipelined_ii(self):
        base = QoRReport(
            latency_cycles=1000,
            timing=TimingSummary.from_wns(-0.08, -0.24, 10.0),
            resources=usage(ff=579, lut=1196, dsp=5, bram=2),
            loops=(LoopMetric("L", None, 9, False),),
            source_phase="simulated",
        )
        opt = QoRReport(
            latency_cycles=250,
            timing=TimingSummary.from_wns(0.1, 0.0, 10.0),
            resources=usage(ff=247, lut=619, dsp=160, bram=2),
            loops=(LoopMetric("L", 2, 9, True), LoopMetric("M", 1, 4, True)),
            source_phase="simulated",
        )
        delta = delta_from_reports("viterbi", "p", "Artix-7", base, opt)
        assert delta.speedup == 4.0
        assert delta.ii_base is None
        assert delta.ii_opt == 1
        assert delta.ff_change_pct == -57.34
        assert delta.wns_base == -0.08


class TestSuccessMatrix:
    def state(self, family, verdict):
        return {"family": family, "final_verdict": verdict}

    def test_full_success(self):
        states = [self.state("Artix-7", "converged") for _ in range(10)]
        assert success_matrix_csv(states).splitlines()[1:] == ["Artix-7,10,10,100.0"]

    def test_family_without_attempts_omitted(self):
        states = [self.state("Artix-7", "converged")]
        rows = success_matrix_csv(states).splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["Artix-7"]

    def test_seven_of_ten(self):
        states = [self.state("Zynq", "converged")] * 7 + [self.state("Zynq", "budget_exhausted")] * 3
        assert success_matrix_csv(states).splitlines()[1:] == ["Zynq,10,7,70.0"]

    def test_csv_shape(self):
        states = [self.state("Zynq", "converged"), self.state("Zynq", "aborted")]
        text = success_matrix_csv(states)
        assert text.splitlines() == [
            "family,attempted,converged,success_pct",
            "Zynq,2,1,50.0",
        ]


class TestManifest:
    def test_bundled_corpus_is_complete(self, benchmarks):
        assert len(benchmarks) == 10
        ids = {b.id for b in benchmarks}
        assert ids == {
            "matmul", "conv2d", "vecdot", "vecadd", "bitonic",
            "viterbi", "lms", "cordic", "matvec", "needleman",
        }
        for b in benchmarks:
            assert b.source_path.is_file()
            assert b.testbench_path.is_file()
            assert b.model_path.is_file()

    def test_missing_file_rejected(self, tmp_path):
        import json

        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                [
                    {
                        "id": "x",
                        "title": "X",
                        "challenge": "c",
                        "source_path": "src/x.cpp",
                        "testbench_path": "tb/x_tb.cpp",
                        "model_path": "models/x.json",
                        "top_function": "x",
                    }
                ]
            )
        )
        with pytest.raises(ValidationError):
            load_manifest(manifest)
