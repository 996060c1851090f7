"""Analytical simulator model checks and external adapter behavior."""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from timelyhls import bench, dse, hls_source
from timelyhls.dse import ConfigSpace
from timelyhls.errors import MappingError, ToolMissing, ToolTimeout
from timelyhls.hls_source import PragmaDirective, PragmaKind, SourceUnit, inject_pragma, strip_pragmas
from timelyhls.reports import canonical_dumps, default_profile
from timelyhls.scenario import _anchor
from timelyhls.toolchain import (
    ArraySpec,
    ExternalToolchain,
    KernelModel,
    KernelShape,
    LoopDescriptor,
    PhaseCommand,
    Settings,
    SimulatedToolchain,
    critical_path_ns,
    evaluate,
    load_model,
    pragma_settings,
    render_synth_log,
)

from conftest import FIXTURES, corpus_sources, make_target, random_model, rebuild, splice_pragmas
from conftest import table_reference


def own(model, target, clock_ns):  # the report of the model's own settings
    return evaluate(KernelShape.of(model), Settings.of(model), target, clock_ns)


def single_loop(trip=16, ops=None, dep=0, unroll=1, ii=None, arrays=()):
    return KernelModel(
        root=LoopDescriptor(
            label="L",
            trip_count=trip,
            op_counts=ops or {"add": 4},
            carried_dependence_distance=dep,
            pipeline_ii=ii,
            unroll_factor=unroll,
        ),
        arrays=tuple(arrays),
    )


class TestSimulateExamples:
    """Hand-evaluated values from the documented model constants."""

    def test_sequential_latency(self, roomy_target):
        qor = own(single_loop(), roomy_target, 10.0)
        assert qor.latency_cycles == 64  # D = 4, 16 trips

    def test_pipelined_latency(self, roomy_target):
        qor = own(single_loop(ii=1), roomy_target, 10.0)
        assert qor.latency_cycles == 19  # (16-1)*1 + 4

    def test_memory_floor(self, roomy_target):
        model = single_loop(ii=1, unroll=8, arrays=[ArraySpec("a", 64, 2)])
        assert own(model, roomy_target, 10.0).loops[0].ii == 8  # ceil(2*8 / 2)

    def test_trip_one_pipelined_is_depth(self, roomy_target):
        qor = own(single_loop(trip=1, ii=1), roomy_target, 10.0)
        assert qor.latency_cycles == 4

    def test_two_loop_nest_full_report(self, roomy_target):
        # ROW(4, store:1) -> MAC(6, mul+add+2load), 32-bit, no pragmas:
        # D_MAC=9, D_ROW=2, latency 4*54+2; 6 logic levels (multiply, u=1)
        target = make_target(logic_delay_ns=0.5, default_clock_ns=3.0)
        model = KernelModel(
            root=LoopDescriptor(
                label="ROW",
                trip_count=4,
                op_counts={"store": 1},
                child=LoopDescriptor(
                    label="MAC", trip_count=6, op_counts={"mul": 1, "add": 1, "load": 2}
                ),
            ),
            arrays=(ArraySpec("a", 100, 2),),
        )
        qor = own(model, target, 3.0)
        assert qor.latency_cycles == 218
        assert qor.resources.dsp == 3
        assert qor.resources.ff == 40  # ceil(4*32/4) + ceil(1*32/4)
        assert qor.resources.lut == 80
        assert qor.resources.bram == 1
        assert qor.timing.wns_ns == 0.0  # 6 levels * 0.5 = clock exactly
        assert qor.timing.met is True
        assert [(m.loop_label, m.ii, m.depth) for m in qor.loops] == [
            ("ROW", None, 2),
            ("MAC", None, 9),
        ]

    def test_two_loop_nest_pipelined_unrolled(self):
        # MAC pipelined ii=1 with unroll 2: memory floor ceil(2*2/2)=2,
        # latency per nest = (3-1)*2+9 = 13, ROW total 4*13+2 = 54
        target = make_target(logic_delay_ns=0.5, default_clock_ns=3.0)
        model = KernelModel(
            root=LoopDescriptor(
                label="ROW",
                trip_count=4,
                op_counts={"store": 1},
                child=LoopDescriptor(
                    label="MAC",
                    trip_count=6,
                    op_counts={"mul": 1, "add": 1, "load": 2},
                    pipeline_ii=1,
                    unroll_factor=2,
                ),
            ),
            arrays=(ArraySpec("a", 100, 2),),
        )
        qor = own(model, target, 3.0)
        assert qor.latency_cycles == 54
        assert qor.resources.dsp == 6
        assert qor.resources.ff == 144  # 64 + 72 pipeline regs + 8 for ROW
        assert qor.resources.lut == 144
        assert qor.timing.wns_ns == 1.0  # pipelined: 4 levels * 0.5
        mac = next(m for m in qor.loops if m.loop_label == "MAC")
        assert (mac.ii, mac.pipelined) == (2, True)

    def test_overflow_flags_not_error(self):
        target = make_target(dsps=5)
        model = single_loop(ops={"mul": 1}, unroll=2)  # dsp = 2*3 = 6 > 5
        qor = own(model, target, 10.0)
        assert qor.resources.overflow == frozenset({"dsp"})


class TestSynthLog:
    def test_violation_and_critical_path_lines(self):
        # COL asks for II 1 against a port floor of ceil(2*2 / 2) = 2; ROW is
        # unpipelined and multiplies: 4 + 2 = 6 levels at 1 ns against 5 ns.
        col = LoopDescriptor(
            label="COL", trip_count=8, op_counts={"add": 1, "load": 2}, pipeline_ii=1,
            unroll_factor=2,
        )
        model = KernelModel(
            root=LoopDescriptor(label="ROW", trip_count=4, op_counts={"mul": 1}, child=col),
            arrays=(ArraySpec("a", 64, 2),),
        )
        target = make_target(logic_delay_ns=1.0)
        shape, settings = KernelShape.of(model), Settings.of(model)
        log = render_synth_log(evaluate(shape, settings, target, 5.0), shape, settings, target)
        assert "pipeline violation: loop 'COL' achieved II = 2 exceeds requested II = 1\n" in log
        assert "timing: 6 logic levels, est. 6.00 ns against clock 5.00 ns\n" in log
        assert "critical path: 6 levels through loop 'ROW' (est. 6.00 ns)\n" in log

    def test_violation_lines_match_achieved_ii(self):
        """One violation line for each pipelined loop whose achieved II
        exceeds its request, and none for any other loop."""
        rng = random.Random(33)
        target = make_target()
        for _ in range(300):
            model = random_model(rng)
            shape, settings = KernelShape.of(model), Settings.of(model)
            report = evaluate(shape, settings, target, 10.0)
            log = render_synth_log(report, shape, settings, target)
            expected = [
                f"pipeline violation: loop '{l.label}' achieved II = {m.ii} "
                f"exceeds requested II = {l.pipeline_ii}"
                for l, m in zip(model.loops(), report.loops)
                if l.pipeline_ii is not None and m.ii > l.pipeline_ii
            ]
            assert [ln for ln in log.splitlines() if ln.startswith("pipeline violation")] == expected


class TestSimulateProperties:
    def test_pipeline_never_increases_latency(self):
        rng = random.Random(31)
        for _ in range(300):
            model = random_model(rng)
            loops = model.root.chain()
            pick = rng.randrange(len(loops))
            without = _set_loop(model, pick, pipeline_ii=None)
            with_pipe = _set_loop(model, pick, pipeline_ii=1)
            target = make_target()
            assert (
                own(with_pipe, target, 10.0).latency_cycles
                <= own(without, target, 10.0).latency_cycles
            )

    def test_unroll_doubling_monotone(self):
        rng = random.Random(32)
        target = make_target()
        for _ in range(300):
            model = random_model(rng)
            loops = model.root.chain()
            pick = rng.randrange(len(loops))
            u = loops[pick].unroll_factor
            doubled = _set_loop(model, pick, unroll_factor=2 * u)
            before = own(model, target, 10.0)
            after = own(doubled, target, 10.0)
            assert after.latency_cycles <= before.latency_cycles
            assert after.resources.dsp >= before.resources.dsp
            assert after.resources.lut >= before.resources.lut

    def test_partition_never_raises_memory_floor(self):
        """The port floor is the II of the leaf pipelined at II 1 with no
        carried dependence."""
        rng = random.Random(33)
        target = make_target()
        for _ in range(200):
            model = random_model(rng)
            if not model.arrays:
                continue
            i = rng.randrange(len(model.arrays))
            arrays = list(model.arrays)
            arrays[i] = replace(arrays[i], partition_factor=arrays[i].partition_factor * 2)
            bigger = KernelModel(root=model.root, arrays=tuple(arrays), datapath_bits=model.datapath_bits)
            leaf = len(model.loops()) - 1
            for u in (1, 2, 8):
                floor_bigger, floor = (
                    own(_set_loop(m, leaf, pipeline_ii=1, carried_dependence_distance=0,
                                  unroll_factor=u), target, 10.0).loops[leaf].ii
                    for m in (bigger, model)
                )
                assert floor_bigger <= floor

    def test_achieved_ii_at_least_all_floors(self):
        """Each loop, pipelined at its request (II 1 when it has none),
        achieves at least its port floor, its carried-dependence distance
        and its request."""
        rng = random.Random(34)
        target = make_target()
        for _ in range(300):
            model = random_model(rng)
            for k, loop in enumerate(model.loops()):
                requested = loop.pipeline_ii or 1
                ii = own(_set_loop(model, k, pipeline_ii=requested), target, 10.0).loops[k].ii
                floor = own(
                    _set_loop(model, k, pipeline_ii=1, carried_dependence_distance=0), target, 10.0
                ).loops[k].ii
                assert ii >= floor
                assert ii >= max(1, loop.carried_dependence_distance)
                assert ii >= requested

    def test_ii_is_one_when_unconstrained(self, roomy_target):
        qor = own(single_loop(ii=1), roomy_target, 10.0)
        assert qor.loops[0].ii == 1

    def test_wns_plus_critical_path_is_clock_exactly(self):
        rng = random.Random(35)
        for _ in range(300):
            model = random_model(rng)
            target = make_target(logic_delay_ns=round(rng.uniform(0.05, 3.0), 2))
            clock = round(rng.uniform(1.0, 20.0), 2)
            qor = own(model, target, clock)
            wns_c = round(qor.timing.wns_ns * 100)
            cp_c = round(critical_path_ns(qor) * 100)
            assert wns_c + cp_c == round(clock * 100)

    def test_purity(self):
        rng = random.Random(36)
        target = make_target()
        for _ in range(50):
            model = random_model(rng)
            assert own(model, target, 10.0) == own(model, target, 10.0)


@st.composite
def table_case(draw):
    """A random model with settings no search point holds: requested II 2
    or more on any loop, and partition factors up to twice an array's
    element count; a target whose capacities a design can overflow, and
    a clock."""
    model = random_model(random.Random(draw(st.integers(0, 2**32))))
    loops = model.loops()
    model = rebuild(
        model,
        {l.label: draw(st.sampled_from((None, 1, 2, 3, 8))) for l in loops},
        {l.label: draw(st.integers(1, 2 * l.trip_count)) for l in loops},
        {a.name: draw(st.integers(1, 2 * a.elements)) for a in model.arrays},
    )
    target = make_target(
        luts=draw(st.integers(1, 10**4)),
        ffs=draw(st.integers(1, 10**4)),
        dsps=draw(st.integers(1, 100)),
        brams=draw(st.integers(1, 500)),
        logic_delay_ns=draw(st.floats(0.1, 3.0)),
    )
    return model, target, round(draw(st.floats(1.0, 20.0)), draw(st.integers(0, 3)))


class TestEvaluateEqualsTable:
    @settings(max_examples=500, deadline=None)
    @given(table_case())
    def test_evaluate_equals_the_transcribed_table(self, case):
        model, target, clock = case
        report = evaluate(KernelShape.of(model), Settings.of(model), target, clock)
        usage = report.resources
        assert table_reference(model, target, clock) == {
            "latency": report.latency_cycles,
            "ff": usage.ff,
            "lut": usage.lut,
            "dsp": usage.dsp,
            "bram": usage.bram,
            "overflow": set(usage.overflow),
            "wns": report.timing.wns_ns,
            "tns": report.timing.tns_ns,
            "ii": [m.ii for m in report.loops],
        }


def _set_loop(model: KernelModel, index: int, **changes) -> KernelModel:
    loops = model.root.chain()

    def rebuild(i):
        loop = loops[i]
        child = rebuild(i + 1) if i + 1 < len(loops) else None
        loop = replace(loop, child=child)
        if i == index:
            loop = replace(loop, **changes)
        return loop

    return KernelModel(root=rebuild(0), arrays=model.arrays, datapath_bits=model.datapath_bits)


SOURCE = """\
void kernel(int a[64], int out[64]) {
    OUTER: for (int i = 0; i < 16; i++) {
        INNER: for (int j = 0; j < 4; j++) {
            out[i * 4 + j] = a[i * 4 + j] * 2;
        }
    }
}
"""


def nest_model():
    return KernelModel(
        root=LoopDescriptor(
            label="OUTER",
            trip_count=16,
            op_counts={},
            child=LoopDescriptor(
                label="INNER", trip_count=4, op_counts={"mul": 1, "load": 1, "store": 1}
            ),
        ),
        arrays=(ArraySpec("a", 64, 1), ArraySpec("out", 64, 1)),
    )


class TestApplyPragmas:
    def parse(self, text):
        unit = SourceUnit.from_text(text)
        return unit.pragmas, unit.anchors

    def test_full_unroll_default(self):
        text = SOURCE.replace(
            "            out[i * 4 + j]",
            "            #pragma HLS unroll\n            out[i * 4 + j]",
        )
        pragmas, anchors = self.parse(text)
        assert pragma_settings(nest_model(), pragmas, anchors).unroll == (1, 4)

    def test_partition_complete_equals_elements(self):
        text = SOURCE.replace(
            "    OUTER:",
            "    #pragma HLS array_partition variable=a type=complete\n    OUTER:",
        )
        pragmas, anchors = self.parse(text)
        assert pragma_settings(nest_model(), pragmas, anchors).partition == (64, 1)

    def test_pipeline_defaults_to_ii_one(self):
        text = SOURCE.replace(
            "            out[i * 4 + j]",
            "            #pragma HLS pipeline\n            out[i * 4 + j]",
        )
        pragmas, anchors = self.parse(text)
        assert pragma_settings(nest_model(), pragmas, anchors).pipeline_ii == (None, 1)

    def test_unknown_loop_is_mapping_error(self):
        bad = SOURCE.replace("INNER", "MYSTERY")
        pragmas, anchors = self.parse(
            bad.replace(
                "            out[i * 4 + j]",
                "            #pragma HLS pipeline II=1\n            out[i * 4 + j]",
            )
        )
        with pytest.raises(MappingError):
            pragma_settings(nest_model(), pragmas, anchors)

    def test_unknown_array_is_mapping_error(self):
        text = SOURCE.replace(
            "    OUTER:",
            "    #pragma HLS array_partition variable=ghost factor=2\n    OUTER:",
        )
        pragmas, anchors = self.parse(text)
        with pytest.raises(MappingError):
            pragma_settings(nest_model(), pragmas, anchors)


# ---------------------------------------------------------------------------
# pragma_settings against a rebuild through dataclasses.replace

BUNDLED = [
    (b.source_text(), load_model(b.model_path), b.top_function)
    for b in bench.load_manifest(bench.bundled_manifest_path())
]


@st.composite
def kernel_with_pragmas(draw):
    """A bundled model, its loops possibly already pipelined, and its
    kernel source with random PIPELINE, UNROLL and ARRAY_PARTITION pragmas
    injected; returns (model, unit, the settings those pragmas stand for)."""
    source, model, top = draw(st.sampled_from(BUNDLED))
    if draw(st.booleans()):
        model = rebuild(
            model,
            {l.label: draw(st.sampled_from([None, 1, 2, 4])) for l in model.loops()},
            {},
            {},
        )
    unit = SourceUnit.from_text(source)
    pipeline_ii, unroll, partition = {}, {}, {}
    for loop in model.loops():
        if draw(st.booleans()):
            ii = draw(st.one_of(st.none(), st.integers(1, 3)))
            directive = PragmaDirective(kind=PragmaKind.PIPELINE, ii=ii)
            unit = inject_pragma(unit, _anchor(unit, "loop_body_start", loop.label), directive)
            pipeline_ii[loop.label] = ii if ii is not None else 1
        if draw(st.booleans()):
            factor = draw(st.one_of(st.none(), st.integers(1, loop.trip_count)))
            directive = PragmaDirective(kind=PragmaKind.UNROLL, factor=factor)
            unit = inject_pragma(unit, _anchor(unit, "loop_body_start", loop.label), directive)
            unroll[loop.label] = factor if factor is not None else loop.trip_count
    for array in model.arrays:
        if draw(st.booleans()):
            kind = draw(st.sampled_from([None, "cyclic", "block", "complete"]))
            factor = draw(st.one_of(st.none(), st.integers(1, 16)))
            directive = PragmaDirective(
                kind=PragmaKind.ARRAY_PARTITION,
                variable=array.name,
                partition_type=kind,
                factor=factor,
                dim=1,
            )
            unit = inject_pragma(unit, _anchor(unit, "function_body_start", top), directive)
            if kind == "complete":
                partition[array.name] = array.elements
            else:
                partition[array.name] = factor if factor is not None else 2
    return model, unit, (pipeline_ii, unroll, partition)


class TestApplyPragmasProperty:
    @settings(max_examples=200, deadline=None)
    @given(kernel_with_pragmas())
    def test_equals_replace_rebuild(self, case):
        model, unit, (pipeline_ii, unroll, partition) = case
        applied = pragma_settings(model, unit.pragmas, unit.anchors)
        assert applied == Settings.of(rebuild(model, pipeline_ii, unroll, partition))
        # a loop no PIPELINE pragma names keeps its requested II
        for loop, ii in zip(model.loops(), applied.pipeline_ii):
            if loop.label not in pipeline_ii:
                assert ii == loop.pipeline_ii


@st.composite
def kernel_with_point(draw):
    """A bundled model, a point of its full search space, and its kernel
    source with the pragmas that point stands for injected."""
    source, model, top = draw(st.sampled_from(BUNDLED))
    space = ConfigSpace.for_model(model)
    point = tuple(draw(st.sampled_from(ladder)) for ladder in space.ladders)
    unit = SourceUnit.from_text(source)
    for (kind, name), value in zip(space.fields, point):
        if kind == "pipeline" and not value:
            continue
        if kind == "partition":
            anchor = _anchor(unit, "function_body_start", top)
            directive = PragmaDirective(
                kind=PragmaKind.ARRAY_PARTITION,
                variable=name,
                partition_type="cyclic",
                factor=value,
                dim=1,
            )
        else:
            anchor = _anchor(unit, "loop_body_start", name)
            directive = (
                PragmaDirective(kind=PragmaKind.PIPELINE, ii=1)
                if kind == "pipeline"
                else PragmaDirective(kind=PragmaKind.UNROLL, factor=value)
            )
        unit = inject_pragma(unit, anchor, directive)
    return model, space, point, unit


class TestMappingsAgree:
    """A dse point and the pragmas it stands for map onto the same settings."""

    @settings(max_examples=200, deadline=None)
    @given(kernel_with_point())
    def test_pragma_settings_equal_point_settings(self, case):
        model, space, point, unit = case
        # no bundled model presets an II, so an unpipelined loop is None both ways
        assert all(loop.pipeline_ii is None for loop in model.loops())
        by_pragmas = pragma_settings(model, unit.pragmas, unit.anchors)
        assert by_pragmas == dse._search(model, space, make_target(), 10.0)[1](point)


class TestSimulatedToolchain:
    def chain(self):
        return SimulatedToolchain(
            model=nest_model(),
            reference_source=SOURCE,
            top_function="kernel",
            target=make_target(),
            clock_ns=10.0,
        )

    def test_synth_ok_with_qor(self, tmp_path):
        out = self.chain().run_phase("hls_synth", SOURCE, tmp_path)
        assert out.ok and out.qor is not None
        assert "WNS(ns):" in out.log

    def test_sim_passes_on_pragma_only_change(self, tmp_path):
        variant = SOURCE.replace(
            "            out[i * 4 + j]",
            "            #pragma HLS pipeline II=1\n            out[i * 4 + j]",
        )
        out = self.chain().run_phase("c_sim", variant, tmp_path)
        assert out.ok
        assert "PASS" in out.log

    def test_pragma_in_a_block_comment_changes_no_phase(self, tmp_path):
        """A compiler or Vitis HLS ignores a pragma line inside a comment,
        so synthesis gives the reference's QoR while the same pragma
        outside the comment does not."""
        pragma = "#pragma HLS unroll factor=4\n"
        live = SOURCE.replace("            out[i * 4 + j]", pragma + "            out[i * 4 + j]")
        commented = live.replace(pragma, "/*\n" + pragma + "*/\n")
        chain = self.chain()
        want = chain.run_phase("hls_synth", SOURCE, tmp_path).qor
        assert chain.run_phase("hls_synth", live, tmp_path).qor != want
        assert chain.run_phase("hls_synth", commented, tmp_path).qor == want
        assert chain.run_phase("c_sim", commented, tmp_path).ok

    @pytest.mark.parametrize("phase", ["hls_synth", "c_sim", "rtl_sim"])
    def test_malformed_pragma_value_fails_every_phase_alike(self, tmp_path, phase):
        text = SOURCE.replace("        INNER:", "#pragma HLS pipeline II=abc\n        INNER:")
        out = self.chain().run_phase(phase, text, tmp_path)
        assert not out.ok
        assert out.log == "error: line 3: malformed pragma value in 'II=abc'\n"

    def test_sim_catches_semantic_change(self, tmp_path):
        mutant = SOURCE.replace("* 2", "* 3")
        out = self.chain().run_phase("rtl_sim", mutant, tmp_path)
        assert not out.ok
        assert "functional mismatch" in out.log

    def test_mismatch_still_fails_once_reference_tokens_are_cached(self, tmp_path):
        chain = self.chain()
        assert chain.run_phase("c_sim", SOURCE, tmp_path).ok  # caches the reference tokens
        mutant = SOURCE.replace("* 2", "* 3")
        for tool in (chain, self.chain()):
            out = tool.run_phase("c_sim", mutant, tmp_path)
            assert not out.ok
            assert "functional mismatch" in out.log
        assert chain.run_phase("rtl_sim", SOURCE, tmp_path).ok

    def test_synth_fails_on_broken_source(self, tmp_path):
        out = self.chain().run_phase("hls_synth", "void kernel( {", tmp_path)
        assert not out.ok
        assert "error:" in out.log

    @settings(max_examples=60, deadline=None)
    @given(
        kernel=st.sampled_from(bench.load_manifest(bench.bundled_manifest_path())),
        opener=st.sampled_from(["/*", '"', "'"]),
        body=st.text(st.characters(blacklist_categories=("Cs",)), max_size=40),
    )
    def test_unterminated_tail_fails_synth_and_sim(self, kernel, opener, body):
        """A correct kernel followed by an unterminated comment or literal
        is not a valid source: hls_synth and c_sim both reject it."""
        closer = "*/" if opener == "/*" else opener
        while closer in body:
            body = body.replace(closer, "")
        text = kernel.source_text() + "\n" + opener + body
        tool = SimulatedToolchain(
            model=load_model(kernel.model_path),
            reference_source=kernel.source_text(),
            top_function=kernel.top_function,
            target=make_target(),
            clock_ns=10.0,
        )
        for phase in ("hls_synth", "c_sim"):
            out = tool.run_phase(phase, text, Path("unused"))  # the simulator writes nothing
            assert not out.ok
            assert "error: line" in out.log and "unterminated" in out.log

    def test_synth_fails_on_missing_top(self, tmp_path):
        out = self.chain().run_phase("hls_synth", "void other() {\n}\n", tmp_path)
        assert not out.ok
        assert "kernel" in out.log


class TestSimTokens:
    @settings(max_examples=60, deadline=None)
    @given(
        kernel=st.sampled_from(corpus_sources()),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 5),
    )
    def test_spliced_pragmas_never_change_the_tokens(self, kernel, seed, count):
        text = splice_pragmas(kernel, random.Random(seed), count)
        unit = SourceUnit.from_text(text)
        assert strip_pragmas(unit).text == kernel  # splicing adds whole lines only
        assert unit.tokens == SourceUnit.from_text(kernel).tokens

    def test_one_scan_per_text(self, monkeypatch):
        """The pragmas, anchors, stripped text and both token checks of
        one kernel text come from one `_lex` pass; a variant with
        pragmas costs one pass for itself and one for its stripped text."""
        lexed = []
        lex = hls_source._lex

        def counting_lex(text, directives):
            lexed.append(text)
            return lex(text, directives)

        monkeypatch.setattr(hls_source, "_lex", counting_lex)
        variant = SOURCE.replace("        INNER:", "#pragma HLS pipeline II=1\n        INNER:")
        for text, want in ((SOURCE, [SOURCE]), (variant, [variant, SOURCE])):
            hls_source._parse.cache_clear()
            lexed.clear()
            chain = SimulatedToolchain(nest_model(), SOURCE, "kernel", make_target(), 10.0)
            unit = SourceUnit.from_text(text)
            assert strip_pragmas(unit).text == SOURCE
            for phase in ("c_sim", "rtl_sim"):
                assert chain.run_phase(phase, text, Path("unused")).ok
            assert lexed == want


class TestExternalAdapter:
    def chain(self, target=None, clock_ns=10.0, **phases):
        return ExternalToolchain(
            phases=phases, target=target or make_target(), clock_ns=clock_ns, top_function="kernel"
        )

    def test_nonzero_exit_captured(self, tmp_path):
        chain = self.chain(hls_synth=PhaseCommand(command="echo fail && exit 1"))
        out = chain.run_phase("hls_synth", SOURCE, tmp_path)
        assert not out.ok
        assert "fail" in out.log

    def test_output_that_is_not_utf8_is_decoded_with_replacements(self, tmp_path):
        chain = self.chain(c_sim=PhaseCommand(command="printf 'caf\\351 PASS\\n' >&2"))
        out = chain.run_phase("c_sim", SOURCE, tmp_path)
        assert out.ok
        assert out.log == "caf\ufffd PASS\n"

    def test_vendor_report_that_is_not_utf8_is_parsed(self, tmp_path):
        report = tmp_path / "latin1.rpt"
        stub = (FIXTURES / "vendor_report.txt").read_bytes()
        report.write_bytes(b"Vivado HLS report for caf\xe9\n" + stub)
        chain = self.chain(hls_synth=PhaseCommand(command=f"cp {report} {{workdir}}/synth.rpt"))
        out = chain.run_phase("hls_synth", SOURCE, tmp_path / "run")
        assert out.ok
        assert out.qor.timing.wns_ns == -0.08

    def test_only_the_four_placeholders_are_substituted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", "/home/someone")
        chain = self.chain(
            c_sim=PhaseCommand(command="echo ${HOME} | awk '{print $1}'; echo {top} {{x}} {topx}")
        )
        out = chain.run_phase("c_sim", SOURCE, tmp_path)
        assert out.ok
        assert out.log == "/home/someone\nkernel {{x}} {topx}\n"

    def test_missing_binary(self, tmp_path):
        chain = self.chain(c_sim=PhaseCommand(command="definitely_no_such_tool_470"))
        with pytest.raises(ToolMissing):
            chain.run_phase("c_sim", SOURCE, tmp_path)

    def test_timeout(self, tmp_path):
        chain = self.chain(c_sim=PhaseCommand(command="sleep 5", timeout_s=0.3))
        with pytest.raises(ToolTimeout):
            chain.run_phase("c_sim", SOURCE, tmp_path)

    def test_stub_writing_canonical_report(self, tmp_path, roomy_target):
        golden = own(single_loop(ii=1), roomy_target, 10.0)
        fixture = tmp_path / "stub_qor.json"
        fixture.write_text(canonical_dumps(golden))
        chain = self.chain(
            rtl_synth=PhaseCommand(
                command=f"cp {fixture} {{workdir}}/qor.json",
                report_glob="qor.json",
                report_format="canonical",
            )
        )
        out = chain.run_phase("rtl_synth", SOURCE, tmp_path)
        assert out.ok
        assert out.qor == golden

    def test_stub_writing_vendor_report(self, tmp_path):
        chain = self.chain(
            hls_synth=PhaseCommand(
                command=f"cp {FIXTURES / 'vendor_report.txt'} {{workdir}}/synth.rpt",
                report_glob="*.rpt",
                report_format="vendor",
            )
        )
        out = chain.run_phase("hls_synth", SOURCE, tmp_path)
        assert out.ok
        assert out.qor.timing.wns_ns == -0.08
        assert out.qor.source_phase == "hls_synth"

    def test_vendor_report_without_clock_records_the_adapters(self, tmp_path):
        profile = {k: v for k, v in default_profile().items() if k != "clock"}
        chain = self.chain(
            hls_synth=PhaseCommand(
                command=f"cp {FIXTURES / 'vendor_report.txt'} {{workdir}}/synth.rpt",
                profile=profile,
            ),
            clock_ns=7.5,
        )
        out = chain.run_phase("hls_synth", SOURCE, tmp_path)
        assert out.ok
        assert out.qor.timing.clock_ns == 7.5

    @pytest.mark.parametrize("ffs, flagged", [(10**9, {"ff", "dsp"}), (247, {"dsp"})])
    def test_overflow_joins_the_targets_capacity_rule(self, tmp_path, ffs, flagged):
        """A canonical report's own flags stay, and the target's capacity
        rule adds the resources it exceeds."""
        golden = own(single_loop(ii=1), make_target(), 10.0)
        stated = replace(
            golden,
            resources=replace(golden.resources, ff=ffs, overflow=frozenset({"dsp"})),
        )
        fixture = tmp_path / "stub_qor.json"
        fixture.write_text(canonical_dumps(stated))
        chain = self.chain(
            rtl_synth=PhaseCommand(
                command=f"cp {fixture} {{workdir}}/qor.json",
                report_glob="qor.json",
                report_format="canonical",
            ),
            target=make_target(ffs=10**6),
        )
        out = chain.run_phase("rtl_synth", SOURCE, tmp_path)
        assert out.qor.resources.overflow == flagged
        assert replace(out.qor, resources=stated.resources) == stated

    def test_substitutions(self, tmp_path):
        chain = self.chain(c_sim=PhaseCommand(command="echo {part} {top} {clock_ns}"))
        out = chain.run_phase("c_sim", SOURCE, tmp_path)
        assert out.ok
        assert "xc7test kernel 10.0" in out.log

    def test_missing_report_fails(self, tmp_path):
        chain = self.chain(hls_synth=PhaseCommand(command="true", report_glob="*.nope"))
        out = chain.run_phase("hls_synth", SOURCE, tmp_path)
        assert not out.ok
        assert "no report" in out.log

    def test_report_of_an_earlier_run_is_not_read(self, tmp_path):
        """A second run in the same directory whose command writes no
        report fails; the first run's report is deleted before it runs."""
        report = PhaseCommand(command=f"cp {FIXTURES / 'vendor_report.txt'} {{workdir}}/synth.rpt")
        assert self.chain(hls_synth=report).run_phase("hls_synth", SOURCE, tmp_path).ok
        out = self.chain(hls_synth=PhaseCommand(command="true")).run_phase(
            "hls_synth", SOURCE, tmp_path
        )
        assert not out.ok
        assert "no report" in out.log

    def test_each_phase_runs_in_its_own_directory(self, tmp_path):
        """Both synthesis phases match *.rpt; each reads the report its own
        command wrote, next to its own copy of the kernel and testbench."""
        testbench = tmp_path / "kernel_tb.cpp"
        testbench.write_text("int main() { return 0; }\n")
        hls = FIXTURES / "vendor_report.txt"
        impl = tmp_path / "impl.rpt"
        impl.write_text(hls.read_text().replace("WNS(ns): -0.08", "WNS(ns): -2.00"))
        chain = ExternalToolchain(
            phases={
                "hls_synth": PhaseCommand(command=f"cp {hls} csynth.rpt"),
                "rtl_synth": PhaseCommand(command=f"cp {impl} impl.rpt"),
            },
            target=make_target(),
            clock_ns=10.0,
            top_function="kernel",
            testbench_path=testbench,
        )
        iter_dir = tmp_path / "iter_1"
        outs = {p: chain.run_phase(p, SOURCE, iter_dir) for p in ("hls_synth", "rtl_synth")}
        assert outs["hls_synth"].qor.timing.wns_ns == -0.08
        assert outs["rtl_synth"].qor.timing.wns_ns == -2.0
        assert outs["rtl_synth"].qor.source_phase == "rtl_synth"
        for phase in outs:
            assert (iter_dir / phase / "kernel.cpp").read_text() == SOURCE
            assert (iter_dir / phase / "kernel_tb.cpp").read_bytes() == testbench.read_bytes()
