"""Annealing baseline correctness against exhaustive enumeration."""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import timelyhls
from timelyhls import bench, dse, kb, toolchain
from timelyhls.dse import (
    AnnealSchedule,
    ConfigSpace,
    PragmaConfig,
    anneal,
    brute_force,
    factor_ladder,
    neighbor,
    objective,
)
from timelyhls.errors import ValidationError
from timelyhls.reports import QoRReport, ResourceUsage, TimingSummary
from timelyhls.toolchain import (
    ArraySpec,
    KernelModel,
    KernelShape,
    LoopDescriptor,
    Settings,
    critical_path_ns,
    evaluate,
    load_model,
)

from conftest import make_target, random_model, rebuild


def own(model, target, clock_ns):  # the report of the model's own settings
    return evaluate(KernelShape.of(model), Settings.of(model), target, clock_ns)


def qor(latency=19, wns=0.1, overflow=()):
    return QoRReport(
        latency_cycles=latency,
        timing=TimingSummary.from_wns(wns, min(0.0, wns), 10.0),
        resources=ResourceUsage(ff=1, lut=1, dsp=1, bram=1, overflow=frozenset(overflow)),
        loops=(),
        source_phase="simulated",
    )


class TestObjective:
    def test_feasible_is_latency(self):
        assert objective(qor(latency=19, wns=0.1)) == 19.0

    def test_single_timing_penalty(self):
        assert objective(qor(latency=19, wns=-0.1)) == 1000019.0

    def test_three_penalties(self):
        assert objective(qor(latency=7, wns=-0.1, overflow=("dsp", "bram"))) == 7.0 + 3 * 10**6


class TestLadder:
    def test_power_of_two_trip(self):
        assert factor_ladder(16) == (1, 2, 4, 8, 16)

    def test_non_power_includes_full(self):
        assert factor_ladder(9) == (1, 2, 4, 8, 9)

    def test_degenerate(self):
        assert factor_ladder(1) == (1,)


def toy_model():
    return KernelModel(
        root=LoopDescriptor(label="L", trip_count=16, op_counts={"add": 1, "load": 2}),
        arrays=(ArraySpec(name="buf", elements=64, accesses_per_iteration=2),),
    )


def toy_space():
    return ConfigSpace(
        pipeline_loops=("L",),
        unroll_ladders={"L": (1, 2)},
        partition_ladders={"buf": (1, 2)},
    )


class TestNeighbor:
    def test_mutates_exactly_one_field(self):
        rng = random.Random(51)
        space = ConfigSpace.for_model(toy_model())
        point = space.initial()
        for _ in range(200):
            new = neighbor(point, rng, space)
            assert len(new) == len(point)
            assert sum(1 for old, value in zip(point, new) if old != value) == 1

    def test_deterministic_per_seed(self):
        space = ConfigSpace.for_model(toy_model())
        point = space.initial()
        seq_a = [neighbor(point, random.Random(5), space) for _ in range(1)]
        seq_b = [neighbor(point, random.Random(5), space) for _ in range(1)]
        assert seq_a == seq_b

    def test_ladder_top_steps_down(self):
        space = ConfigSpace(
            pipeline_loops=(), unroll_ladders={"L": (1, 2, 4)}, partition_ladders={}
        )
        point = (4,)
        assert space.config(point) == PragmaConfig(pipeline={}, unroll={"L": 4}, partition={})
        rng = random.Random(0)
        for _ in range(50):
            assert neighbor(point, rng, space) == (2,)


class TestAnneal:
    def test_eight_point_space_pipeline_is_optimal(self, roomy_target):
        """Exhaustive check over the 8-point space confirms the pipelined
        configuration wins; annealing must find it."""
        model, space = toy_model(), toy_space()
        best_cfg, best_obj = brute_force(model, roomy_target, space)
        assert best_cfg.pipeline["L"] is True
        assert best_obj == 12.0  # Teff 8, II 1 after partition: 7*1 + 5
        got_cfg, got_qor, _ = anneal(
            model, roomy_target, AnnealSchedule(steps=300, seed=3), space=space
        )
        assert objective(got_qor) == best_obj
        assert got_cfg.pipeline["L"] is True

    def test_single_step_returns_better_of_two(self, roomy_target):
        model, space = toy_model(), toy_space()
        best, best_qor, trace = anneal(
            model, roomy_target, AnnealSchedule(steps=1, seed=7), space=space
        )
        assert len(trace) == 2
        initial_obj = trace[0][1]
        assert objective(best_qor) <= initial_obj

    def test_same_seed_reproduces_everything(self, roomy_target):
        model, space = toy_model(), toy_space()
        a = anneal(model, roomy_target, AnnealSchedule(steps=200, seed=11), space=space)
        b = anneal(model, roomy_target, AnnealSchedule(steps=200, seed=11), space=space)
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert a[2] == b[2]

    def test_best_is_prefix_min_of_trace(self, roomy_target):
        model = toy_model()
        _, best_qor, trace = anneal(model, roomy_target, AnnealSchedule(steps=500, seed=13))
        objures = [o for _, o in trace]
        running = []
        low = float("inf")
        for o in objures:
            low = min(low, o)
            running.append(low)
        assert running == sorted(running, reverse=True)
        assert objective(best_qor) == running[-1]

    def test_trace_steps_are_contiguous(self, roomy_target):
        _, _, trace = anneal(toy_model(), roomy_target, AnnealSchedule(steps=50, seed=1))
        assert [s for s, _ in trace] == list(range(51))

    def test_infeasible_start_escapes_via_penalty(self):
        # tight clock: unpipelined multiply loop misses timing, pipeline fixes it
        target = make_target(logic_delay_ns=2.0, default_clock_ns=9.0)
        model = KernelModel(
            root=LoopDescriptor(label="L", trip_count=8, op_counts={"mul": 1, "load": 2}),
            arrays=(),
        )
        space = ConfigSpace(pipeline_loops=("L",), unroll_ladders={}, partition_ladders={})
        cfg, qor_best, _ = anneal(model, target, AnnealSchedule(steps=100, seed=2), space=space)
        assert cfg.pipeline["L"] is True
        assert qor_best.timing.wns_ns >= 0

    def test_frozen_schedule_turns_greedy(self):
        """0.5**1075 underflows to 0.0; from there the search accepts no
        uphill move, without dividing by the temperature."""
        targets = {t.part: t for t in kb.load_targets(timelyhls.data_path("kb") / "targets.json")}
        schedule = AnnealSchedule(steps=2000, alpha=0.5, seed=0)
        _, best_qor, trace = anneal(bundled_models()["matmul"], targets[ARTIX], schedule)
        assert len(trace) == 2001
        assert objective(best_qor) == min(o for _, o in trace)


# ---------------------------------------------------------------------------
# Pinned annealing results: a rewrite of the search or the simulator must
# reproduce them exactly (best config, best objective, sha256 of the trace).

ARTIX = "xc7a200tfbg676-2"
VERSAL = "xave2602-nsvh1369-1LJ-i-L"  # cannot close timing: every best is penalised

PINNED_ANNEAL = [
    ('matmul', 'xc7a200tfbg676-2', ((('COL', True), ('MAC', True), ('ROW', False)), (('COL', 4), ('MAC', 16), ('ROW', 2)), (('a', 2), ('b', 8), ('c', 8))), 2336.0, '7b080f7c3e7998de8dac2a85b80aa935c139723c63c6ab0ea619db812342fe86'),
    ('matmul', 'xave2602-nsvh1369-1LJ-i-L', ((('COL', False), ('MAC', True), ('ROW', False)), (('COL', 4), ('MAC', 16), ('ROW', 2)), (('a', 2), ('b', 8), ('c', 16))), 1002336.0, 'ad7177c466ea721b7805b87095ad6f9d6c03e22dba287fc7b79f2336d7f6ef79'),
    ('conv2d', 'xc7a200tfbg676-2', ((('COL', False), ('ROW', True), ('TAP', True)), (('COL', 1), ('ROW', 8), ('TAP', 9)), (('coef', 4), ('img', 16), ('out', 4))), 2336.0, '3388b833dfeba4fc7e98c39df1f17c489876b15ebcba714274e6d3d0fb39364a'),
    ('conv2d', 'xave2602-nsvh1369-1LJ-i-L', ((('COL', False), ('ROW', False), ('TAP', True)), (('COL', 2), ('ROW', 8), ('TAP', 9)), (('coef', 4), ('img', 4), ('out', 4))), 1002336.0, '8f1f553dca991fb5d9af3622dc11e33d33f7ebcae5472721280c555395dd2f90'),
    ('vecdot', 'xc7a200tfbg676-2', ((('ACC', True),), (('ACC', 64),), (('a', 8), ('b', 16))), 9.0, 'd9a55bd1294fd629ceca7fa18c822b8c90aa30f3dd0cb34268e99b2bd9e66667'),
    ('vecdot', 'xave2602-nsvh1369-1LJ-i-L', ((('ACC', True),), (('ACC', 64),), (('a', 16), ('b', 32))), 1000009.0, '1d87798bdaef3f3413d898a2cb148c7831426237c61b9590cefde44c51816fc8'),
    ('vecadd', 'xc7a200tfbg676-2', ((('ADD', True),), (('ADD', 64),), (('a', 64), ('b', 8), ('c', 4))), 7.0, '2924e11468324122335b2a9939c35f10dfcb5c3e25c0fb9726c96fb75cf9cdbe'),
    ('vecadd', 'xave2602-nsvh1369-1LJ-i-L', ((('ADD', True),), (('ADD', 64),), (('a', 64), ('b', 8), ('c', 4))), 1000007.0, '77d835bdf9fb3853af5cfa4891f8f874a30498711952d96e837d489bc5663709'),
    ('bitonic', 'xc7a200tfbg676-2', ((('COMP', True), ('STAGE', True)), (('COMP', 32), ('STAGE', 8)), (('data', 32),)), 150.0, '65b4c2598ef04511849e5e5dcc1b50f3f17b6cb22752ffcbac6c3612e2bf3454'),
    ('bitonic', 'xave2602-nsvh1369-1LJ-i-L', ((('COMP', True), ('STAGE', False)), (('COMP', 32), ('STAGE', 8)), (('data', 32),)), 1000150.0, '10b8d0f3ec41810ab63d982bb44a8ef57e05414858179f929e6ef65e47c9bd2e'),
    ('viterbi', 'xc7a200tfbg676-2', ((('STATE', True), ('STEP', False)), (('STATE', 8), ('STEP', 4)), (('emit', 16), ('metric', 2), ('path', 2), ('trans', 4))), 352.0, 'da8b6a4d5e0b4ef9c542387a2cf244e4971b5c612c1fb9160890dfad9fa75912'),
    ('viterbi', 'xave2602-nsvh1369-1LJ-i-L', ((('STATE', True), ('STEP', False)), (('STATE', 8), ('STEP', 4)), (('emit', 16), ('metric', 2), ('path', 2), ('trans', 4))), 1000352.0, 'e1bc4a36337035c35400ddcf314a0fd8bd5b5da660f917c05e4e669bd41a2513'),
    ('lms', 'xc7a200tfbg676-2', ((('SAMPLE', True), ('TAP', True)), (('SAMPLE', 1), ('TAP', 16)), (('desired', 8), ('err_out', 2), ('weights', 2), ('x', 8))), 300.0, '010ee690b349a1d4c777369619533fa42f9939ecbf834745727076bd42426575'),
    ('lms', 'xave2602-nsvh1369-1LJ-i-L', ((('SAMPLE', True), ('TAP', True)), (('SAMPLE', 1), ('TAP', 16)), (('desired', 8), ('err_out', 2), ('weights', 2), ('x', 4))), 1000300.0, '00dd1d82e11cbdde21486b40ed79e89da9dcdc113397c04215b2806bde96717d'),
    ('cordic', 'xc7a200tfbg676-2', ((('ITER', True),), (('ITER', 16),), (('atan_table', 16),)), 10.0, '836260e21bfb731388c052cb72005d6464a6c495f416d6488f5d55f4612fc2b8'),
    ('cordic', 'xave2602-nsvh1369-1LJ-i-L', ((('ITER', True),), (('ITER', 16),), (('atan_table', 16),)), 1000010.0, 'e5de8bcb55e339efb8ae071d7e615357ab77e9ab79d42c0b3a1f7b5b0b5741bb'),
    ('matvec', 'xc7a200tfbg676-2', ((('COL', True), ('ROW', False)), (('COL', 16), ('ROW', 2)), (('mat', 8), ('out', 8), ('vec', 8))), 146.0, '7c405a7dcaa6bf9f029f2d72b17141919afd18a6a158dab1b3802e0f69b910c5'),
    ('matvec', 'xave2602-nsvh1369-1LJ-i-L', ((('COL', True), ('ROW', False)), (('COL', 16), ('ROW', 4)), (('mat', 64), ('out', 16), ('vec', 8))), 1000146.0, '04f5571d52e5a2a8ab135ec967405bd41a79dac3f4c72a877ba28d913ba436ee'),
    ('needleman', 'xc7a200tfbg676-2', ((('COL', True), ('ROW', False)), (('COL', 16), ('ROW', 2)), (('score', 32), ('seq_a', 16), ('seq_b', 8))), 192.0, '4da45b13f80a4755088c0606a27378587f9673856627f86cc2017bc6d033e97c'),
    ('needleman', 'xave2602-nsvh1369-1LJ-i-L', ((('COL', True), ('ROW', False)), (('COL', 16), ('ROW', 4)), (('score', 128), ('seq_a', 8), ('seq_b', 8))), 1000192.0, '7cd44767421360b7cc01c84162ebc3084ef5e7a40cca79938bc62ace059338d5'),
]


def bundled_models() -> dict[str, KernelModel]:
    return {
        b.id: load_model(b.model_path)
        for b in bench.load_manifest(bench.bundled_manifest_path())
    }


class TestPinnedAnneal:
    @pytest.fixture(scope="class")
    def setup(self):
        targets = kb.load_targets(timelyhls.data_path("kb") / "targets.json")
        return bundled_models(), {t.part: t for t in targets}

    def test_table_covers_every_kernel_on_both_devices(self, setup):
        models, _ = setup
        assert sorted((b, p) for b, p, *_ in PINNED_ANNEAL) == sorted(
            (b, p) for b in models for p in (ARTIX, VERSAL)
        )

    @pytest.mark.parametrize("bench_id, part, key, best_obj, trace_sha", PINNED_ANNEAL)
    def test_seed0_200_steps(self, setup, bench_id, part, key, best_obj, trace_sha):
        models, targets = setup
        best, best_qor, trace = anneal(
            models[bench_id], targets[part], AnnealSchedule(steps=200, seed=0)
        )
        assert best == PragmaConfig(*map(dict, key))
        assert objective(best_qor) == best_obj
        assert hashlib.sha256(json.dumps(trace).encode()).hexdigest() == trace_sha


def rebuild_config(model: KernelModel, cfg: PragmaConfig) -> KernelModel:
    """The model with cfg's settings: a pipelined loop gets II 1, and a
    loop cfg does not pipeline is not pipelined."""
    pipeline_ii = {l.label: 1 if cfg.pipeline.get(l.label) else None for l in model.loops()}
    return rebuild(model, pipeline_ii, cfg.unroll, cfg.partition)


# ---------------------------------------------------------------------------
# Evaluating settings against a once-built shape equals evaluating the
# rebuilt model with its own settings


@st.composite
def any_model(draw):
    """A bundled model, or a random one with pragmas already applied."""
    if draw(st.booleans()):
        return draw(st.sampled_from(sorted(bundled_models().items())))[1]
    return random_model(random.Random(draw(st.integers(0, 2**32))))


@st.composite
def target_and_clock(draw):
    """A target whose capacities a design can overflow, and a clock."""
    target = make_target(
        luts=draw(st.integers(1, 10**5)),
        ffs=draw(st.integers(1, 10**5)),
        dsps=draw(st.integers(1, 500)),
        brams=draw(st.integers(1, 500)),
        logic_delay_ns=draw(st.floats(0.1, 3.0)),
    )
    return target, round(draw(st.floats(1.0, 20.0)), draw(st.integers(0, 3)))


@st.composite
def shape_case(draw):
    """A model, a configuration (full, partial, or with factors off the
    ladders), a target and a clock."""
    model = draw(any_model())
    space = ConfigSpace.for_model(model)
    kind = draw(st.sampled_from(("full", "partial", "off-ladder")))

    def keep():
        return kind != "partial" or draw(st.booleans())

    def factor(ladder):
        return draw(st.integers(1, 80)) if kind == "off-ladder" else draw(st.sampled_from(ladder))

    cfg = PragmaConfig(
        pipeline={label: draw(st.booleans()) for label in space.pipeline_loops if keep()},
        unroll={label: factor(ladder) for label, ladder in space.unroll_ladders.items() if keep()},
        partition={
            name: factor(ladder) for name, ladder in space.partition_ladders.items() if keep()
        },
    )
    target, clock = draw(target_and_clock())
    return model, cfg, target, clock


class TestShapeEvaluation:
    @settings(max_examples=300, deadline=None)
    @given(shape_case())
    def test_equals_simulate_of_applied_config(self, case):
        model, cfg, target, clock = case
        rebuilt = rebuild_config(model, cfg)
        assert evaluate(KernelShape.of(model), Settings.of(rebuilt), target, clock) == own(
            rebuilt, target, clock
        )

    @settings(max_examples=100, deadline=None)
    @given(shape_case(), st.data())
    def test_zero_factor_raises_the_same_error(self, case, data):
        model, cfg, target, clock = case
        space = ConfigSpace.for_model(model)
        dims = [("unroll", label) for label in space.unroll_ladders]
        dims += [("partition", name) for name in space.partition_ladders]
        kind, name = data.draw(st.sampled_from(dims))
        getattr(cfg, kind)[name] = 0
        expected = (
            f"loop {name!r}: unroll_factor must be >= 1"
            if kind == "unroll"
            else f"array {name!r}: bad spec"
        )
        rebuilt = rebuild_config(model, cfg)
        with pytest.raises(ValidationError) as by_shape:
            evaluate(KernelShape.of(model), Settings.of(rebuilt), target, clock)
        with pytest.raises(ValidationError) as by_model:
            own(rebuilt, target, clock)
        assert str(by_shape.value) == str(by_model.value) == expected

    def test_anneal_rejects_a_zero_rung(self, roomy_target):
        space = ConfigSpace(
            pipeline_loops=("L",), unroll_ladders={"L": (0, 2)}, partition_ladders={}
        )
        with pytest.raises(ValidationError, match="^loop 'L': unroll_factor must be >= 1$"):
            anneal(toy_model(), roomy_target, AnnealSchedule(steps=5), space=space)


# ---------------------------------------------------------------------------
# Settings read from a point equal the settings of the rebuilt model


@st.composite
def space_and_point(draw):
    """A bundled model (or a random one with pragmas already applied), its
    full space or one naming only some of its loops and arrays (in any
    pipeline order), and a point of that space."""
    model = draw(any_model())
    space = ConfigSpace.for_model(model)
    if draw(st.booleans()):
        labels = list(space.pipeline_loops)
        space = ConfigSpace(
            pipeline_loops=tuple(draw(st.lists(st.sampled_from(labels), unique=True))),
            unroll_ladders={
                label: ladder
                for label, ladder in space.unroll_ladders.items()
                if draw(st.booleans())
            },
            partition_ladders={
                name: ladder
                for name, ladder in space.partition_ladders.items()
                if draw(st.booleans())
            },
        )
    point = tuple(draw(st.sampled_from(ladder)) for ladder in space.ladders)
    return model, space, point


class TestPointSettings:
    @settings(max_examples=500, deadline=None)
    @given(space_and_point())
    def test_equals_rebuild(self, case):
        model, space, point = case
        expected = Settings.of(rebuild_config(model, space.config(point)))
        assert dse._search(model, space, make_target(), 10.0)[1](point) == expected

    def test_points_are_the_product_of_the_ladders(self):
        space = toy_space()
        assert space.fields == (("pipeline", "L"), ("unroll", "L"), ("partition", "buf"))
        assert list(space.points()) == [
            (None, 1, 1), (None, 1, 2), (None, 2, 1), (None, 2, 2),
            (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2),
        ]


@pytest.fixture
def scored(monkeypatch):
    """The points the search scores, in order: every call of the score
    function `dse._search` returns."""
    points = []
    search = dse._search

    def counting_search(*args):
        shape, settings_of, score = search(*args)

        def counting(point):
            points.append(point)
            return score(point)

        return shape, settings_of, counting

    monkeypatch.setattr(dse, "_search", counting_search)
    return points


def test_unpipelined_leaf_latency_is_computed_once_per_unroll_factor(monkeypatch, roomy_target):
    """Only a pipelined leaf's latency reads the partition factors."""
    keys = []
    leaf_latency = toolchain._leaf_latency

    def counting(leaf, arrays, ii, unroll, partition):
        keys.append((ii, unroll, tuple(partition)))
        return leaf_latency(leaf, arrays, ii, unroll, partition)

    monkeypatch.setattr(toolchain, "_leaf_latency", counting)
    space = ConfigSpace(
        pipeline_loops=("L",), unroll_ladders={"L": (1, 2, 4)}, partition_ladders={"buf": (1, 2, 4, 8)}
    )
    brute_force(toy_model(), roomy_target, space)
    assert sorted(k for k in keys if k[0] is None) == [(None, u, ()) for u in (1, 2, 4)]
    assert len(keys) == 3 + 3 * 4 == len(set(keys))


class TestMemoMisses:
    """Each configuration the search meets for the first time is scored
    once; counts recorded with the simulate-per-miss annealer."""

    def test_seed0_cell(self, scored):
        targets = {t.part: t for t in kb.load_targets(timelyhls.data_path("kb") / "targets.json")}
        anneal(bundled_models()["matmul"], targets[ARTIX], AnnealSchedule(seed=0))
        assert len(scored) == 422
        assert len(set(scored)) == 422

    def test_brute_force_evaluates_every_point_once(self, scored, roomy_target):
        brute_force(toy_model(), roomy_target, toy_space())
        assert scored == list(toy_space().points())
        assert len(scored) == 8


# ---------------------------------------------------------------------------
# The search scores points from `coster` alone


class TestCostSplit:
    """The search never builds a report per point: its objective comes
    from `coster` and the target's timing and capacity rules, which must
    agree with the report `evaluate` builds."""

    @settings(max_examples=400, deadline=None)
    @given(
        model=st.sampled_from(sorted(bundled_models().items())).map(lambda item: item[1]),
        target=st.sampled_from(kb.load_targets(timelyhls.data_path("kb") / "targets.json")),
        clock=st.floats(0.5, 20.0).map(lambda c: round(c, 2)),
        data=st.data(),
    )
    def test_search_objective_equals_objective_of_evaluate(self, model, target, clock, data):
        space = ConfigSpace.for_model(model)
        point = tuple(data.draw(st.sampled_from(ladder)) for ladder in space.ladders)
        if data.draw(st.booleans()):  # at the critical path, or a hundredth either side
            shape, settings_of, _ = dse._search(model, space, target, 10.0)
            at_10 = evaluate(shape, settings_of(point), target, 10.0)
            clock = round(critical_path_ns(at_10) + data.draw(st.sampled_from((-0.01, 0, 0.01))), 2)
        shape, settings_of, score = dse._search(model, space, target, clock)
        assert score(point) == objective(evaluate(shape, settings_of(point), target, clock))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_restricted_space_objective_equals_objective_of_the_rebuilt_model(self, data):
        """Loops and arrays left out read the model's factors, and ladders
        may be cut short; random models carry pragmas of their own."""
        model = data.draw(any_model())
        full = ConfigSpace.for_model(model)

        def cut(ladders):
            return {
                name: tuple(data.draw(st.lists(st.sampled_from(ladder), min_size=1, unique=True)))
                for name, ladder in ladders.items()
                if data.draw(st.booleans())
            }

        space = ConfigSpace(
            pipeline_loops=tuple(
                data.draw(st.lists(st.sampled_from(full.pipeline_loops), unique=True))
            ),
            unroll_ladders=cut(full.unroll_ladders),
            partition_ladders=cut(full.partition_ladders),
        )
        point = tuple(data.draw(st.sampled_from(ladder)) for ladder in space.ladders)
        target, clock = data.draw(target_and_clock())
        rebuilt = rebuild_config(model, space.config(point))
        score = dse._search(model, space, target, clock)[2]
        assert score(point) == objective(own(rebuilt, target, clock))

    @pytest.mark.parametrize("search", ["anneal", "brute_force"])
    @pytest.mark.parametrize(
        "unroll, partition, message",
        [
            ((1, 2, 4, 0), (1, 2), "^loop 'L': unroll_factor must be >= 1$"),
            ((1, 2), (2, 4, 0, 8), "^array 'buf': bad spec$"),
        ],
    )
    def test_zero_rung_anywhere_is_rejected_before_the_search(
        self, scored, roomy_target, search, unroll, partition, message
    ):
        """A rung the walk would never reach fails too, and no point is scored."""
        space = ConfigSpace(
            pipeline_loops=("L",),
            unroll_ladders={"L": unroll},
            partition_ladders={"buf": partition},
        )
        with pytest.raises(ValidationError, match=message):
            if search == "anneal":
                anneal(toy_model(), roomy_target, AnnealSchedule(steps=1), space=space)
            else:
                brute_force(toy_model(), roomy_target, space)
        assert scored == []


# ---------------------------------------------------------------------------
# A space must fit the model; a space with one point is searched in place


class TestSpaceFitsModel:
    @pytest.mark.parametrize("search", ["anneal", "brute_force"])
    @pytest.mark.parametrize(
        "pipeline, unroll, partition, message",
        [
            (("nope",), {}, {}, "^space: pipeline 'nope' is not in the kernel model$"),
            ((), {"nope": (1, 2)}, {}, "^space: unroll 'nope' is not in the kernel model$"),
            ((), {}, {"L": (1, 2)}, "^space: partition 'L' is not in the kernel model$"),
            (("L",), {"L": ()}, {}, "^space: unroll 'L' has an empty ladder$"),
            ((), {}, {"buf": ()}, "^space: partition 'buf' has an empty ladder$"),
            (("L", "L"), {}, {}, "^space: pipeline 'L' appears twice$"),
            (("L",), {"L": (2, 2, 4)}, {}, "^space: unroll 'L' repeats rung 2$"),
        ],
    )
    def test_rejected_before_the_search(
        self, scored, roomy_target, search, pipeline, unroll, partition, message
    ):
        space = ConfigSpace(
            pipeline_loops=pipeline, unroll_ladders=unroll, partition_ladders=partition
        )
        with pytest.raises(ValidationError, match=message):
            if search == "anneal":
                anneal(toy_model(), roomy_target, AnnealSchedule(steps=5), space=space)
            else:
                brute_force(toy_model(), roomy_target, space)
        assert scored == []

    @pytest.mark.parametrize(
        "space",
        [
            ConfigSpace(pipeline_loops=(), unroll_ladders={}, partition_ladders={}),
            ConfigSpace(
                pipeline_loops=(), unroll_ladders={"L": (4,)}, partition_ladders={"buf": (2,)}
            ),
        ],
    )
    def test_anneal_stays_at_the_only_point(self, monkeypatch, roomy_target, space):
        """anneal agrees with brute_force, and draws nothing from its RNG."""

        class NoDraws(random.Random):
            def random(self):
                pytest.fail("anneal drew from its RNG")

            def randrange(self, *args, **kwargs):
                pytest.fail("anneal drew from its RNG")

        monkeypatch.setattr(dse.random, "Random", NoDraws)
        best, best_qor, trace = anneal(
            toy_model(), roomy_target, AnnealSchedule(steps=7), space=space
        )
        want_cfg, want_obj = brute_force(toy_model(), roomy_target, space)
        assert (best, objective(best_qor)) == (want_cfg, want_obj)
        assert trace == [(step, want_obj) for step in range(8)]
