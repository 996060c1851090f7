"""Pragma parsing, serialization round-trips, anchors, and editing."""

from __future__ import annotations

import logging
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from timelyhls import hls_source
from timelyhls.errors import ConflictError, ParseError
from timelyhls.hls_source import (
    PragmaDirective,
    PragmaKind,
    SourceUnit,
    inject_pragma,
    parse_pragma_line,
    serialize_pragma,
    strip_pragmas,
)

from conftest import corpus_sources, random_directive, splice_pragmas

MATMUL = """\
#include <cstdint>

void matmul(const int a[16][16], const int b[16][16], int c[16][16]) {
    ROW: for (int i = 0; i < 16; i++) {
        COL: for (int j = 0; j < 16; j++) {
            int acc = 0;
            MAC: for (int k = 0; k < 16; k++) {
                acc += a[i][k] * b[k][j];
            }
            c[i][j] = acc;
        }
    }
}
"""


def anchors_of(text):
    return list(SourceUnit.from_text(text).anchors)


class TestParse:
    def test_pipeline_ii(self):
        d = parse_pragma_line("#pragma HLS pipeline II=1")
        assert d == PragmaDirective(kind=PragmaKind.PIPELINE, ii=1)

    def test_array_partition_full(self):
        d = parse_pragma_line("#pragma HLS array_partition variable=buf type=cyclic factor=4 dim=1")
        assert d.kind is PragmaKind.ARRAY_PARTITION
        assert (d.variable, d.partition_type, d.factor, d.dim) == ("buf", "cyclic", 4, 1)

    def test_no_pragmas(self):
        assert SourceUnit.from_text("int main() { return 0; }").pragmas == ()

    def test_case_insensitive_kind_and_keys(self):
        d = parse_pragma_line("#pragma hls PIPELINE ii=3")
        assert d == PragmaDirective(kind=PragmaKind.PIPELINE, ii=3)

    def test_malformed_value_names_line_and_token(self):
        with pytest.raises(ParseError, match=r"line 4.*II=abc"):
            SourceUnit.from_text("a\nb\nc\n#pragma HLS pipeline II=abc\n")

    def test_unknown_kind_skipped_with_warning(self, caplog):
        hls_source._parse.cache_clear()  # the warning is logged on a cache miss
        with caplog.at_level("WARNING"):
            assert SourceUnit.from_text("#pragma HLS occurrence cycle=2\n").pragmas == ()
        assert "occurrence" in caplog.text

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            parse_pragma_line("#pragma HLS unroll depth=2")

    def test_bare_partition_type_flag(self):
        d = parse_pragma_line("#pragma HLS array_partition variable=w complete")
        assert d.partition_type == "complete"

    def test_interface_bare_mode(self):
        d = parse_pragma_line("#pragma HLS interface m_axi port=a")
        assert (d.mode, d.variable) == ("m_axi", "a")


class TestRoundTrip:
    def test_serialize_then_parse_thousand(self):
        rng = random.Random(11)
        for _ in range(1000):
            d = random_directive(rng)
            line = serialize_pragma(d)
            parsed = parse_pragma_line(line)
            assert parsed is not None
            assert parsed == d, f"{line} -> {parsed} != {d}"

    def test_parse_then_serialize_identity_on_canonical_lines(self):
        rng = random.Random(12)
        for _ in range(1000):
            line = serialize_pragma(random_directive(rng))
            assert serialize_pragma(parse_pragma_line(line)) == line


class TestStrip:
    def test_removes_all_pragma_lines(self):
        text = MATMUL.replace(
            "            int acc = 0;",
            "#pragma HLS pipeline II=1\n            int acc = 0;",
        )
        unit = SourceUnit.from_text(text)
        assert len(unit.pragmas) == 1
        stripped = strip_pragmas(unit)
        assert stripped.pragmas == ()
        assert len(stripped.text.split("\n")) == len(text.split("\n")) - 1

    def test_identity_on_pragma_free(self):
        unit = SourceUnit.from_text(MATMUL)
        assert strip_pragmas(unit).text == MATMUL

    def test_idempotent(self):
        unit = SourceUnit.from_text(MATMUL)
        once = strip_pragmas(unit)
        assert strip_pragmas(once).text == once.text

    def test_never_changes_non_pragma_bytes(self):
        rng = random.Random(13)
        base_lines = MATMUL.split("\n")
        for _ in range(100):
            lines = list(base_lines)
            for _ in range(rng.randint(1, 5)):
                at = rng.randrange(len(lines))
                lines.insert(at, "  " + serialize_pragma(random_directive(rng)))
            spliced = "\n".join(lines)
            stripped = strip_pragmas(SourceUnit.from_text(spliced))
            assert stripped.text == MATMUL


class TestDirectiveLines:
    """Directives are read from the preprocessor lines of the one scan, so
    a `#pragma HLS` line inside a comment or literal is text, not a
    directive, as for a C compiler."""

    PRAGMA = "#pragma HLS unroll factor=4"

    @pytest.mark.parametrize(
        "before, after",
        [
            ("            /*\n", "\n            */\n"),
            ("            /* disabled:\n            ", " */\n"),
            ('            const char *note = "spliced \\\n', '\\\n";\n'),
        ],
    )
    def test_pragma_inside_comment_or_literal_is_no_directive(self, before, after):
        text = MATMUL.replace("            int acc = 0;", before + self.PRAGMA + after + "            int acc = 0;")
        unit = SourceUnit.from_text(text)
        assert (unit.pragmas, unit.pragma_lines) == ((), frozenset())
        assert strip_pragmas(unit).text == text
        mac = text.split("\n").index("            MAC: for (int k = 0; k < 16; k++) {") + 1
        assert [a.line for a in unit.anchors if a.label == "MAC"] == [mac]

    def test_unrecognized_pragma_lines_are_stripped_too(self, caplog):
        text = MATMUL.replace("    ROW:", "#pragma HLS occupancy cycles=4\n#pragma HLS\n    ROW:")
        unit = SourceUnit.from_text(text)
        assert unit.pragmas == ()
        assert unit.pragma_lines == frozenset({4, 5})
        assert strip_pragmas(unit).text == MATMUL

    @settings(max_examples=60, deadline=None)
    @given(
        kernel=st.sampled_from(corpus_sources()),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 5),
    )
    def test_spliced_lines_are_the_per_line_parse(self, kernel, seed, count):
        """The bundled kernels hold no multi-line comment or literal, so
        there the scan's directives are those of a per-line parse."""
        text = splice_pragmas(kernel, random.Random(seed), count)
        lines = enumerate(text.split("\n"), start=1)
        want = [d for d in (parse_pragma_line(ln, i) for i, ln in lines) if d is not None]
        assert list(SourceUnit.from_text(text).pragmas) == want


class TestAnchors:
    def test_triple_nest(self):
        anchors = anchors_of(MATMUL)
        kinds = [(a.kind, a.label, a.nesting_depth) for a in anchors]
        assert kinds == [
            ("function_body_start", "matmul", 0),
            ("loop_body_start", "ROW", 1),
            ("loop_body_start", "COL", 2),
            ("loop_body_start", "MAC", 3),
        ]

    def test_empty_file(self):
        assert anchors_of("") == []

    def test_two_functions_each_one_loop(self):
        text = (
            "void f(int *a) {\n    L1: for (int i = 0; i < 4; i++) {\n        a[i] = i;\n    }\n}\n"
            "void g(int *a) {\n    L2: while (a[0] < 4) {\n        a[0]++;\n    }\n}\n"
        )
        anchors = anchors_of(text)
        functions = [a for a in anchors if a.kind == "function_body_start"]
        loops = [a for a in anchors if a.kind == "loop_body_start"]
        assert [a.label for a in functions] == ["f", "g"]
        assert [(a.label, a.nesting_depth) for a in loops] == [("L1", 1), ("L2", 1)]

    def test_synthetic_labels(self):
        text = "void f(int *a) {\n    for (int i = 0; i < 4; i++) {\n        a[i] = 0;\n    }\n}\n"
        loops = [a for a in anchors_of(text) if a.kind == "loop_body_start"]
        assert [a.label for a in loops] == ["loop_1"]

    def test_unbalanced_close(self):
        with pytest.raises(ParseError, match="line 3"):
            anchors_of("void f() {\n}\n}\n")

    def test_unbalanced_open(self):
        with pytest.raises(ParseError, match="line 1"):
            anchors_of("void f() {\n    int x = 0;\n")

    @pytest.mark.parametrize(
        "tail, message",
        [
            ("/* never closed", "line 3: unterminated comment"),
            ("/*/", "line 3: unterminated comment"),
            ('const char *s = "never closed;', "line 3: unterminated string literal"),
            ('const char *s = "escaped\\";', "line 3: unterminated string literal"),
            ("char c = 'x;", "line 3: unterminated character literal"),
        ],
    )
    def test_unterminated_comment_or_literal(self, tail, message):
        with pytest.raises(ParseError, match=message):
            anchors_of("void f() {\n}\n" + tail)

    def test_terminated_comment_and_literal_at_end(self):
        anchors = anchors_of('void f() {\n}\n/* closed */ const char *s = "x";')
        assert [a.label for a in anchors] == ["f"]

    def test_comments_and_strings_ignored(self):
        text = (
            'void f(char *s) {\n'
            '    // for (;;) {\n'
            '    const char *msg = "while (1) {";\n'
            '    /* } */\n'
            '    L: for (int i = 0; i < 2; i++) {\n'
            '        s[i] = msg[i];\n'
            '    }\n'
            '}\n'
        )
        loops = [a for a in anchors_of(text) if a.kind == "loop_body_start"]
        assert [a.label for a in loops] == ["L"]


class TestInject:
    def unit(self):
        return SourceUnit.from_text(MATMUL)

    def innermost(self, unit):
        return max(
            (a for a in unit.anchors if a.kind == "loop_body_start"),
            key=lambda a: a.nesting_depth,
        )

    def test_placement_after_opening_brace(self):
        unit = self.unit()
        anchor = self.innermost(unit)
        new = inject_pragma(unit, anchor, PragmaDirective(kind=PragmaKind.PIPELINE, ii=1))
        lines = new.text.split("\n")
        assert lines[anchor.line].lstrip() == "#pragma HLS pipeline II=1"

    def test_adds_exactly_one_line_others_unchanged(self):
        unit = self.unit()
        anchor = self.innermost(unit)
        new = inject_pragma(unit, anchor, PragmaDirective(kind=PragmaKind.UNROLL, factor=2))
        old_lines = unit.text.split("\n")
        new_lines = new.text.split("\n")
        assert len(new_lines) == len(old_lines) + 1
        del new_lines[anchor.line]
        assert new_lines == old_lines

    def test_round_trip_recovers_directive(self):
        unit = self.unit()
        d = PragmaDirective(
            kind=PragmaKind.ARRAY_PARTITION, variable="a", partition_type="cyclic", factor=4, dim=1
        )
        new = inject_pragma(unit, self.innermost(unit), d)
        assert any(replace(p, source_line=d.source_line) == d for p in new.pragmas)

    def test_duplicate_kind_same_anchor_conflicts(self):
        unit = self.unit()
        anchor = self.innermost(unit)
        once = inject_pragma(unit, anchor, PragmaDirective(kind=PragmaKind.UNROLL, factor=2))
        again = self.innermost(once)
        with pytest.raises(ConflictError):
            inject_pragma(once, again, PragmaDirective(kind=PragmaKind.UNROLL, factor=4))

    def test_different_variables_do_not_conflict(self):
        unit = self.unit()
        fn = next(a for a in unit.anchors if a.kind == "function_body_start")
        once = inject_pragma(
            unit, fn, PragmaDirective(kind=PragmaKind.ARRAY_PARTITION, variable="a", factor=2)
        )
        fn2 = next(a for a in once.anchors if a.kind == "function_body_start")
        twice = inject_pragma(
            once, fn2, PragmaDirective(kind=PragmaKind.ARRAY_PARTITION, variable="b", factor=2)
        )
        assert len(twice.pragmas) == 2


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "error", str(exc)


def _fresh_parse(text):
    return hls_source._parse.__wrapped__(text)  # the scan, without the cache


def _unit_parse(text):
    unit = SourceUnit.from_text(text, path="kernel.cpp")
    return unit.pragmas, unit.anchors, unit.tokens, unit.pragma_lines


class TestParseCache:
    @settings(max_examples=60, deadline=None)
    @given(
        kernel=st.sampled_from(corpus_sources()),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 5),
    )
    def test_cached_parse_equals_fresh_parse(self, kernel, seed, count):
        text = splice_pragmas(kernel, random.Random(seed), count)
        want = _outcome(_fresh_parse, text)
        hls_source._parse.cache_clear()
        assert _outcome(_unit_parse, text) == want  # first call: a miss
        assert _outcome(_unit_parse, text) == want  # repeated call: a hit
        info = hls_source._parse.cache_info()
        assert (info.hits, info.currsize) == ((1, 1) if want[0] == "ok" else (0, 0))

    def test_threads_sharing_the_cache_agree(self):
        texts = [splice_pragmas(k, random.Random(i), 3) for i, k in enumerate(corpus_sources())]
        want = [_fresh_parse(t) for t in texts]
        hls_source._parse.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(_unit_parse, texts * 8, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == want * 8

    def test_parse_error_raised_on_every_call(self):
        text = "void f() {\n    int x;\n"
        for _ in range(2):
            with pytest.raises(ParseError, match="line 1: unbalanced opening brace"):
                SourceUnit.from_text(text)

    def test_same_text_keeps_each_path(self):
        a = SourceUnit.from_text(MATMUL, path="a.cpp")
        b = SourceUnit.from_text(MATMUL, path="b.cpp")
        assert (a.path, b.path) == ("a.cpp", "b.cpp")
        assert a.pragmas is b.pragmas and a.anchors is b.anchors

    def test_unknown_pragma_warned_once_per_text(self, caplog):
        text = "#pragma HLS occupancy cycles=4\nvoid f() {\n}\n"
        hls_source._parse.cache_clear()
        with caplog.at_level(logging.WARNING, logger="timelyhls.hls_source"):
            SourceUnit.from_text(text, path="a.cpp")
            SourceUnit.from_text(text, path="b.cpp")
        assert [r.getMessage() for r in caplog.records] == [
            "line 1: unknown HLS pragma kind 'occupancy' skipped"
        ]
