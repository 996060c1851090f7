"""Vendor report extraction and canonical round-trips."""

from __future__ import annotations

import enum
import json
import random
import re
from collections import OrderedDict, namedtuple
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from timelyhls.errors import ParseError, VersionError
from timelyhls.reports import (
    canonical_dumps,
    canonical_load,
    canonical_save,
    default_profile,
    from_canonical_dict,
    json_dumps,
    parse_vendor_report,
    write_file,
)

from conftest import FIXTURES, random_qor

GOLDEN = (FIXTURES / "vendor_report.txt").read_text()


class TestVendorParse:
    def test_golden_fixture(self):
        # the report's own clock wins
        r = parse_vendor_report(GOLDEN, default_profile(), 5.0, "rtl_synth")
        assert r.timing.wns_ns == -0.08
        assert r.timing.tns_ns == -0.24
        assert r.timing.met is False
        assert r.timing.clock_ns == 10.0
        assert r.resources.ff == 247
        assert r.resources.lut == 619
        assert r.resources.dsp == 5
        assert r.resources.bram == 3
        assert r.latency_cycles == 16531
        assert [(m.loop_label, m.ii, m.depth, m.pipelined) for m in r.loops] == [
            ("ROW", 16, 11, True),
            ("COL", None, 8, False),
        ]

    def test_all_zero_fixture_meets_timing(self):
        text = (
            "WNS(ns): 0.0  TNS(ns): 0.0\nClock (ns): 10.0\n"
            "Slice LUTs | 0 |\nSlice Registers | 0 |\nDSPs | 0 |\nBlock RAM Tile | 0 |\n"
            "Total Latency (cycles): 0\n"
        )
        r = parse_vendor_report(text, default_profile(), 10.0, "rtl_synth")
        assert r.timing.met is True
        assert r.timing.wns_ns == 0.0
        assert r.resources.ff == 0

    def test_empty_text_reports_wns_first(self):
        with pytest.raises(ParseError, match="wns"):
            parse_vendor_report("", default_profile(), 10.0, "rtl_synth")

    def test_missing_pattern_in_profile(self):
        profile = dict(default_profile())
        del profile["dsp"]
        with pytest.raises(ParseError, match="dsp"):
            parse_vendor_report(GOLDEN, profile, 10.0, "rtl_synth")

    def test_first_match_wins(self):
        text = GOLDEN + "\nWNS(ns): 99.0\n"
        r = parse_vendor_report(text, default_profile(), 10.0, "rtl_synth")
        assert r.timing.wns_ns == -0.08


class TestCanonical:
    def test_round_trip_thousand(self, tmp_path):
        rng = random.Random(21)
        path = tmp_path / "qor.json"
        for _ in range(1000):
            report = random_qor(rng)
            canonical_save(report, path)
            assert canonical_load(path) == report

    def test_byte_stable_reserialization(self, tmp_path):
        report = random_qor(random.Random(22))
        first = canonical_dumps(report)
        second = canonical_dumps(canonical_load_path(tmp_path, first))
        assert first == second

    def test_met_recomputed_on_load(self, tmp_path):
        report = random_qor(random.Random(23))
        raw = json.loads(canonical_dumps(report))
        raw["timing"]["wns_ns"] = -1.5
        raw["timing"]["met"] = True  # lies; loader must not trust it
        path = tmp_path / "qor.json"
        path.write_text(json.dumps(raw))
        assert canonical_load(path).timing.met is False

    def test_unknown_key_ignored_with_warning(self, tmp_path, caplog):
        report = random_qor(random.Random(24))
        raw = json.loads(canonical_dumps(report))
        raw["vendor_notes"] = "extra"
        path = tmp_path / "qor.json"
        path.write_text(json.dumps(raw))
        with caplog.at_level("WARNING"):
            assert canonical_load(path) == report
        assert "vendor_notes" in caplog.text

    def test_missing_timing_is_version_error(self, tmp_path):
        report = random_qor(random.Random(25))
        raw = json.loads(canonical_dumps(report))
        del raw["timing"]
        path = tmp_path / "qor.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(VersionError):
            canonical_load(path)

    def test_schema_version_mismatch(self, tmp_path):
        report = random_qor(random.Random(26))
        raw = json.loads(canonical_dumps(report))
        raw["schema_version"] = 2
        path = tmp_path / "qor.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(VersionError):
            canonical_load(path)

    def test_json_list_is_version_error(self, tmp_path):
        with pytest.raises(VersionError, match="not a JSON object: list"):
            from_canonical_dict([1, 2])
        path = tmp_path / "qor.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(VersionError, match="qor.json: canonical report is not a JSON object"):
            canonical_load(path)

    @pytest.mark.parametrize("section, key", [(None, "latency_cycles"), ("timing", "wns_ns")])
    def test_non_numeric_field_is_version_error(self, tmp_path, section, key):
        raw = json.loads(canonical_dumps(random_qor(random.Random(27))))
        (raw[section] if section else raw)[key] = "fast"
        with pytest.raises(VersionError, match="malformed"):
            from_canonical_dict(raw)
        path = tmp_path / "qor.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(VersionError, match="qor.json: canonical report malformed"):
            canonical_load(path)


class TestCanonicalTypes:
    @staticmethod
    def report_dict() -> dict:
        """A round-tripped report dict with one loop."""
        raw = json.loads(canonical_dumps(random_qor(random.Random(3))))
        raw["loops"] = [{"loop_label": "L", "ii": 2, "depth": 5, "pipelined": True}]
        return raw

    @staticmethod
    def section(raw: dict, where: str) -> dict:
        return {"report": raw, "loop": raw["loops"][0], "resources": raw["resources"]}[where]

    @pytest.mark.parametrize(
        "where, key, value, message",
        [
            ("loop", "ii", "x", "loops[0].ii is not an integer: 'x'"),
            ("loop", "ii", True, "loops[0].ii is not an integer: True"),
            ("loop", "depth", "5", "loops[0].depth is not an integer: '5'"),
            ("loop", "depth", 5.5, "loops[0].depth is not an integer: 5.5"),
            ("loop", "pipelined", "no", "loops[0].pipelined is not a boolean: 'no'"),
            ("loop", "pipelined", 1, "loops[0].pipelined is not a boolean: 1"),
            ("report", "latency_cycles", 3.7, "latency_cycles is not an integer: 3.7"),
            ("report", "latency_cycles", None, "latency_cycles is not an integer: None"),
            ("resources", "ff", "12", "resources.ff is not an integer: '12'"),
            ("resources", "bram", False, "resources.bram is not an integer: False"),
        ],
    )
    def test_wrong_type_is_version_error(self, where, key, value, message):
        raw = self.report_dict()
        self.section(raw, where)[key] = value
        expected = f"^canonical report malformed: {re.escape(message)}$"
        with pytest.raises(VersionError, match=expected):
            from_canonical_dict(raw)

    def test_integral_floats_and_null_ii_load(self):
        raw = self.report_dict()
        raw["latency_cycles"] = 42.0
        raw["resources"]["dsp"] = 7.0
        raw["loops"][0].update(ii=None, depth=5.0, pipelined=False)
        report = from_canonical_dict(raw)
        assert report.latency_cycles == 42 and type(report.latency_cycles) is int
        assert report.resources.dsp == 7 and type(report.resources.dsp) is int
        assert report.loops[0].ii is None
        assert report.loops[0].depth == 5 and type(report.loops[0].depth) is int
        assert report.loops[0].pipelined is False

    def test_wrong_type_in_a_file_names_it(self, tmp_path):
        raw = json.loads(canonical_dumps(random_qor(random.Random(4))))
        raw["latency_cycles"] = 3.7
        path = tmp_path / "qor.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(VersionError, match="qor.json: canonical report malformed: latency"):
            canonical_load(path)


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -(2**64) - 1, 10**300]),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308,
                     float("nan"), float("inf"), float("-inf")]),
    st.text(),
    st.sampled_from(["", "é ü", "\x00\x1f\x7f", '"\\/', "\u2028\ud800", "\U0001f600", "\n\t\r"]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=24,
)


class TestJsonDumps:
    """json_dumps restates json.dumps(indent=2); the stdlib is the oracle."""

    @settings(max_examples=600, deadline=None)
    @given(value=JSON_VALUES)
    @example(value=[[], {}, [[]], {"a": {}}, ((),), {"": [{}]}])
    @example(value={"\u00e9\n": [-0.0, 1e16, 5e-324, float("nan"), float("-inf")]})
    def test_equals_json_dumps_indent_2(self, value):
        assert json_dumps(value) == json.dumps(value, indent=2)

    def test_subclasses_are_encoded_as_their_base(self):
        Pair = namedtuple("Pair", "a b")

        class Level(enum.IntEnum):
            HIGH = 3

        class Text(str):
            pass

        value = OrderedDict(pair=Pair(1.5, Level.HIGH), text=Text("t"), nested=[Pair([], {})])
        assert json_dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("key", [1, 1.5, True, None, (1,)])
    def test_non_str_key_is_type_error(self, key):
        with pytest.raises(TypeError):
            json_dumps({key: 1})
        with pytest.raises(TypeError):
            json_dumps([{"ok": {key: 1}}])

    @pytest.mark.parametrize("value", [{1, 2}, b"x", Decimal("1"), object(), 1j, range(2)])
    def test_other_type_is_type_error(self, value):
        with pytest.raises(TypeError):
            json_dumps(value)
        with pytest.raises(TypeError):
            json_dumps({"a": [value]})


class TestWriteFile:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.one_of(
        st.text(),
        st.text(alphabet=st.sampled_from("a\u00e9\u2028\U0001f600\r\n")),
    ))
    @example(text="")
    @example(text="\r\n\n\r")
    def test_leaves_the_bytes_and_mode_of_write_text(self, tmp_path, text):
        old, new, reference = tmp_path / "old.txt", tmp_path / "new.txt", tmp_path / "reference.txt"
        new.unlink(missing_ok=True)
        reference.unlink(missing_ok=True)
        old.write_bytes(b"stale\r\n" * (len(text) + 1))
        write_file(old, text)
        write_file(new, text)
        reference.write_text(text, encoding="utf-8")
        assert old.read_bytes() == new.read_bytes() == reference.read_bytes() == text.encode("utf-8")
        assert new.stat().st_mode == reference.stat().st_mode

    def test_unencodable_text_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "kept.txt"
        write_file(path, "old\n")
        with pytest.raises(UnicodeEncodeError):
            write_file(path, "new \ud800\n")
        assert path.read_bytes() == b"old\n"


def canonical_load_path(tmp_path, text):
    path = tmp_path / "reload.json"
    path.write_text(text)
    return canonical_load(path)
