"""Canonical quality-of-results schema and vendor report extraction.

Vendor report formats drift across tool versions, so extraction profiles
are data (a flat map of named regex patterns), not code. The canonical
on-disk form is JSON with a fixed key order and a schema_version field,
chosen so run archives diff cleanly.
"""

from __future__ import annotations

import json
import logging
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError, VersionError

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

SOURCE_PHASES = ("hls_synth", "rtl_synth", "simulated")
RESOURCE_NAMES = ("ff", "lut", "dsp", "bram")


@dataclass(frozen=True)
class TimingSummary:
    wns_ns: float
    tns_ns: float
    clock_ns: float
    met: bool

    @classmethod
    def from_wns(cls, wns_ns: float, tns_ns: float, clock_ns: float) -> "TimingSummary":
        return cls(wns_ns=wns_ns, tns_ns=tns_ns, clock_ns=clock_ns, met=wns_ns >= 0)


@dataclass(frozen=True)
class ResourceUsage:
    ff: int
    lut: int
    dsp: int
    bram: int
    overflow: frozenset[str] = frozenset()

    def get(self, name: str) -> int:
        return {"ff": self.ff, "lut": self.lut, "dsp": self.dsp, "bram": self.bram}[name]


@dataclass(frozen=True)
class LoopMetric:
    loop_label: str
    ii: int | None
    depth: int
    pipelined: bool


@dataclass(frozen=True)
class QoRReport:
    latency_cycles: int
    timing: TimingSummary
    resources: ResourceUsage
    loops: tuple[LoopMetric, ...]
    source_phase: str

    def validate(self) -> None:
        if self.latency_cycles < 0:
            raise VersionError("latency_cycles must be >= 0")
        labels = [m.loop_label for m in self.loops]
        if len(labels) != len(set(labels)):
            raise VersionError(f"duplicate loop labels: {labels}")
        if self.source_phase not in SOURCE_PHASES:
            raise VersionError(f"bad source_phase {self.source_phase!r}")


# ---------------------------------------------------------------------------
# Vendor report extraction


def default_profile() -> dict[str, str]:
    from . import data_path

    return json.loads(data_path("profiles", "vivado.json").read_text(encoding="utf-8"))


def _extract(profile: dict[str, str], text: str, name: str, cast, mandatory: bool = True):
    pattern = profile.get(name)
    if pattern is None:
        if mandatory:
            raise ParseError(f"profile has no pattern for mandatory field {name!r}")
        return None
    m = re.search(pattern, text, re.MULTILINE)
    if m is None:
        if mandatory:
            raise ParseError(f"field {name!r} not found in report")
        return None
    raw = m.group(1)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ParseError(f"field {name!r}: non-numeric capture {raw!r}") from exc


def parse_vendor_report(
    text: str, profile: dict[str, str], clock_ns: float, source_phase: str
) -> QoRReport:
    """Pull a canonical QoR out of vendor report text.

    The profile maps field names (wns, tns, latency, ff, lut, dsp, bram,
    optionally clock and loop_row) to regex patterns with one capture
    group; loop_row takes three groups (label, ii-or-dash, depth). The
    first match of each pattern wins. clock_ns is the clock recorded when
    the profile captures none.
    """
    wns = _extract(profile, text, "wns", float)
    tns = _extract(profile, text, "tns", float)
    latency = _extract(profile, text, "latency", int)
    ff = _extract(profile, text, "ff", int)
    lut = _extract(profile, text, "lut", int)
    dsp = _extract(profile, text, "dsp", int)
    bram = _extract(profile, text, "bram", int)
    clock = _extract(profile, text, "clock", float, mandatory=False)
    if clock is None:
        clock = clock_ns

    loops: list[LoopMetric] = []
    row_pattern = profile.get("loop_row")
    if row_pattern:
        for m in re.finditer(row_pattern, text, re.MULTILINE):
            label, ii_raw, depth_raw = m.group(1), m.group(2), m.group(3)
            ii = None if ii_raw.strip() in ("-", "") else int(ii_raw)
            loops.append(
                LoopMetric(loop_label=label, ii=ii, depth=int(depth_raw), pipelined=ii is not None)
            )

    report = QoRReport(
        latency_cycles=latency,
        timing=TimingSummary.from_wns(wns, tns, clock),
        resources=ResourceUsage(ff=ff, lut=lut, dsp=dsp, bram=bram),
        loops=tuple(loops),
        source_phase=source_phase,
    )
    report.validate()
    return report


# ---------------------------------------------------------------------------
# Canonical serialization

_KNOWN_KEYS = {
    "schema_version",
    "latency_cycles",
    "timing",
    "resources",
    "loops",
    "source_phase",
}


def to_canonical_dict(report: QoRReport) -> dict:
    """Fixed-key-order dict form; round-trips bit-exactly through JSON."""
    return {
        "schema_version": SCHEMA_VERSION,
        "latency_cycles": report.latency_cycles,
        "timing": {
            "wns_ns": report.timing.wns_ns,
            "tns_ns": report.timing.tns_ns,
            "clock_ns": report.timing.clock_ns,
            "met": report.timing.met,
        },
        "resources": {
            "ff": report.resources.ff,
            "lut": report.resources.lut,
            "dsp": report.resources.dsp,
            "bram": report.resources.bram,
            "overflow": sorted(report.resources.overflow),
        },
        "loops": [
            {
                "loop_label": m.loop_label,
                "ii": m.ii,
                "depth": m.depth,
                "pipelined": m.pipelined,
            }
            for m in report.loops
        ],
        "source_phase": report.source_phase,
    }


_encode_str = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


# JSON text of a scalar, by exact type; subclasses take _encode's isinstance path
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _encode(value, newline: str, append) -> None:
    """Append value's JSON text; newline is a line break and the
    indentation value's own lines start with."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            append("{}")
            return
        separator, comma = "{" + inner, "," + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            scalar = _SCALAR_TEXT.get(type(item))
            if scalar is None:
                append(separator + _encode_str(key) + ": ")
                _encode(item, inner, append)
            else:
                append(separator + _encode_str(key) + ": " + scalar(item))
            separator = comma
        append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            append("[]")
            return
        separator, comma = "[" + inner, "," + inner
        for item in value:
            scalar = _SCALAR_TEXT.get(type(item))
            if scalar is None:
                append(separator)
                _encode(item, inner, append)
            else:
                append(separator + scalar(item))
            separator = comma
        append(newline + "]")
    elif isinstance(value, str):
        append(_encode_str(value))
    elif value is None or value is True or value is False:
        append(_SCALAR_TEXT[type(value)](value))
    elif isinstance(value, int):
        append(int.__repr__(value))
    elif isinstance(value, float):
        append(_float_text(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_dumps(value) -> str:
    """`json.dumps(value, indent=2)`, byte for byte, for dicts with str
    keys, lists, tuples, str, int, float, bool and None; any other type
    or key raises TypeError. Every JSON file of a run archive is written
    through here.

    The stdlib's C encoder runs only without indent, and its pure-Python
    indenting path was the largest single cost of archive writes; this
    walk appends pieces to one list and joins them once.
    """
    parts: list[str] = []
    _encode(value, "\n", parts.append)
    return "".join(parts)


def write_file(path: str | Path, text: str) -> None:
    """Replace path's contents with text in UTF-8, line ends untranslated,
    by one open, write and close; every text file the program writes
    goes through here. The text is encoded before the file is opened,
    so one that cannot be encoded leaves the old file as it was.

    A buffered text file took about twice the user CPU per file, and its
    extra system calls each hand the interpreter lock to another matrix
    cell.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0), 0o666)
    try:
        written = os.write(fd, data)
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        os.close(fd)


def canonical_dumps(report: QoRReport) -> str:
    return json_dumps(to_canonical_dict(report)) + "\n"


def canonical_save(report: QoRReport, path: str | Path) -> None:
    write_file(path, canonical_dumps(report))


def _integral(value, name: str) -> int:
    """A count read from JSON: an int, or a float with no fractional part."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise VersionError(f"canonical report malformed: {name} is not an integer: {value!r}")


def _loop_metric(m: dict, index: int) -> LoopMetric:
    ii = m["ii"]
    if type(m["pipelined"]) is not bool:
        raise VersionError(
            f"canonical report malformed: loops[{index}].pipelined is not a boolean: "
            f"{m['pipelined']!r}"
        )
    return LoopMetric(
        loop_label=m["loop_label"],
        ii=None if ii is None else _integral(ii, f"loops[{index}].ii"),
        depth=_integral(m["depth"], f"loops[{index}].depth"),
        pipelined=m["pipelined"],
    )


def from_canonical_dict(raw: dict) -> QoRReport:
    if not isinstance(raw, dict):
        raise VersionError(f"canonical report is not a JSON object: {type(raw).__name__}")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise VersionError(
            f"unsupported schema_version {raw.get('schema_version')!r} (want {SCHEMA_VERSION})"
        )
    for key in raw:
        if key not in _KNOWN_KEYS:
            log.warning("canonical report: ignoring unknown key %r", key)
    if "timing" not in raw:
        raise VersionError("canonical report missing 'timing'")
    try:
        timing_raw = raw["timing"]
        resources_raw = raw["resources"]
        # met is always recomputed from wns, never trusted from the file
        timing = TimingSummary.from_wns(
            wns_ns=float(timing_raw["wns_ns"]),
            tns_ns=float(timing_raw["tns_ns"]),
            clock_ns=float(timing_raw["clock_ns"]),
        )
        resources = ResourceUsage(
            ff=_integral(resources_raw["ff"], "resources.ff"),
            lut=_integral(resources_raw["lut"], "resources.lut"),
            dsp=_integral(resources_raw["dsp"], "resources.dsp"),
            bram=_integral(resources_raw["bram"], "resources.bram"),
            overflow=frozenset(resources_raw.get("overflow", [])),
        )
        loops = tuple(_loop_metric(m, i) for i, m in enumerate(raw.get("loops", [])))
        report = QoRReport(
            latency_cycles=_integral(raw["latency_cycles"], "latency_cycles"),
            timing=timing,
            resources=resources,
            loops=loops,
            source_phase=raw["source_phase"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise VersionError(f"canonical report malformed: {exc!r}") from exc
    report.validate()
    return report


def canonical_load(path: str | Path) -> QoRReport:
    """The report in a canonical file; VersionError messages name the file."""
    try:
        return from_canonical_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except OSError as exc:  # a missing or unreadable file
        raise VersionError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise VersionError(f"{path}: not valid JSON: {exc}") from exc
    except VersionError as exc:
        raise VersionError(f"{path}: {exc}") from exc
