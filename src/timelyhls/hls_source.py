"""Pragma-level manipulation of HLS C/C++ sources.

One lexical scan per distinct source text (`_lex`, through the cached
`_parse`) yields everything the package reads from a kernel: the
`#pragma HLS` directives, the insertion anchors (function and loop body
starts), the token stream the simulated c_sim/rtl_sim compare, and the
lines that stripping removes. Directives are taken only from the
preprocessor lines the scan finds, so a pragma line inside a comment or
a string literal is not a directive, as for a C compiler. No C parsing
is attempted beyond comment/string-aware brace tracking; that is enough
for pragma placement and fails loudly on imbalanced sources.
"""

from __future__ import annotations

import functools
import logging
import re
from dataclasses import dataclass, replace
from enum import Enum

from .errors import ConflictError, ParseError

log = logging.getLogger(__name__)


class PragmaKind(str, Enum):
    PIPELINE = "PIPELINE"
    UNROLL = "UNROLL"
    ARRAY_PARTITION = "ARRAY_PARTITION"
    DATAFLOW = "DATAFLOW"
    INTERFACE = "INTERFACE"
    INLINE = "INLINE"


PARTITION_TYPES = ("cyclic", "block", "complete")


@dataclass(frozen=True)
class PragmaDirective:
    """One parsed HLS synthesis directive.

    Fields that do not apply to the kind stay None; `source_line` is the
    1-based line the directive sits on (1 for freestanding lines).
    """

    kind: PragmaKind
    ii: int | None = None  # PIPELINE
    factor: int | None = None  # UNROLL, ARRAY_PARTITION
    variable: str | None = None  # ARRAY_PARTITION, INTERFACE
    partition_type: str | None = None  # ARRAY_PARTITION
    dim: int | None = None  # ARRAY_PARTITION
    mode: str | None = None  # INTERFACE
    source_line: int = 1


@dataclass(frozen=True)
class AnchorPoint:
    """A place where a directive can be inserted.

    `line` is the 1-based line holding the body's opening brace and
    `end_line` the line of the matching closing brace.
    """

    kind: str  # "function_body_start" | "loop_body_start"
    label: str
    line: int
    nesting_depth: int
    end_line: int = 0


@dataclass(frozen=True)
class SourceUnit:
    """An HLS source file and what one scan of its text found.

    `pragmas` are the recognized directives in line order, `tokens` the
    code tokens (no comments, literals' contents or preprocessor lines)
    that the simulated functional check compares, and `pragma_lines` the
    1-based lines of every `#pragma HLS` directive, recognized or not.
    """

    path: str
    text: str
    pragmas: tuple[PragmaDirective, ...]
    anchors: tuple[AnchorPoint, ...]
    tokens: tuple[str, ...]
    pragma_lines: frozenset[int]

    @classmethod
    def from_text(cls, text: str, path: str = "<memory>") -> "SourceUnit":
        return cls(path, text, *_parse(text))


# ---------------------------------------------------------------------------
# Pragma parsing and serialization

_PRAGMA_LINE = re.compile(r"^\s*#\s*pragma\s+hls\b(.*)$", re.IGNORECASE)
_IDENT = re.compile(r"^[A-Za-z_]\w*$")

# per kind: key name (lowercased) -> directive field
_KIND_KEYS: dict[PragmaKind, dict[str, str]] = {
    PragmaKind.PIPELINE: {"ii": "ii"},
    PragmaKind.UNROLL: {"factor": "factor"},
    PragmaKind.ARRAY_PARTITION: {
        "variable": "variable",
        "type": "partition_type",
        "factor": "factor",
        "dim": "dim",
    },
    PragmaKind.DATAFLOW: {},
    PragmaKind.INTERFACE: {"mode": "mode", "port": "variable", "variable": "variable"},
    PragmaKind.INLINE: {},
}

_INT_FIELDS = {"ii", "factor", "dim"}


def _parse_int(token: str, value: str, line_no: int, minimum: int) -> int:
    if not value.isdigit():
        raise ParseError(f"line {line_no}: malformed pragma value in {token!r}")
    parsed = int(value)
    if parsed < minimum:
        raise ParseError(f"line {line_no}: value out of range in {token!r} (min {minimum})")
    return parsed


def parse_pragma_line(line: str, line_no: int = 1) -> PragmaDirective | None:
    """Parse one line; None when it is not a recognized HLS directive.

    Unknown directive kinds are skipped with a warning, never an error;
    malformed values on known kinds raise ParseError.
    """
    m = _PRAGMA_LINE.match(line.rstrip("\r"))
    if not m:
        return None
    tokens = m.group(1).split()
    if not tokens:
        log.warning("line %d: empty HLS pragma skipped", line_no)
        return None
    kind_token = tokens[0]
    try:
        kind = PragmaKind(kind_token.upper())
    except ValueError:
        log.warning("line %d: unknown HLS pragma kind %r skipped", line_no, kind_token)
        return None

    keys = _KIND_KEYS[kind]
    fields: dict[str, object] = {}
    for token in tokens[1:]:
        if "=" in token:
            raw_key, _, raw_value = token.partition("=")
            key = raw_key.lower()
            if key not in keys:
                raise ParseError(
                    f"line {line_no}: key {raw_key!r} not valid for {kind.value} in {token!r}"
                )
            dest = keys[key]
            if dest in _INT_FIELDS:
                minimum = 0 if dest == "dim" else 1
                fields[dest] = _parse_int(token, raw_value, line_no, minimum)
            elif dest == "partition_type":
                if raw_value not in PARTITION_TYPES:
                    raise ParseError(f"line {line_no}: bad partition type in {token!r}")
                fields[dest] = raw_value
            else:
                if not _IDENT.match(raw_value):
                    raise ParseError(f"line {line_no}: bad identifier in {token!r}")
                fields[dest] = raw_value
        else:
            # bare flags: partition type shorthand, or interface mode
            if kind is PragmaKind.ARRAY_PARTITION and token in PARTITION_TYPES:
                fields["partition_type"] = token
            elif kind is PragmaKind.INTERFACE and _IDENT.match(token) and "mode" not in fields:
                fields["mode"] = token
            else:
                raise ParseError(f"line {line_no}: unexpected token {token!r} for {kind.value}")
    return PragmaDirective(kind=kind, source_line=line_no, **fields)


def serialize_pragma(d: PragmaDirective) -> str:
    """Render a directive in Vitis HLS surface syntax (sans indent)."""
    parts = [f"#pragma HLS {d.kind.value.lower()}"]
    if d.kind is PragmaKind.PIPELINE and d.ii is not None:
        parts.append(f"II={d.ii}")
    elif d.kind is PragmaKind.UNROLL and d.factor is not None:
        parts.append(f"factor={d.factor}")
    elif d.kind is PragmaKind.ARRAY_PARTITION:
        if d.variable is not None:
            parts.append(f"variable={d.variable}")
        if d.partition_type is not None:
            parts.append(f"type={d.partition_type}")
        if d.factor is not None:
            parts.append(f"factor={d.factor}")
        if d.dim is not None:
            parts.append(f"dim={d.dim}")
    elif d.kind is PragmaKind.INTERFACE:
        if d.mode is not None:
            parts.append(f"mode={d.mode}")
        if d.variable is not None:
            parts.append(f"port={d.variable}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Lexical anchor scanning

_TWO_CHAR = {"<<", ">>", "&&", "||", "::", "->", "++", "--"}


def _lex(text: str, directives: list[tuple[int, str]]):
    """Yield (token, line) pairs: identifiers/numbers and single punctuation.

    Comments, string/char literals, and preprocessor lines contribute no
    tokens, so braces inside them cannot skew the balance. Each
    preprocessor line is appended to `directives` as (line, its first
    physical line). A block comment or literal still open at the end of
    the text raises ParseError, as a compiler would reject it.
    """
    i, line = 0, 1
    n = len(text)
    at_line_start = True
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r":
            i += 1
            continue
        if at_line_start and c == "#":
            start, start_line = i, line
            while i < n and text[i] != "\n":
                if text[i] == "\\" and i + 1 < n and text[i + 1] == "\n":
                    line += 1
                    i += 1
                i += 1
            directives.append((start_line, text[start:i].partition("\n")[0]))
            continue
        at_line_start = False
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            start_line = line
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    line += 1
                i += 1
            if i + 1 >= n:
                raise ParseError(f"line {start_line}: unterminated comment")
            i += 2
            continue
        if c in "\"'":
            quote = c
            start_line = line
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1  # the escaped character, a spliced newline too
                if i < n and text[i] == "\n":
                    line += 1
                i += 1
            if i >= n:
                kind = "string" if quote == '"' else "character"
                raise ParseError(f"line {start_line}: unterminated {kind} literal")
            i += 1
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            yield text[start:i], line
            continue
        if c.isdigit():
            start = i
            while i < n and (text[i].isalnum() or text[i] in "._"):
                i += 1
            yield text[start:i], line
            continue
        if text[i : i + 2] in _TWO_CHAR:
            yield text[i : i + 2], line
            i += 2
            continue
        yield c, line
        i += 1


@dataclass
class _OpenBrace:
    kind: str  # "function" | "loop" | "block"
    label: str
    line: int
    anchor_index: int | None  # index into the anchors list, when an anchor


def _find_anchors(lexed) -> list[AnchorPoint]:
    """Function and loop body-start anchors in a (token, line) stream.

    Raises ParseError on brace imbalance, naming the offending line.
    """
    anchors: list[AnchorPoint] = []
    stack: list[_OpenBrace] = []
    loop_count = 0
    loop_nesting = 0

    paren_depth = 0
    pending_loop: tuple[str, bool] | None = None  # (label, header_closed)
    func_candidate: str | None = None  # set while a depth-0 ident(...) header is open/closed
    func_header_closed = False
    prev: list[str] = ["", "", ""]  # last three tokens, most recent last

    def push(kind: str, label: str, line: int) -> None:
        nonlocal loop_nesting
        index = None
        if kind in ("function", "loop"):
            depth = 0 if kind == "function" else loop_nesting + 1
            anchors.append(
                AnchorPoint(
                    kind=f"{kind}_body_start",
                    label=label,
                    line=line,
                    nesting_depth=depth,
                )
            )
            index = len(anchors) - 1
        if kind == "loop":
            loop_nesting += 1
        stack.append(_OpenBrace(kind=kind, label=label, line=line, anchor_index=index))

    for token, line in lexed:
        if token == "(":
            if paren_depth == 0 and not stack and _IDENT.match(prev[-1]) and prev[-1] not in (
                "for",
                "while",
                "if",
                "switch",
                "return",
            ):
                func_candidate = prev[-1]
                func_header_closed = False
            paren_depth += 1
        elif token == ")":
            paren_depth = max(0, paren_depth - 1)
            if paren_depth == 0:
                if pending_loop is not None:
                    pending_loop = (pending_loop[0], True)
                if func_candidate is not None:
                    func_header_closed = True
        elif paren_depth == 0:
            if token in ("for", "while"):
                label = ""
                if prev[-1] == ":" and _IDENT.match(prev[-2]) and prev[-3] != "case":
                    label = prev[-2]
                pending_loop = (label, False)
            elif token == "{":
                if pending_loop is not None and pending_loop[1]:
                    loop_count += 1
                    label = pending_loop[0] or f"loop_{loop_count}"
                    pending_loop = None
                    push("loop", label, line)
                elif not stack and func_candidate is not None and func_header_closed:
                    name = func_candidate
                    func_candidate = None
                    push("function", name, line)
                else:
                    pending_loop = None
                    push("block", "", line)
            elif token == "}":
                if not stack:
                    raise ParseError(f"line {line}: unbalanced closing brace")
                closed = stack.pop()
                if closed.kind == "loop":
                    loop_nesting -= 1
                if closed.anchor_index is not None:
                    a = anchors[closed.anchor_index]
                    anchors[closed.anchor_index] = replace(a, end_line=line)
            elif token == ";":
                if pending_loop is not None and pending_loop[1]:
                    pending_loop = None  # braceless loop body: no insertion point
                func_candidate = None
            else:
                if pending_loop is not None and pending_loop[1]:
                    pending_loop = None
                if func_header_closed and token not in ("const", "noexcept"):
                    func_candidate = None
        prev = [prev[1], prev[2], token]

    if stack:
        raise ParseError(f"line {stack[0].line}: unbalanced opening brace")
    return anchors


# Distinct source texts whose parse is kept per process.  A scripted
# matrix replays about 30; the bound only stops a long-lived process
# that sees endless new texts from growing without limit.
PARSE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse(text: str):
    """The fields of a SourceUnit after `path` and `text`, memoised by the text.

    One `_lex` pass gives the tokens and the preprocessor lines; the
    pragmas come from those lines alone, and the anchors from the tokens.
    The values are immutable, so sharing them between units and threads
    is safe.  A ParseError is raised afresh on every call: lru_cache
    keeps no exceptions.  Unknown-pragma warnings are therefore logged
    once per distinct text.
    """
    directives: list[tuple[int, str]] = []
    lexed = tuple(_lex(text, directives))
    pragmas, pragma_lines = [], []
    for line_no, line in directives:
        if _PRAGMA_LINE.match(line):
            pragma_lines.append(line_no)
            d = parse_pragma_line(line, line_no)
            if d is not None:
                pragmas.append(d)
    anchors = _find_anchors(lexed)
    return tuple(pragmas), tuple(anchors), tuple(tok for tok, _ in lexed), frozenset(pragma_lines)


def anchor_for_line(anchors, line: int) -> AnchorPoint | None:
    """Innermost anchor whose body contains the given 1-based line."""
    best = None
    for a in anchors:
        if a.line < line <= a.end_line:
            if best is None or a.line > best.line:
                best = a
    return best


# ---------------------------------------------------------------------------
# Editing operations


def strip_pragmas(unit: SourceUnit) -> SourceUnit:
    """Remove every `#pragma HLS` directive line; all other lines stay
    byte-identical, a pragma line inside a comment or literal included."""
    lines = unit.text.split("\n")
    kept = [ln for i, ln in enumerate(lines, start=1) if i not in unit.pragma_lines]
    return SourceUnit.from_text("\n".join(kept), unit.path)


def _indent_of(line: str) -> str:
    return line[: len(line) - len(line.lstrip(" \t"))]


def inject_pragma(
    unit: SourceUnit,
    anchor: AnchorPoint,
    d: PragmaDirective,
) -> SourceUnit:
    """Insert the directive as the first line after the anchor's opening brace.

    Raises ConflictError when a directive of the same kind (and, for
    variable-scoped kinds, the same variable) is already attached to the
    anchor. Exactly one line is added; nothing else changes.
    """
    if anchor not in unit.anchors:
        raise ConflictError(f"anchor {anchor.label!r} does not belong to {unit.path}")
    for existing in unit.pragmas:
        owner = anchor_for_line(unit.anchors, existing.source_line)
        if (
            owner is not None
            and (owner.kind, owner.label, owner.line) == (anchor.kind, anchor.label, anchor.line)
            and existing.kind == d.kind
            and existing.variable == d.variable
        ):
            raise ConflictError(
                f"{d.kind.value} already present at anchor {anchor.label!r} "
                f"(line {existing.source_line})"
            )
    lines = unit.text.split("\n")
    indent = _indent_of(lines[anchor.line - 1]) + "    "
    lines.insert(anchor.line, indent + serialize_pragma(d))
    return SourceUnit.from_text("\n".join(lines), unit.path)
