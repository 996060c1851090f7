"""FPGA knowledge base: device records, optimization notes, and BM25 retrieval.

The knowledge base is a directory with a ``targets.json`` device list and a
``docs/`` folder of markdown notes (front-matter delimited by ``---`` lines).
Retrieval is plain BM25 (k1=1.2, b=0.75) over lowercased alphanumeric tokens,
with a hard device-family applicability filter applied before ranking.
`build_index` computes each (term, doc) pair's BM25 weight once, and
`retrieve` ranks the docs by the sum of their weights over a query's terms.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, NotFound, ValidationError

BM25_K1 = 1.2
BM25_B = 0.75

TIERS = ("low_cost", "midrange", "high_end")

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


_CAPACITY_FIELDS = {"lut": "luts", "ff": "ffs", "dsp": "dsps", "bram": "brams"}


@dataclass(frozen=True)
class FpgaTarget:
    """One FPGA device record: identity, capacity, and a two-scalar speed model."""

    family: str
    part: str
    luts: int
    ffs: int
    dsps: int
    brams: int  # 18Kb-block equivalents
    default_clock_ns: float
    logic_delay_ns: float  # delay per logic level
    tier: str

    def validate(self) -> None:
        for name in ("luts", "ffs", "dsps", "brams"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"target {self.part!r}: {name} must be > 0")
        if self.default_clock_ns <= 0 or self.logic_delay_ns <= 0:
            raise ValidationError(f"target {self.part!r}: clock and logic delay must be > 0")
        if self.tier not in TIERS:
            raise ValidationError(f"target {self.part!r}: tier {self.tier!r} not one of {TIERS}")
        if not self.family:
            raise ValidationError(f"target {self.part!r}: family must be non-empty")

    def capacity(self, resource: str) -> int:
        return getattr(self, _CAPACITY_FIELDS[resource])


DOC_KINDS = ("architecture_note", "pragma_template", "heuristic")


@dataclass(frozen=True)
class KnowledgeDoc:
    """A retrievable note: architecture fact, pragma template, or heuristic."""

    id: str
    kind: str
    applicable_families: tuple[str, ...]  # empty = applies to every family
    title: str
    body: str

    def applies_to(self, family: str) -> bool:
        return not self.applicable_families or family in self.applicable_families


@dataclass
class KbIndex:
    """Immutable-after-build BM25 index over a document corpus."""

    docs: list[KnowledgeDoc]
    # term -> {doc id -> that term's BM25 contribution to the doc's score}
    weights: dict[str, dict[str, float]] = field(default_factory=dict)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters, dropping empties."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


def build_index(docs: list[KnowledgeDoc]) -> KbIndex:
    """The docs sorted by id, and each (term, doc) pair's BM25 weight:
    idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl)), with the
    non-negative idf ln(1 + (N - df + 0.5) / (df + 0.5)), so no score goes
    below zero even for terms present in most documents."""
    docs = sorted(docs, key=lambda d: d.id)
    postings: dict[str, dict[str, int]] = {}  # term -> {doc id -> tf}
    doc_lengths: dict[str, int] = {}  # doc id -> token count
    for doc in docs:
        terms = tokenize(doc.title + " " + doc.body)
        doc_lengths[doc.id] = len(terms)
        for term in terms:
            postings.setdefault(term, {})
            postings[term][doc.id] = postings[term].get(doc.id, 0) + 1
    avg = sum(doc_lengths.values()) / len(docs) if docs else 0.0
    n_docs = len(docs)
    weights: dict[str, dict[str, float]] = {}
    for term, tfs in postings.items():
        df = len(tfs)
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        weights[term] = {
            doc_id: idf * tf * (BM25_K1 + 1.0)
            / (tf + BM25_K1 * (1.0 - BM25_B + BM25_B * doc_lengths[doc_id] / avg))
            for doc_id, tf in tfs.items()
        }
    return KbIndex(docs=docs, weights=weights)


_NO_WEIGHTS: dict[str, float] = {}


def retrieve(index: KbIndex, query: str, target: FpgaTarget, k: int) -> list[KnowledgeDoc]:
    """Top-k docs applicable to the target family, ranked by BM25: a doc's
    score is the sum of its `build_index` weights over the query's terms,
    in query order.

    The sort is by score alone, and it is stable, so ties keep the ascending
    doc id order `build_index` gave `index.docs`.
    """
    if k < 1:
        from .errors import ContractError

        raise ContractError(f"retrieve requires k >= 1, got {k}")
    scores: dict[str, float] = {}
    for term in tokenize(query):
        for doc_id, weight in index.weights.get(term, _NO_WEIGHTS).items():
            scores[doc_id] = scores.get(doc_id, 0.0) + weight
    candidates = [d for d in index.docs if d.applies_to(target.family)]
    scored = [(scores.get(d.id, 0.0), d) for d in candidates]
    scored.sort(key=lambda pair: -pair[0])
    return [d for _, d in scored[:k]]


_FRONT_MATTER_KEY = re.compile(r"^([a-z_]+)\s*:\s*(.*)$")


def _parse_doc_file(path: Path) -> KnowledgeDoc:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != "---":
        raise ValidationError(f"{path.name}: missing front-matter opening '---'")
    meta: dict[str, str] = {}
    body_start = None
    for i, line in enumerate(lines[1:], start=1):
        if line.strip() == "---":
            body_start = i + 1
            break
        m = _FRONT_MATTER_KEY.match(line.strip())
        if not m:
            raise ValidationError(f"{path.name}: malformed front-matter line {i + 1}: {line!r}")
        meta[m.group(1)] = m.group(2).strip()
    if body_start is None:
        raise ValidationError(f"{path.name}: front-matter never closed with '---'")
    for required in ("id", "kind", "title"):
        if not meta.get(required):
            raise ValidationError(f"{path.name}: front-matter missing {required!r}")
    if meta["kind"] not in DOC_KINDS:
        raise ValidationError(f"{path.name}: kind {meta['kind']!r} not one of {DOC_KINDS}")
    families = tuple(f.strip() for f in meta.get("families", "").split(",") if f.strip())
    body = "\n".join(lines[body_start:]).strip()
    if not body:
        raise ValidationError(f"{path.name}: document body is empty")
    return KnowledgeDoc(
        id=meta["id"],
        kind=meta["kind"],
        applicable_families=families,
        title=meta["title"],
        body=body,
    )


def load_targets(path: Path) -> list[FpgaTarget]:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path.name}: invalid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise ValidationError(f"{path.name}: not a JSON array")
    targets: list[FpgaTarget] = []
    seen: dict[str, int] = {}
    for i, entry in enumerate(raw):
        try:
            target = FpgaTarget(
                family=entry["family"],
                part=entry["part"],
                luts=int(entry["luts"]),
                ffs=int(entry["ffs"]),
                dsps=int(entry["dsps"]),
                brams=int(entry["brams"]),
                default_clock_ns=float(entry["default_clock_ns"]),
                logic_delay_ns=float(entry["logic_delay_ns"]),
                tier=entry["tier"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path.name}: entry {i}: {exc}") from exc
        bad = [name for name in ("family", "part", "tier") if not isinstance(getattr(target, name), str)]
        if bad:
            raise ValidationError(f"{path.name}: entry {i}: not a string: {', '.join(bad)}")
        target.validate()
        if target.part in seen:
            raise ValidationError(
                f"{path.name}: duplicate part {target.part!r} (entries {seen[target.part]} and {i})"
            )
        seen[target.part] = i
        targets.append(target)
    return targets


def targets_file(kb_dir: str | Path) -> Path:
    """The device list of a knowledge-base directory; ConfigError when the
    directory or its ``targets.json`` is missing."""
    kb_path = Path(kb_dir)
    if not kb_path.is_dir():
        raise ConfigError(f"knowledge base directory not found: {kb_path}")
    path = kb_path / "targets.json"
    if not path.is_file():
        raise ConfigError(f"missing targets file: {path}")
    return path


def ingest(kb_dir: str | Path) -> tuple[list[FpgaTarget], KbIndex]:
    """Load a knowledge-base directory into device records and a search index.

    Deterministic: identical directory contents produce an identical index
    (doc files are read in sorted name order).
    """
    path = targets_file(kb_dir)
    docs_dir = Path(kb_dir) / "docs"
    if not docs_dir.is_dir():
        raise ConfigError(f"missing docs directory: {docs_dir}")

    targets = load_targets(path)

    docs: list[KnowledgeDoc] = []
    seen_ids: dict[str, str] = {}
    for doc_path in sorted(docs_dir.glob("*.md")):
        doc = _parse_doc_file(doc_path)
        if doc.id in seen_ids:
            raise ValidationError(
                f"duplicate doc id {doc.id!r} in {doc_path.name} (already in {seen_ids[doc.id]})"
            )
        seen_ids[doc.id] = doc_path.name
        docs.append(doc)

    return targets, build_index(docs)


def find_target(targets: list[FpgaTarget], part: str) -> FpgaTarget:
    for t in targets:
        if t.part == part:
            return t
    raise NotFound(f"part {part!r} not in knowledge base")
