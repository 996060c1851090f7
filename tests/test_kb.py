"""Knowledge-base ingestion and BM25 retrieval."""

from __future__ import annotations

import json
import random

import pytest

import timelyhls
from timelyhls import kb
from timelyhls.errors import ConfigError, ContractError, ValidationError
from timelyhls.kb import KnowledgeDoc, build_index, retrieve, tokenize

from conftest import bm25_reference, make_target

# frozen before the build from an independent hand evaluation of the BM25
# formula (3 docs of lengths 5/4/4, single query term with df=1, tf=1)
GOLDEN_BM25_SCORE = 0.9227538367149796


def _doc(doc_id, body, families=(), kind="heuristic", title=""):
    return KnowledgeDoc(
        id=doc_id, kind=kind, applicable_families=tuple(families), title=title, body=body
    )


class TestTokenize:
    def test_splits_on_non_alphanumeric(self):
        assert tokenize("ARRAY_PARTITION dim=1") == ["array", "partition", "dim", "1"]

    def test_empty(self):
        assert tokenize("") == []

    def test_plus_is_separator(self):
        assert tokenize("Zynq UltraScale+") == ["zynq", "ultrascale"]


class TestIngest:
    def test_bundled_kb(self, bundled_kb):
        targets, index = bundled_kb
        assert len(targets) == 10
        assert any(t.part == "xc7a200tfbg676-2" for t in targets)
        assert len(index.docs) > 0
        assert {doc_id for weights in index.weights.values() for doc_id in weights} == {
            d.id for d in index.docs
        }

    def test_empty_docs_dir(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "targets.json").write_text("[]")
        targets, index = kb.ingest(tmp_path)
        assert targets == []
        assert index.docs == []
        assert index.weights == {}

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ConfigError):
            kb.ingest(tmp_path / "nope")

    def test_duplicate_doc_id(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "targets.json").write_text("[]")
        doc = "---\nid: dup\nkind: heuristic\ntitle: t\n---\nbody\n"
        (tmp_path / "docs" / "a.md").write_text(doc)
        (tmp_path / "docs" / "b.md").write_text(doc)
        with pytest.raises(ValidationError, match="dup"):
            kb.ingest(tmp_path)

    ENTRY = {
        "family": "Artix-7", "part": "xc7a200tfbg676-2", "luts": 1, "ffs": 1,
        "dsps": 1, "brams": 1, "default_clock_ns": 10.0, "logic_delay_ns": 1.0,
        "tier": "low_cost",
    }

    def test_duplicate_part(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "targets.json").write_text(json.dumps([self.ENTRY, self.ENTRY]))
        with pytest.raises(ValidationError, match="xc7a200tfbg676-2"):
            kb.ingest(tmp_path)

    @pytest.mark.parametrize(
        "field, value", [("family", 7), ("part", 5), ("tier", None), ("tier", ["low_cost"])]
    )
    def test_target_field_not_a_string(self, tmp_path, field, value):
        (tmp_path / "docs").mkdir()
        broken = {**self.ENTRY, "part": "xc7s50-ftgb196-2", field: value}
        (tmp_path / "targets.json").write_text(json.dumps([self.ENTRY, broken]))
        with pytest.raises(ValidationError, match=rf"^targets\.json: entry 1: not a string: {field}$"):
            kb.ingest(tmp_path)

    def test_malformed_front_matter_names_file(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "targets.json").write_text("[]")
        (tmp_path / "docs" / "broken.md").write_text("---\nid missing colon\n---\nbody\n")
        with pytest.raises(ValidationError, match="broken.md"):
            kb.ingest(tmp_path)

    @pytest.mark.parametrize("text", ["5", "{}", '"targets"', "null"])
    def test_targets_not_an_array(self, tmp_path, text):
        (tmp_path / "docs").mkdir()
        (tmp_path / "targets.json").write_text(text)
        with pytest.raises(ValidationError, match=r"^targets\.json: not a JSON array$"):
            kb.ingest(tmp_path)

    def test_reingest_is_byte_identical(self, tmp_path):
        assert kb.ingest(timelyhls.data_path("kb")) == kb.ingest(timelyhls.data_path("kb"))


def reference_ranking(docs, query_terms, family):
    """The docs applicable to family, ranked by `bm25_reference` and then id."""
    doc_tokens = {d.id: tokenize(d.title + " " + d.body) for d in docs}
    score = {d.id: bm25_reference(doc_tokens, query_terms, d.id) for d in docs}
    return sorted((d for d in docs if d.applies_to(family)), key=lambda d: (-score[d.id], d.id))


class TestBm25:
    def golden_corpus(self):
        return [
            _doc("d1", "pipeline improves loop initiation interval"),
            _doc("d2", "unroll duplicates loop hardware"),
            _doc("d3", "partition arrays across banks"),
        ]

    def test_golden_single_term(self):
        index = build_index(self.golden_corpus())
        assert index.weights["pipeline"] == {"d1": pytest.approx(GOLDEN_BM25_SCORE, abs=1e-12)}

    def test_absent_term_scores_zero(self):
        """A term no doc holds adds nothing: a query of it alone ranks by id."""
        index = build_index(self.golden_corpus())
        got = retrieve(index, "dataflow", make_target(), k=3)
        assert [d.id for d in got] == ["d1", "d2", "d3"]
        got = retrieve(index, "dataflow hardware", make_target(), k=3)
        assert [d.id for d in got] == ["d2", "d1", "d3"]

    def test_identical_docs_identical_scores(self):
        index = build_index([_doc("b", "loop pipeline loop"), _doc("a", "loop pipeline loop")])
        assert index.weights["pipeline"]["a"] == index.weights["pipeline"]["b"]
        got = retrieve(index, "pipeline loop", make_target(), k=2)
        assert [d.id for d in got] == ["a", "b"]

    def test_matches_brute_force_reference(self):
        rng = random.Random(7)
        vocab = "pipeline unroll partition loop array bram dsp latency ii timing".split()
        target = make_target()
        for _ in range(30):
            n_docs = rng.randint(1, 20)
            docs = [
                _doc(f"d{i}", " ".join(rng.choices(vocab, k=rng.randint(1, 30))))
                for i in range(n_docs)
            ]
            query = rng.choices(vocab, k=rng.randint(1, 4))
            expected = reference_ranking(docs, query, target.family)
            assert retrieve(build_index(docs), " ".join(query), target, n_docs) == expected

    def test_bundled_kb_ranks_as_the_reference(self, bundled_kb):
        """Rankings and ties on the bundled notes are those the formula
        gives, for every device family and every k."""
        targets, index = bundled_kb
        vocab = sorted(index.weights) + ["absent"]
        rng = random.Random(20)
        for _ in range(200):
            query = rng.choices(vocab, k=rng.randint(1, 12))
            target, k = rng.choice(targets), rng.randint(1, 6)
            ranked = reference_ranking(index.docs, query, target.family)
            assert retrieve(index, " ".join(query), target, k) == ranked[:k]

    def test_df_never_exceeds_corpus(self, bundled_kb):
        _, index = bundled_kb
        assert all(len(weights) <= len(index.docs) for weights in index.weights.values())


class TestRetrieve:
    def corpus(self):
        return [
            _doc("artix-note", "pipeline timing artix", families=("Artix-7",)),
            _doc("versal-note", "pipeline timing pipeline pipeline", families=("Versal AI Edge",)),
            _doc("generic-a", "pipeline hints"),
            _doc("generic-b", "pipeline hints"),
        ]

    def test_family_filter_beats_score(self):
        index = build_index(self.corpus())
        got = retrieve(index, "pipeline timing", make_target(family="Artix-7"), k=10)
        ids = [d.id for d in got]
        assert "versal-note" not in ids
        assert "artix-note" in ids

    def test_tie_breaks_ascending_id(self):
        index = build_index([_doc("b", "pipeline"), _doc("a", "pipeline")])
        got = retrieve(index, "pipeline", make_target(), k=2)
        assert [d.id for d in got] == ["a", "b"]

    def test_k_clamps_to_corpus(self):
        index = build_index(self.corpus())
        got = retrieve(index, "pipeline", make_target(family="Artix-7"), k=50)
        assert len(got) == 3  # versal doc filtered out

    def test_k_must_be_positive(self):
        index = build_index(self.corpus())
        with pytest.raises(ContractError):
            retrieve(index, "pipeline", make_target(), k=0)

    def test_sorted_by_score_then_id(self):
        rng = random.Random(3)
        vocab = "pipeline unroll loop ii".split()
        docs = [
            _doc(f"d{i}", " ".join(rng.choices(vocab, k=rng.randint(1, 12))))
            for i in range(12)
        ]
        target = make_target()
        got = retrieve(build_index(docs), "pipeline loop", target, k=len(docs))
        assert got == reference_ranking(docs, ["pipeline", "loop"], target.family)
        # d8 and d11 tie and are given in that order: only build_index's id
        # sort puts d11 first
        doc_tokens = {d.id: tokenize(d.body) for d in docs}
        scores = [bm25_reference(doc_tokens, ["pipeline", "loop"], d.id) for d in docs]
        assert len(set(scores)) < len(scores)
