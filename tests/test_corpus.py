import json
import logging

import numpy as np
import pytest

from weaklabel.cli import main
from weaklabel.corpus import (
    CorpusError, atomic_write, build_vocabulary, corpus_stats, count_terms, load_corpus,
    NPZ_CHUNK_BYTES, load_labels, read_jsonl, tokenize, write_jsonl, write_npz,
)

from conftest import load_corpus_records, load_label_records, paper_record


def words(n, tag="w"):
    return " ".join(f"{tag}{i}" for i in range(n))


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Graph-Based, Neural NETWORKS!") == \
            ["graph", "based", "neural", "networks"]

    def test_unicode_and_digits(self):
        assert tokenize("Röntgen 2024 µ-opioid") == ["röntgen", "2024", "µ", "opioid"]

    def test_deterministic(self):
        text = "Some Mixed-Case text, with punctuation..."
        assert tokenize(text) == tokenize(text)

    def test_underscore_splits(self):
        assert tokenize("foo_bar") == ["foo", "bar"]


class TestLoadCorpus:
    def test_paragraph_filter(self, tmp_path):
        rec = paper_record("p1", sections=[{"name": "s", "paragraphs": [
            words(4), words(12), words(30)]}])
        paper, = load_corpus_records(tmp_path, [rec])
        assert len(paper.paragraphs) == 2
        assert not paper.is_empty

    def test_all_paragraphs_short_flags_empty(self, tmp_path):
        rec = paper_record("p1", sections=[{"name": "s", "paragraphs": [
            words(3), words(9)]}])
        paper, = load_corpus_records(tmp_path, [rec])
        assert paper.is_empty
        assert paper.paragraphs == []

    def test_title_abstract_becomes_distinguished_leaf(self, tmp_path):
        rec = paper_record("p1", title=words(4, "t"), abstract=words(10, "a"),
                           sections=[{"name": "s", "paragraphs": [words(15)]}])
        paper, = load_corpus_records(tmp_path, [rec])
        flags = [leaf.is_abstract for leaf in paper.paragraphs]
        assert flags == [True, False]
        # it hangs directly off the root, not buried under a section
        assert paper.hierarchy.children[0].is_abstract

    def test_subsections_nest(self, tmp_path):
        rec = paper_record("p1", sections=[{
            "name": "s", "paragraphs": [words(11)],
            "subsections": [{"name": "ss", "paragraphs": [words(12), words(13)]}],
        }])
        paper, = load_corpus_records(tmp_path, [rec])
        section = paper.hierarchy.children[0]
        assert [c.kind for c in section.children] == ["paragraph", "subsection"]
        assert len(paper.paragraphs) == 3

    def test_childless_internal_nodes_pruned(self, tmp_path):
        rec = paper_record("p1", sections=[
            {"name": "dead", "paragraphs": [words(2)]},
            {"name": "alive", "paragraphs": [words(20)]},
        ])
        paper, = load_corpus_records(tmp_path, [rec])
        assert len(paper.hierarchy.children) == 1
        assert len(paper.hierarchy.children[0].children) == 1

    def test_duplicate_id_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match="duplicate paper id"):
            load_corpus_records(tmp_path, [paper_record("p1"), paper_record("p1")])

    def test_malformed_record_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(paper_record("p1")) + "\n{not json\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_missing_id_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"title": "no id"}\n')
        with pytest.raises(CorpusError, match="line 1"):
            load_corpus(path)

    def test_gold_labels_loaded(self, tmp_path):
        paper, = load_corpus_records(
            tmp_path, [paper_record("p1", labels=["L1", "L2"])])
        assert paper.gold_labels == frozenset({"L1", "L2"})
        nolabel, = load_corpus_records(tmp_path, [paper_record("p2")])
        assert nolabel.gold_labels is None

    def test_min_word_invariant_over_corpus(self, tmp_path):
        recs = [paper_record(f"p{i}", title=words(3, "t"), abstract=words(i + 5, "a"),
                             sections=[{"name": "s", "paragraphs": [
                                 words(j + 7) for j in range(5)]}])
                for i in range(8)]
        for paper in load_corpus_records(tmp_path, recs):
            for leaf in paper.paragraphs:
                assert len(tokenize(leaf.text)) >= 10

    def test_stats(self, tmp_path):
        recs = [
            paper_record("p1", sections=[{"name": "s", "paragraphs": [words(10), words(12)]}]),
            paper_record("p2", sections=[{"name": "s", "paragraphs": [words(14)]}]),
        ]
        stats = corpus_stats(load_corpus_records(tmp_path, recs))
        assert stats["n_papers"] == 2
        assert stats["paragraphs_per_paper"] == pytest.approx(1.5)
        assert stats["n_empty_papers"] == 0

    def test_stats_count_words_from_term_counts(self, tmp_path):
        recs = [
            paper_record("p1", title="a title", abstract="short",
                         sections=[{"name": "s", "paragraphs": [words(10), words(12)]}]),
            paper_record("p2", sections=[{"name": "s", "paragraphs": ["tiny"]}]),
        ]
        corpus = load_corpus_records(tmp_path, recs)
        stats = corpus_stats(corpus)
        assert stats["words_per_paper"] == (3 + 22 + 0) / 2
        assert corpus_stats(corpus, count_terms(corpus)) == stats


PARAGRAPH = words(12)


class TestMistypedFields:
    """A field of the wrong JSON type is rejected with its name and line,
    never iterated character by character or carried into a later stage."""

    @pytest.mark.parametrize("field, record, kind", [
        ("sections", paper_record("p2") | {"sections": {"name": "s"}}, "list"),
        ("subsections", paper_record("p2", sections=[
            {"name": "s", "paragraphs": [PARAGRAPH], "subsections": "methods"}]), "list"),
        ("paragraphs", paper_record("p2", sections=[
            {"name": "s", "paragraphs": PARAGRAPH}]), "list"),
        ("bib_refs", paper_record("p2") | {"bib_refs": "P00012"}, "list"),
        ("labels", paper_record("p2") | {"labels": "L0001"}, "list"),
        ("title", paper_record("p2") | {"title": 5}, "string"),
        ("abstract", paper_record("p2") | {"abstract": ["an", "abstract"]}, "string"),
    ])
    def test_corpus_field(self, tmp_path, field, record, kind):
        with pytest.raises(CorpusError,
                           match=rf"corpus\.jsonl: line 2: '{field}' must be a {kind}"):
            load_corpus_records(tmp_path, [paper_record("p1"), record])

    @pytest.mark.parametrize("field, record", [
        ("sections", paper_record("p2", sections=["intro"])),
        ("subsections", paper_record("p2", sections=[
            {"name": "s", "paragraphs": [PARAGRAPH], "subsections": ["methods"]}])),
    ])
    def test_non_object_section_entry(self, tmp_path, field, record):
        with pytest.raises(CorpusError,
                           match=rf"corpus\.jsonl: line 2: '{field}' entries must be objects, "
                                 r"got str$"):
            load_corpus_records(tmp_path, [paper_record("p1"), record])

    def test_cli_names_non_object_section_entry(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl([paper_record("p1", sections=["intro"])], corpus)
        labels = tmp_path / "labels.jsonl"
        write_jsonl([{"id": "L1", "names": ["graph"]}], labels)
        assert main(["ingest", "--corpus", str(corpus), "--labels", str(labels),
                     "--output-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "stage ingest failed: " in err
        assert "line 1: 'sections' entries must be objects, got str" in err

    def test_label_names(self, tmp_path):
        with pytest.raises(CorpusError, match=r"labels\.jsonl: line 2: 'names' must be a list"):
            load_label_records(tmp_path, [{"id": "L1", "names": ["graph"]},
                                          {"id": "L2", "names": "nets"}])

    def test_null_labels_mean_no_ground_truth(self, tmp_path):
        paper, = load_corpus_records(tmp_path, [paper_record("p1") | {"labels": None}])
        assert paper.gold_labels is None

    def test_cli_names_the_stage(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl([paper_record("p1") | {"bib_refs": "P00012"}], corpus)
        labels = tmp_path / "labels.jsonl"
        write_jsonl([{"id": "L1", "names": ["graph"]}], labels)
        assert main(["ingest", "--corpus", str(corpus), "--labels", str(labels),
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert "stage ingest failed: " in capsys.readouterr().err


class TestJsonLines:
    def test_round_trip_skips_blank_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        records = [{"a": 1}, {"b": [1.5, "x"]}, {}]
        write_jsonl(iter(records), path)
        assert path.read_text() == '{"a": 1}\n{"b": [1.5, "x"]}\n{}\n'
        with open(path, "a") as fh:
            fh.write("\n  \n")
        assert list(read_jsonl(path)) == records

    def test_reader_yields_one_record_at_a_time(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n{not json\n')
        records = read_jsonl(path)
        assert next(records) == {"a": 1}
        with pytest.raises(json.JSONDecodeError):
            next(records)

    def test_failed_write_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_jsonl([{"a": 1}, {"b": 2}], path)
        before = path.read_bytes()

        def records():
            yield {"c": 3}
            yield {"d": 4}
            raise RuntimeError("stage crashed")

        with pytest.raises(RuntimeError, match="stage crashed"):
            write_jsonl(records(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]

    def test_failed_binary_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "m.npz"
        with pytest.raises(ValueError):
            with atomic_write(path, "wb") as fh:
                fh.write(b"partial")
                raise ValueError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_write_replaces_earlier_file(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_jsonl([{"a": 1}, {"b": 2}], path)
        write_jsonl([{"c": 3}], path)
        assert path.read_text() == '{"c": 3}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]


class TestWriteNpz:
    """write_npz writes the bytes np.savez_compressed / np.savez write for
    the concatenated blocks."""

    @pytest.mark.parametrize("compress", [True, False])
    def test_bytes_equal_numpy(self, tmp_path, compress):
        rng = np.random.default_rng(0)
        big = rng.normal(size=(300, NPZ_CHUNK_BYTES // 8 // 100))  # spans chunk boundaries
        blocks = [big[:7], np.zeros((0, big.shape[1])), big[7:], rng.normal(size=(3, big.shape[1]))]
        wide = rng.normal(size=(5, 9))
        members = {"weights": blocks, "strided": [wide[:, ::2]], "strided_1d": [wide[0, ::3]],
                   "flags": [wide > 0],
                   "meta": [np.frombuffer(b'{"k": [1, 2]}', dtype=np.uint8)],
                   "empty": [np.zeros((0, 4))]}
        write_npz(tmp_path / "a.npz", members, compress)
        (np.savez_compressed if compress else np.savez)(
            tmp_path / "b.npz", **{name: np.concatenate(b) for name, b in members.items()})
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    @pytest.mark.parametrize("blocks", [[np.zeros((2, 3)), np.zeros((2, 4))],
                                        [np.zeros((2, 3)), np.zeros((2, 3), dtype=np.float32)]])
    def test_mismatched_blocks_rejected_and_no_file_left(self, tmp_path, blocks):
        with pytest.raises(ValueError, match="'w': blocks differ"):
            write_npz(tmp_path / "a.npz", {"w": blocks}, True)
        assert list(tmp_path.iterdir()) == []


class TestLoadLabels:
    def test_single_name(self, tmp_path):
        label, = load_label_records(tmp_path, [{
            "id": "D000085686", "names": ["deltacoronavirus"],
            "description": "A genus of coronaviruses."}])
        assert label.names == ("deltacoronavirus",)
        assert label.names[0] == "deltacoronavirus"

    def test_synonyms(self, tmp_path):
        label, = load_label_records(tmp_path, [{
            "id": "D039841", "names": ["leukocyte l1 antigen complex", "calprotectin"],
            "description": "A complex of proteins."}])
        assert len(label.name_token_sequences()) == 2
        assert label.name_token_sequences()[1] == ("calprotectin",)

    def test_empty_file_warns(self, tmp_path, caplog):
        path = tmp_path / "labels.jsonl"
        path.write_text("")
        with caplog.at_level(logging.WARNING):
            assert load_labels(path) == []
        assert "empty" in caplog.text

    def test_duplicate_id_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match="duplicate label id"):
            load_label_records(tmp_path, [
                {"id": "L1", "names": ["a"], "description": ""},
                {"id": "L1", "names": ["b"], "description": ""}])

    def test_zero_names_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match="zero names"):
            load_label_records(tmp_path, [{"id": "L1", "names": [], "description": ""}])

    def test_unnormalizable_name_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match="empty sequence"):
            load_label_records(tmp_path, [{"id": "L1", "names": ["???"], "description": ""}])

    def test_label_text_concatenates_name_and_description(self, tmp_path):
        label, = load_label_records(tmp_path, [{
            "id": "L1", "names": ["voronoi diagram"], "description": "a partition"}])
        assert label.text == "voronoi diagram a partition"


class TestVocabulary:
    def test_df_at_threshold_kept(self, tmp_path):
        recs = [paper_record(f"p{i}", sections=[{"name": "s", "paragraphs": [
            "graph " * 6 + words(6, f"u{i}x")]}]) for i in range(2)]
        vocab = build_vocabulary(load_corpus_records(tmp_path, recs), min_df=2)
        assert vocab.doc_freq[vocab.word_index["graph"]] == 2
        assert "u0x0" not in vocab.word_index

    def test_below_threshold_dropped(self, tmp_path):
        recs = [paper_record(f"p{i}", sections=[{"name": "s", "paragraphs": [
            ("rare " if i < 4 else "base ") * 12]}]) for i in range(100)]
        vocab = build_vocabulary(load_corpus_records(tmp_path, recs), min_df=5)
        assert "rare" not in vocab.word_index
        assert vocab.doc_freq[vocab.word_index["base"]] == 96

    def test_all_unique_yields_empty_vocab(self, tmp_path, caplog):
        recs = [paper_record(f"p{i}", sections=[{"name": "s", "paragraphs": [
            words(12, f"only{i}x")]}]) for i in range(3)]
        with caplog.at_level(logging.WARNING):
            vocab = build_vocabulary(load_corpus_records(tmp_path, recs), min_df=5)
        assert len(vocab) == 0
        assert "empty" in caplog.text

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary([], min_df=1)

    def test_df_matches_brute_force(self, tmp_path):
        import numpy as np
        rng = np.random.default_rng(0)
        pool = [f"v{i}" for i in range(30)]
        recs = []
        for i in range(12):
            body = " ".join(rng.choice(pool, size=25))
            recs.append(paper_record(f"p{i}", title="t " + body[:0],
                                     sections=[{"name": "s", "paragraphs": [body]}]))
        corpus = load_corpus_records(tmp_path, recs)
        vocab = build_vocabulary(corpus, min_df=1)
        for word, j in vocab.word_index.items():
            brute = sum(word in set(p.full_text_tokens()) for p in corpus)
            assert vocab.doc_freq[j] == brute

    def test_stable_indexing(self, tmp_path):
        recs = [paper_record("p1", sections=[{"name": "s", "paragraphs": [
            "beta alpha gamma " * 5]}])]
        corpus = load_corpus_records(tmp_path, recs)
        v1 = build_vocabulary(corpus, min_df=1)
        v2 = build_vocabulary(corpus, min_df=1)
        assert v1.word_index == v2.word_index
        assert list(v1.word_index) == sorted(v1.word_index)
