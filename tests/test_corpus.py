import json
import logging
import re
import sys
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaklabel import corpus as corpus_mod
from weaklabel.cli import main
from weaklabel.corpus import (
    COUNT_BLOCK_PAPERS, MAX_SECTION_DEPTH, CorpusError, Paper, atomic_write, build_vocabulary,
    corpus_stats, count_terms, load_corpus, load_paper_labels, NPZ_CHUNK_BYTES, load_labels,
    read_jsonl, read_npz, read_npz_members, tokenize, write_jsonl, write_npz,
)
from weaklabel.ranker import aggregate_hierarchy

from conftest import (load_corpus_records, load_label_records, paper_record,
                      write_unpacked_npz)


def words(n, tag="w"):
    return " ".join(f"{tag}{i}" for i in range(n))


def nested_paper(levels):
    """The JSON line of paper "p1" whose sections nest ``levels`` deep, the
    innermost holding one paragraph; written by hand, since json.dumps
    recurses as deep as the record nests."""
    leaf = json.dumps({"name": "s", "paragraphs": [words(12)]})
    return ('{"id": "p1", "sections": [' + '{"name": "s", "subsections": [' * (levels - 1)
            + leaf + "]}" * (levels - 1) + "]}")


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

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_matches_the_regex(self, text):
        assert tokenize(text) == regex_tokens(text)

    def test_every_code_point_matches_the_regex(self, monkeypatch):
        # a fresh table, so its entry for every code point goes when the test ends
        monkeypatch.setattr(corpus_mod, "_SPLIT", corpus_mod._Split())
        pieces = [f"a{chr(c)}b{chr(c).upper()}c" for c in range(sys.maxunicode + 1)]
        for lo in range(0, len(pieces), 1 << 16):
            text = " ".join(pieces[lo:lo + (1 << 16)])
            assert tokenize(text) == regex_tokens(text), hex(lo)


def regex_tokens(text: str) -> list[str]:
    """The tokenizer's oracle: the lowercased text's runs of Unicode letters and digits."""
    return re.findall(r"[^\W_]+", text.lower())


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
        title_abstract = f"{words(4, 't')} {words(10, 'a')}"
        assert paper.paragraphs == [title_abstract, words(15)]
        # it hangs directly off the root, not buried under a section
        assert paper.hierarchy == [title_abstract, [words(15)]]
        # and is not counted twice in the full text
        assert paper.full_text_tokens() == tokenize(title_abstract) + tokenize(words(15))

    def test_subsections_nest(self, tmp_path):
        rec = paper_record("p1", sections=[{
            "name": "s", "paragraphs": [words(11)],
            "subsections": [{"name": "ss", "paragraphs": [words(12), words(13)]}],
        }])
        paper, = load_corpus_records(tmp_path, [rec])
        assert paper.hierarchy == [[words(11), [words(12), words(13)]]]
        assert paper.paragraphs == [words(11), words(12), words(13)]

    def test_childless_internal_nodes_pruned(self, tmp_path):
        rec = paper_record("p1", sections=[
            {"name": "dead", "paragraphs": [words(2)]},
            {"name": "alive", "paragraphs": [words(20)]},
        ])
        paper, = load_corpus_records(tmp_path, [rec])
        assert paper.hierarchy == [[words(20)]]

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
            for text in paper.paragraphs:
                assert len(tokenize(text)) >= 10

    def test_stats(self, tmp_path):
        recs = [
            paper_record("p1", sections=[{"name": "s", "paragraphs": [words(10), words(12)]}]),
            paper_record("p2", sections=[{"name": "s", "paragraphs": [words(14)]}]),
        ]
        corpus = load_corpus_records(tmp_path, recs)
        stats = corpus_stats(corpus, count_terms(corpus))
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
        stats = corpus_stats(corpus, count_terms(corpus))
        assert stats["words_per_paper"] == (3 + 22 + 0) / 2


def paragraphs_in_document_order(node):
    """Recursive reference: the paragraph texts under ``node``, left to right."""
    if isinstance(node, str):
        return [node]
    return [text for child in node for text in paragraphs_in_document_order(child)]


document_trees = st.lists(st.recursive(
    st.integers(0, 9).map(lambda i: f"p{i}"),
    lambda kids: st.lists(kids, max_size=4), max_leaves=40), max_size=4)


class TestParagraphs:
    @given(document_trees)
    def test_paper_paragraphs_in_document_order(self, root):
        paper = Paper(id="p", title="", abstract="", hierarchy=root)
        assert paper.paragraphs == paragraphs_in_document_order(root)
        assert paper.is_empty == (not paper.paragraphs)


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
                           match=rf"corpus\.jsonl: line 2: malformed record \('{field}' must "
                                 rf"be a {kind}"):
            load_corpus_records(tmp_path, [paper_record("p1"), record])

    @pytest.mark.parametrize("field, record", [
        ("sections", paper_record("p2", sections=["intro"])),
        ("subsections", paper_record("p2", sections=[
            {"name": "s", "paragraphs": [PARAGRAPH], "subsections": ["methods"]}])),
    ])
    def test_non_object_section_entry(self, tmp_path, field, record):
        with pytest.raises(CorpusError,
                           match=rf"corpus\.jsonl: line 2: malformed record \('{field}' entry "
                                 r"must be an object, got str\)$"):
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
        assert "line 1: malformed record ('sections' entry must be an object, got str)" in err

    def test_label_names(self, tmp_path):
        with pytest.raises(CorpusError, match=r"labels\.jsonl: line 2: malformed record "
                                              r"\('names' must be a list"):
            load_label_records(tmp_path, [{"id": "L1", "names": ["graph"]},
                                          {"id": "L2", "names": "nets"}])

    @pytest.mark.parametrize("record, message", [
        ({"id": "L2", "names": [["graph", "mining"]]},
         r"'names' entry must be a string, got list\)$"),
        ({"id": "L2", "names": ["nets", 7]}, r"'names' entry must be a string, got int\)$"),
        ({"id": "L2", "names": ["nets"], "description": 7},
         r"'description' must be a string, got int\)$"),
    ])
    def test_label_field_entries(self, tmp_path, record, message):
        with pytest.raises(CorpusError,
                           match=rf"labels\.jsonl: line 2: malformed record \({message}"):
            load_label_records(tmp_path, [{"id": "L1", "names": ["graph"]}, record])

    def test_cli_rejects_a_list_as_a_label_name(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl([paper_record("p1")], corpus)
        labels = tmp_path / "labels.jsonl"
        write_jsonl([{"id": "L1", "names": [["graph", "mining"]]}], labels)
        assert main(["ingest", "--corpus", str(corpus), "--labels", str(labels),
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert ("line 1: malformed record ('names' entry must be a string, got list)"
                in capsys.readouterr().err)

    def test_cli_names_the_line_of_a_byte_that_is_not_utf8(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl([paper_record(f"p{i}", title=words(12)) for i in range(8)], corpus)
        lines = corpus.read_bytes().splitlines(keepends=True)
        lines[5] = lines[5].replace(b'"title": "', b'"title": "\xff', 1)
        corpus.write_bytes(b"".join(lines))
        labels = tmp_path / "labels.jsonl"
        write_jsonl([{"id": "L1", "names": ["graph"]}], labels)
        assert main(["ingest", "--corpus", str(corpus), "--labels", str(labels),
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert (f"stage ingest failed: {corpus}: line 6: malformed record ('utf-8' codec can't "
                "decode byte 0xff") in capsys.readouterr().err

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
        with pytest.raises(CorpusError, match=r"r\.jsonl: line 2: malformed record"):
            next(records)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_is_a_malformed_line(self, tmp_path, constant):
        path = tmp_path / "r.jsonl"
        path.write_text(f'{{"a": 1}}\n{{"b": [0.5, {constant}]}}\n')
        with pytest.raises(CorpusError, match=rf"^{re.escape(str(path))}: line 2: malformed "
                                              rf"record \(non-finite number {constant}\)$"):
            list(read_jsonl(path))

    @pytest.mark.parametrize("levels", [MAX_SECTION_DEPTH + 1, 600, 3000])
    def test_deeply_nested_record_names_file_and_line(self, tmp_path, capsys, levels):
        # past the cap, or past what the JSON decoder can nest: the same message
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps(paper_record("p0", title=words(12))) + "\n"
                          + nested_paper(levels) + "\n")
        labels = tmp_path / "labels.jsonl"
        labels.write_text('{"id": "L", "names": ["w1"]}\n')
        for stage in ("ingest", "evaluate"):  # evaluate reads the corpus with load_paper_labels
            assert main([stage, "--corpus", str(corpus), "--labels", str(labels),
                         "--output-dir", str(tmp_path / "out")]) == 1
            assert (f"stage {stage} failed: {corpus}: line 2: malformed record "
                    "(nested too deeply)") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_deep_document_loads_and_aggregates(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(nested_paper(MAX_SECTION_DEPTH) + "\n")
        paper, = load_corpus(corpus)
        assert paper.paragraphs == [words(12)]
        node, depth = paper.hierarchy, 0
        while isinstance(node, list):
            node, = node
            depth += 1
        assert depth == MAX_SECTION_DEPTH + 1  # the document and each section
        emb = np.array([0.25, -1.0])
        np.testing.assert_array_equal(aggregate_hierarchy(paper, [emb]), emb)

    @pytest.mark.parametrize("load", [load_corpus, load_paper_labels])
    @pytest.mark.parametrize("levels", [MAX_SECTION_DEPTH, MAX_SECTION_DEPTH + 1, 400])
    def test_nesting_outcome_does_not_depend_on_stack_depth(self, tmp_path, load, levels):
        # the JSON decoder shares Python's recursion limit, so without the cap a
        # line some hundreds of levels deep loads or fails by the caller's depth
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(nested_paper(levels) + "\n")

        def outcome(frames):
            if frames:
                return outcome(frames - 1)
            try:
                return len(load(corpus))
            except CorpusError as exc:
                return str(exc)

        expected = (1 if levels <= MAX_SECTION_DEPTH
                    else f"{corpus}: line 1: malformed record (nested too deeply)")
        assert outcome(0) == outcome(300) == expected

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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_number_refused(self, tmp_path, value):
        path = tmp_path / "r.jsonl"
        write_jsonl([{"a": 1}], path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: Out of range float"):
            write_jsonl([{"a": 2}, {"b": [0.5, value]}], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]

    def test_write_replaces_earlier_file(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_jsonl([{"a": 1}, {"b": 2}], path)
        write_jsonl([{"c": 3}], path)
        assert path.read_text() == '{"c": 3}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]


def assert_same_members(got: dict, want: dict):
    assert list(got) == list(want)
    for name, array in want.items():
        assert (got[name].dtype, got[name].shape) == (array.dtype, array.shape), name
        assert got[name].tobytes() == array.tobytes(), name


class TestWriteNpz:
    """write_npz writes its members and, in a last ``meta`` member, its meta
    as JSON, deflated at NPZ_LEVEL, a float64 member split into its low bytes
    and its high byte planes, which read_npz_members joins back bit for bit."""

    def members(self):
        rng = np.random.default_rng(0)
        wide = rng.normal(size=(5, 9))
        return {"weights": rng.normal(size=(310, NPZ_CHUNK_BYTES // 8 // 100)),  # spans chunks
                "strided": wide[:, ::2], "strided_1d": wide[0, ::3], "flags": wide > 0,
                "empty": np.zeros((0, 4)), "count": np.arange(3)}

    def test_deflated_members_equal_numpy_bitwise(self, tmp_path):
        members = self.members()
        write_npz(tmp_path / "a.npz", members, {"k": [1, 2]})
        np.savez_compressed(tmp_path / "b.npz", **members,
                            meta=np.frombuffer(b'{"k": [1, 2]}', dtype=np.uint8))
        with np.load(tmp_path / "b.npz") as data:
            want = {name: data[name] for name in data.files}
        assert_same_members(read_npz_members(tmp_path / "a.npz"), want)
        assert_same_members(read_npz_members(tmp_path / "b.npz"), want)  # the plain layout

    def test_float_members_split_in_two(self, tmp_path):
        members = self.members()
        path = tmp_path / "a.npz"
        write_npz(path, members, {"k": 1})
        with zipfile.ZipFile(path) as zf:
            infos = {info.filename: info for info in zf.infolist()}
        split = ["weights", "strided", "strided_1d", "empty"]
        assert list(infos) == [f"{name}{part}.npy" for name in members
                               for part in (("", ".high") if name in split else ("",))
                               ] + ["meta.npy"]
        with np.load(path) as data:
            for name in split:
                values = np.ascontiguousarray(members[name]).view(np.uint8).reshape(-1, 8)
                low, high = data[name], data[f"{name}.high"]
                assert (low.dtype, low.shape) == (np.dtype("V6"), members[name].shape)
                assert low.tobytes() == values[:, :6].tobytes()
                assert (high.dtype, high.shape) == (np.uint8, (2, *members[name].shape))
                assert high.tobytes() == values[:, 6:].T.tobytes()
                # np.load counts a zero weight as a zero of its low bytes
                assert np.count_nonzero(low) == np.count_nonzero(members[name])
        stored = {name for name, info in infos.items()
                  if info.compress_type == zipfile.ZIP_STORED}
        assert stored == {f"{name}.npy" for name in split}

    def test_deflate_level_reaches_zlib(self, tmp_path, monkeypatch):
        # a hand-built ZipInfo takes no level from its ZipFile, so _write_member sets it
        members = {"w": np.random.default_rng(0).normal(size=(200, 100))}
        sizes, level_used = {}, corpus_mod.NPZ_LEVEL
        for level in (level_used, 9):
            monkeypatch.setattr(corpus_mod, "NPZ_LEVEL", level)
            path = tmp_path / f"{level}.npz"
            write_npz(path, members, {"k": 1})
            assert_same_members(read_npz_members(path),
                                {**members, "meta": np.frombuffer(b'{"k": 1}', dtype=np.uint8)})
            with zipfile.ZipFile(path) as zf:
                sizes[level] = zf.getinfo("w.high.npy").compress_size
        assert sizes[level_used] > sizes[9]

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.one_of(
               st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                np.finfo(np.float64).max, -np.finfo(np.float64).max,
                                np.finfo(np.float64).tiny]),
               st.floats(allow_nan=False, allow_infinity=False)), max_size=40),
           rows=st.sampled_from([None, 0, 1]), seed=st.integers(0, 2**16))
    def test_split_round_trip_is_bitwise(self, tmp_path_factory, values, rows, seed):
        array = np.array(values, dtype=np.float64)
        if rows is not None:  # a 0-row or 1-row matrix
            array = np.zeros((0, 3)) if rows == 0 else array.reshape(1, -1)
        rng = np.random.default_rng(seed)
        path = tmp_path_factory.mktemp("npz") / "a.npz"
        members = {"w": array, "b": rng.normal(size=3) * 10.0 ** rng.integers(-300, 300)}
        write_npz(path, members, {"version": 1})
        got = read_npz(path, "test", 1)[1]
        for name, want in members.items():
            assert (got[name].dtype, got[name].shape) == (np.float64, want.shape)
            assert got[name].tobytes() == want.tobytes()

    @pytest.mark.parametrize("problem", ["no_low", "other_shape", "low_not_v6"])
    def test_high_planes_without_their_low_bytes_named(self, tmp_path, problem):
        path = tmp_path / "a.npz"  # no zero, so the low member is of the weights' shape
        write_npz(path, {"w": np.arange(1.0, 13.0).reshape(3, 4)}, {"version": 1})
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        if problem == "no_low":
            del arrays["w"]
        elif problem == "other_shape":
            arrays["w"] = arrays["w"][:2]
        else:
            arrays["w"] = np.zeros((3, 4))
        np.savez_compressed(path, **arrays)
        message = {"no_low": "w.high has no w beside it",
                   "other_shape": "w.high is uint8 (2, 3, 4) beside w |V6 (2, 4)",
                   "low_not_v6": "w.high is uint8 (2, 3, 4) beside w float64 (3, 4)"}[problem]
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: unreadable archive "
                                             rf"\({re.escape(message)}\)$"):
            read_npz(path, "test", 1)

    @settings(max_examples=80, deadline=None)
    @given(values=st.lists(st.sampled_from(
               [0.0, -0.0, 5e-324, 1e-310, -5e-324, 2.2250738585072009e-308, 0.5, -0.01, 3e7]),
               max_size=40),
           zero_free=st.booleans(), rows=st.sampled_from([None, 1, 2]))
    def test_zeros_pack_the_low_member(self, tmp_path_factory, values, zero_free, rows):
        array = np.array(values, dtype=np.float64)
        if zero_free:  # no value whose two high bytes are zero
            array = array[array.view(np.uint64) >> 48 != 0]
        if rows is not None and array.size % rows == 0:
            array = array.reshape(rows, -1)
        high = array.reshape(-1).view(np.uint64) >> 48
        low_bytes = array.reshape(-1).view(np.uint8).reshape(-1, 8)[:, :6]
        if (high == 0).any() and not array.reshape(-1).view(np.uint64)[high == 0].any():
            want = (low_bytes[high != 0], (int(np.count_nonzero(high)),))  # the packed form
        else:
            want = (low_bytes, array.shape)
        path = tmp_path_factory.mktemp("npz") / "a.npz"
        write_npz(path, {"w": array}, {"version": 1})
        with np.load(path) as data:
            low = data["w"]
        assert (low.dtype, low.shape, low.tobytes()) == (np.dtype("V6"), want[1],
                                                         want[0].tobytes())
        got = read_npz(path, "test", 1)[1]["w"]
        assert (got.dtype, got.shape, got.tobytes()) == (np.float64, array.shape,
                                                         array.tobytes())

    def test_packed_member_spans_chunks(self, tmp_path):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(300, NPZ_CHUNK_BYTES // 8 // 100))
        w[rng.random(w.shape) < 0.6] = 0.0
        path = tmp_path / "a.npz"
        write_npz(path, {"w": w, "b": np.zeros(5)}, {"version": 1})
        with zipfile.ZipFile(path) as zf:
            assert zf.getinfo("w.npy").file_size < 0.5 * w.size * 6
        got = read_npz(path, "test", 1)[1]
        assert got["w"].tobytes() == w.tobytes() and got["b"].tobytes() == np.zeros(5).tobytes()

    @pytest.mark.parametrize("change", [1, -1])
    def test_packed_member_of_the_wrong_length_named(self, tmp_path, change):
        path = tmp_path / "a.npz"
        write_npz(path, {"w": np.arange(12.0).reshape(3, 4)}, {"version": 1})
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        assert arrays["w"].shape == (11,)  # 0.0 is the one value left out
        arrays["w"] = np.resize(arrays["w"], 11 + change)
        np.savez(path, **arrays)
        message = f"w.high is uint8 (2, 3, 4) beside w |V6 ({11 + change},)"
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: unreadable archive "
                                             rf"\({re.escape(message)}\)$"):
            read_npz(path, "test", 1)

    def test_full_low_member_with_zeros_loads(self, tmp_path):
        # the layout of every file written before zeros were left out: the low member
        # holds every value, zeros too
        rng = np.random.default_rng(5)
        w = rng.normal(size=(20, 30))
        w[rng.random(w.shape) < 0.5] = 0.0
        path = tmp_path / "a.npz"
        write_unpacked_npz(path, {"w": w, "b": np.zeros(4)}, b'{"version": 1}')
        with np.load(path) as data:
            assert data["w"].shape == w.shape
        got = read_npz(path, "test", 1)[1]
        assert got["w"].tobytes() == w.tobytes() and got["b"].tobytes() == bytes(32)

    @pytest.mark.parametrize("stream", ["w", "w.high"])
    def test_split_member_of_another_header_version_unreadable(self, tmp_path, stream):
        path = tmp_path / "a.npz"
        write_npz(path, {"w": np.arange(12.0).reshape(3, 4)}, {"version": 1})
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        for version in ((1, 0), (2, 0)):  # the same streams, one of them under another header
            with zipfile.ZipFile(path, "w") as zf:
                for name, array in arrays.items():
                    with zf.open(f"{name}.npy", "w") as fh:
                        np.lib.format.write_array(
                            fh, array, version=version if name == stream else (1, 0))
            if version == (1, 0):
                assert read_npz(path, "test", 1)[1]["w"].tobytes() == np.arange(12.0).tobytes()
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: unreadable archive "
                                             r"\(npy header version \(2, 0\), not \(1, 0\)\)$"):
            read_npz(path, "test", 1)

    def test_non_finite_value_through_the_planes_rejected(self, tmp_path):
        path = tmp_path / "a.npz"
        w = np.zeros((3, 4))
        w[1, 2] = np.nan
        write_npz(path, {"w": w}, {"version": 1})
        with np.load(path) as data:
            assert "w.high" in data.files
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: non-finite value in w$"):
            read_npz(path, "test", 1)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_non_finite_member_rejected(self, tmp_path, dtype):
        path = tmp_path / "a.npz"
        w = np.zeros((3, 4), dtype=dtype)
        write_npz(path, {"b": np.zeros(3), "w": w, "n": np.arange(3)}, {"version": 1})
        assert read_npz(path, "test", 1)[1]["w"].dtype == dtype
        w[2, 1] = np.inf
        write_npz(path, {"b": np.zeros(3), "w": w, "n": np.arange(3)}, {"version": 1})
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: non-finite value "
                                             r"in w$"):
            read_npz(path, "test", 1)

    @pytest.mark.parametrize("cut", [lambda raw: raw[:len(raw) // 2], lambda raw: b"0123456789",
                                     lambda raw: b""], ids=["halved", "junk", "empty"])
    def test_unreadable_archive_named(self, tmp_path, cut):
        path = tmp_path / "a.npz"
        write_npz(path, {"w": np.arange(5000.0)}, {"version": 1})
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: unreadable archive \("):
            read_npz(path, "test", 1)

    @pytest.mark.parametrize("member", ["w.npy", "w.high.npy"])  # stored, deflated
    def test_corrupt_member_named(self, tmp_path, member):
        path = tmp_path / "a.npz"
        write_npz(path, {"w": np.arange(5000.0)}, {"version": 1})
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo(member)
        # the middle of the member's data: past its local header, whose extra field
        # (zip64, as numpy writes it) is 20 bytes
        middle = info.header_offset + 30 + len(member) + 20 + info.compress_size // 2
        raw = bytearray(path.read_bytes())
        raw[middle:middle + 60] = b"\xff" * 60
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: unreadable archive \("):
            read_npz(path, "test", 1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_meta_refused(self, tmp_path, value):
        path = tmp_path / "a.npz"
        write_npz(path, {"w": np.zeros(2)}, {"k": 1})
        before = path.read_bytes()
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: Out of range float"):
            write_npz(path, {"w": np.ones(2)}, {"k": value})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["a.npz"]


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


def random_papers(n: int, seed: int = 0) -> list[Paper]:
    """``n`` papers of 100-200 tokens drawn from 3,000 words, a tenth with no text."""
    rng = np.random.default_rng(seed)
    pool = np.array([f"w{i}" for i in range(3000)])
    papers = []
    for i in range(n):
        if i % 10 == 3:
            papers.append(Paper(f"p{i}", "", "", []))
            continue
        body = [" ".join(rng.choice(pool, size=rng.integers(20, 40))) for _ in range(4)]
        papers.append(Paper(f"p{i}", "T " + str(i), "", [body[0], [body[1], [body[2]]],
                                                         [body[3]]]))
    return papers


class TestCountTerms:
    def test_matches_a_count_per_paper(self):
        papers = random_papers(3 * COUNT_BLOCK_PAPERS + 5)
        words, counts = count_terms(papers)
        first_seen = {}
        for paper in papers:
            for tok in paper.full_text_tokens():
                first_seen.setdefault(tok, len(first_seen))
        assert words == list(first_seen)
        assert counts.indptr.dtype == counts.indices.dtype == counts.data.dtype == np.int64
        assert (counts.n_rows, counts.n_cols) == (len(papers), len(words))
        for r, paper in enumerate(papers):
            ids, n = np.unique([first_seen[t] for t in paper.full_text_tokens()],
                               return_counts=True)
            lo, hi = counts.indptr[r], counts.indptr[r + 1]
            assert counts.indices[lo:hi].tolist() == ids.tolist()
            assert counts.data[lo:hi].tolist() == n.tolist()

    def test_empty_corpus(self):
        words, counts = count_terms([])
        assert words == [] and counts.indptr.tolist() == [0] and counts.data.size == 0

    def test_a_first_block_without_tokens(self):
        papers = [Paper(f"p{i}", "", "...", []) for i in range(COUNT_BLOCK_PAPERS)]
        words, counts = count_terms(papers + [Paper("q", "x y x", "", [])])
        assert words == ["x", "y"] and counts.indptr[-2:].tolist() == [0, 2]
        assert counts.indices.tolist() == [0, 1] and counts.data.tolist() == [2, 1]

    def test_full_text_tokens_join_the_texts(self):
        paper = Paper("p", "Title-one", "the ABSTRACT", ["Title-one the ABSTRACT",
                                                         ["first para", ["x_y"]], ["z9"]])
        assert paper.full_text_tokens() == ["title", "one", "the", "abstract", "first",
                                            "para", "x", "y", "z9"]

    def test_transient_peak_does_not_grow_with_the_corpus(self):
        def transient(papers) -> int:
            """count_terms' traced peak less the bytes it returns."""
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                result = count_terms(papers)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert held - start > 0 and result
            return peak - held

        papers = random_papers(8 * COUNT_BLOCK_PAPERS)
        count_terms(papers)  # fills the tokenizer's table
        small, big = transient(papers[:4 * COUNT_BLOCK_PAPERS]), transient(papers)
        # a corpus-wide token list, or a copy of every count, would double it
        assert big < 1.5 * small, (small, big)


class TestLoadPaperLabels:
    def test_ids_and_gold_labels_in_file_order(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl([paper_record("b", labels=["L2", 3]), paper_record(7),
                     paper_record("a", labels=[])], path)
        assert list(load_paper_labels(path).items()) == [
            ("b", frozenset({"L2", "3"})), ("7", None), ("a", frozenset())]

    @pytest.mark.parametrize("section", [
        {"subsections": [{"paragraphs": ["ok"]}, "not a section"]},
        {"subsections": [{"subsections": [{"paragraphs": ["ok", 5]}]}]},
        {"paragraphs": "one string"},
    ], ids=["section", "paragraph", "paragraphs"])
    def test_a_bad_section_fails_as_load_corpus_fails(self, tmp_path, section):
        path = tmp_path / "corpus.jsonl"
        write_jsonl([paper_record("p1"), paper_record("p2", sections=[section])], path)
        with pytest.raises(CorpusError) as want:
            load_corpus(path)
        with pytest.raises(CorpusError) as got:
            load_paper_labels(path)
        assert str(got.value) == str(want.value) and "line 2: malformed record" in str(want.value)


class TestIdTypes:
    """An id, or an entry of an id list, is a string or an int (not a bool)
    read as its decimal string; anything else fails with the file, the line
    and the field named, never coerced with ``str``."""

    @pytest.mark.parametrize("record, message", [
        (paper_record("p2") | {"id": None}, r"'id' must be a string or an int, got NoneType\)$"),
        (paper_record("p2") | {"id": ["P2"]}, r"'id' must be a string or an int, got list\)$"),
        (paper_record("p2") | {"id": True}, r"'id' must be a string or an int, got bool\)$"),
        (paper_record("p2", labels=[["L1"]]),
         r"'labels' entry must be a string or an int, got list\)$"),
        (paper_record("p2", bib_refs=[{"x": 1}]),
         r"'bib_refs' entry must be a string or an int, got dict\)$"),
        (paper_record("p2", bib_refs=[False]),
         r"'bib_refs' entry must be a string or an int, got bool\)$"),
    ], ids=["null id", "list id", "bool id", "list label", "object ref", "bool ref"])
    def test_corpus_rejected(self, tmp_path, record, message):
        with pytest.raises(CorpusError,
                           match=rf"corpus\.jsonl: line 2: malformed record \({message}"):
            load_corpus_records(tmp_path, [paper_record("p1"), record])

    @pytest.mark.parametrize("lid, kind", [(True, "bool"), (None, "NoneType"),
                                           (["L2"], "list"), (2.0, "float")])
    def test_label_id_rejected(self, tmp_path, lid, kind):
        with pytest.raises(CorpusError, match=rf"labels\.jsonl: line 2: malformed record \('id' "
                                              rf"must be a string or an int, got {kind}\)$"):
            load_label_records(tmp_path, [{"id": "L1", "names": ["graph"]},
                                          {"id": lid, "names": ["nets"]}])

    def test_ints_read_as_decimal_strings(self, tmp_path):
        paper, = load_corpus_records(tmp_path, [paper_record(12, bib_refs=[7, "P3", ""],
                                                             labels=[3, "L4"])])
        assert paper.id == "12"
        assert paper.bib_refs == frozenset({"7", "P3"})  # an empty reference is dropped
        assert paper.gold_labels == frozenset({"3", "L4"})
        label, = load_label_records(tmp_path, [{"id": 3, "names": ["graph"]}])
        assert label.id == "3"

    def test_int_and_string_spellings_are_one_id(self, tmp_path):
        with pytest.raises(CorpusError, match=r"line 2: duplicate paper id '12'"):
            load_corpus_records(tmp_path, [paper_record(12), paper_record("12")])

    def test_cli_names_the_stage(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl([paper_record("p1"), paper_record("p2", labels=[["L1"]])], corpus)
        labels = tmp_path / "labels.jsonl"
        write_jsonl([{"id": "L1", "names": ["graph"]}], labels)
        assert main(["ingest", "--corpus", str(corpus), "--labels", str(labels),
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert (f"stage ingest failed: {corpus}: line 2: malformed record ('labels' entry must "
                "be a string or an int, got list)") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
