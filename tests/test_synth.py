import pytest

from weaklabel.candidates import build_name_index, retrieve_candidates
from weaklabel.citegraph import build_graph
from weaklabel.corpus import load_corpus, load_labels, tokenize
from weaklabel.synth import SyntheticSpec, generate_synthetic, write_synthetic


SPEC = SyntheticSpec(n_papers=60, n_labels=12, labels_per_paper=3,
                     fulltext_only_fraction=1 / 3, seed=4)


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("synth")
    papers, labels, manifest = write_synthetic(
        SPEC, tmp / "corpus.jsonl", tmp / "labels.jsonl", tmp / "manifest.jsonl")
    return tmp, papers, labels, manifest


class TestGeneration:
    def test_deterministic_files(self, tmp_path):
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            write_synthetic(SyntheticSpec(n_papers=30, n_labels=8, seed=9),
                            d / "c.jsonl", d / "l.jsonl", d / "m.jsonl")
        for f in ("c.jsonl", "l.jsonl", "m.jsonl"):
            assert (tmp_path / "a" / f).read_bytes() == \
                (tmp_path / "b" / f).read_bytes()

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            generate_synthetic(SyntheticSpec(n_papers=5, n_labels=2,
                                             labels_per_paper=3))

    def test_gold_labels_match_manifest(self, generated):
        _, papers, _, manifest = generated
        for rec, m in zip(papers, manifest):
            assert sorted(rec["labels"]) == \
                sorted(m["abstract_labels"] + m["fulltext_labels"])
            assert len(m["fulltext_labels"]) == 1

    def test_paragraphs_survive_word_filter(self, generated):
        tmp, papers, _, _ = generated
        corpus = load_corpus(tmp / "corpus.jsonl")
        assert all(not p.is_empty for p in corpus)
        for paper in corpus:
            for text in paper.paragraphs:
                assert len(tokenize(text)) >= 10

    def test_abstract_names_all_retrieved(self, generated):
        tmp, _, _, manifest = generated
        corpus = load_corpus(tmp / "corpus.jsonl")
        index = build_name_index(load_labels(tmp / "labels.jsonl"))
        by_id = {p.id: p for p in corpus}
        for m in manifest:
            got = set(retrieve_candidates(by_id[m["paper_id"]], index))
            assert got == set(m["abstract_labels"])

    def test_fulltext_only_labels_never_candidates(self, generated):
        tmp, _, _, manifest = generated
        corpus = load_corpus(tmp / "corpus.jsonl")
        index = build_name_index(load_labels(tmp / "labels.jsonl"))
        by_id = {p.id: p for p in corpus}
        for m in manifest:
            got = set(retrieve_candidates(by_id[m["paper_id"]], index))
            assert not got & set(m["fulltext_labels"])
            # but they are discoverable in the body text
            full = set(retrieve_candidates(by_id[m["paper_id"]], index,
                                           full_text=True))
            assert set(m["fulltext_labels"]) <= full

    def test_citations_only_between_same_label_papers(self, generated):
        tmp, papers, _, _ = generated
        corpus = load_corpus(tmp / "corpus.jsonl")
        gold = {p["id"]: set(p["labels"]) for p in papers}
        graph = build_graph(corpus)
        assert graph.dangling_refs == 0
        for src, dsts in graph.out_edges.items():
            for dst in dsts:
                assert gold[src] & gold[dst]

    def test_synonym_labels_emitted(self, generated):
        _, _, labels, _ = generated
        assert any(len(l["names"]) > 1 for l in labels)
