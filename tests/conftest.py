import gc
import json

import pytest

from weaklabel.corpus import load_corpus, load_labels


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return str(path)


@pytest.fixture
def corpus_file(tmp_path):
    def make(records, name="corpus.jsonl"):
        return write_jsonl(tmp_path / name, records)
    return make


@pytest.fixture
def label_file(tmp_path):
    def make(records, name="labels.jsonl"):
        return write_jsonl(tmp_path / name, records)
    return make


def paper_record(pid, title="", abstract="", sections=None, bib_refs=(), labels=None):
    rec = {"id": pid, "title": title, "abstract": abstract,
           "sections": sections or [], "bib_refs": list(bib_refs)}
    if labels is not None:
        rec["labels"] = list(labels)
    return rec


def load_corpus_records(tmp_path, records, min_words=10):
    path = write_jsonl(tmp_path / "corpus.jsonl", records)
    return load_corpus(path, min_words)


def load_label_records(tmp_path, records):
    path = write_jsonl(tmp_path / "labels.jsonl", records)
    return load_labels(path)


def garbage_after(fn, *args, **kwargs) -> int:
    """How many objects the cyclic collector finds unreachable right after
    ``fn(*args, **kwargs)`` returns, with automatic collection off while it
    runs: 0 means the call left no reference cycle behind."""
    gc.collect()
    gc.disable()
    try:
        result = fn(*args, **kwargs)  # alive while collecting, so only true garbage counts
        return gc.collect()
    finally:
        gc.enable()
