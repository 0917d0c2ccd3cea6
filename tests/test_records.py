"""The declared record schemas: every input and artifact record, read through
its real reader.

Each declaration is ``{field: annotation}`` (a name ending in "?" is
optional). For each one a valid record loads unchanged, and the record
with one field changed to a value of another JSON type fails, naming the
file, the line (for a line file) and that field.
"""

import dataclasses
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaklabel import candidates, citegraph, config, corpus, encoder, pipeline, ranker, selftrain
from weaklabel.corpus import CorpusError, _resolve, tokenize, write_jsonl, write_npz

DECLARATIONS = {
    "corpus line": corpus.PAPER_FIELDS,
    "section": corpus.SECTION_FIELDS,
    "label line": corpus.LABEL_FIELDS,
    "candidates line": candidates.CANDIDATES_FIELDS,
    "scores line": ranker.SCORES_FIELDS,
    "stored candidate": ranker.CANDIDATE_FIELDS,
    "predictions line": pipeline.PREDICTIONS_FIELDS,
    "tuples line": citegraph.TUPLE_FIELDS,
    "override line": encoder.OVERRIDE_FIELDS,
    "encoder meta": encoder.META_FIELDS,
    "classifier meta": selftrain.META_FIELDS,
    "classifier node": selftrain.NODE_FIELDS,
    "config": config._FIELD_TYPES,
}


@pytest.mark.parametrize("name", DECLARATIONS)
def test_every_declared_annotation_resolves(name):
    for field, annotation in DECLARATIONS[name].items():
        assert _resolve(annotation), field


@pytest.mark.parametrize("annotation", ["string", "lst[str]", "list[str, int]", "tuple[str]",
                                        "tuple[str, int, int]", "list[list[str]]", "dict[str]",
                                        "list[...]", "int | none"])
def test_an_annotation_outside_the_grammar_raises(annotation):
    with pytest.raises(KeyError):
        _resolve(annotation)


# -- JSON values of an annotation, and values of every other JSON type -----------------

WORD = st.sampled_from(["graph", "neural", "protein", "kernel", "beam"])
SCALARS = {
    "str": st.text(max_size=6),
    "int": st.integers(-2**53, 2**53),
    "float": st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**6, 10**6),
    "bool": st.booleans(),
    "id": st.text(min_size=1, max_size=6) | st.integers(0, 10**9),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
# each JSON type, as the annotations that admit it
OTHER_TYPES = [(None, {"| None"}), (True, {"bool"}), (7, {"int", "float", "id"}),
               (2.5, {"float"}), ("x", {"str", "id"}), ([], {"list", "tuple"}),
               ({"k": 1}, {"object"})]


def values(annotation):
    """A strategy for the JSON values of ``annotation``."""
    if annotation.endswith(" | None"):
        return st.none() | values(annotation[:-len(" | None")])
    head, _, args = annotation.partition("[")
    if not args:
        return SCALARS[annotation]
    names = [name for name in args[:-1].split(", ") if name != "..."]
    if head == "tuple" and len(names) == 2 and not args.endswith("...]"):
        return st.tuples(*map(values, names)).map(list)
    return st.lists(values(names[0]), max_size=4)


def other_type(annotation):
    """A strategy for a value of a JSON type that ``annotation`` does not admit."""
    admitted = {part.split("[")[0] for part in annotation.split(" | ")}
    admitted |= {"| None"} if annotation.endswith(" | None") else set()
    return st.sampled_from([value for value, kinds in OTHER_TYPES if not kinds & admitted])


def record(fields, **given_fields):
    """A strategy for records of ``fields``, some fields from ``given_fields``, and
    maybe an undeclared key, which the readers ignore."""
    def field(name):
        return given_fields.get(name.rstrip("?"), values(fields[name]))
    return st.fixed_dictionaries(
        {name: field(name) for name in fields if not name.endswith("?")},
        optional={"undeclared": st.integers(),
                  **{name[:-1]: field(name) for name in fields if name.endswith("?")}})


# -- each reader: a valid record, where its nested records sit, and what it loads -------

SECTION = record(corpus.SECTION_FIELDS, paragraphs=st.lists(WORD, max_size=3),
                 subsections=st.just([]))
CANDIDATE = record(ranker.CANDIDATE_FIELDS)


def kept_paragraphs(rec):
    """The paragraph texts a paper record keeps at one word a paragraph, in order."""
    texts = [f"{rec.get('title', '')} {rec.get('abstract', '')}".strip()]
    for sec in rec.get("sections", []):
        texts += sec.get("paragraphs", [])
    return [text for text in texts if tokenize(text)]


def load_paper(path):
    paper, = corpus.load_corpus(path, min_paragraph_words=1)
    return paper.id, paper.title, paper.abstract, paper.bib_refs, paper.gold_labels, \
        paper.paragraphs


def expected_paper(rec):
    labels = rec.get("labels")
    return (str(rec["id"]), rec.get("title", ""), rec.get("abstract", ""),
            frozenset(str(r) for r in rec.get("bib_refs", []) if r != ""),
            None if labels is None else frozenset(map(str, labels)), kept_paragraphs(rec))


def load_label(path):
    label, = corpus.load_labels(path)
    return label.id, label.names, label.description


def load_override(path):
    (key, vec), = encoder.load_embedding_overrides(path).items()
    return key, vec.tolist()


def expected_override(rec):
    vec = np.array(rec["embedding"], dtype=np.float64)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(vec)
    if vec.any() and not 1e-150 <= norm < 1e150:  # the plain norm's squares over- or underflow
        unit = np.ldexp(vec, -np.frexp(np.abs(vec).max())[1])  # scaled by a power of 2: exact
        return str(rec["id"]), pytest.approx((unit / math.hypot(*unit)).tolist(), rel=1e-14)
    return str(rec["id"]), (vec / norm if norm > 0 else vec).tolist()


@st.composite
def encoder_meta(draw):
    meta = draw(record(encoder.META_FIELDS, version=st.just(encoder.CHECKPOINT_VERSION),
                       hash_dim=st.integers(1, 6), embed_dim=st.integers(1, 4),
                       hash_seed=st.integers(-2**63, 2**63 - 1),
                       max_tokens=st.integers(1, 300)))
    return meta


def write_encoder(path, meta):
    dims = meta["hash_dim"], meta["embed_dim"]
    if {type(d) for d in dims} != {int}:  # a mistyped meta, which fails before the shapes
        dims = 1, 1
    write_npz(path, {"proj": np.zeros(dims), "w": np.zeros(2 * dims[1])}, meta)


def load_encoder(path):
    model = encoder.load_model(path)
    return (model.hash_dim, model.embed_dim, model.featurizer.hash_seed,
            model.featurizer.max_tokens)


@st.composite
def classifier_meta(draw):
    label_ids = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=4,
                              unique=True))
    trees = draw(st.lists(st.permutations(label_ids), min_size=1, max_size=3))
    # each tree is one leaf; a leaf may carry keys of older files
    nodes = [{"labels": list(perm), "index": t} for t, perm in enumerate(trees)]
    return {"version": selftrain.CLASSIFIER_VERSION, "label_ids": label_ids,
            "n_features": draw(st.integers(1, 4)), "roots": list(range(len(trees))),
            "nodes": nodes}


def write_classifier(path, meta):
    try:
        shape = sum(len(rec["labels"]) for rec in meta["nodes"]), int(meta["n_features"])
    except (TypeError, KeyError, ValueError):  # a mistyped meta, which fails before the shapes
        shape = 1, 1
    write_npz(path, {"weights": np.zeros(shape), "biases": np.zeros(shape[0])}, meta)


def load_classifier(path):
    clf = selftrain.load_classifier(path)
    return list(clf.label_ids), clf.roots, clf.nodes


def expected_classifier(meta):
    return meta["label_ids"], meta["roots"], [{"labels": rec["labels"]} for rec in meta["nodes"]]


CONFIG_DEFAULTS = {key: list(value) if isinstance(value, tuple) else value
                   for key, value in dataclasses.asdict(config.PipelineConfig()).items()}


def write_config(path, values):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(values, fh)


def load_config(path):
    return dataclasses.asdict(config.make_config(path))


def expected_config(values):
    return dataclasses.asdict(dataclasses.replace(config.PipelineConfig(), **{
        key: tuple(value) if isinstance(value, list) else value for key, value in values.items()}))


def lines(path, rec):
    write_jsonl([rec], path)


# name: (the record strategy, {where a record of each declaration sits: its declaration},
#        write, read, expected; a line file also gets a valid first line)
READERS = {
    "corpus": (record(corpus.PAPER_FIELDS, id=st.text(min_size=1, max_size=6),
                      sections=st.lists(SECTION, min_size=1, max_size=2)),
               {"": corpus.PAPER_FIELDS, "sections": corpus.SECTION_FIELDS},
               lines, load_paper, expected_paper),
    "labels": (record(corpus.LABEL_FIELDS, id=st.text(min_size=1, max_size=6) | st.integers(0, 99),
                      names=st.lists(WORD, min_size=1, max_size=3)),
               {"": corpus.LABEL_FIELDS}, lines, load_label,
               lambda rec: (str(rec["id"]), tuple(rec["names"]), rec.get("description", ""))),
    "candidates": (record(candidates.CANDIDATES_FIELDS), {"": candidates.CANDIDATES_FIELDS},
                   lines, candidates.read_candidates,
                   lambda rec: {rec["paper_id"]: rec["candidates"]}),
    "scores": (record(ranker.SCORES_FIELDS, candidates=st.lists(CANDIDATE, min_size=1,
                                                                max_size=3)),
               {"": ranker.SCORES_FIELDS, "candidates": ranker.CANDIDATE_FIELDS},
               lines, lambda path: {pid: [vars(c) for c in rows] for pid, rows in
                                    ranker.read_scores(path).items()},
               lambda rec: {rec["paper_id"]: [{key: c[key] for key in ranker.CANDIDATE_FIELDS}
                                              for c in rec["candidates"]]}),
    "predictions": (record(pipeline.PREDICTIONS_FIELDS), {"": pipeline.PREDICTIONS_FIELDS},
                    lines, pipeline.read_predictions,
                    lambda rec: {rec["paper_id"]: rec["ranking"]}),
    "tuples": (record(citegraph.TUPLE_FIELDS), {"": citegraph.TUPLE_FIELDS}, lines,
               citegraph.read_tuples, lambda rec: [citegraph.ContrastiveTuple(
                   *(tuple(rec[key]) for key in citegraph.TUPLE_FIELDS))]),
    "overrides": (record(encoder.OVERRIDE_FIELDS, embedding=st.lists(
                      st.floats(-1e3, 1e3) | st.integers(-10**3, 10**3), min_size=1, max_size=4)),
                  {"": encoder.OVERRIDE_FIELDS}, lines, load_override, expected_override),
    "encoder.npz": (encoder_meta(), {"": encoder.META_FIELDS}, write_encoder, load_encoder,
                    lambda meta: (meta["hash_dim"], meta["embed_dim"], meta["hash_seed"],
                                  meta["max_tokens"])),
    "classifier.npz": (classifier_meta(),
                       {"": selftrain.META_FIELDS, "nodes": selftrain.NODE_FIELDS},
                       write_classifier, load_classifier, expected_classifier),
    "config": (st.builds(lambda keys, seed: {**{key: CONFIG_DEFAULTS[key] for key in keys},
                                             "seed": seed},
                         st.sets(st.sampled_from(sorted(CONFIG_DEFAULTS)), max_size=6),
                         st.integers(-2**63, 2**63 - 1)),
               {"": config._FIELD_TYPES}, write_config, load_config, expected_config),
}
LINE_FILES = {"corpus", "labels", "candidates", "scores", "predictions", "tuples", "overrides"}


def test_every_declaration_has_a_reader():
    covered = [fields for _, where, *_ in READERS.values() for fields in where.values()]
    assert all(any(fields is seen for seen in covered) for fields in DECLARATIONS.values())


def read_back(name, records):
    """``read(path)`` after writing ``records``: one, or for a line file a valid first
    line and then the second."""
    _, _, write, read, _ = READERS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name if "." in name else f"{name}.jsonl")
        if name in LINE_FILES and len(records) == 2:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(json.dumps(rec) for rec in records) + "\n")
        else:
            write(path, records[-1])
        return read(path), path


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_valid_record_loads_unchanged(name, data):
    strategy, _, _, _, expected = READERS[name]
    rec = data.draw(strategy)
    assert read_back(name, [rec])[0] == expected(rec)


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_field_of_another_json_type_is_named(name, data):
    strategy, where, _, _, _ = READERS[name]
    first, rec = data.draw(strategy), data.draw(strategy)
    place = data.draw(st.sampled_from([place for place in sorted(where)
                                        if not place or rec.get(place)]))
    target = rec[place][0] if place else rec  # the first nested record sits there
    field = data.draw(st.sampled_from(sorted(where[place])))
    key, annotation = field.rstrip("?"), where[place][field].removesuffix(" | None")
    entries = [e for e in annotation.partition("[")[2][:-1].split(", ") if e != "..."]
    if isinstance(target.get(key), list) and target[key] and data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(target[key]) - 1))  # one entry of another type
        target[key][at] = data.draw(other_type(entries[at if len(entries) == 2 else 0]))
    else:
        target[key] = data.draw(other_type(where[place][field]))
    error = (ValueError, config.ConfigError) if name == "config" else ValueError
    with pytest.raises(error) as failure:
        read_back(name, [first, rec])
    message = str(failure.value)
    assert f"'{key}'" in message or key == "version" and " version " in message, message
    path_named = message.split(": ")[0]
    assert os.path.basename(path_named).startswith(name.split(".")[0]), message
    if name in LINE_FILES:
        assert isinstance(failure.value, CorpusError) and ": line 2: " in message, message


@pytest.mark.parametrize("name, line, problem", [
    ("scores", '{"paper_id": "p", "candidates": [{"label_id": "L", "score_b": 1e999, '
               '"score_x": 0.5, "rank_b": 1, "rank_x": 1, "mrr": 2.0}]}',
     "'score_b' must be a finite number, got float"),
    ("predictions", '{"paper_id": "p", "ranking": ["L"], "top_k_scores": [0.5, -1e999]}',
     "'top_k_scores' entry must be a finite number, got float"),
    ("overrides", '{"id": "L", "embedding": [1, 1e999]}',
     "'embedding' entry must be a finite number, got float"),
    ("overrides", "L\t1 inf", "'embedding' entry must be a finite number, got float"),
])
def test_a_float_literal_too_large_for_a_float_is_named(tmp_path, name, line, problem):
    # JSON reads 1e999 as an infinity, which no parse_constant hook sees
    path = tmp_path / f"{name}.jsonl"
    path.write_text(line + "\n")
    read = READERS[name][3]
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: line 1: malformed record "
                                          f"\\({re.escape(problem)}\\)$"):
        read(path)
