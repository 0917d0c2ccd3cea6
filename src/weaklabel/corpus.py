"""Corpus ingestion: documents, their section hierarchies, labels, vocabulary.

The corpus file is JSON Lines, one document per line:

    {"id": ..., "title": ..., "abstract": ...,
     "sections": [{"name": ..., "paragraphs": [...], "subsections": [...]}],
     "bib_refs": [...], "labels": [...]}

The label file is JSON Lines with ``id``, ``names`` (non-empty array of
strings, first entry canonical) and an optional string ``description``.
"""

from __future__ import annotations

import json
import logging
import os
import re
import zipfile
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .kernels import CsrMatrix

log = logging.getLogger(__name__)

DEFAULT_MIN_PARAGRAPH_WORDS = 10
DEFAULT_MIN_DF = 5
NPZ_CHUNK_BYTES = 1 << 20  # most bytes handed to zlib at once, which bounds its output

# Lowercase, then split on anything that is not a Unicode letter or digit.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def _no_constant(name: str):
    raise ValueError(f"non-finite number {name}")


_JSON = json.JSONDecoder(parse_constant=_no_constant)  # every line file's and .npz meta's parser


class CorpusError(ValueError):
    """Raised on malformed corpus or label files."""


def tokenize(text: str) -> list[str]:
    """Deterministic tokenization: lowercase, alphanumeric runs only."""
    return _TOKEN_RE.findall(text.lower())


def _flatten(hierarchy: list) -> list[str]:
    """The paragraph texts of a document hierarchy in document order (preorder)."""
    out, stack = [], [hierarchy]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        else:
            stack.extend(reversed(node))
    return out


@dataclass(eq=False)
class Paper:
    """A document with its title/abstract, hierarchy and references.

    ``hierarchy`` is nested lists: a paragraph is its text, and a section,
    or the whole document, is the list of its children in order. The
    title+abstract group, when the word filter keeps it, is the one text
    directly in the document's list. ``paragraphs`` holds every paragraph
    text in document order, that group included.
    """

    id: str
    title: str
    abstract: str
    hierarchy: list
    bib_refs: frozenset[str] = frozenset()
    gold_labels: frozenset[str] | None = None

    def __post_init__(self):
        self.paragraphs = _flatten(self.hierarchy)

    @property
    def is_empty(self) -> bool:
        return not self.paragraphs

    @property
    def title_abstract(self) -> str:
        return f"{self.title} {self.abstract}".strip()

    def full_text_tokens(self) -> list[str]:
        """Tokens of title + abstract + every body paragraph."""
        toks = tokenize(self.title) + tokenize(self.abstract)
        for text in _flatten([node for node in self.hierarchy if not isinstance(node, str)]):
            toks.extend(tokenize(text))
        return toks


@dataclass(frozen=True)
class Label:
    """A label with one or more names (first canonical) and a description."""

    id: str
    names: tuple[str, ...]
    description: str

    @property
    def text(self) -> str:
        """Canonical name followed by the description."""
        return f"{self.names[0]} {self.description}".strip()

    def name_token_sequences(self) -> list[tuple[str, ...]]:
        return [tuple(tokenize(name)) for name in self.names]


@dataclass
class Vocabulary:
    """Retained words with stable indices and document frequencies."""

    word_index: dict[str, int]
    doc_freq: np.ndarray  # aligned with word_index values
    n_docs: int

    def __len__(self) -> int:
        return len(self.word_index)


def _checked(key: str, value, kind: type):
    """Return ``value`` if it is a ``kind`` (list or str), else raise naming ``key``."""
    if not isinstance(value, kind):
        raise CorpusError(f"{key!r} must be a {'list' if kind is list else 'string'}, "
                          f"got {type(value).__name__}")
    return value


def str_list(key: str, value) -> list:
    """``value`` if it is a list of strings, else raise TypeError naming
    ``key`` (``read_jsonl`` reports it as a malformed record)."""
    if type(value) is not list:
        raise TypeError(f"{key!r} must be a list, got {type(value).__name__}")
    other = set(map(type, value)) - {str}
    if other:
        raise TypeError(f"{key!r} entries must be strings, got "
                        f"{', '.join(sorted(t.__name__ for t in other))}")
    return value


def as_id(value, what: str) -> str:
    """``value`` as an id: a string, or an int (not a bool) read as its
    decimal string; anything else raises CorpusError naming ``what``."""
    if isinstance(value, str):
        return value
    if type(value) is not int:  # a bool is an int too
        raise CorpusError(f"{what} must be a string or an int, got {type(value).__name__}")
    return str(value)


def _build_section_node(sec: dict, min_words: int, kind: str) -> list:
    """The section ``sec`` as the list of its kept paragraphs and sections;
    an empty list when the word filter keeps nothing under it (pruned)."""
    if not isinstance(sec, dict):  # kind names the list the entry came from
        raise CorpusError(f"'{kind}s' entries must be objects, got {type(sec).__name__}")
    node = []
    for para in _checked("paragraphs", sec.get("paragraphs", []), list):
        if not isinstance(para, str):
            raise CorpusError("paragraph entries must be strings")
        if len(tokenize(para)) >= min_words:
            node.append(para)
    for sub in _checked("subsections", sec.get("subsections", []), list):
        child = _build_section_node(sub, min_words, kind="subsection")
        if child:
            node.append(child)
    return node


def _build_paper(record: dict, min_words: int) -> Paper:
    pid = as_id(record["id"], "'id'")
    title = _checked("title", record.get("title", ""), str)
    abstract = _checked("abstract", record.get("abstract", ""), str)

    # The title+abstract group sits directly under the root so that
    # bottom-up aggregation sees it as one child of the whole document.
    ta_text = f"{title} {abstract}".strip()
    root = [ta_text] if len(tokenize(ta_text)) >= min_words else []
    for sec in _checked("sections", record.get("sections", []), list):
        node = _build_section_node(sec, min_words, kind="section")
        if node:
            root.append(node)

    bib_refs = [as_id(r, "'bib_refs' entry")
                for r in _checked("bib_refs", record.get("bib_refs", []), list)]
    labels = record.get("labels")
    if labels is not None:
        labels = frozenset(as_id(l, "'labels' entry") for l in _checked("labels", labels, list))
    return Paper(
        id=pid,
        title=title,
        abstract=abstract,
        hierarchy=root,
        bib_refs=frozenset(r for r in bib_refs if r),
        gold_labels=labels,
    )


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file beside ``path`` (``mode`` "w" for UTF-8 text or
    "wb"), creating its directory if needed, and move it onto ``path`` once
    the block completes.

    If the block raises, the temporary file is removed and an earlier file
    at ``path`` is left as it was, so no reader sees a truncated artifact;
    a plain ValueError (say, a NaN the JSON encoder refuses) is raised naming ``path``.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    os.makedirs(os.path.dirname(os.path.abspath(tmp)), exist_ok=True)
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if type(exc) is ValueError:
            raise ValueError(f"{path}: {exc}") from None
        raise


def write_npz(path, members: dict[str, np.ndarray], meta: dict, compress: bool):
    """Write an ``.npz`` archive of ``members`` and, last, a ``meta`` member
    holding ``meta`` as JSON, atomically (``atomic_write``), byte for byte
    as ``np.savez_compressed`` (``compress``) or ``np.savez`` writes it for
    arrays not in Fortran order.

    Each member goes to the zip stream from its own memory (a copy only if
    it is strided), at most NPZ_CHUNK_BYTES at a time, so the only
    transient is zlib's output for one chunk.
    """
    method = zipfile.ZIP_DEFLATED if compress else zipfile.ZIP_STORED
    with atomic_write(path, "wb") as fh, zipfile.ZipFile(fh, "w", method) as zf:
        raw = json.dumps(meta, allow_nan=False).encode("utf-8")
        for name, array in {**members, "meta": np.frombuffer(raw, dtype=np.uint8)}.items():
            header = {"descr": np.lib.format.dtype_to_descr(array.dtype),
                      "fortran_order": False, "shape": array.shape}
            with zf.open(f"{name}.npy", "w", force_zip64=True) as out:  # as numpy does
                np.lib.format.write_array_header_1_0(out, header)
                data = array.ravel().view(np.uint8)
                for lo in range(0, data.size, NPZ_CHUNK_BYTES):
                    out.write(data[lo:lo + NPZ_CHUNK_BYTES])


def read_npz(path, kind: str, version: int,
             ints: tuple[str, ...] = ()) -> tuple[dict, dict[str, np.ndarray]]:
    """The decoded JSON ``meta`` member of an ``.npz`` archive, and its other
    members. A meta that is not an object of version ``version`` (of the
    file ``kind``) with ints at its ``ints`` keys, or a float member
    holding a NaN or an infinity, raises ValueError("<path>: ...")."""
    with np.load(path) as data:
        members = {name: data[name] for name in data.files}
    try:
        meta = _JSON.decode(bytes(members.pop("meta")).decode("utf-8"))
    except (KeyError, ValueError) as exc:  # ValueError covers bad UTF-8 and bad JSON
        raise ValueError(f"{path}: unreadable meta ({exc})") from None
    if not isinstance(meta, dict):
        problem = f"meta is a JSON {type(meta).__name__}, not an object"
    elif meta.get("version") != version:
        problem = f"{kind} version {meta.get('version')!r} is not {version}"
    else:
        problem = next((f"meta key {key!r} is missing or not an int" for key in ints
                        if type(meta.get(key)) is not int), None)
    problem = problem or next((f"non-finite value in {name}" for name, a in members.items()
                               if a.dtype.kind == "f" and not np.isfinite(a).all()), None)
    if problem:
        raise ValueError(f"{path}: {problem}")
    return meta, members


def write_jsonl(records, path):
    """Write each record as one line of JSON, atomically (``atomic_write``)."""
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec, allow_nan=False) + "\n")


def read_jsonl(path, build=None, parse=_JSON.decode):
    """Yield the record on each nonblank line, one at a time, or
    ``build(record)`` when ``build`` is given; ``parse`` turns a line into
    its record.

    A line that ``parse`` fails on, or whose record ``build`` rejects or
    nests too deeply to decode, raises CorpusError naming the file and the
    line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = parse(line)
                if build is not None:
                    record = build(record)
            except CorpusError as exc:
                raise CorpusError(f"{path}: line {lineno}: {exc}") from None
            except KeyError as exc:
                raise CorpusError(f"{path}: line {lineno}: malformed record "
                                  f"(missing field {exc})") from None
            except (ValueError, TypeError, IndexError, AttributeError, OverflowError) as exc:
                raise CorpusError(f"{path}: line {lineno}: malformed record ({exc})") from None
            except RecursionError:  # from the JSON decoder or a nested build
                raise CorpusError(f"{path}: line {lineno}: malformed record "
                                  "(nested too deeply)") from None
            yield record


def read_keyed(path, build, what: str, parse=_JSON.decode) -> dict:
    """``dict(read_jsonl(path, build, parse))`` for a ``build`` returning
    ``(key, value)``; a key that an earlier line gave fails its line as a
    duplicate ``what``."""
    out: dict = {}

    def entry(record):
        key, value = build(record)
        if key in out:
            raise CorpusError(f"duplicate {what} {key!r}")
        return key, value

    for key, value in read_jsonl(path, entry, parse):
        out[key] = value
    return out


def read_by_paper(path, build) -> dict:
    """``{record["paper_id"]: build(record)}`` over a JSON Lines artifact;
    a non-string or repeated id fails like any malformed line."""
    return read_keyed(path, lambda rec: (_checked("paper_id", rec["paper_id"], str),
                                         build(rec)), "paper id")


def load_corpus(path, min_paragraph_words: int = DEFAULT_MIN_PARAGRAPH_WORDS) -> list[Paper]:
    """Load a JSON Lines corpus, dropping paragraphs under the word threshold.

    Documents whose every paragraph is filtered out are retained and flagged
    empty (``Paper.is_empty``); they still carry their title and abstract.
    """
    if min_paragraph_words < 1:
        raise ValueError("min_paragraph_words must be positive")

    def build(record: dict) -> tuple[str, Paper]:
        if not isinstance(record, dict) or record.get("id", "") == "":
            raise CorpusError("record must be an object with a nonempty 'id'")
        paper = _build_paper(record, min_paragraph_words)
        return paper.id, paper

    papers = list(read_keyed(path, build, "paper id").values())
    n_empty = sum(p.is_empty for p in papers)
    if n_empty:
        log.warning("%d of %d papers have no surviving paragraphs", n_empty, len(papers))
    return papers


def load_labels(path) -> list[Label]:
    """Load the label space from a JSON Lines file."""
    def build(record: dict) -> tuple[str, Label]:
        lid = as_id(record["id"], "'id'")
        names = tuple(_checked("names", record["names"], list))
        desc = _checked("description", record.get("description", ""), str)
        if not lid:
            raise CorpusError("empty label id")
        if not names:
            raise CorpusError(f"label {lid!r} has zero names")
        for name in names:
            if not isinstance(name, str):
                raise CorpusError(f"'names' entries must be strings, got {type(name).__name__}")
            if not tokenize(name):
                raise CorpusError(f"label {lid!r} name {name!r} normalizes to the empty sequence")
        return lid, Label(id=lid, names=names, description=desc)

    labels = list(read_keyed(path, build, "label id").values())
    if not labels:
        log.warning("label file %s is empty", path)
    return labels


def count_terms(corpus: list[Paper]) -> tuple[list[str], CsrMatrix]:
    """Tokenize each paper's full text once and count its terms: the word
    table (ids in order of first occurrence) and a papers x ids count matrix."""
    table: defaultdict[str, int] = defaultdict()
    table.default_factory = table.__len__  # a new word gets the next id
    ids, counts, indptr = [], [], [0]
    for paper in corpus:
        toks = paper.full_text_tokens()
        u, c = np.unique(np.fromiter(map(table.__getitem__, toks), dtype=np.int64,
                                     count=len(toks)), return_counts=True)
        ids.append(u)
        counts.append(c)
        indptr.append(indptr[-1] + u.size)
    return list(table), CsrMatrix(
        data=np.concatenate(counts) if counts else np.empty(0, dtype=np.int64),
        indices=np.concatenate(ids) if ids else np.empty(0, dtype=np.int64),
        indptr=np.array(indptr, dtype=np.int64), n_rows=len(corpus), n_cols=len(table))


def vocabulary_from_terms(terms: tuple[list[str], CsrMatrix], min_df: int) -> Vocabulary:
    """Index every word of ``terms`` appearing in at least ``min_df`` documents."""
    words, counts = terms
    if not counts.n_rows:
        raise ValueError("cannot build a vocabulary over an empty corpus")
    if min_df < 1:
        raise ValueError("min_df must be positive")
    df = np.bincount(counts.indices, minlength=len(words))
    kept = sorted((words[t], t) for t in np.flatnonzero(df >= min_df).tolist())
    if not kept:
        log.warning("vocabulary is empty at min_df=%d", min_df)
    return Vocabulary(word_index={w: i for i, (w, _) in enumerate(kept)},
                      doc_freq=df[[t for _, t in kept]].astype(np.int64),
                      n_docs=counts.n_rows)


def build_vocabulary(corpus: list[Paper], min_df: int = DEFAULT_MIN_DF) -> Vocabulary:
    """Index every word appearing in at least ``min_df`` documents."""
    return vocabulary_from_terms(count_terms(corpus), min_df)


def corpus_stats(corpus: list[Paper], terms: tuple[list[str], CsrMatrix]) -> dict:
    """Aggregate statistics reported after loading; ``terms`` are the
    corpus's term counts (``count_terms``)."""
    n = len(corpus)
    n_paragraphs = sum(len(p.paragraphs) for p in corpus)
    n_words = int(terms[1].data.sum())
    return {
        "n_papers": n,
        "n_paragraphs": n_paragraphs,
        "paragraphs_per_paper": n_paragraphs / n if n else 0.0,
        "words_per_paper": n_words / n if n else 0.0,
        "n_empty_papers": sum(p.is_empty for p in corpus),
    }
