"""Corpus ingestion: documents, in-document hierarchy trees, labels, vocabulary.

The corpus file is JSON Lines, one document per line:

    {"id": ..., "title": ..., "abstract": ...,
     "sections": [{"name": ..., "paragraphs": [...], "subsections": [...]}],
     "bib_refs": [...], "labels": [...]}

The label file is JSON Lines with ``id``, ``names`` (non-empty array,
first entry canonical) and ``description``.
"""

from __future__ import annotations

import json
import logging
import os
import re
import zipfile
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

DEFAULT_MIN_PARAGRAPH_WORDS = 10
DEFAULT_MIN_DF = 5
NPZ_CHUNK_BYTES = 1 << 20  # most bytes handed to zlib at once, which bounds its output

# Lowercase, then split on anything that is not a Unicode letter or digit.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


class CorpusError(ValueError):
    """Raised on malformed corpus or label files."""


def tokenize(text: str) -> list[str]:
    """Deterministic tokenization: lowercase, alphanumeric runs only."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(eq=False)
class HierarchyNode:
    """One node of a document's section/paragraph tree.

    ``children`` is empty iff ``kind == "paragraph"``; ``text`` is nonempty
    only on paragraph leaves.
    """

    kind: str  # "paper" | "section" | "subsection" | "paragraph"
    children: list["HierarchyNode"] = field(default_factory=list)
    text: str = ""
    is_abstract: bool = False

    def iter_paragraphs(self):
        """Yield paragraph leaves in document order."""
        stack = [self]
        out = []
        while stack:
            node = stack.pop()
            if node.kind == "paragraph":
                out.append(node)
            else:
                stack.extend(reversed(node.children))
        return iter(out)


@dataclass(eq=False)
class Paper:
    """A document with its title/abstract, hierarchy tree and references."""

    id: str
    title: str
    abstract: str
    hierarchy: HierarchyNode
    bib_refs: frozenset[str] = frozenset()
    gold_labels: frozenset[str] | None = None

    def __post_init__(self):
        self._paragraphs = list(self.hierarchy.iter_paragraphs())

    @property
    def paragraphs(self) -> list[HierarchyNode]:
        """All paragraph leaves, the title+abstract group included."""
        return self._paragraphs

    @property
    def is_empty(self) -> bool:
        return not self._paragraphs

    @property
    def title_abstract(self) -> str:
        return f"{self.title} {self.abstract}".strip()

    def full_text_tokens(self) -> list[str]:
        """Tokens of title + abstract + every body paragraph."""
        toks = tokenize(self.title) + tokenize(self.abstract)
        for leaf in self._paragraphs:
            if not leaf.is_abstract:
                toks.extend(tokenize(leaf.text))
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


def _build_section_node(sec: dict, min_words: int, kind: str) -> HierarchyNode | None:
    if not isinstance(sec, dict):  # kind names the list the entry came from
        raise CorpusError(f"'{kind}s' entries must be objects, got {type(sec).__name__}")
    node = HierarchyNode(kind=kind)
    for para in _checked("paragraphs", sec.get("paragraphs", []), list):
        if not isinstance(para, str):
            raise CorpusError("paragraph entries must be strings")
        if len(tokenize(para)) >= min_words:
            node.children.append(HierarchyNode(kind="paragraph", text=para))
    for sub in _checked("subsections", sec.get("subsections", []), list):
        child = _build_section_node(sub, min_words, kind="subsection")
        if child is not None:
            node.children.append(child)
    # prune internal nodes left childless by the paragraph filter
    if not node.children:
        return None
    return node


def _build_paper(record: dict, min_words: int) -> Paper:
    pid = record["id"]
    title = _checked("title", record.get("title", ""), str)
    abstract = _checked("abstract", record.get("abstract", ""), str)
    root = HierarchyNode(kind="paper")

    # The title+abstract group sits directly under the root so that
    # bottom-up aggregation sees it as one child of the whole document.
    ta_text = f"{title} {abstract}".strip()
    if len(tokenize(ta_text)) >= min_words:
        root.children.append(
            HierarchyNode(kind="paragraph", text=ta_text, is_abstract=True)
        )

    for sec in _checked("sections", record.get("sections", []), list):
        node = _build_section_node(sec, min_words, kind="section")
        if node is not None:
            root.children.append(node)

    bib_refs = _checked("bib_refs", record.get("bib_refs", []), list)
    labels = record.get("labels")
    if labels is not None:
        _checked("labels", labels, list)
    return Paper(
        id=pid,
        title=title,
        abstract=abstract,
        hierarchy=root,
        bib_refs=frozenset(str(r) for r in bib_refs if str(r) != ""),
        gold_labels=frozenset(str(l) for l in labels) if labels is not None else None,
    )


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file beside ``path`` (``mode`` "w" for UTF-8 text or
    "wb") and move it onto ``path`` once the block completes.

    If the block raises, the temporary file is removed and an earlier file
    at ``path`` is left as it was, so no reader sees a truncated artifact.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_npz(path, members: dict[str, list[np.ndarray]], compress: bool):
    """Write an ``.npz`` archive atomically (``atomic_write``), byte for
    byte as ``np.savez_compressed`` (``compress``) or ``np.savez`` writes
    it, without joining any member into one array.

    Each member is the row-wise concatenation of its blocks, which share a
    dtype and trailing shape. Every block goes to the zip stream from its
    own memory, so the only transient is zlib's output for one chunk.
    """
    method = zipfile.ZIP_DEFLATED if compress else zipfile.ZIP_STORED
    with atomic_write(path, "wb") as fh, zipfile.ZipFile(fh, "w", method) as zf:
        for name, blocks in members.items():
            dtype, tail = blocks[0].dtype, blocks[0].shape[1:]
            if any(b.dtype != dtype or b.shape[1:] != tail for b in blocks):
                raise ValueError(f"npz member {name!r}: blocks differ in dtype or row shape")
            header = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False,
                      "shape": (sum(len(b) for b in blocks),) + tail}
            with zf.open(f"{name}.npy", "w", force_zip64=True) as out:  # as numpy does
                np.lib.format.write_array_header_1_0(out, header)
                for block in blocks:
                    data = block.ravel().view(np.uint8)  # a copy only if block is strided
                    for lo in range(0, data.size, NPZ_CHUNK_BYTES):
                        out.write(data[lo:lo + NPZ_CHUNK_BYTES])


def write_jsonl(records, path):
    """Write each record as one line of JSON, atomically (``atomic_write``)."""
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def read_jsonl(path):
    """Yield the record on each nonblank line, one at a time."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def load_corpus(path, min_paragraph_words: int = DEFAULT_MIN_PARAGRAPH_WORDS) -> list[Paper]:
    """Load a JSON Lines corpus, dropping paragraphs under the word threshold.

    Documents whose every paragraph is filtered out are retained and flagged
    empty (``Paper.is_empty``); they still carry their title and abstract.
    """
    if min_paragraph_words < 1:
        raise ValueError("min_paragraph_words must be positive")
    papers: list[Paper] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or "id" not in record or not str(record["id"]):
                    raise CorpusError("record must be an object with a nonempty 'id'")
                record["id"] = str(record["id"])
                paper = _build_paper(record, min_paragraph_words)
            except CorpusError as exc:
                raise CorpusError(f"{path}: line {lineno}: {exc}") from None
            except (json.JSONDecodeError, TypeError, KeyError, AttributeError) as exc:
                raise CorpusError(f"{path}: line {lineno}: malformed record ({exc})") from None
            if paper.id in seen:
                raise CorpusError(f"{path}: line {lineno}: duplicate paper id {paper.id!r}")
            seen.add(paper.id)
            papers.append(paper)
    n_empty = sum(p.is_empty for p in papers)
    if n_empty:
        log.warning("%d of %d papers have no surviving paragraphs", n_empty, len(papers))
    return papers


def load_labels(path) -> list[Label]:
    """Load the label space from a JSON Lines file."""
    labels: list[Label] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                lid = str(record["id"])
                names = tuple(str(n) for n in _checked("names", record["names"], list))
                desc = str(record.get("description", ""))
            except CorpusError as exc:
                raise CorpusError(f"{path}: line {lineno}: {exc}") from None
            except (json.JSONDecodeError, TypeError, KeyError) as exc:
                raise CorpusError(f"{path}: line {lineno}: malformed record ({exc})") from None
            if not lid:
                raise CorpusError(f"{path}: line {lineno}: empty label id")
            if lid in seen:
                raise CorpusError(f"{path}: line {lineno}: duplicate label id {lid!r}")
            if not names:
                raise CorpusError(f"{path}: line {lineno}: label {lid!r} has zero names")
            for name in names:
                if not tokenize(name):
                    raise CorpusError(
                        f"{path}: line {lineno}: label {lid!r} name {name!r} "
                        "normalizes to the empty sequence"
                    )
            seen.add(lid)
            labels.append(Label(id=lid, names=names, description=desc))
    if not labels:
        log.warning("label file %s is empty", path)
    return labels


@dataclass
class TermCounts:
    """Each paper's full-text term counts over one word table.

    Paper ``i`` holds the term ids ``ids[indptr[i]:indptr[i + 1]]``
    (ascending, each once), occurring ``counts[...]`` times; ``words[t]``
    is the word of id ``t``, ids numbered in order of first occurrence.
    """

    words: list[str]
    ids: np.ndarray
    counts: np.ndarray
    indptr: np.ndarray

    @property
    def n_docs(self) -> int:
        return self.indptr.size - 1


def count_terms(corpus: list[Paper]) -> TermCounts:
    """Tokenize each paper's full text once and count its terms."""
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
    return TermCounts(words=list(table),
                      ids=np.concatenate(ids) if ids else np.empty(0, dtype=np.int64),
                      counts=np.concatenate(counts) if counts else np.empty(0, dtype=np.int64),
                      indptr=np.array(indptr, dtype=np.int64))


def vocabulary_from_terms(terms: TermCounts, min_df: int) -> Vocabulary:
    """Index every word of ``terms`` appearing in at least ``min_df`` documents."""
    if not terms.n_docs:
        raise ValueError("cannot build a vocabulary over an empty corpus")
    if min_df < 1:
        raise ValueError("min_df must be positive")
    df = np.bincount(terms.ids, minlength=len(terms.words))
    kept = sorted((terms.words[t], t) for t in np.flatnonzero(df >= min_df).tolist())
    if not kept:
        log.warning("vocabulary is empty at min_df=%d", min_df)
    return Vocabulary(word_index={w: i for i, (w, _) in enumerate(kept)},
                      doc_freq=df[[t for _, t in kept]].astype(np.int64),
                      n_docs=terms.n_docs)


def build_vocabulary(corpus: list[Paper], min_df: int = DEFAULT_MIN_DF) -> Vocabulary:
    """Index every word appearing in at least ``min_df`` documents."""
    return vocabulary_from_terms(count_terms(corpus), min_df)


def corpus_stats(corpus: list[Paper], terms: TermCounts | None = None) -> dict:
    """Aggregate statistics reported after loading; ``terms`` are the
    corpus's term counts, counted here when not given."""
    n = len(corpus)
    n_paragraphs = sum(len(p.paragraphs) for p in corpus)
    n_words = int((count_terms(corpus) if terms is None else terms).counts.sum())
    return {
        "n_papers": n,
        "n_paragraphs": n_paragraphs,
        "paragraphs_per_paper": n_paragraphs / n if n else 0.0,
        "words_per_paper": n_words / n if n else 0.0,
        "n_empty_papers": sum(p.is_empty for p in corpus),
    }
