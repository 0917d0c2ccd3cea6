"""Corpus ingestion: documents, their section hierarchies, labels, vocabulary.

The corpus and label files are JSON Lines, one record of PAPER_FIELDS or
LABEL_FIELDS a line; a section is an object of SECTION_FIELDS. Each
declares its fields as ``{name: annotation}``, a name ending in "?" optional.
A token is a lowercase run of characters for which ``str.isalnum()`` holds
(``tokenize``). Both corpus loaders read each record through one checked walk,
``_read_paper``: ``load_corpus`` keeps the texts of ``min_paragraph_words`` or
more tokens and builds each hierarchy; ``load_paper_labels`` keeps no text, so
it tokenizes nothing and returns only the ids and gold labels.
"""

from __future__ import annotations

import json
import logging
import math
import os
import zipfile
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

import numpy as np

from .kernels import CsrMatrix

log = logging.getLogger(__name__)

DEFAULT_MIN_PARAGRAPH_WORDS = 10
DEFAULT_MIN_DF = 5
NPZ_CHUNK_BYTES = 1 << 20  # most bytes handed to zlib at once, which bounds its output
NPZ_LEVEL = 1  # zlib level of every deflated .npz member: level 6 took 2-4x as long
_HIGH = ".high"  # the suffix of a float64 member's two high byte planes (write_npz)
_FLOAT, _LOW = np.dtype("<f8"), np.dtype("V6")  # a split member, its low six bytes
_CHUNK_VALUES = NPZ_CHUNK_BYTES // 8  # the values of a split member written or read at once
# a float64's bits from its high word's lowest bit up, and those below it (its low six bytes)
_HIGH_ONE, _LOW_BITS = 1 << 48, np.uint64(2 ** 48 - 1)

# papers whose tokens count_terms holds at once; the block's token list, not
# the corpus's, bounds its transient memory
COUNT_BLOCK_PAPERS = 64
# sections nest at most this deep (a top-level section is 1), so a line's JSON decoding and
# the hierarchy walks stay far inside Python's recursion limit at any caller's stack depth
MAX_SECTION_DEPTH = 64
_KEEP_NONE = frozenset().__contains__  # load_paper_labels' keep: no text, no Python call per text


def _no_constant(name: str):
    raise ValueError(f"non-finite number {name}")


_JSON = json.JSONDecoder(parse_constant=_no_constant)  # every line file's and .npz meta's parser


class CorpusError(ValueError):
    """Raised on malformed corpus or label files."""


class _Split(dict):
    """``str.translate``'s table for tokenize: a code point ``c`` maps to
    itself when ``chr(c).isalnum()``, else to a space; each entry is made on
    first use and kept."""

    def __missing__(self, c: int):
        self[c] = out = c if chr(c).isalnum() else " "
        return out


_SPLIT = _Split()


def tokenize(text: str) -> list[str]:
    """The lowercased text's maximal runs of characters with ``str.isalnum()``:
    the runs of the regex ``[^\\W_]+``, since in Unicode mode its word class
    is exactly ``isalnum()`` or "_"."""
    return text.lower().translate(_SPLIT).split()


def _flatten(hierarchy: list) -> list[str]:
    """The paragraph texts of a document hierarchy in document order (preorder)."""
    return [text for node in hierarchy
            for text in ([node] if isinstance(node, str) else _flatten(node))]


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
        """Tokens of title + abstract + every body paragraph, from one
        tokenize call: a space ends a token, so joining the texts by one
        gives the tokens of each text in turn."""
        body = _flatten([node for node in self.hierarchy if not isinstance(node, str)])
        return tokenize(" ".join([self.title, self.abstract, *body]))


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


PAPER_FIELDS = {"id": "id", "title?": "str", "abstract?": "str", "sections?": "list[object]",
                "bib_refs?": "list[id]", "labels?": "list[id] | None"}
SECTION_FIELDS = {"paragraphs?": "list[str]", "subsections?": "list[object]"}
LABEL_FIELDS = {"id": "id", "names": "list[str]", "description?": "str"}

_SCALARS = {  # annotation: (the Python types of its values, its phrase in an error)
    "str": ({str}, "a string"), "int": ({int}, "an int"),  # by type(): a bool is no int
    "float": ({int, float}, "a finite number"), "bool": ({bool}, "a bool"),
    "id": ({str, int}, "a string or an int"), "object": ({dict}, "an object"),
}
_SEQ = (list, tuple)
_ABSENT = type("Absent", (), {})()  # a field a record lacks; optional fields' types hold its type
_PLANS: dict = {}  # id of a declaration given to _check: (it, its fields resolved)


@cache
def _resolve(annotation: str) -> tuple:
    """``(types, phrase, test, parts)`` of a _SCALARS key, ``list[T]`` or ``tuple[T, ...]``
    (T a scalar), a pair of scalars ``tuple[A, B]`` or ``T | None``: a value has it if its
    type is in ``types`` or ``test`` holds, and ``parts`` resolve the entries' types."""
    if annotation.endswith(" | None"):
        types, phrase, test, parts = _resolve(annotation[:-len(" | None")])
        return types | {type(None)}, f"{phrase} or null", test, parts
    head, _, args = annotation.partition("[")
    if not args:
        return (*_SCALARS[annotation], None, ())
    names = [name for name in args[:-1].split(", ") if name != "..."]
    kinds, parts = [_SCALARS[name][0] for name in names], tuple(map(_resolve, names))
    floats = any(float in kind for kind in kinds)  # then each float must be finite too
    finite = lambda v: all(map(math.isfinite, [x for x in v if type(x) is float]))
    if head == "tuple" and len(names) == 2 and not args.endswith("...]"):
        a, b = kinds
        return (set(), f"a [{names[0]}, {names[1]}] pair", lambda v: type(v) in _SEQ
                and len(v) == 2 and type(v[0]) in a and type(v[1]) in b
                and (not floats or finite(v)), parts)
    if len(names) != 1 or head != "list" and not args.endswith(", ...]"):
        raise KeyError(annotation)  # also for any other annotation, by _SCALARS above
    return (set(), "a list", lambda v: type(v) in _SEQ and set(map(type, v)) <= kinds[0]
            and (not floats or finite(v)), parts)


def _check(record, fields: dict) -> dict:
    """``record`` if it is an object holding each field of ``fields`` (``{name: annotation}``,
    a name ending in "?" optional) with a value of its type, other keys ignored; else TypeError:
    "missing field 'f'", "'f' must be <type>, got <type>" or "'f' entry must be ..."."""
    held = _PLANS.get(id(fields))
    if held is None:  # the first check against ``fields``, held so no other object takes its id
        held = _PLANS[id(fields)] = fields, [
            (name.rstrip("?"), types | {type(_ABSENT)} if name.endswith("?") else types, test, a)
            for name, a in fields.items() for types, _, test, _ in [_resolve(a)]]
    if type(record) is not dict:
        raise TypeError(f"expected an object, got {type(record).__name__}")
    for key, types, test, annotation in held[1]:
        value = record.get(key, _ABSENT)
        kind = type(value)
        if (kind in types and (kind is not float or math.isfinite(value))
                or test is not None and test(value)):
            continue
        if value is _ABSENT:
            raise TypeError(f"missing field {key!r}")
        _, phrase, _, parts = _resolve(annotation)
        what, got = repr(key), kind.__name__
        if kind in _SEQ and len(parts) == 1:  # a list with an entry of another type
            phrase, what = parts[0][1], f"{what} entry"
            got = next(type(v) for v in value if not test([v])).__name__
        elif kind in _SEQ and parts:
            got = f"[{', '.join(type(v).__name__ for v in value)}]"
        raise TypeError(f"{what} must be {phrase}, got {got}")
    return record


def _build_section_node(sec: dict, keep, depth: int = 1) -> list:
    """The section ``sec``, at nesting ``depth`` (a top-level section is 1), as
    the list of its paragraphs for which ``keep`` holds and its sections; an
    empty list when it keeps nothing under it (pruned)."""
    if depth > MAX_SECTION_DEPTH:
        raise ValueError("nested too deeply")
    node = list(filter(keep, _check(sec, SECTION_FIELDS).get("paragraphs", ())))
    for sub in sec.get("subsections", ()):
        if child := _build_section_node(sub, keep, depth + 1):
            node.append(child)
    return node


def _read_paper(record: dict, keep) -> tuple[str, frozenset[str] | None, list]:
    """The id, gold labels and hierarchy (see Paper) of a paper record, the
    hierarchy holding the texts for which ``keep`` holds; the record and each
    section under it are checked, whatever ``keep`` keeps."""
    pid, labels = str(_check(record, PAPER_FIELDS)["id"]), record.get("labels")
    if not pid:
        raise CorpusError("empty paper id")
    ta_text = f"{record.get('title', '')} {record.get('abstract', '')}".strip()
    root = [ta_text] if keep(ta_text) else []  # one child of the document, for aggregation
    for sec in record.get("sections", ()):
        if node := _build_section_node(sec, keep):
            root.append(node)
    return pid, None if labels is None else frozenset(map(str, labels)), root


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


def write_npz(path, members: dict[str, np.ndarray], meta: dict):
    """Write an ``.npz`` archive of ``members`` and, last, a ``meta`` member
    holding ``meta`` as JSON, atomically (``atomic_write``).

    Each member is a ``<name>.npy`` stream as numpy writes it, deflated at
    NPZ_LEVEL, except a float64 one, which becomes two: under its own name,
    stored, the low six bytes of each little-endian value as a ``|V6``
    array of its shape (so ``np.load`` still counts its zeros); and
    ``<name>.high``, deflated, the bytes 6 and 7 (sign, exponent, top
    mantissa bits) as a uint8 array of shape ``(2, *shape)``, one plane per
    byte. The six mantissa bytes cannot shrink, so deflating them only
    costs time; read_npz_members joins the two. When some value's two high
    bytes are zero and every such value is +0.0 (a pruned classifier's
    zeros), the low member holds the low bytes of the other values only, a
    1-D ``|V6`` array in order: the high planes tell which values they are.

    Each member goes to the zip stream from its own memory (a copy only if
    it is strided), at most NPZ_CHUNK_BYTES at a time, so the only
    transient is one chunk and zlib's output for it.
    """
    with atomic_write(path, "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
        raw = json.dumps(meta, allow_nan=False).encode("utf-8")
        for name, array in {**members, "meta": np.frombuffer(raw, dtype=np.uint8)}.items():
            if array.dtype != _FLOAT:
                flat = array.ravel().view(np.uint8)
                _write_member(zf, name, zipfile.ZIP_DEFLATED, array.dtype, array.shape,
                              (flat[lo:lo + NPZ_CHUNK_BYTES]
                               for lo in range(0, flat.size, NPZ_CHUNK_BYTES)))
                continue
            flat = np.ascontiguousarray(array).reshape(-1)
            values = _value_bytes(flat)
            chunks = range(0, len(values), _CHUNK_VALUES)
            kept = int(np.count_nonzero(flat.view(np.uint16)[3::4]))  # nonzero high words
            packed = kept < flat.size and kept == np.count_nonzero(flat.view(np.uint64))
            parts = (flat[lo:lo + _CHUNK_VALUES] for lo in chunks)
            _write_member(zf, name, zipfile.ZIP_STORED, _LOW, (kept,) if packed else array.shape,
                          (_value_bytes(part[part.view(np.uint64) >= _HIGH_ONE] if packed
                                        else part)[:, :6] for part in parts))
            _write_member(zf, name + _HIGH, zipfile.ZIP_DEFLATED, np.dtype(np.uint8),
                          (2, *array.shape),
                          (values[lo:lo + _CHUNK_VALUES, byte] for byte in (6, 7)
                           for lo in chunks))


def _value_bytes(array: np.ndarray) -> np.ndarray:
    """The bytes of a contiguous float64 ``array``, one row of 8 per value."""
    return array.reshape(-1).view(np.uint8).reshape(-1, 8)


def _write_member(zf: zipfile.ZipFile, name: str, method: int, dtype, shape, chunks):
    """One ``<name>.npy`` member, as numpy writes it: its header for ``dtype``
    and ``shape``, then each of the uint8 ``chunks``."""
    info = zipfile.ZipInfo(f"{name}.npy")  # its fixed 1980 date keeps reruns byte-identical
    info.compress_type = method
    info._compresslevel = NPZ_LEVEL  # a hand-built ZipInfo ignores ZipFile(compresslevel=)
    with zf.open(info, "w", force_zip64=True) as out:  # force_zip64 as numpy does
        np.lib.format.write_array_header_1_0(out, {
            "descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False,
            "shape": shape})
        for chunk in chunks:
            out.write(np.ascontiguousarray(chunk))


def _read_header(fh) -> tuple:
    """(shape, fortran order, dtype) of an npy stream with _write_member's 1.0 header."""
    if (version := np.lib.format.read_magic(fh)) != (1, 0):
        raise ValueError(f"npy header version {version}, not (1, 0)")
    return np.lib.format.read_array_header_1_0(fh)


def _read_exactly(fh, n: int) -> np.ndarray:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError("member data ends early")
    return np.frombuffer(data, dtype=np.uint8)


def _join_planes(name: str, low, high) -> np.ndarray:
    """The float64 member ``name`` from its streams ``low`` (``|V6``, of the
    member's shape or packed) and ``high`` (its byte planes), decoded into one
    array a chunk at a time, the planes first: they tell which values a
    packed low member holds."""
    low_shape, fortran, dtype = _read_header(low)
    high_shape, high_fortran, high_dtype = _read_header(high)
    shape, packed, held = high_shape[1:], low_shape != high_shape[1:], 0
    mismatch = ValueError(f"{name}{_HIGH} is {high_dtype} {high_shape} beside {name} "
                          f"{dtype} {low_shape}")
    if (dtype, high_dtype, fortran or high_fortran, high_shape[:1]) != \
            (_LOW, np.uint8, False, (2,)) or packed and len(low_shape) != 1:
        raise mismatch
    out = (np.zeros if packed else np.empty)(shape, dtype=_FLOAT)
    values = _value_bytes(out)
    chunks = range(0, len(values), _CHUNK_VALUES)
    for byte in (6, 7):
        for lo in chunks:
            plane = values[lo:lo + _CHUNK_VALUES, byte]
            plane[:] = _read_exactly(high, plane.size)
    for lo in chunks:
        if not packed:
            rows = values[lo:lo + _CHUNK_VALUES]
            rows[:, :6] = _read_exactly(low, len(rows) * 6).reshape(-1, 6)
            continue
        part = out.reshape(-1).view(np.uint64)[lo:lo + _CHUNK_VALUES]
        keep = part >= _HIGH_ONE  # a nonzero high word; the low bytes are still zero
        held += (n := np.count_nonzero(keep))
        if held > low_shape[0]:
            raise mismatch
        raw = np.zeros(n * 6 + 2, dtype=np.uint8)  # two spare bytes for the last 8-byte read
        raw[:-2] = _read_exactly(low, n * 6)
        spread = np.zeros_like(part)  # 8 bytes read at stride 6, the next value's two masked off
        spread[keep] = np.ndarray((n,), "<u8", raw, strides=(6,)) & _LOW_BITS
        part |= spread
    if packed and held != low_shape[0]:
        raise mismatch
    return out


def read_npz_members(path) -> dict[str, np.ndarray]:
    """Every member of the ``.npz`` archive at ``path`` by name, ``meta`` as
    its raw uint8 bytes and a float64 member that write_npz split in two
    joined back, bit for bit; an archive as ``np.savez`` or
    ``np.savez_compressed`` writes it reads the same. An unreadable archive,
    or a ``<name>.high`` member without a ``<name>`` of its shape (or packed
    to its planes' nonzero high words) beside it, raises
    ValueError("<path>: unreadable archive (...)")."""
    try:
        with zipfile.ZipFile(path) as zf:
            infos = {info.filename.removesuffix(".npy"): info for info in zf.infolist()}
            members = {}
            for name, info in infos.items():
                base, high = name.removesuffix(_HIGH), infos.get(name + _HIGH)
                if base != name:  # read with its low bytes
                    if base not in infos:
                        raise ValueError(f"{name} has no {base} beside it")
                elif high is None:
                    with zf.open(info) as fh:
                        members[name] = np.lib.format.read_array(fh, allow_pickle=False)
                else:
                    with zf.open(info) as low, zf.open(high) as planes:
                        members[name] = _join_planes(name, low, planes)
    except OSError:
        raise
    except Exception as exc:  # BadZipFile, EOFError, zlib.error, numpy's ValueError, ...
        raise ValueError(f"{path}: unreadable archive ({exc})") from None
    return members


def read_npz(path, kind: str, version: int, fields: dict | None = None,
             shapes=lambda meta: {}) -> tuple[dict, dict]:
    """The JSON ``meta`` member of an ``.npz`` archive and its other members
    (read_npz_members). ``shapes`` takes the meta, once checked, to ``{name: shape}`` of the
    float64 members it needs, or raises ValueError. An unreadable archive or meta, a meta
    not of version ``version`` (of the file ``kind``) and of ``fields`` (_check) or that
    ``shapes`` rejects, a member it needs missing or of another dtype or shape, or a float
    member holding a NaN or an infinity raises ValueError("<path>: ...")."""
    members = read_npz_members(path)
    try:
        meta = _JSON.decode(bytes(members.pop("meta")).decode("utf-8"))
    except (KeyError, ValueError) as exc:  # ValueError covers bad UTF-8 and bad JSON
        raise ValueError(f"{path}: unreadable meta ({exc})") from None
    except RecursionError:
        raise ValueError(f"{path}: unreadable meta (nested too deeply)") from None
    if type(meta) is dict and meta.get("version") != version:
        raise ValueError(f"{path}: {kind} version {meta.get('version')!r} is not {version}")
    try:
        want = shapes(_check(meta, fields or {}))
    except TypeError as exc:
        raise ValueError(f"{path}: malformed meta ({exc})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if missing := [name for name in want if name not in members]:
        raise ValueError(f"{path}: member {missing[0]} is missing")
    held = {name: (members[name].dtype, members[name].shape) for name in want}
    if held != {name: (_FLOAT, shape) for name, shape in want.items()}:
        named = " and ".join(f"{name} {dtype} {shape}" for name, (dtype, shape) in held.items())
        raise ValueError(f"{path}: {named.replace(' ', ' is ', 1)}, but its meta names float64 "
                         + " and ".join(map(str, want.values())))
    for name, array in members.items():
        if array.dtype.kind == "f" and not np.isfinite(array).all():
            raise ValueError(f"{path}: non-finite value in {name}")
    return meta, members


def write_jsonl(records, path):
    """Write each record as one line of JSON, atomically (``atomic_write``)."""
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec, allow_nan=False) + "\n")


def read_jsonl(path, build=None, parse=None):
    """Yield the record on each nonblank line, one at a time, or ``build(record)`` when
    ``build`` is given; ``parse``, if given, turns a stripped line into its record, in place
    of the JSON decoder. A line that is not
    UTF-8, that ``parse`` fails on, or whose record ``build`` rejects or nests too deeply to
    decode, raises CorpusError naming the file and the line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                # raw_decode, since the line is stripped: decode() scans twice for whitespace
                record, end = (parse(line), len(line)) if parse else _JSON.raw_decode(line)
                if end < len(line):
                    raise ValueError(f"extra data at column {end + 1}")
                if build is not None:
                    record = build(record)
            except CorpusError as exc:
                raise CorpusError(f"{path}: line {lineno}: {exc}") from None
            except (ValueError, TypeError, IndexError, AttributeError, OverflowError) as exc:
                raise CorpusError(f"{path}: line {lineno}: malformed record ({exc})") from None
            except RecursionError:  # from the JSON decoder or a nested build
                raise CorpusError(f"{path}: line {lineno}: malformed record "
                                  "(nested too deeply)") from None
            yield record


def read_keyed(path, build, what: str, parse=None) -> dict:
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


def read_by_paper(path, fields: dict, build) -> dict:
    """``{record["paper_id"]: build(record)}`` over a JSON Lines artifact of ``fields``
    (see _check, a string ``paper_id`` among them); a repeated id fails its line."""
    return read_keyed(path, lambda rec: (_check(rec, fields)["paper_id"], build(rec)),
                      "paper id")


def load_corpus(path, min_paragraph_words: int = DEFAULT_MIN_PARAGRAPH_WORDS) -> list[Paper]:
    """Load a JSON Lines corpus, dropping paragraphs under the word threshold.

    Documents whose every paragraph is filtered out are retained and flagged
    empty (``Paper.is_empty``); they still carry their title and abstract.
    """
    if min_paragraph_words < 1:
        raise ValueError("min_paragraph_words must be positive")

    def keep(text: str) -> bool:
        return len(tokenize(text)) >= min_paragraph_words

    def build(record: dict) -> tuple[str, Paper]:
        pid, labels, root = _read_paper(record, keep)
        return pid, Paper(pid, record.get("title", ""), record.get("abstract", ""), root,
                          frozenset(str(r) for r in record.get("bib_refs", ()) if r != ""),
                          labels)

    papers = list(read_keyed(path, build, "paper id").values())
    n_empty = sum(p.is_empty for p in papers)
    if n_empty:
        log.warning("%d of %d papers have no surviving paragraphs", n_empty, len(papers))
    return papers


def load_paper_labels(path) -> dict[str, frozenset[str] | None]:
    """``{paper id: gold labels or None}`` of a JSON Lines corpus in file
    order, read through load_corpus's walk keeping no text: each record and
    section is checked, and a bad line fails with the same message, but no
    Paper is built and nothing is tokenized."""
    return read_keyed(path, lambda rec: _read_paper(rec, _KEEP_NONE)[:2], "paper id")


def load_labels(path) -> list[Label]:
    """Load the label space from a JSON Lines file."""
    def build(record: dict) -> tuple[str, Label]:
        lid, names = str(_check(record, LABEL_FIELDS)["id"]), tuple(record["names"])
        if not lid:
            raise CorpusError("empty label id")
        if not names:
            raise CorpusError(f"label {lid!r} has zero names")
        for name in names:
            if not tokenize(name):
                raise CorpusError(f"label {lid!r} name {name!r} normalizes to the empty sequence")
        return lid, Label(id=lid, names=names, description=record.get("description", ""))

    labels = list(read_keyed(path, build, "label id").values())
    if not labels:
        log.warning("label file %s is empty", path)
    return labels


def count_terms(corpus: list[Paper]) -> tuple[list[str], CsrMatrix]:
    """Tokenize each paper's full text once and count its terms: the word
    table (ids in order of first occurrence) and a papers x ids count matrix.

    Papers go COUNT_BLOCK_PAPERS at a time, and one ``np.unique`` over the
    block's (row, word id) keys counts them, so only one block's tokens are
    held. The blocks' counts wait as int32, and each is freed as it is
    joined, so the transient past a block's is 4 bytes per stored count."""
    table: defaultdict[str, int] = defaultdict()
    table.default_factory = table.__len__  # a new word gets the next id
    empty = np.empty(0, dtype=np.int32)
    ids, counts, sizes = [empty], [empty], [np.zeros(1, dtype=np.int64)]  # indptr's 0
    for lo in range(0, len(corpus), COUNT_BLOCK_PAPERS):
        toks, lens = [], []
        for paper in corpus[lo:lo + COUNT_BLOCK_PAPERS]:
            paper_toks = paper.full_text_tokens()
            toks += paper_toks
            lens.append(len(paper_toks))
        word = np.fromiter(map(table.__getitem__, toks), dtype=np.int64, count=len(toks))
        del toks
        width = len(table)
        keys, c = np.unique(np.repeat(np.arange(len(lens)) * width, lens) + word,
                            return_counts=True)
        ids.append((keys % width).astype(np.int32))
        counts.append(c.astype(np.int32))
        sizes.append(np.bincount(keys // width, minlength=len(lens)))
    data = np.concatenate(counts, dtype=np.int64)
    del counts
    return list(table), CsrMatrix(
        data=data, indices=np.concatenate(ids, dtype=np.int64),
        indptr=np.cumsum(np.concatenate(sizes)), n_rows=len(corpus), n_cols=len(table))


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
