"""Document loading and the deterministic NLP preprocessing pipeline.

The pipeline runs, in order: lower-casing, whitespace tokenization with
punctuation stripping, stopword removal, rule-based suffix lemmatization,
and a final stopword filter to keep lemmas out of the stopword set.  Every
function here is pure, so results are reproducible byte-for-byte.
"""

from __future__ import annotations

import json
import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .secagg import frozen

__all__ = [
    "CORPUS_FORMATS",
    "CorpusFormatError",
    "Document",
    "PreprocessConfig",
    "VocabularyIndex",
    "default_preprocess_config",
    "document_columns",
    "lemmatize",
    "load_corpus",
    "load_idf_table",
    "load_stopwords",
    "preprocess",
    "preprocess_corpus",
    "primary_keyword_set",
    "read_lines",
    "term_columns",
]

#: Corpus file formats that ``load_corpus`` reads.
CORPUS_FORMATS = ("lines", "jsonl")


class CorpusFormatError(ValueError):
    """A corpus or table file does not parse under its declared format."""


@dataclass(frozen=True)
class Document:
    """One input document; ``tokens`` is empty until preprocessing runs."""

    id: str
    raw_text: str
    tokens: tuple[str, ...] = ()


@dataclass(frozen=True)
class PreprocessConfig:
    stopwords: frozenset[str]
    lemmatize: bool = True


class VocabularyIndex:
    """Ordered keyword list with per-keyword IDF weights.

    The position of a keyword in ``keywords`` fixes coordinate j of every
    vector in the system and is stable for the life of a run.  ``by_keyword``
    lists the positions in lexicographic keyword order.
    """

    def __init__(self, keywords: Sequence[str], idf: Sequence[float]):
        keywords = tuple(keywords)
        self.idf = idf_arr = frozen(idf)
        if len(keywords) != idf_arr.shape[0]:
            raise ValueError("keywords and idf must have the same length")
        if len(set(keywords)) != len(keywords):
            raise ValueError("vocabulary keywords must be unique")
        if idf_arr.size and (not np.all(np.isfinite(idf_arr)) or np.any(idf_arr < 0)):
            raise ValueError("idf values must be finite and nonnegative")
        self.keywords = keywords
        self._index = {kw: j for j, kw in enumerate(keywords)}
        self.by_keyword = tuple(sorted(range(len(keywords)), key=keywords.__getitem__))

    def __len__(self) -> int:
        return len(self.keywords)

    def idf_total(self) -> float:
        """The sum of the idf weights; a ``ValueError`` unless finite and positive."""
        with np.errstate(over="ignore"):  # a sum past the largest double is inf
            total = float(self.idf.sum())
        if not 0.0 < total < np.inf:
            raise ValueError(f"degenerate prior: IDF weights sum to {total:g}")
        return total

    def __contains__(self, keyword: str) -> bool:
        return keyword in self._index

    def index_of(self, keyword: str) -> int | None:
        return self._index.get(keyword)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def read_lines(path: str | Path) -> list[str]:
    """The lines of the UTF-8 text file ``path`` without their line ends, as
    iterating over the open file gives them, read in one call; a
    ``CorpusFormatError`` naming ``path`` if the file is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return text.removesuffix("\n").split("\n") if text else []


def load_corpus(path: str | Path, format: str = "lines") -> list[Document]:
    """Load documents from ``path``.

    ``lines``: one document per line, UTF-8; a blank line is an error.
    ``jsonl``: one ``{"id": ..., "text": ...}`` object per line, ``text`` a
    string.
    Document ids for the ``lines`` format are zero-based ordinals.
    """
    if format not in CORPUS_FORMATS:
        raise ValueError(f"unknown corpus format: {format!r}")
    docs: list[Document] = []
    for lineno, text in enumerate(read_lines(path), start=1):
        if format == "lines":
            if not text.strip():
                raise CorpusFormatError(f"{path}: line {lineno}: blank document")
            docs.append(Document(id=str(lineno - 1), raw_text=text))
        else:
            try:
                record = json.loads(text)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(
                    f"{path}: line {lineno}: invalid JSON ({exc.msg})"
                ) from exc
            if not isinstance(record, dict) or "id" not in record or "text" not in record:
                raise CorpusFormatError(
                    f"{path}: line {lineno}: record must carry 'id' and 'text'"
                )
            raw_text = record["text"]
            if not isinstance(raw_text, str):
                raise CorpusFormatError(
                    f"{path}: line {lineno}: 'text' must be a string, not "
                    f"{type(raw_text).__name__}"
                )
            docs.append(Document(id=str(record["id"]), raw_text=raw_text))
    return docs


def load_stopwords(path: str | Path) -> frozenset[str]:
    """One lowercase word per line; blank lines ignored."""
    return frozenset(filter(None, map(str.strip, read_lines(path))))


def load_idf_table(path: str | Path) -> VocabularyIndex:
    """TSV with ``term<TAB>idf`` per line; duplicate terms are an error, and
    so is a table whose weights sum to zero or overflow (it gives no prior).

    The table is parsed in bulk; only a table that fails is read again line
    by line, to name its first bad line."""
    lines = read_lines(path)
    rows = [line.split("\t") for line in lines if line]
    try:
        keywords, values = zip(*rows, strict=True) if rows else ((), ())
        vocab = VocabularyIndex(keywords, list(map(float, values)))
        vocab.idf_total()
    except ValueError as exc:
        seen: set[str] = set()
        for lineno, line in enumerate(lines, start=1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CorpusFormatError(
                    f"{path}: line {lineno}: expected 'term<TAB>idf', got {line!r}"
                )
            term, raw_value = parts
            if term in seen:
                raise CorpusFormatError(f"{path}: line {lineno}: duplicate term {term!r}")
            try:
                float(raw_value)
            except ValueError as err:
                raise CorpusFormatError(
                    f"{path}: line {lineno}: idf is not a number: {raw_value!r}"
                ) from err
            seen.add(term)
        raise CorpusFormatError(f"{path}: {exc}") from exc
    return vocab


def default_preprocess_config(lemmatize: bool = True) -> PreprocessConfig:
    """Config backed by the bundled stopword list."""
    from . import data

    return PreprocessConfig(
        stopwords=load_stopwords(data.stopwords_path()), lemmatize=lemmatize
    )


# ---------------------------------------------------------------------------
# Tokenization and lemmatization
# ---------------------------------------------------------------------------


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


_SIBILANT_STEMS = ("x", "z", "ch", "sh", "ss")
_UNDOUBLE = ("bb", "dd", "ff", "gg", "mm", "nn", "pp", "rr", "tt")


def _undouble(stem: str) -> str:
    return stem[:-1] if stem.endswith(_UNDOUBLE) else stem


def lemmatize(word: str) -> str:
    """Rule-based English suffix stripper (plural -s/-es, -ing, -ed).

    Deterministic by design; fidelity to any dictionary lemmatizer is a
    non-goal.  At most one plural rule and one verbal rule apply.  Every
    plural suffix ends in "s" and every verbal one in "d" or "g", so the
    last letter picks the rules worth trying.
    """
    if word[-1:] == "s":  # plural suffixes
        if word.endswith("sses"):
            word = word[:-2]
        elif word.endswith("ies") and len(word) >= 5:
            word = word[:-3] + "y"
        elif word.endswith("es") and word[:-2].endswith(_SIBILANT_STEMS):
            word = word[:-2]
        elif len(word) >= 4 and not word.endswith(("ss", "us", "is")):
            word = word[:-1]
    last = word[-1:]
    if last == "d" and len(word) >= 5:  # verbal suffixes
        if word.endswith("ied"):
            word = word[:-3] + "y"
        elif word.endswith("eed"):
            word = word[:-1]
        elif word.endswith("ed"):
            word = _undouble(word[:-2])
    elif last == "g" and len(word) >= 6 and word.endswith("ing"):
        word = _undouble(word[:-3])
    return word


def preprocess_corpus(docs: Sequence[Document], cfg: PreprocessConfig) -> list[Document]:
    """``docs`` with tokens populated, in one pass over the corpus.

    Each text is lowercased and split on Unicode whitespace.  Each chunk
    loses its leading and trailing punctuation (any Unicode ``P*``
    category), then its interior punctuation except hyphens
    ("victim-offender" style compounds stay intact): one table drops all
    the corpus's punctuation but hyphens, and stripping hyphens from each
    chunk's ends then gives that rule.  Each distinct chunk is
    stopword-filtered, lemmatized and filtered again once, into a table
    that maps every chunk of a document to its token ("" drops it)."""
    lowered = [doc.raw_text.lower() for doc in docs]
    chars = set().union(*lowered)
    drop = str.maketrans("", "", "".join(c for c in chars if c != "-" and _is_punct(c)))
    chunks = [text.translate(drop).split() for text in lowered]
    token_of = dict.fromkeys(chain.from_iterable(chunks), "")
    stopwords = cfg.stopwords
    for chunk in token_of:
        word = chunk.strip("-")
        token = lemmatize(word) if cfg.lemmatize else word
        if word not in stopwords and token not in stopwords:
            token_of[chunk] = token
    return [
        Document(doc.id, doc.raw_text, tuple(filter(None, map(token_of.__getitem__, split))))
        for doc, split in zip(docs, chunks)
    ]


def preprocess(doc: Document, cfg: PreprocessConfig) -> Document:
    """``doc`` with tokens populated, as ``preprocess_corpus`` does it;
    idempotent and deterministic."""
    (done,) = preprocess_corpus([doc], cfg)
    return done


# ---------------------------------------------------------------------------
# Document statistics
# ---------------------------------------------------------------------------


def _top_k(counts: Counter, k: int) -> list[str]:
    """The ``k`` most counted tokens, ties lexicographic ascending."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    # a stable descending sort keeps the lexicographic order among ties
    return sorted(sorted(counts), key=counts.__getitem__, reverse=True)[:k]


def primary_keyword_set(doc: Document, k: int = 5) -> frozenset[str]:
    """Top-``k`` tokens by term frequency, ties lexicographic ascending.

    With fewer than ``k`` distinct tokens, all of them are returned.
    """
    return frozenset(_top_k(Counter(doc.tokens), k))


class DocumentColumns:
    """Sparse (document x keyword) counts: document ``doc[e]`` holds
    ``count[e]`` of keyword ``col[e]`` of a vocabulary of ``size``."""

    def __init__(self, doc: list[int], col: list[int], count: list[int], size: int):
        self.doc, self.col = np.asarray(doc, np.intp), np.asarray(col, np.intp)
        self.count, self.size = np.asarray(count, np.int64), size

    def weighted_sum(self, copies: np.ndarray) -> np.ndarray:
        """Entry j: sum over documents d of copies[d] * (count of j in d), or
        a row of such sums per row of a 2-D ``copies``, in one ``bincount``;
        integers, so exact in float64 below 2**53."""
        stack = np.atleast_2d(copies)
        cells = np.arange(len(stack))[:, None] * self.size + self.col
        weights = (self.count * stack[:, self.doc]).ravel()
        sums = np.bincount(cells.ravel(), weights, len(stack) * self.size)  # int64 if empty
        return sums.astype(np.float64, copy=False).reshape(*np.shape(copies)[:-1], self.size)


def document_columns(
    groups: Sequence[Sequence[Document]], vocab: VocabularyIndex, k: int = 5
) -> tuple[np.ndarray, DocumentColumns, list[Counter]]:
    """``(copies, primary, counts)``: ``copies[g, d]`` is how often group g
    holds distinct document d (told apart by value; hashed once per object,
    not per copy).  ``counts[d]``, the one ``Counter`` of d's tokens, gives
    ``primary``, 1 per keyword of its primary keyword set, and on demand its
    ``term_columns``.  Tokens outside ``vocab`` have no column."""
    flat = list(chain.from_iterable(groups))
    objects = dict(zip(map(id, flat), flat))  # one entry per distinct object
    distinct: dict[Document, int] = {}
    slot_of = {key: distinct.setdefault(doc, len(distinct)) for key, doc in objects.items()}
    slots = np.fromiter(map(slot_of.__getitem__, map(id, flat)), np.intp, len(flat))
    group = np.repeat(np.arange(len(groups)), [len(docs) for docs in groups])
    cells = group * len(distinct) + slots
    copies = np.bincount(cells, minlength=len(groups) * len(distinct))
    index = vocab._index
    counts = [Counter(doc.tokens) for doc in distinct]
    tops = [[j for j in map(index.get, _top_k(c, k)) if j is not None] for c in counts]
    docs, cols = [d for d, top in enumerate(tops) for _ in top], list(chain.from_iterable(tops))
    primary = DocumentColumns(docs, cols, [1] * len(cols), len(vocab))
    return copies.reshape(len(groups), len(distinct)), primary, counts


def term_columns(counts: Sequence[Counter], vocab: VocabularyIndex) -> DocumentColumns:
    """Each keyword's occurrences in document d, whose tokens ``counts[d]`` counts."""
    index = vocab._index
    doc, col, count = [], [], []
    for d, tokens in enumerate(counts):
        known = tokens.keys() & index.keys()
        doc.extend([d] * len(known))
        col.extend(map(index.get, known))
        count.extend(map(tokens.get, known))
    return DocumentColumns(doc, col, count, len(vocab))
