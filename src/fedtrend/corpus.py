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
from dataclasses import dataclass, replace
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
    "document_frequency",
    "lemmatize",
    "load_corpus",
    "load_idf_table",
    "load_stopwords",
    "preprocess",
    "primary_keyword_set",
    "tokenize",
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
    vector in the system and is stable for the life of a run.
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

    def __len__(self) -> int:
        return len(self.keywords)

    def __contains__(self, keyword: str) -> bool:
        return keyword in self._index

    def index_of(self, keyword: str) -> int | None:
        return self._index.get(keyword)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def load_corpus(path: str | Path, format: str = "lines") -> list[Document]:
    """Load documents from ``path``.

    ``lines``: one document per line, UTF-8; a blank line is an error.
    ``jsonl``: one ``{"id": ..., "text": ...}`` object per line.
    Document ids for the ``lines`` format are zero-based ordinals.
    """
    if format not in CORPUS_FORMATS:
        raise ValueError(f"unknown corpus format: {format!r}")
    docs: list[Document] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.rstrip("\n")
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
                docs.append(Document(id=str(record["id"]), raw_text=str(record["text"])))
    return docs


def load_stopwords(path: str | Path) -> frozenset[str]:
    """One lowercase word per line; blank lines ignored."""
    with open(path, encoding="utf-8") as handle:
        return frozenset(word for word in (line.strip() for line in handle) if word)


def load_idf_table(path: str | Path) -> VocabularyIndex:
    """TSV with ``term<TAB>idf`` per line; duplicate terms are an error."""
    keywords: list[str] = []
    idf: list[float] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
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
                value = float(raw_value)
            except ValueError as exc:
                raise CorpusFormatError(
                    f"{path}: line {lineno}: idf is not a number: {raw_value!r}"
                ) from exc
            seen.add(term)
            keywords.append(term)
            idf.append(value)
    try:
        return VocabularyIndex(keywords, idf)
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from exc


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


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase, split on Unicode whitespace, strip punctuation.

    Each chunk loses its leading and trailing punctuation (any Unicode
    ``P*`` category), then its interior punctuation except hyphens
    ("victim-offender" style compounds stay intact).  Punctuation is looked
    up once per call, over the text's distinct characters.
    """
    text = text.lower()
    punct = "".join(ch for ch in set(text) if _is_punct(ch))
    interior = str.maketrans("", "", punct.replace("-", ""))
    chunks = (chunk.strip(punct).translate(interior) for chunk in text.split())
    return tuple(t for t in chunks if t)


_SIBILANT_STEMS = ("x", "z", "ch", "sh", "ss")
_UNDOUBLE = ("bb", "dd", "ff", "gg", "mm", "nn", "pp", "rr", "tt")


def _undouble(stem: str) -> str:
    return stem[:-1] if stem.endswith(_UNDOUBLE) else stem


def lemmatize(word: str) -> str:
    """Rule-based English suffix stripper (plural -s/-es, -ing, -ed).

    Deterministic by design; fidelity to any dictionary lemmatizer is a
    non-goal.  At most one plural rule and one verbal rule apply.
    """
    # plural suffixes
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies") and len(word) >= 5:
        word = word[:-3] + "y"
    elif word.endswith("es") and word[:-2].endswith(_SIBILANT_STEMS):
        word = word[:-2]
    elif (
        word.endswith("s")
        and len(word) >= 4
        and not word.endswith(("ss", "us", "is"))
    ):
        word = word[:-1]
    # verbal suffixes
    if word.endswith("ied") and len(word) >= 5:
        word = word[:-3] + "y"
    elif word.endswith("eed") and len(word) >= 5:
        word = word[:-1]
    elif word.endswith("ed") and len(word) >= 5:
        word = _undouble(word[:-2])
    elif word.endswith("ing") and len(word) >= 6:
        word = _undouble(word[:-3])
    return word


def preprocess(doc: Document, cfg: PreprocessConfig) -> Document:
    """Return ``doc`` with tokens populated; idempotent and deterministic.

    Stopwords are filtered both before lemmatization (per the pipeline
    order) and after it, so no emitted token is ever a stopword.
    """
    tokens = [t for t in tokenize(doc.raw_text) if t not in cfg.stopwords]
    if cfg.lemmatize:
        tokens = [lemmatize(t) for t in tokens]
        tokens = [t for t in tokens if t not in cfg.stopwords]
    return replace(doc, tokens=tuple(tokens))


# ---------------------------------------------------------------------------
# Document statistics
# ---------------------------------------------------------------------------


def primary_keyword_set(doc: Document, k: int = 5) -> frozenset[str]:
    """Top-``k`` tokens by term frequency, ties lexicographic ascending.

    With fewer than ``k`` distinct tokens, all of them are returned.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    counts = Counter(doc.tokens)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return frozenset(token for token, _ in ranked[:k])


def document_frequency(docs: Sequence[Document], vocab: VocabularyIndex) -> np.ndarray:
    """Entry j = number of documents containing keyword j at least once."""
    df = np.zeros(len(vocab), dtype=np.int64)
    for doc in docs:
        for token in set(doc.tokens):
            j = vocab.index_of(token)
            if j is not None:
                df[j] += 1
    return df
