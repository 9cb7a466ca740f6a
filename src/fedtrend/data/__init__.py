"""Bundled default data files: stopword list, IDF table, evaluation corpus."""

from pathlib import Path


def _resolve(name: str) -> Path:
    return Path(__file__).with_name(name)


def stopwords_path() -> Path:
    """Standard English stopword list, one lowercase word per line."""
    return _resolve("stopwords.txt")


def idf_table_path() -> Path:
    """IDF table (term<TAB>idf) covering the bundled corpus vocabulary."""
    return _resolve("idf_msmarco.tsv")


def msmarco_corpus_path() -> Path:
    """The 50 MSMarco evaluation passages, one document per line."""
    return _resolve("msmarco_passages.txt")
