"""Walk through the deterministic text pipeline on the bundled corpus.

Loads the 50 evaluation passages, tokenizes them, and shows primary
keyword sets and document frequencies for a few interesting terms.
"""

from fedtrend import corpus, data

cfg = corpus.default_preprocess_config()
docs = [
    corpus.preprocess(doc, cfg)
    for doc in corpus.load_corpus(data.msmarco_corpus_path())
]
print(f"loaded {len(docs)} documents")

doc = docs[20]  # a passage about plant tissue
print("\nraw text:", doc.raw_text[:90], "...")
print("tokens:  ", doc.tokens[:12], "...")
print("top-5 keywords:", sorted(corpus.primary_keyword_set(doc, 5)))

vocab = corpus.load_idf_table(data.idf_table_path())
print(f"\nvocabulary: {len(vocab)} terms with IDF weights")

for term in ("phloem", "xylem", "manhattan", "costa", "offender"):
    df = sum(term in doc.tokens for doc in docs)
    j = vocab.index_of(term)
    print(f"  {term:10s} appears in {df:2d} documents, idf {vocab.idf[j]:.4f}")
