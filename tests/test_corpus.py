import itertools
import json
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedtrend import data
from fedtrend.corpus import (
    CorpusFormatError,
    Document,
    PreprocessConfig,
    VocabularyIndex,
    document_columns,
    lemmatize,
    load_corpus,
    load_idf_table,
    load_stopwords,
    preprocess,
    preprocess_corpus,
    primary_keyword_set,
    term_columns,
)

IDENTITY_CFG = PreprocessConfig(stopwords=frozenset(), lemmatize=False)


# ---------------------------------------------------------------------------
# load_corpus
# ---------------------------------------------------------------------------


def test_load_msmarco_corpus():
    docs = load_corpus(data.msmarco_corpus_path(), "lines")
    assert len(docs) == 50
    assert [d.id for d in docs] == [str(i) for i in range(50)]
    assert docs[0].raw_text.startswith("The presence of communication")


def test_load_corpus_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    assert load_corpus(path, "lines") == []


def test_load_corpus_blank_line_rejected(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("first doc\n\nthird doc\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_corpus(path, "lines")


def test_load_corpus_preserves_text(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("  spaced   text\twith tab \n", encoding="utf-8")
    (doc,) = load_corpus(path, "lines")
    assert doc.raw_text == "  spaced   text\twith tab "


def test_load_corpus_jsonl(tmp_path):
    path = tmp_path / "c.jsonl"
    records = [{"id": "a", "text": "hello"}, {"id": "b", "text": "world"}]
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    docs = load_corpus(path, "jsonl")
    assert [(d.id, d.raw_text) for d in docs] == [("a", "hello"), ("b", "world")]


def test_load_corpus_jsonl_malformed(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a", "text": "ok"}\nnot json\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_corpus(path, "jsonl")


def test_load_corpus_jsonl_missing_field(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a"}\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 1"):
        load_corpus(path, "jsonl")


@pytest.mark.parametrize(
    "text, kind", [("null", "NoneType"), ('["Costa", "Rica"]', "list"), ("7", "int")]
)
def test_load_corpus_jsonl_text_must_be_a_string(tmp_path, text, kind):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"id": 0, "text": "Costa Rica"}\n{"id": 1, "text": %s}\n' % text, encoding="utf-8"
    )
    with pytest.raises(CorpusFormatError) as exc:
        load_corpus(path, "jsonl")
    assert str(exc.value) == f"{path}: line 2: 'text' must be a string, not {kind}"


def test_load_corpus_unknown_format():
    with pytest.raises(ValueError):
        load_corpus(data.msmarco_corpus_path(), "csv")


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------


def test_preprocess_spec_sentence():
    doc = Document(id="0", raw_text="The Manhattan Project and its atomic bomb")
    cfg = PreprocessConfig(stopwords=frozenset({"the", "and", "its"}), lemmatize=False)
    assert preprocess(doc, cfg).tokens == ("manhattan", "project", "atomic", "bomb")


def test_preprocess_lemmatizes_plurals():
    doc = Document(id="0", raw_text="Plants' xylem, xylem!")
    cfg = PreprocessConfig(stopwords=frozenset(), lemmatize=True)
    assert preprocess(doc, cfg).tokens == ("plant", "xylem", "xylem")


def test_preprocess_empty_document():
    doc = Document(id="0", raw_text="")
    assert preprocess(doc, IDENTITY_CFG).tokens == ()


def test_preprocess_keeps_internal_hyphens():
    doc = Document(id="0", raw_text="the victim-offender mediation (so-called).")
    cfg = PreprocessConfig(stopwords=frozenset({"the"}), lemmatize=False)
    assert preprocess(doc, cfg).tokens == ("victim-offender", "mediation", "so-called")


def test_preprocess_idempotent(msmarco_docs, preprocess_cfg):
    for doc in msmarco_docs[:10]:
        again = preprocess(doc, preprocess_cfg)
        assert again.tokens == doc.tokens


def test_lemmatizer_rules():
    cases = {
        "plants": "plant",
        "carries": "carry",
        "glasses": "glass",
        "boxes": "box",
        "branches": "branch",
        "uses": "use",
        "glass": "glass",
        "analysis": "analysis",
        "virus": "virus",
        "planned": "plan",
        "called": "call",
        "carried": "carry",
        "agreed": "agree",
        "running": "run",
        "bring": "bring",
        "xylem": "xylem",
        "gas": "gas",
    }
    for word, lemma in cases.items():
        assert lemmatize(word) == lemma, word


# The rule chain that ``lemmatize`` ran before it picked its rules by the
# word's last letter, kept verbatim as its reference.
_SIBILANT_STEMS = ("x", "z", "ch", "sh", "ss")
_UNDOUBLE = ("bb", "dd", "ff", "gg", "mm", "nn", "pp", "rr", "tt")


def _undouble(stem: str) -> str:
    return stem[:-1] if stem.endswith(_UNDOUBLE) else stem


def _reference_lemmatize(word: str) -> str:
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


# Pieces that make up every suffix the rules test, doubled consonants
# included, so joined pieces reach each rule and its length limits.
SUFFIX_PIECES = (
    "", "s", "es", "ss", "sses", "ies", "ied", "eed", "ed", "ing", "us", "is",
    "x", "z", "ch", "sh", "y", "e", "i", "d", "g", "n", "a", "bb", "dd", "gg",
    "nn", "pp", "tt", "ff", "mm", "rr",
)
SUFFIX_WORDS = st.one_of(
    st.lists(st.sampled_from(SUFFIX_PIECES), max_size=4).map("".join),
    st.text(alphabet="abdegilnprstuxyz", max_size=9),
)


@settings(max_examples=500)
@given(SUFFIX_WORDS)
@example("")
@example("s")
@example("sses")
@example("ies")
@example("lies")
@example("ied")
@example("tied")
@example("eed")
@example("feed")
@example("hopped")
@example("hopping")
@example("ebbing")
def test_lemmatize_equals_the_reference_rule_chain(word):
    assert lemmatize(word) == _reference_lemmatize(word)


def test_lemmatize_equals_the_reference_on_every_three_piece_word():
    for word in map("".join, itertools.product(SUFFIX_PIECES, repeat=3)):
        assert lemmatize(word) == _reference_lemmatize(word), word


@settings(max_examples=200)
@given(st.text(max_size=80))
def test_preprocess_token_invariants(text):
    stopwords = load_stopwords(data.stopwords_path())
    cfg = PreprocessConfig(stopwords=stopwords, lemmatize=True)
    doc = preprocess(Document(id="0", raw_text=text), cfg)
    for token in doc.tokens:
        assert token
        assert token == token.lower()
        assert token not in stopwords
        assert not unicodedata.category(token[0]).startswith("P")
        assert not unicodedata.category(token[-1]).startswith("P")
        # interior punctuation is gone except hyphens
        assert all(
            ch == "-" or not unicodedata.category(ch).startswith("P") for ch in token
        )
    # deterministic
    assert preprocess(Document(id="0", raw_text=text), cfg).tokens == doc.tokens


def _reference_clean_chunk(chunk):
    # The per-character rule preprocess_corpus must reproduce: strip leading and
    # trailing punctuation, then drop interior punctuation except hyphens.
    def is_punct(ch):
        return unicodedata.category(ch).startswith("P")

    start, end = 0, len(chunk)
    while start < end and is_punct(chunk[start]):
        start += 1
    while end > start and is_punct(chunk[end - 1]):
        end -= 1
    return "".join(ch for ch in chunk[start:end] if ch == "-" or not is_punct(ch))


PUNCTUATED_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(
            categories=("Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po", "Ll", "Lu", "Lo", "Mn", "Nd")
        ),
        st.sampled_from("- \t\n\u00a0\u2003\u00c9\u0130\u03a3\u00df"),
    ),
    max_size=80,
)


@settings(max_examples=300)
@given(st.one_of(st.text(max_size=80), PUNCTUATED_TEXT))
def test_preprocess_corpus_matches_per_character_rule(text):
    chunks = (_reference_clean_chunk(c) for c in text.lower().split())
    (doc,) = preprocess_corpus([Document(id="0", raw_text=text)], IDENTITY_CFG)
    assert doc.tokens == tuple(t for t in chunks if t)


# Texts whose punctuation differs from document to document, final sigmas,
# and chunks that are only hyphens or only punctuation.
TRICKY_TEXTS = st.sampled_from(
    [
        "ΟΔΟΣ ΟΔΟΣ. Σ",
        "-- --- a-b -c- ?! ¿¡ …",
        "Uses of plants' xylem; the so-called (victim-offender) mediation!",
        "don't «quote» ‘single’ a_b ۔ · carries",
        "",
        "   ",
    ]
)
# "use" is a stopword only after lemmatizing "uses"
CORPUS_STOPWORDS = frozenset({"a", "the", "of", "use", "b"})


def _reference_preprocess(text, cfg):
    chunks = (_reference_clean_chunk(c) for c in text.lower().split())
    tokens = [t for t in chunks if t and t not in cfg.stopwords]
    if cfg.lemmatize:
        tokens = [lemmatize(t) for t in tokens]
        tokens = [t for t in tokens if t not in cfg.stopwords]
    return tuple(tokens)


@settings(max_examples=200)
@given(
    texts=st.lists(st.one_of(st.text(max_size=40), PUNCTUATED_TEXT, TRICKY_TEXTS), max_size=6),
    lemmatize_tokens=st.booleans(),
)
def test_preprocess_corpus_matches_the_per_document_rule(texts, lemmatize_tokens):
    cfg = PreprocessConfig(stopwords=CORPUS_STOPWORDS, lemmatize=lemmatize_tokens)
    docs = [Document(id=str(i), raw_text=text) for i, text in enumerate(texts)]
    done = preprocess_corpus(docs, cfg)
    assert [d.tokens for d in done] == [_reference_preprocess(t, cfg) for t in texts]
    assert [(d.id, d.raw_text) for d in done] == [(d.id, d.raw_text) for d in docs]
    assert done == [preprocess(d, cfg) for d in docs]


def test_preprocess_corpus_keeps_final_sigma_per_document():
    docs = [Document(id="0", raw_text="ΟΔΟΣ"), Document(id="1", raw_text="ΣΑ")]
    done = preprocess_corpus(docs, IDENTITY_CFG)
    assert [d.tokens for d in done] == [("οδος",), ("σα",)]


# ---------------------------------------------------------------------------
# primary keyword sets
# ---------------------------------------------------------------------------


def test_pks_counts_beat_ties():
    doc = Document(id="0", raw_text="", tokens=("a", "a", "b", "b", "c"))
    assert primary_keyword_set(doc, 2) == {"a", "b"}


def test_pks_fewer_than_k():
    doc = Document(id="0", raw_text="", tokens=("x", "y", "z"))
    assert primary_keyword_set(doc, 5) == {"x", "y", "z"}


def test_pks_requires_positive_k():
    with pytest.raises(ValueError):
        primary_keyword_set(Document(id="0", raw_text="", tokens=("a",)), 0)


def test_pks_passage_21_brute_force(msmarco_docs):
    # Independent oracle: count term frequencies directly and pick the top
    # five with the lexicographic-ascending tie-break.
    doc = msmarco_docs[20]  # the first plant-tissue passage; ids are zero-based
    counts = Counter(doc.tokens)
    expected = {
        t for t, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    }
    got = primary_keyword_set(doc, 5)
    assert got == expected
    assert "phloem" in got
    # Frozen from the oracle: phloem and plant dominate at count 2; the
    # remaining slots fall to the lexicographically first count-1 tokens.
    assert got == {"phloem", "plant", "call", "carry", "circulate"}


@settings(max_examples=100)
@given(
    st.lists(st.sampled_from("abcdef"), max_size=30),
    st.integers(min_value=1, max_value=6),
    st.randoms(use_true_random=False),
)
def test_pks_permutation_invariant(tokens, k, rnd):
    doc = Document(id="0", raw_text="", tokens=tuple(tokens))
    shuffled = list(tokens)
    rnd.shuffle(shuffled)
    doc2 = Document(id="0", raw_text="", tokens=tuple(shuffled))
    assert primary_keyword_set(doc, k) == primary_keyword_set(doc2, k)
    pks = primary_keyword_set(doc, k)
    assert len(pks) <= k
    assert pks <= set(tokens)


# ---------------------------------------------------------------------------
# document columns
# ---------------------------------------------------------------------------


@settings(max_examples=100)
@given(
    token_lists=st.lists(st.lists(st.sampled_from("abcdefz"), max_size=12), max_size=5),
    k=st.integers(min_value=1, max_value=4),
)
def test_document_columns_match_primary_keyword_sets_and_counts(token_lists, k):
    vocab = VocabularyIndex(list("fedcba"), [1.0] * 6)  # "z" is out of vocabulary
    docs = [Document(id=str(i), raw_text="", tokens=tuple(t)) for i, t in enumerate(token_lists)]
    copies, primary, counts = document_columns([docs], vocab, k)
    assert copies.tolist() == [[1] * len(docs)]
    for d, doc in enumerate(docs):
        two_copies = np.zeros(len(docs), dtype=np.int64)
        two_copies[d] = 2
        expected_primary = np.zeros(len(vocab))
        for keyword in primary_keyword_set(doc, k) & set(vocab.keywords):
            expected_primary[vocab.index_of(keyword)] = 2
        assert np.array_equal(primary.weighted_sum(two_copies), expected_primary)
        expected_terms = np.zeros(len(vocab))
        for token, n in Counter(doc.tokens).items():
            if token in vocab:
                expected_terms[vocab.index_of(token)] = 2 * n
        terms = term_columns(counts, vocab)
        assert np.array_equal(terms.weighted_sum(two_copies), expected_terms)


def test_document_columns_tell_documents_apart_by_value():
    a = Document(id="1", raw_text="", tokens=("x",))
    a_again = Document(id="1", raw_text="", tokens=("x",))  # another object, equal value
    b = Document(id="1", raw_text="", tokens=("y",))  # same id, other tokens
    vocab = VocabularyIndex(["x", "y"], [1.0, 1.0])
    copies, primary, counts = document_columns([[a, b, a_again], [], [b, b]], vocab, 1)
    assert copies.tolist() == [[2, 1], [0, 0], [0, 2]]
    assert primary.weighted_sum(np.array([1, 0])).tolist() == [1.0, 0.0]
    assert term_columns(counts, vocab).weighted_sum(np.array([0, 3])).tolist() == [0.0, 3.0]
    copies, primary, _ = document_columns([], vocab, 1)
    assert copies.shape == (0, 0)
    assert primary.weighted_sum(copies.sum(axis=0)).tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# vocabulary / idf table
# ---------------------------------------------------------------------------


def test_vocabulary_rejects_duplicates():
    with pytest.raises(ValueError):
        VocabularyIndex(["a", "a"], [1.0, 2.0])


def test_vocabulary_rejects_negative_idf():
    with pytest.raises(ValueError):
        VocabularyIndex(["a"], [-0.5])


def test_idf_table_roundtrip(tmp_path):
    path = tmp_path / "idf.tsv"
    path.write_text("alpha\t1.5\nbeta\t0.25\n", encoding="utf-8")
    vocab = load_idf_table(path)
    assert vocab.keywords == ("alpha", "beta")
    assert vocab.idf.tolist() == [1.5, 0.25]


def test_idf_table_duplicate_term(tmp_path):
    path = tmp_path / "idf.tsv"
    path.write_text("alpha\t1.5\nalpha\t2.0\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="duplicate"):
        load_idf_table(path)


def test_idf_table_bad_number(tmp_path):
    path = tmp_path / "idf.tsv"
    path.write_text("alpha\tnot-a-number\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 1"):
        load_idf_table(path)


@pytest.mark.parametrize(
    "table",
    ["", "alpha\t0\nbeta\t0\n", "alpha\t1e308\nbeta\t1e308\n"],
    ids=["empty", "all-zero", "overflowing"],
)
def test_idf_table_without_weight_is_rejected(tmp_path, table):
    path = tmp_path / "idf.tsv"
    path.write_text(table, encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="degenerate prior"):
        load_idf_table(path)


def test_shipped_idf_covers_every_corpus_token(msmarco_docs, msmarco_vocab):
    tokens = {t for d in msmarco_docs for t in d.tokens}
    assert tokens <= set(msmarco_vocab.keywords)


def test_preprocess_corpus_is_pure():
    docs = [Document(id="0", raw_text="A b-c, d!"), Document(id="1", raw_text="")]
    done = preprocess_corpus(docs, IDENTITY_CFG)
    assert [d.tokens for d in done] == [("a", "b-c", "d"), ()]
    assert [d.tokens for d in docs] == [(), ()]
    assert preprocess_corpus(docs, IDENTITY_CFG) == done
