from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtrend.baselines import (
    CountRanking,
    centralized_oracle,
    local_top_keywords,
    pooled_likelihood,
    rank_by_pooled_trend,
    rank_by_total_count,
)
from fedtrend.bayes import compute_local_likelihood, compute_prior, posterior_scores
from fedtrend.corpus import Document, VocabularyIndex

TABLE_KEYWORDS = ("costa", "manhattan", "offender", "phloem", "project", "rica", "xylem")
TABLE_COUNTS = {
    "manhattan": 77,
    "project": 75,
    "costa": 57,
    "rica": 57,
    "phloem": 49,
    "offender": 48,
    "xylem": 30,
}


def count_vocab():
    return VocabularyIndex(TABLE_KEYWORDS, [1.0] * len(TABLE_KEYWORDS))


def docs_with_counts(counts):
    tokens = []
    for keyword, count in counts.items():
        tokens.extend([keyword] * count)
    return [Document(id="0", raw_text="", tokens=tuple(tokens))]


# ---------------------------------------------------------------------------
# rank_by_total_count
# ---------------------------------------------------------------------------


def test_total_count_published_relative_order():
    ranking = rank_by_total_count(docs_with_counts(TABLE_COUNTS), count_vocab())
    assert ranking.order == (
        "manhattan",
        "project",
        "costa",
        "rica",
        "phloem",
        "offender",
        "xylem",
    )
    # ordinal ranks: the tied pair costa/rica still gets distinct ranks,
    # costa first by the lexicographic tie-break
    assert ranking.ranks["costa"] == 3
    assert ranking.ranks["rica"] == 4
    assert ranking.counts == TABLE_COUNTS


def test_total_count_empty_pool():
    ranking = rank_by_total_count([], count_vocab())
    assert all(count == 0 for count in ranking.counts.values())
    assert ranking.order == tuple(sorted(TABLE_KEYWORDS))


def test_total_count_simple():
    vocab = VocabularyIndex(["a", "b"], [1.0, 1.0])
    docs = [Document(id="0", raw_text="", tokens=("a", "a", "b"))]
    ranking = rank_by_total_count(docs, vocab)
    assert ranking.counts == {"a": 2, "b": 1}
    assert ranking.order == ("a", "b")


def test_total_count_counts_sampled_copies():
    vocab = VocabularyIndex(["a"], [1.0])
    doc = Document(id="0", raw_text="", tokens=("a",))
    ranking = rank_by_total_count([doc, doc, doc], vocab)
    assert ranking.counts["a"] == 3


@settings(max_examples=50)
@given(st.lists(st.sampled_from("abcd"), max_size=40), st.randoms(use_true_random=False))
def test_total_count_permutation_invariant(tokens, rnd):
    vocab = VocabularyIndex(["a", "b", "c", "d"], [1.0] * 4)
    docs = [Document(id="0", raw_text="", tokens=tuple(tokens))]
    shuffled = list(tokens)
    rnd.shuffle(shuffled)
    docs2 = [Document(id="0", raw_text="", tokens=tuple(shuffled))]
    assert rank_by_total_count(docs, vocab) == rank_by_total_count(docs2, vocab)


def test_total_count_additive_over_multisets():
    vocab = VocabularyIndex(["a", "b"], [1.0, 1.0])
    d1 = Document(id="0", raw_text="", tokens=("a", "b"))
    d2 = Document(id="1", raw_text="", tokens=("a",))
    combined = rank_by_total_count([d1, d2], vocab).counts
    separate1 = rank_by_total_count([d1], vocab).counts
    separate2 = rank_by_total_count([d2], vocab).counts
    assert combined == {k: separate1[k] + separate2[k] for k in combined}


# Documents 0 and 1 share an id but not their tokens, document 2 holds an
# out-of-vocabulary token, and document 3 is another object equal to 0.
COUNT_POOL = (
    Document(id="0", raw_text="", tokens=("a", "b", "a", "c")),
    Document(id="0", raw_text="", tokens=("d", "d")),
    Document(id="1", raw_text="", tokens=("b", "zz", "c", "c")),
    Document(id="0", raw_text="", tokens=("a", "b", "a", "c")),
    Document(id="2", raw_text="", tokens=()),
)


@settings(max_examples=100)
@given(st.lists(st.integers(0, len(COUNT_POOL) - 1), max_size=30))
def test_total_count_matches_a_counter_over_pooled_copies(picks):
    vocab = VocabularyIndex(["d", "c", "b", "a", "e"], [1.0] * 5)
    pooled = [COUNT_POOL[i] for i in picks]
    tokens = Counter(token for doc in pooled for token in doc.tokens)
    expected = {kw: tokens[kw] for kw in vocab.keywords}
    order = tuple(sorted(expected, key=lambda kw: (-expected[kw], kw)))
    ranking = rank_by_total_count(pooled, vocab)
    assert ranking.counts == expected
    assert all(type(count) is int for count in ranking.counts.values())
    assert ranking.order == order
    assert ranking.ranks == {kw: rank for rank, kw in enumerate(order, start=1)}


# ---------------------------------------------------------------------------
# rank_by_pooled_trend
# ---------------------------------------------------------------------------


def test_pooled_trend_simple_votes():
    ranking = rank_by_pooled_trend(["a", "a", "b"])
    assert ranking.ranks == {"a": 1, "b": 2}


def test_pooled_trend_dense_shared_ranks():
    ranking = rank_by_pooled_trend(["rica", "costa", "rica", "costa", "manhattan"])
    assert ranking.ranks["costa"] == 1
    assert ranking.ranks["rica"] == 1
    assert ranking.ranks["manhattan"] == 2


def test_pooled_trend_empty():
    ranking = rank_by_pooled_trend([])
    assert ranking.order == ()
    assert ranking.counts == {}


def test_local_top_keyword():
    vocab = VocabularyIndex(["b", "a", "c"], [1.0, 1.0, 1.0])
    assert local_top_keywords([[0.5, 0.5, 0.0]], vocab) == ["a"]  # tie: lexicographic
    assert local_top_keywords([np.zeros(3)], vocab) == [None]
    assert local_top_keywords([[0.1, 0.2, 0.7]], vocab) == ["c"]


def _reference_local_top_keyword(values, vocab):
    """One user's top keyword as the per-user ``local_top_keyword`` found it
    before the one-pass ``local_top_keywords``, kept as the reference."""
    values = np.asarray(values)
    top = values.max(initial=0.0)
    if not top > 0:
        return None
    return min(vocab.keywords[j] for j in np.flatnonzero(values == top).tolist())


@settings(max_examples=200)
@given(data=st.data())
def test_local_top_keywords_match_the_per_user_reference(data):
    keywords = data.draw(st.lists(st.text("abAB-", min_size=1, max_size=3), min_size=1,
                                  max_size=8, unique=True))
    entries = st.sampled_from([0.0, -0.0, 5e-324, 0.25, 0.5, 1.0, -1.0, np.nan])
    row = st.lists(entries, min_size=len(keywords), max_size=len(keywords))
    rows = data.draw(st.lists(row, max_size=6))
    vocab = VocabularyIndex(keywords, [1.0] * len(keywords))
    stack = np.array(rows, dtype=np.float64).reshape(len(rows), len(keywords))
    expected = [_reference_local_top_keyword(values, vocab) for values in stack]
    assert local_top_keywords(stack, vocab) == expected
    assert [local_top_keywords([values], vocab)[0] for values in stack] == expected


def test_count_ranking_from_counts_dense_vs_ordinal():
    counts = {"x": 2, "y": 2, "z": 1}
    ordinal = CountRanking.from_counts(counts)
    dense = CountRanking.from_counts(counts, dense=True)
    assert ordinal.ranks == {"x": 1, "y": 2, "z": 3}
    assert dense.ranks == {"x": 1, "y": 1, "z": 2}


# ---------------------------------------------------------------------------
# centralized oracle
# ---------------------------------------------------------------------------


def test_oracle_single_user_equals_local_ranking():
    vocab = VocabularyIndex(["a", "b", "c"], [3.0, 2.0, 1.0])
    docs = [Document(id="0", raw_text="", tokens=("a", "a", "b"))]
    prior = compute_prior(vocab)
    oracle = centralized_oracle([docs], vocab, k=2, prior=prior)
    local = compute_local_likelihood(docs, vocab, k=2)
    direct = posterior_scores(local.values, prior)
    assert oracle.order == direct.order
    assert np.array_equal(oracle.scores, direct.scores)


def test_oracle_identical_document_sets_scale_only():
    vocab = VocabularyIndex(["a", "b"], [1.0, 2.0])
    docs = [Document(id="0", raw_text="", tokens=("a", "b", "b"))]
    prior = compute_prior(vocab)
    one = centralized_oracle([docs], vocab, k=2, prior=prior)
    many = centralized_oracle([docs] * 5, vocab, k=2, prior=prior)
    assert one.order == many.order


def test_pooled_likelihood_bounds_and_sum():
    vocab = VocabularyIndex(["a", "b"], [1.0, 1.0])
    users = [
        [Document(id="0", raw_text="", tokens=("a",))],
        [Document(id="1", raw_text="", tokens=("b",))],
    ]
    pooled = pooled_likelihood(users, vocab, k=1)
    assert pooled.bounds == (0.0, 2.0)
    assert pooled.values.tolist() == [1.0, 1.0]


def test_pooled_likelihood_requires_users():
    with pytest.raises(ValueError):
        pooled_likelihood([], VocabularyIndex(["a"], [1.0]), k=1)
