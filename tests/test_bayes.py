from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fedtrend.bayes import (
    PriorDistribution,
    compute_local_likelihood,
    compute_prior,
    local_likelihoods,
    posterior_scores,
    rank_rounds,
    update_prior,
)
from fedtrend.corpus import Document, VocabularyIndex, primary_keyword_set
from fedtrend.experiment import sample_user_documents
from fedtrend.secagg import FeatureVector


def vocab_of(*pairs):
    return VocabularyIndex([k for k, _ in pairs], [v for _, v in pairs])


# ---------------------------------------------------------------------------
# compute_prior
# ---------------------------------------------------------------------------


def test_prior_from_published_idf_pair():
    vocab = vocab_of(("phloem", 9.8125), ("xylem", 9.6191))
    prior = compute_prior(vocab)
    total = 9.8125 + 9.6191
    assert prior.p[0] == pytest.approx(9.8125 / total, abs=1e-15)
    assert prior.p[1] == pytest.approx(9.6191 / total, abs=1e-15)
    assert prior.p[0] == pytest.approx(0.5049764, abs=1e-6)


def test_prior_uniform_for_equal_idf():
    vocab = vocab_of(*((f"k{i}", 2.5) for i in range(8)))
    prior = compute_prior(vocab)
    assert np.max(np.abs(prior.p - 1 / 8)) <= 1e-15


def test_prior_single_keyword():
    prior = compute_prior(vocab_of(("only", 3.0)))
    assert prior.p.tolist() == [1.0]


def test_prior_degenerate_idf():
    with pytest.raises(ValueError, match="degenerate prior"):
        compute_prior(vocab_of(("a", 0.0), ("b", 0.0)))


# ---------------------------------------------------------------------------
# compute_local_likelihood
# ---------------------------------------------------------------------------


def test_likelihood_single_document_uniform_over_pks():
    vocab = vocab_of(*((k, 1.0) for k in "abcdefgh"))
    doc = Document(id="0", raw_text="", tokens=("a", "b", "c", "d", "e"))
    lk = compute_local_likelihood([doc], vocab, k=5)
    values = lk.values.values
    for kw in "abcde":
        assert values[vocab.index_of(kw)] == pytest.approx(0.2)
    for kw in "fgh":
        assert values[vocab.index_of(kw)] == 0.0


def test_likelihood_overlapping_documents():
    vocab = vocab_of(*((k, 1.0) for k in "abc"))
    doc1 = Document(id="0", raw_text="", tokens=("a", "b"))
    doc2 = Document(id="1", raw_text="", tokens=("a", "c"))
    values = compute_local_likelihood([doc1, doc2], vocab, k=5).values.values
    assert values[vocab.index_of("a")] == max(values)
    assert values[vocab.index_of("a")] == pytest.approx(2 / 4)


def test_likelihood_no_documents_is_zero():
    vocab = vocab_of(("a", 1.0))
    values = compute_local_likelihood([], vocab, k=5).values.values
    assert np.all(values == 0.0)


def test_likelihood_disjoint_vocab_is_zero():
    vocab = vocab_of(("zeta", 1.0))
    doc = Document(id="0", raw_text="", tokens=("alpha", "beta"))
    assert np.all(compute_local_likelihood([doc], vocab, k=5).values.values == 0.0)


def test_likelihood_all_msmarco_passages(msmarco_docs, msmarco_vocab):
    # Independent count oracle: per-document top-5 selection done by hand.
    def oracle_pks(doc):
        counts = Counter(doc.tokens)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return {t for t, _ in ranked[:5]}

    counts = Counter()
    for doc in msmarco_docs:
        for kw in oracle_pks(doc):
            if kw in msmarco_vocab:
                counts[kw] += 1
    total = sum(counts.values())

    lk = compute_local_likelihood(msmarco_docs, msmarco_vocab, k=5, user_id="u")
    values = lk.values.values
    for kw in ("phloem", "manhattan", "project"):
        j = msmarco_vocab.index_of(kw)
        assert values[j] > 0.0
        assert values[j] == pytest.approx(counts[kw] / total, abs=1e-15)


def test_likelihood_alpha0_pseudocounts():
    vocab = vocab_of(("a", 1.0), ("b", 1.0))
    doc = Document(id="0", raw_text="", tokens=("a",))
    values = compute_local_likelihood([doc], vocab, k=5, alpha0=1.0).values.values
    assert values.tolist() == [2 / 3, 1 / 3]


@settings(max_examples=100)
@given(
    st.lists(
        st.lists(st.sampled_from("abcdef"), min_size=0, max_size=8), max_size=6
    )
)
def test_likelihood_sums_to_one_or_zero(doc_tokens):
    vocab = vocab_of(*((k, 1.0) for k in "abcdef"))
    docs = [
        Document(id=str(i), raw_text="", tokens=tuple(toks))
        for i, toks in enumerate(doc_tokens)
    ]
    values = compute_local_likelihood(docs, vocab, k=3).values.values
    total = values.sum()
    assert np.all(values >= 0.0) and np.all(values <= 1.0)
    assert total == 0.0 or abs(total - 1.0) <= 1e-12


def _reference_likelihood(docs, vocab, k, alpha0):
    # One primary keyword set per sampled copy, counted as floats.
    counts = np.zeros(len(vocab), dtype=np.float64)
    for doc in docs:
        for keyword in primary_keyword_set(doc, k):
            j = vocab.index_of(keyword)
            if j is not None:
                counts[j] += 1.0
    if alpha0 > 0:
        counts += alpha0
    total = float(counts.sum())
    return counts / total if total > 0 else counts


# Documents 0 and 1 share an id but not their tokens; document 3 has no
# in-vocabulary keyword and document 4 no tokens at all.  Document 5 is
# another object equal to document 0 in value, and document 6 carries
# document 0's tokens under another id.
LIKELIHOOD_POOL = (
    Document(id="7", raw_text="", tokens=("a", "a", "b", "c")),
    Document(id="7", raw_text="", tokens=("d", "e", "e")),
    Document(id="8", raw_text="", tokens=("b", "c", "f", "zz")),
    Document(id="9", raw_text="", tokens=("yy", "zz")),
    Document(id="10", raw_text="", tokens=()),
    Document(id="7", raw_text="", tokens=("a", "a", "b", "c")),
    Document(id="11", raw_text="", tokens=("a", "a", "b", "c")),
)


@settings(max_examples=200)
@example(users=[[0, 0, 1], [2, 0, 2, 1], [3, 3], []], alpha0=0.5)
@example(users=[[0, 5, 6], [5, 1, 6, 6]], alpha0=0.1)
@given(
    users=st.lists(
        st.lists(st.integers(0, len(LIKELIHOOD_POOL) - 1), max_size=8),
        min_size=1,
        max_size=6,
    ),
    alpha0=st.sampled_from([0.0, 0.1, 0.5, 3.0]),
)
def test_local_likelihoods_match_per_user_loop(users, alpha0):
    vocab = vocab_of(*((k, 1.0) for k in "abcdef"))
    all_users_docs = [[LIKELIHOOD_POOL[i] for i in picks] for picks in users]
    got = local_likelihoods(all_users_docs, vocab, k=2, alpha0=alpha0)
    assert [lk.user_id for lk in got] == [str(i) for i in range(len(users))]
    for lk, docs in zip(got, all_users_docs):
        expected = _reference_likelihood(docs, vocab, 2, alpha0)
        assert np.array_equal(lk.values.values, expected)
        single = compute_local_likelihood(docs, vocab, k=2, user_id="u", alpha0=alpha0)
        assert single.user_id == "u"
        assert np.array_equal(single.values.values, expected)


def test_local_likelihoods_match_per_user_loop_on_msmarco(msmarco_docs, msmarco_vocab):
    rng = np.random.default_rng(3)
    all_users_docs = sample_user_documents(msmarco_docs, 20, rng)
    got = local_likelihoods(all_users_docs, msmarco_vocab, k=5)
    for lk, docs in zip(got, all_users_docs):
        expected = _reference_likelihood(docs, msmarco_vocab, 5, 0.0)
        assert np.array_equal(lk.values.values, expected)


# ---------------------------------------------------------------------------
# posterior_scores / update_prior
# ---------------------------------------------------------------------------


def test_posterior_uniform_prior_orders_by_likelihood():
    vocab = vocab_of(("a", 1.0), ("b", 1.0), ("c", 1.0))
    prior = compute_prior(vocab)
    agg = FeatureVector(values=np.array([0.2, 0.5, 0.3]), bounds=(0.0, 1.0))
    ranking = posterior_scores(agg, prior)
    assert ranking.ranked_keywords() == ("b", "c", "a")


def test_posterior_all_zero_is_lexicographic():
    vocab = vocab_of(("beta", 1.0), ("alpha", 1.0))
    prior = compute_prior(vocab)
    agg = FeatureVector(values=np.zeros(2), bounds=(0.0, 1.0))
    ranking = posterior_scores(agg, prior)
    assert ranking.ranked_keywords() == ("alpha", "beta")
    assert np.all(ranking.scores == 0.0)


def test_posterior_simple_product():
    vocab = vocab_of(("a", 1.0), ("b", 1.0))
    prior = PriorDistribution(vocab=vocab, p=np.array([0.9, 0.1]))
    agg = FeatureVector(values=np.array([0.3, 0.7]), bounds=(0.0, 1.0))
    ranking = posterior_scores(agg, prior)
    assert ranking.scores == pytest.approx([0.27, 0.07])
    assert ranking.order == (0, 1)


def test_posterior_dimension_mismatch():
    prior = compute_prior(vocab_of(("a", 1.0), ("b", 1.0)))
    agg = FeatureVector(values=np.zeros(3), bounds=(0.0, 1.0))
    with pytest.raises(ValueError):
        posterior_scores(agg, prior)


def uniform_posterior(vocab, likelihood):
    """The posterior of ``likelihood`` under the uniform prior of ``vocab``."""
    prior = PriorDistribution(vocab=vocab, p=np.full(len(vocab), 1.0 / len(vocab)))
    return posterior_scores(FeatureVector(values=np.asarray(likelihood)), prior)


def test_update_prior_normalizes():
    vocab = vocab_of(("a", 1.0), ("b", 1.0))
    prior = update_prior(uniform_posterior(vocab, [0.27, 0.07]))
    assert prior.p == pytest.approx([0.27 / 0.34, 0.07 / 0.34])
    assert prior.p[0] == pytest.approx(0.79412, abs=1e-5)


def test_update_prior_idempotent_on_simplex():
    vocab = vocab_of(("a", 1.0), ("b", 1.0), ("c", 1.0))
    scores = np.array([0.5, 0.25, 0.25])
    prior = update_prior(uniform_posterior(vocab, scores))
    assert np.max(np.abs(prior.p - scores)) <= 1e-12


def test_update_prior_rejects_zero_evidence():
    ranking = uniform_posterior(vocab_of(("a", 1.0)), np.zeros(1))
    with pytest.raises(ValueError, match="no evidence"):
        update_prior(ranking)


# ---------------------------------------------------------------------------
# rank_rounds
# ---------------------------------------------------------------------------


def test_rank_rounds_grid_merges_noise_ties():
    prior = compute_prior(vocab_of(("a", 1.0), ("b", 1.0)))
    (ranking,) = rank_rounds([np.array([0.5, 0.5 + 1e-13])], prior, 1)
    assert ranking.scores[0] == ranking.scores[1]
    assert ranking.ranked_keywords() == ("a", "b")


def test_rank_rounds_resolution_zero_keeps_the_sums():
    prior = compute_prior(vocab_of(("a", 1.0), ("b", 1.0)))
    (ranking,) = rank_rounds([np.array([0.5, 0.5 + 1e-13])], prior, 1, resolution=0.0)
    assert ranking.ranked_keywords() == ("b", "a")


def test_rank_rounds_mean_divides_after_the_grid():
    prior = compute_prior(vocab_of(("a", 1.0), ("b", 3.0)))
    total = np.array([1.4, 0.6 + 1e-12])
    (mean,) = rank_rounds([total], prior, 2, aggregation="mean")
    on_grid = np.round(total / 1e-9) * 1e-9
    assert mean.scores.tobytes() == (on_grid / 2 * prior.p).tobytes()


def test_rank_rounds_updates_the_prior_between_rounds_only():
    vocab = vocab_of(("a", 1.0), ("b", 2.0), ("c", 3.0))
    prior = compute_prior(vocab)
    likelihood = np.array([0.6, 0.3, 0.1])
    rounds = [likelihood, likelihood, np.zeros(3)]
    first, second, last = rank_rounds(rounds, prior, 1, resolution=0.0)
    assert first.scores.tobytes() == (likelihood * prior.p).tobytes()
    assert second.scores.tobytes() == (likelihood * update_prior(first).p).tobytes()
    # an all-zero last round ranks; updating on it would raise
    assert np.all(last.scores == 0.0)


def test_two_round_product_oracle():
    # Round 2 on static data must rank like the elementwise product L^2 * p.
    vocab = vocab_of(("a", 1.0), ("b", 2.0), ("c", 3.0))
    prior = compute_prior(vocab)
    agg = FeatureVector(values=np.array([0.6, 0.3, 0.1]), bounds=(0.0, 1.0))
    first = posterior_scores(agg, prior)
    second = posterior_scores(agg, update_prior(first))
    oracle = sorted(
        range(3),
        key=lambda j: (-(agg.values[j] ** 2 * prior.p[j]), vocab.keywords[j]),
    )
    assert list(second.order) == oracle


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


@settings(max_examples=100)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=8),
    st.floats(min_value=-6.0, max_value=6.0),
)
@example(values=[0.0, 0.0, 5e-324], log_c=1.0)  # 5e-324 * prior underflows to 0
def test_scaling_invariance_of_rank(values, log_c):
    c = 10.0**log_c
    vocab = vocab_of(*((f"k{i:02d}", float(i + 1)) for i in range(len(values))))
    prior = compute_prior(vocab)
    base = np.asarray(values)
    scaled = c * base
    # Scaling itself can underflow or merge values ([0, 5e-324] * 0.1 is
    # [0, 0]); then the two calls rank different vectors.
    assume(np.array_equal(scaled == 0, base == 0))
    assume(
        np.array_equal(np.argsort(scaled, kind="stable"), np.argsort(base, kind="stable"))
    )
    r1 = posterior_scores(FeatureVector(values=base, bounds=(0.0, 1.0)), prior)
    r2 = posterior_scores(FeatureVector(values=scaled, bounds=(0.0, float(c))), prior)
    assert r1.order == r2.order


def test_zero_propagation():
    vocab = vocab_of(("a", 1.0), ("b", 1.0), ("c", 1.0))
    prior = compute_prior(vocab)
    # keyword c has zero likelihood in every user's vector
    pooled = FeatureVector(values=np.array([0.9, 1.1, 0.0]), bounds=(0.0, 2.0))
    ranking = posterior_scores(pooled, prior)
    assert ranking.scores[vocab.index_of("c")] == 0.0
