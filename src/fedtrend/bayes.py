"""Bayesian trend scoring over a keyword vocabulary.

The prior over keywords is the mean of a Dirichlet parametrized by IDF
weights, so historically common words start with low trend probability.
Each user's likelihood vector is the mean of a Dirichlet parametrized by
how many of her documents carry each keyword in their primary keyword set.
``column_likelihoods`` makes all users' vectors, rows of one array, at once.
Posterior scores are likelihood times prior; the marginal evidence term is
a constant and is never computed, since only the ranking matters.
``rank_rounds`` is the one path from summed likelihoods to rankings: the
federated rounds, ``baselines.centralized_oracle`` and ``fedtrend rank``
all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .corpus import Document, DocumentColumns, VocabularyIndex, document_columns
from .secagg import FeatureVector, freeze, frozen

__all__ = [
    "LikelihoodVector",
    "PosteriorRanking",
    "PriorDistribution",
    "column_likelihoods",
    "compute_local_likelihood",
    "compute_prior",
    "likelihood_vectors",
    "local_likelihoods",
    "posterior_scores",
    "rank_rounds",
    "update_prior",
]

_SIMPLEX_TOLERANCE = 1e-12

#: Grid pitch used to round aggregates before ranking.  The oracle compares
#: each round's aggregate with the share-free sum bit for bit, before this
#: grid.  Its job is to keep rationally tied coordinates (1/3 + 1/6 against
#: 1/2) tied: after per-user rounding onto ``secagg``'s 2**-f grid such sums
#: can differ by a few 2**-f steps, far below this pitch and below any
#: genuine score separation.
DEFAULT_SCORE_RESOLUTION = 1e-9


@dataclass(frozen=True, eq=False)
class PriorDistribution:
    """Discrete probability distribution over the vocabulary keywords."""

    vocab: VocabularyIndex
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", frozen(self.p))
        if self.p.shape != (len(self.vocab),):
            raise ValueError("prior length does not match vocabulary size")
        if np.any(self.p < 0):
            raise ValueError("prior probabilities must be nonnegative")
        if abs(float(self.p.sum()) - 1.0) > _SIMPLEX_TOLERANCE:
            raise ValueError("prior probabilities must sum to 1")


@dataclass(frozen=True, eq=False)
class LikelihoodVector:
    """One user's per-keyword likelihoods; entries in [0, 1]."""

    user_id: str
    values: FeatureVector


@dataclass(frozen=True, eq=False)
class PosteriorRanking:
    """Unnormalized posterior scores plus their deterministic rank order.

    ``order`` sorts scores non-increasingly; exactly equal scores appear in
    lexicographic keyword order.  ``posterior_scores`` orders by the exact
    size of each product, so scores that underflowed to 0 or to a subnormal
    still rank by likelihood times prior.
    """

    vocab: VocabularyIndex
    scores: np.ndarray
    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "scores", frozen(self.scores))

    def ranked_keywords(self) -> tuple[str, ...]:
        return tuple(self.vocab.keywords[j] for j in self.order)

    def rank_of(self, keyword: str) -> int:
        """1-based position of ``keyword`` in the ranking."""
        j = self.vocab.index_of(keyword)
        if j is None:
            raise KeyError(keyword)
        return self.order.index(j) + 1


def _descending_order(by_keyword, products, values, weights) -> tuple[int, ...]:
    """Indices by non-increasing ``products``, the rounded ``values *
    weights`` as stored in ``scores``, ties in the order of ``by_keyword``,
    the vocabulary's lexicographic order.

    A product that underflowed (nonzero factors, below the smallest normal
    double) is compared by its exact value, which only ever splits ties of
    the rounded products.
    """
    values, weights = np.broadcast_arrays(values, weights)
    tiny = np.finfo(np.float64).tiny
    underflowed = (products > -tiny) & (products < tiny) & (values != 0)
    key = (-products).tolist()
    exact = np.flatnonzero(underflowed).tolist()
    if exact:
        key = [(x, 0) for x in key]  # (-rounded product, -(exact product) * 2**2148)
    for j in exact:
        # every double is an integer multiple of 2**-1074
        (a, b), (c, d) = values[j].as_integer_ratio(), weights[j].as_integer_ratio()
        key[j] = (key[j][0], -((a << 1074) // b) * ((c << 1074) // d))
    # a stable sort keeps keyword order among equal keys
    return tuple(sorted(by_keyword, key=key.__getitem__))


def compute_prior(vocab: VocabularyIndex) -> PriorDistribution:
    """Mean of Dirichlet(idf): p[j] = idf[j] / sum(idf); a ``ValueError``
    unless that sum is finite and positive."""
    return PriorDistribution(vocab=vocab, p=freeze(vocab.idf / vocab.idf_total()))


def local_likelihoods(
    all_users_docs: Sequence[Sequence[Document]],
    vocab: VocabularyIndex,
    k: int = 5,
    alpha0: float = 0.0,
) -> list[LikelihoodVector]:
    """Dirichlet-mean likelihood of every user; user i gets ``user_id`` str(i).

    c[j] counts the user's documents (per copy, if a document was sampled
    more than once) whose primary keyword set contains keyword j.  Keywords
    outside every primary keyword set keep likelihood 0.  ``alpha0`` adds a
    symmetric pseudo-count for callers who want nonzero support everywhere.
    Each vector sums to 1 unless its user contributes no counts at all, in
    which case it is all zeros.

    Each distinct document (told apart by value) is reduced once per call,
    and each user is a row of copies per document (``document_columns``).
    """
    copies, primary, _ = document_columns(all_users_docs, vocab, k)
    return likelihood_vectors(column_likelihoods(primary, copies, alpha0))


def column_likelihoods(
    primary: DocumentColumns, copies: np.ndarray, alpha0: float = 0.0
) -> np.ndarray:
    """``local_likelihoods`` from primary keyword columns and one row of
    copies per user, as the rows of one frozen (N, d) array: one weighted
    ``bincount`` for all users, exact integers until the final division."""
    if alpha0 < 0:
        raise ValueError("alpha0 must be nonnegative")
    counts = primary.weighted_sum(copies)
    if alpha0 > 0:
        counts += alpha0
    totals = counts.sum(axis=1, keepdims=True)
    return freeze(counts / np.where(totals > 0, totals, 1.0))  # all-zero rows stay 0


def likelihood_vectors(values: np.ndarray) -> list[LikelihoodVector]:
    """Row i of frozen likelihoods ``values`` as user str(i)'s vector, in the same memory."""
    return [LikelihoodVector(str(i), FeatureVector(r, (0.0, 1.0))) for i, r in enumerate(values)]


def compute_local_likelihood(
    user_docs: Sequence[Document],
    vocab: VocabularyIndex,
    k: int = 5,
    user_id: str = "",
    alpha0: float = 0.0,
) -> LikelihoodVector:
    """One user's likelihood, as ``local_likelihoods`` computes it; to
    score many users, call that once, so shared documents are reduced once."""
    (likelihood,) = local_likelihoods([user_docs], vocab, k=k, alpha0=alpha0)
    return replace(likelihood, user_id=user_id)


def posterior_scores(
    aggregated_likelihood: FeatureVector, prior: PriorDistribution
) -> PosteriorRanking:
    """Score keywords by aggregated likelihood times prior and rank them."""
    if len(aggregated_likelihood) != len(prior.vocab):
        raise ValueError("aggregated likelihood and prior use different vocabularies")
    values = aggregated_likelihood.values
    scores = freeze(values * prior.p)
    order = _descending_order(prior.vocab.by_keyword, scores, values, prior.p)
    return PosteriorRanking(vocab=prior.vocab, scores=scores, order=order)


def rank_rounds(
    aggregates: Sequence[np.ndarray],
    prior: PriorDistribution,
    n_users: int,
    aggregation: str = "sum",
    resolution: float = DEFAULT_SCORE_RESOLUTION,
) -> list[PosteriorRanking]:
    """One posterior ranking per round's sum of ``n_users`` likelihoods.

    Each sum is rounded onto the score grid of pitch ``resolution`` (left
    as it is when ``resolution`` is 0), divided by ``n_users`` when
    ``aggregation`` is ``mean``, and ranked under the prior that the
    previous round's ranking updated.  No update follows the last round: it
    would raise on all-zero scores and nothing reads it.
    """
    rankings = []
    for round_index, values in enumerate(aggregates):
        if resolution > 0.0:
            values = freeze(np.round(values / resolution) * resolution)
        if aggregation == "mean":
            values = freeze(values / n_users)
        fv = FeatureVector(values=values, bounds=(0.0, float(n_users)))
        rankings.append(posterior_scores(fv, prior))
        if round_index + 1 < len(aggregates):
            prior = update_prior(rankings[-1])
    return rankings


def update_prior(posterior: PosteriorRanking) -> PriorDistribution:
    """Normalize posterior scores into the next round's prior."""
    total = float(posterior.scores.sum())
    if total <= 0.0:
        raise ValueError("no evidence to update on: posterior scores are all zero")
    return PriorDistribution(vocab=posterior.vocab, p=freeze(posterior.scores / total))
