"""Non-private comparison rankings and the centralized test oracle."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bayes import PosteriorRanking, PriorDistribution, local_likelihoods, rank_rounds
from .corpus import Document, VocabularyIndex
from .secagg import FeatureVector, exact_sum

__all__ = [
    "CountRanking",
    "centralized_oracle",
    "local_top_keyword",
    "pooled_likelihood",
    "rank_by_pooled_trend",
    "rank_by_total_count",
]


@dataclass(frozen=True)
class CountRanking:
    """Keyword counts with a deterministic order and per-keyword ranks.

    ``order`` is descending by count, ties lexicographic.  Ranks are
    ordinal (1, 2, 3, ...) or dense (tied counts share a rank) depending on
    which baseline produced the ranking.
    """

    counts: dict[str, int]
    order: tuple[str, ...]
    ranks: dict[str, int]

    @classmethod
    def from_counts(cls, counts: Mapping[str, int], dense: bool = False) -> "CountRanking":
        order = tuple(sorted(counts, key=lambda kw: (-counts[kw], kw)))
        ranks: dict[str, int] = {}
        for position, kw in enumerate(order, start=1):
            if dense:
                prev = order[position - 2] if position > 1 else None
                if prev is not None and counts[prev] == counts[kw]:
                    ranks[kw] = ranks[prev]
                else:
                    ranks[kw] = 1 if prev is None else ranks[prev] + 1
            else:
                ranks[kw] = position
        return cls(counts=dict(counts), order=order, ranks=ranks)


def rank_by_total_count(
    all_docs: Sequence[Document], vocab: VocabularyIndex
) -> CountRanking:
    """Rank vocabulary keywords by total token occurrences in the pooled
    document multiset (documents sampled more than once count per copy).
    Each distinct document's tokens are counted once, weighted by its copies."""
    counts = {kw: 0 for kw in vocab.keywords}
    for doc, copies in Counter(all_docs).items():
        for token, occurrences in Counter(doc.tokens).items():
            if token in counts:
                counts[token] += occurrences * copies
    return CountRanking.from_counts(counts)


def rank_by_pooled_trend(local_tops: Sequence[str]) -> CountRanking:
    """Rank keywords by how many users report them as their local trend.

    Uses dense ranking: keywords with the same number of votes share a
    rank, ordered lexicographically within it.
    """
    counts: dict[str, int] = {}
    for keyword in local_tops:
        counts[keyword] = counts.get(keyword, 0) + 1
    return CountRanking.from_counts(counts, dense=True)


def local_top_keyword(likelihood_values: np.ndarray, vocab: VocabularyIndex) -> str | None:
    """Argmax keyword of one user's likelihood vector, ties lexicographic;
    None when the vector is all zeros (nothing to report)."""
    values = np.asarray(likelihood_values)
    if not np.any(values > 0):
        return None
    best = np.flatnonzero(values == values.max())
    return min(vocab.keywords[j] for j in best)


def pooled_likelihood(
    all_users_docs: Sequence[Sequence[Document]],
    vocab: VocabularyIndex,
    k: int = 5,
    alpha0: float = 0.0,
) -> FeatureVector:
    """Exact likelihood aggregate: the correctly rounded sum of the per-user
    Dirichlet means, with no shares and no network."""
    n = len(all_users_docs)
    if n == 0:
        raise ValueError("need at least one user")
    per_user = local_likelihoods(all_users_docs, vocab, k=k, alpha0=alpha0)
    return FeatureVector(
        values=exact_sum([lk.values.values for lk in per_user]), bounds=(0.0, float(n))
    )


def centralized_oracle(
    all_users_docs: Sequence[Sequence[Document]],
    vocab: VocabularyIndex,
    k: int,
    prior: PriorDistribution,
    alpha0: float = 0.0,
    resolution: float = 0.0,
) -> PosteriorRanking:
    """Posterior ranking computed without any secure aggregation.

    Scored by ``rank_rounds`` like the federated path, on the score grid of
    pitch ``resolution``; used to verify that the protocol round changes
    nothing but the privacy of the inputs.
    """
    pooled = pooled_likelihood(all_users_docs, vocab, k=k, alpha0=alpha0)
    return rank_rounds(
        [pooled.values], prior, len(all_users_docs), resolution=resolution
    )[0]
