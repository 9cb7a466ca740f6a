"""fedtrend: privacy-preserving Bayesian trend detection.

Per-user keyword likelihoods are aggregated through an additive
secret-sharing round simulated over a deterministic message-passing
network, then combined with an IDF-parametrized Dirichlet prior to rank
keywords by trend probability.
"""

__version__ = "0.1.0"
