"""Split a bounded vector into additive shares and put it back together.

No single share says anything about the secret: the off-diagonal shares
are uniform noise in [-D, D] and the kept share is the residual.  Shares
are points of a 2^-f grid, so summing all of them cancels the noise
exactly and gives the secret as rounded onto that grid.
"""

import numpy as np

from fedtrend import secagg

secret = secagg.FeatureVector(values=np.array([0.15, 0.80, 0.05]), bounds=(0.0, 1.0))
n_users, share_range = 5, 100.0

shares = secagg.make_shares(secret, n_users, share_range, rng=secagg.seeded_rng(42), owner=0)
print("secret:        ", secret.values)
print("kept (residual)", np.round(shares.diagonal, 3))
for k in range(1, n_users):
    print(f"to user {k}:     ", np.round(shares.share_for(k), 3))

total = secagg.ordered_sum(shares.shares)
print("\nsum of shares: ", total)
print("max |error|:   ", np.max(np.abs(total - secret.values)))
f = secagg.grid_bits(n_users, share_range, secret.bounds)
print("== encoded:    ", np.array_equal(total, secagg.encode(secret.values, secret.bounds, f)))

# the only error is the one rounding onto the grid, at most 2^-(f+1)
errors = []
for seed in range(200):
    s = secagg.make_shares(secret, n_users, share_range, rng=secagg.seeded_rng(seed))
    errors.append(np.max(np.abs(secagg.ordered_sum(s.shares) - secret.values)))
print(f"\nover 200 draws at D={share_range}: worst error {max(errors):.2e}")
