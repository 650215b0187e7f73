"""Estimating the order of a five-mode benchmark response.

A response built from five decaying exponentials is fed to three
estimators: the Hankel rank sweep, AIC over autoregressive fits, and the
covariance-determinant table.  The rank sweep and AIC recover the true
order; the determinant table collapses too early.
"""

from hankelorder import (
    aic_order,
    covariance_determinants,
    covdet_order,
    gen_y5,
    hokalman_order,
)

signal = gen_y5(40)
print(f"signal: {signal.provenance}")
print(f"true order: {signal.true_order}\n")

# The rank of the n-row responses matrix stabilizes at the model order.
estimate, sweep = hokalman_order(signal, n_max=8)
print("rank sweep (n, rank):", [(p.n, p.rank) for p in sweep.points])
print(f"rank-based estimate: {estimate.order}\n")

# AIC trades residual fit against parameter count.  On this noise-free
# benchmark every fit of order 5 or more leaves only rounding noise, which
# the rss floor (the rounding error of the least-squares fit) absorbs, so
# the argmin lands on the smallest such order.
aic_est, aic_report = aic_order(signal, p_max=10)
print("AIC values by p:", [f"{p}:{a:.1f}" for p, _, a in aic_report.per_order])
print(f"AIC estimate: {aic_est.order}\n")

# The covariance determinant collapses once the lag vectors become
# dependent, but ill-conditioning makes it collapse well before the
# true order: reading the table suggests 3.
cov = covariance_determinants(signal, range(2, 9))
for m, det in cov.per_order:
    print(f"  det(C_{m}) = {det:.3e}")
print(f"covariance-determinant suggestion: {covdet_order(cov).order}")
