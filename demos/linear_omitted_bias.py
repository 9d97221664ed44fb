#!/usr/bin/env python3
"""
What a regression gets wrong when a feature is left out.

The outcome follows Y = b0 + b1*X1 + b2*X2 + noise, but the model only
sees X1. The fitted line then absorbs whatever part of X2 co-moves with
X1 and misses the rest, and the miss differs by group whenever the
groups differ in X2. Both the slope of the short model and the per-group
prediction errors have closed forms in the mixture moments; this script
prints them next to a single large-sample fit.

It also constructs a mixture where the group errors cancel exactly, to
show the cancellation condition is a knife edge rather than a typical
outcome.
"""

import numpy as np

from biaslab import (
    DgpSpec,
    GroupGaussianSpec,
    MixtureSpec,
    bias_vanishes_condition,
    error_report,
    fit_ols,
    generate,
    omitted_coefficients,
    omitted_group_errors,
    pooled_moments,
    predict,
)

BETA = (-2.0, 1.0, 1.0)  # (beta0, beta1, beta2)

MIXTURE = MixtureSpec(
    groups=(
        GroupGaussianSpec(mean=(1.0, 1.0), covariance=((1.0, 0.5), (0.5, 1.0))),
        GroupGaussianSpec(mean=(1.0, 3.0), covariance=((1.0, -0.5), (-0.5, 1.0))),
    ),
    weight_protected=0.5,
)


def main():
    print("Closed forms")
    print("-" * 60)
    gamma = omitted_coefficients(BETA, pooled_moments(MIXTURE))
    pred = omitted_group_errors(BETA, MIXTURE)
    print("short model      intercept %+.4f   slope %+.4f" % gamma)
    print("group errors     b_0 %+.4f   b_1 %+.4f   gap %+.4f"
          % (pred.b_group0, pred.b_group1, pred.tau))
    print("population error %+.4f (weighted group errors, zero by construction)"
          % pred.b_pop)

    print()
    print("One large simulated fit (200,000 rows per group)")
    print("-" * 60)
    spec = DgpSpec(family="linear", beta=BETA, mixture=MIXTURE, n_per_group=200_000)
    data = generate(spec, seed=20240914)
    model = fit_ols(data, "x1_only")
    report = error_report(predict(model, data.x1), data.y, data.a)
    print("fitted           intercept %+.4f   slope %+.4f"
          % (model.coefficients[0], model.coefficients[1]))
    print("audited errors   b_0 %+.4f   b_1 %+.4f   gap %+.4f"
          % (report.b_group0, report.b_group1, report.tau))
    print("standard errors      %.4f        %.4f       %.4f"
          % (report.se_group0, report.se_group1, report.se_tau))

    print()
    print("A mixture where the group errors cancel")
    print("-" * 60)
    # The short slope picks up Cov/Var * (shift in X1) of signal per group;
    # choosing the X1 shift to exactly pay for the X2 shift kills the gap.
    tuned = MixtureSpec(
        groups=(
            GroupGaussianSpec(mean=(0.0, 0.0), covariance=((1.0, 0.5), (0.5, 1.0))),
            GroupGaussianSpec(mean=(2.0, 1.0), covariance=((1.0, 0.5), (0.5, 1.0))),
        ),
        weight_protected=0.5,
    )
    tuned_pred = omitted_group_errors(BETA, tuned)
    print("condition holds: %s" % bias_vanishes_condition(BETA, tuned))
    print("group errors     b_0 %+.4f   b_1 %+.4f   gap %+.2e"
          % (tuned_pred.b_group0, tuned_pred.b_group1, tuned_pred.tau))
    print()
    print("nudge the X2 shift from 1.0 to 1.1 and the gap reopens:")
    nudged = MixtureSpec(
        groups=(
            tuned.groups[0],
            GroupGaussianSpec(mean=(2.0, 1.1), covariance=((1.0, 0.5), (0.5, 1.0))),
        ),
        weight_protected=0.5,
    )
    nudged_pred = omitted_group_errors(BETA, nudged)
    print("condition holds: %s" % bias_vanishes_condition(BETA, nudged))
    print("group errors     b_0 %+.4f   b_1 %+.4f   gap %+.4f"
          % (nudged_pred.b_group0, nudged_pred.b_group1, nudged_pred.tau))


if __name__ == "__main__":
    main()
