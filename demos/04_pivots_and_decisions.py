"""Pivotal safety: why assuming the fair coin is harmless.

The standard Monty Hall analysis assumes the host flips a fair coin when
he has a choice. Whether or not that is true, the resulting working
distribution is pivotally safe: the indicator "car behind the picked
door" has the same law under every host strategy and is independent of
the opened door under the working distribution. Decisions scored by any
symmetric loss then earn exactly their believed expected loss, even if
the fair-coin assumption is wrong.
"""

from fractions import Fraction

from safeprob.decisions import (
    BRIER,
    LOG,
    ZERO_ONE,
    LossFunction,
    check_decision_safety,
    decision_loss_table,
)
from safeprob.demos import monty_scenario
from safeprob.pivots import canonical_pivot, check_pivot, check_pivotal_safety
from safeprob.safety import LEFT_FULL, RIGHT_SQUARE, SafetyQuery, check_safety

print(__doc__)

scn = monty_scenario()
ptilde, u, v, credal = scn["ptilde"], scn["U"], scn["V"], scn["credal"]

verdict = check_pivot(scn["pivot"], u, v, credal)
print(f"indicator pivot: is_pivot={verdict.is_pivot}, simple={verdict.is_simple}")
indicator_safe = check_pivotal_safety(ptilde, u, v, scn["pivot"], credal).holds
print("pivotally safe:", indicator_safe)

spec = canonical_pivot(ptilde, u, v)
print("\nprobability-of-outcome pivot values:",
      sorted({str(p[0]) for p in spec.mapping.values()}))
outcome_prob = SafetyQuery(spec.as_rv(u, v), LEFT_FULL, v, RIGHT_SQUARE)
print("three-way equivalence:", {
    "marginal_safe": check_safety(outcome_prob, ptilde, credal).holds,
    "pivotal_safe": check_pivotal_safety(ptilde, u, v, spec, credal).holds,
    # the indicator pivot checked above is a witness when simple and safe
    "simple_pivot_exists": verdict.is_simple and indicator_safe,
    # canonical_pivot raises UniquenessViolated when two outcomes tie
    "hypothesis_met": True,
})

print("\nDecision table under each loss (exact rationals where possible):")
for kind in (ZERO_ONE, BRIER, LOG):
    loss = LossFunction(kind)
    out = check_decision_safety(ptilde, u, v, loss, credal)
    table = decision_loss_table(ptilde, u, v, loss, credal)
    believed = {str(k[0]): str(x) if isinstance(x, Fraction) else f"{x:.6f}"
                for k, x in table["believed"].items()}
    actual = [str(x) if isinstance(x, Fraction) else f"{x:.6f}"
              for x in table["actual"]]
    print(f"  {kind:9s} safe={out.holds}  believed per opened door: {believed}"
          f"  actual per host strategy: {actual}")

print("""
With a biased host the working distribution stops being pivotally safe -
rerun with monty_scenario(host_bias=Fraction(9, 10)) to see the check
fail with a concrete witness.
""")
