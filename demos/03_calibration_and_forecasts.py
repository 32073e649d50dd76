"""Calibration: conditioning on the forecast itself.

A forecaster is calibrated when, among the occasions on which she issues
a particular distribution for the target, the actual distribution equals
the issued one. This script checks calibration for the dilation
forecaster, shows the classic way it breaks (a target built jointly from
signal and outcome), and demonstrates the equivalence between direct
calibration, safety given the forecast variable, and the existence of an
ignorable coarsening of the signal.
"""

from safeprob.calibration import (
    check_calibrated_full,
    check_calibrated_mean,
    predicted_distribution_rv,
)
from safeprob.core import Rv, determines
from safeprob.demos import dilation_scenario
from safeprob.safety import LEFT_FULL, RIGHT_PLAIN, RIGHT_SQUARE, SafetyQuery, check_safety

print(__doc__)

scn = dilation_scenario()
u, v, ptilde, credal = scn["U"], scn["V"], scn["ptilde"], scn["credal"]

print("Forecast rows issued by the ignoring distribution:")
pred = predicted_distribution_rv(ptilde, u, v)
for vv, row in pred.base.rows.items():
    print(f"  V={vv[0]}: ", {str(k[0]): str(p) for k, p in row.items()})

print("calibrated for U:", check_calibrated_full(u, v, ptilde, credal).holds)
print("mean-calibrated for U:", check_calibrated_mean(u, v, ptilde, credal).holds)

mismatch = Rv(scn["space"], "mismatch", {
    z: abs(v.table[z][0] - u.table[z][0]) for z in scn["space"].atoms
})
print("\nNow predict the signal/outcome mismatch |V - U| with the same joint:")
verdict = check_calibrated_full(mismatch, v, ptilde, credal)
print("calibrated for the mismatch:", verdict.holds)
print("  breaking truth (perfectly anti-correlated):",
      {z: str(w) for z, w in verdict.counterexample.vertex.weights.items() if w})

print("\nThree equivalent faces of calibration, cross-checked:")
print(f"  direct check: {check_calibrated_full(u, v, ptilde, credal).holds}")
safe_given_forecast = check_safety(SafetyQuery(u, LEFT_FULL, pred.as_rv, RIGHT_PLAIN),
                                   ptilde, credal).holds
print(f"  safe given the forecast variable: {safe_given_forecast}")
# an ignorable coarsening: one that V determines, with U|[V] holding per stratum of it
witness = None
for cand in (Rv.constant(scn["space"]), v, pred.as_rv):
    marginal = SafetyQuery(u, LEFT_FULL, v, RIGHT_SQUARE, stratifier=cand)
    if determines(v, cand, ptilde) is not None and check_safety(marginal, ptilde, credal).holds:
        witness = cand
        break
print(f"  ignorable coarsening found: {witness is not None}"
      + (f" (constant: {len(set(witness.table.values())) == 1})" if witness else ""))
