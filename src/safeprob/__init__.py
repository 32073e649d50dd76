"""safeprob: decide whether a pragmatic probability distribution is safe
for a prediction task relative to a credal set.

The discrete core is exact (rational arithmetic end to end); the
continuous one-dimensional confidence machinery is float-based with
stated tolerances and seeded, reproducible Monte Carlo.
"""

from importlib import resources

__version__ = "1.0.0"

from . import (  # noqa: F401
    calibration,
    confidence,
    core,
    decisions,
    demos,
    errors,
    pivots,
    safety,
    scenario,
    updates,
)
from .core import (  # noqa: F401
    CredalSet,
    LinearConstraint,
    OutcomeSpace,
    Pmf,
    Rv,
    condition,
    conditional_table,
    determines,
    enumerate_vertices,
    essentially_unique,
)
from .safety import (  # noqa: F401
    Hull,
    SafetyQuery,
    Verdict,
    check_safety,
    compile_hull,
    hierarchy_report,
    hull_membership,
)


def bundled_scenario(name: str):
    """Path-like handle to a scenario file shipped with the package."""
    return resources.files("safeprob") / "scenarios" / name
