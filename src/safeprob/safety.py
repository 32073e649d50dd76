"""Deciding the safety hierarchy for a pragmatic distribution.

A query names a target variable U, a conditioner V, a left mode (the full
distribution of U, or only its expectation) and a right mode describing
how the conditioner enters:

=============  ================================================================
right mode     meaning for the checked guarantee
=============  ================================================================
``plain``      the pragmatic conditional is correct at every conditioning value
``angle``      correct on average over the conditioner
``square``     correct while ignoring the conditioner (marginal validity)
``dblsquare``  pragmatic conditionals bracket the truth (range guarantee)
=============  ================================================================

Every predicate is linear in the candidate truth P once conditional
denominators are cleared, so checking the finitely many extreme points of
the credal set is sound and complete. Guards of the form "for supported
strata" are quantified over the union of vertex supports: a two-point
mixture supports the union, and varying the mixture weight forces each
vertex's residual to vanish, so nothing in the interior can fail without
a vertex failing. All discrete checks are exact rational comparisons.

Each exact notion is therefore compiled once per query, from the
pragmatic distribution alone, to an ordered list of :class:`Residual`
conditions lo(P) <= lhs(P) <= hi(P) on the atom probabilities, and one
evaluator, :func:`first_failure`, scans them against the vertices. The
calibration, decision and pivot checks compile to the same form. Every
exact residual carries integer rows built from integer weights, mostly
by :func:`scaled_row`; only the log-score decision check compares floats
within a tolerance. The full-distribution range notion (``dist-range``)
is the one non-linear check: it tests convex-hull membership of each
vertex's target law.

An optional stratifier W turns a query into its per-stratum version: for
every vertex-supported w the residuals are compiled from the pragmatic
distribution on W = w and multiplied through by P(W = w), so they apply
to the unconditioned vertices: a counterexample names the unconditioned
vertex with the values of its conditional on W = w. Vertices giving w
zero mass are skipped for that stratum.

Everything here is a pure function over immutable inputs, and the
reported counterexample is always the first failure in (stratum, vertex,
residual) order, so results are deterministic and safe to compute
concurrently.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from ._linalg import UNIQUE, integer_row, matrix_rank, solve_linear
from .core import (
    CredalSet,
    Pmf,
    Rv,
    essentially_unique,
    format_value,
    joint_rv,
    value_sort_key,
)
from .errors import NonNumericTarget, NotEssentiallyUnique, ValidationError

LEFT_FULL = "full"
LEFT_AVERAGE = "average"
RIGHT_PLAIN = "plain"
RIGHT_ANGLE = "angle"
RIGHT_SQUARE = "square"
RIGHT_DBLSQUARE = "dblsquare"

#: Stable notion identifiers used in reports and on the command line.
NOTION_QUERIES = {
    "valid": (LEFT_FULL, RIGHT_PLAIN),
    "sqerr": (LEFT_AVERAGE, RIGHT_PLAIN),
    "dist-unbiased": (LEFT_FULL, RIGHT_ANGLE),
    "unbiased": (LEFT_AVERAGE, RIGHT_ANGLE),
    "marginal": (LEFT_FULL, RIGHT_SQUARE),
    "range": (LEFT_AVERAGE, RIGHT_DBLSQUARE),
}

NOTION_NOTATION = {
    "valid": "U|V",
    "sqerr": "<U>|V",
    "dist-unbiased": "U|<V>",
    "unbiased": "<U>|<V>",
    "marginal": "U|[V]",
    "range": "<U>|[[V]]",
    "avg-marginal": "<U>|[V]",
    "dist-range": "U|[[V]]",
    "calibrated": "calibrated",
    "pivotal": "pivotal",
}


@dataclass(frozen=True)
class SafetyQuery:
    """One node of the safety hierarchy."""

    target: Rv
    left_mode: str
    conditioner: Rv
    right_mode: str
    stratifier: Optional[Rv] = None

    def __post_init__(self):
        if self.left_mode not in (LEFT_FULL, LEFT_AVERAGE):
            raise ValidationError(f"unknown left mode {self.left_mode!r}")
        if self.right_mode not in (RIGHT_PLAIN, RIGHT_ANGLE, RIGHT_SQUARE, RIGHT_DBLSQUARE):
            raise ValidationError(f"unknown right mode {self.right_mode!r}")
        atoms = self.target.space.atoms
        if self.conditioner.space.atoms != atoms or (
            self.stratifier is not None and self.stratifier.space.atoms != atoms
        ):
            raise ValidationError("query variables must share one outcome space")


@dataclass(frozen=True)
class Counterexample:
    """Witness of a failed safety check. ``lhs`` is the actual quantity
    under the named vertex, ``rhs`` the pragmatic claim it should match.
    A missing vertex means the failure is structural (no credal member
    was needed to exhibit it)."""

    vertex: Optional[Pmf] = None
    v: object = None
    w: object = None
    u: object = None
    lhs: object = None
    rhs: object = None


@dataclass(frozen=True)
class Verdict:
    holds: bool
    counterexample: Optional[Counterexample] = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.holds and self.counterexample is None:
            raise ValidationError("failing verdict requires a counterexample")


def hull_membership(point: Mapping, generators: Sequence[Mapping]) -> bool:
    """Is ``point`` a convex combination of ``generators``?

    All arguments are probability maps over the same finite value set
    (missing keys mean zero). Decided by exact rational feasibility of
    ``sum_j lam_j g_j = point``, ``sum_j lam_j = 1``, ``lam >= 0``: every
    basis, a set of ``rank`` generators, is solved exactly and accepted
    when its weights are nonnegative. Bases suffice: a feasible
    combination has a basic solution whose support columns are linearly
    independent; that support extends to a basis, on which the solution
    is unique and still nonnegative.

    Repeated generators are dropped first, once per call, since a basis
    through two copies of one generator is singular. Each value row
    ``[g_1(val), ..., g_m(val) | point(val)]`` is then scaled to integers.
    The sum-to-one row is dropped when the point and every generator sum
    exactly to 1, since it is then the sum of the value rows and every
    subsystem keeps its solutions; it is kept whenever some map does not
    sum to 1.
    """
    values = sorted(
        {v for v in point} | {v for g in generators for v in g}, key=value_sort_key
    )
    if not generators:
        return False
    cols = [*dict.fromkeys(tuple(Fraction(g.get(val, 0)) for val in values) for g in generators),
            [Fraction(point.get(val, 0)) for val in values]]
    m = len(cols) - 1
    rows = [integer_row(row) for row in zip(*cols)]
    if any(sum(col) != 1 for col in cols):
        rows.append([1] * (m + 1))
    rank = matrix_rank([row[:m] for row in rows])
    b = [row[m] for row in rows]
    for basis in itertools.combinations(range(m), rank):
        status, lam, _ = solve_linear([[row[c] for c in basis] for row in rows], b)
        if status == UNIQUE and all(x >= 0 for x in lam):
            return True
    return False


class Linear(NamedTuple):
    """The functional sum_i coeffs[i] * P(atom i) + const, keyed by atom index."""

    coeffs: Mapping[int, object]
    const: object = 0

    @classmethod
    def mass(cls, idx: Sequence[int], c=1) -> Linear:
        """c * P(atoms ``idx``): the coefficient c on each of them."""
        return cls(dict.fromkeys(idx, c))

    def at(self, x: Sequence):
        """Value at the weight vector ``x``."""
        return self.const + sum(c * x[i] for i, c in self.coeffs.items() if x[i])


@dataclass(frozen=True)
class Residual:
    """One condition lo(P) <= lhs(P) <= hi(P), an equality when ``lo is hi``.

    ``v`` and ``u`` label its counterexample, which reports the values of
    ``lhs`` and of the violated bound divided by ``denom`` (by 1 when None).
    ``tol`` compares float values within an additive tolerance instead of
    exactly; ``error`` makes a failure raise ``error(vertex)`` instead of
    yielding a counterexample. ``rows`` holds ``lhs - lo`` and ``hi - lhs``
    (None for an equality) as integer rows over the atoms, each up to a
    positive factor; it is None only for a ``tol`` residual."""

    lhs: Linear
    lo: Linear
    hi: Linear
    v: object = None
    u: object = None
    denom: Optional[Linear] = None
    tol: Optional[float] = None
    error: Optional[Callable[[Pmf], Exception]] = None
    rows: Optional[tuple] = None


def equal(lhs: Linear, rhs: Linear, **labels) -> Residual:
    return Residual(lhs, rhs, rhs, **labels)


@dataclass(frozen=True)
class HullTest:
    """The one non-linear check (``dist-range``): the target law of a
    vertex on the stratum must lie in the convex hull of ``generators``.
    ``cells`` maps each target value to its atom indices on the stratum."""

    cells: Mapping[object, list]
    generators: list


def scaled_row(icoef, t: int, b: int, idx: Sequence[int], n: int) -> list[int]:
    """``t * icoef - b`` on the atoms ``idx``, 0 on the others of the ``n``:
    for coefficients c with d * c = ``icoef``, a mass t > 0 and a sum b,
    d * t * (c - claim) for the claim b / (d * t)."""
    out = [0] * n
    for i in idx:
        out[i] = t * icoef[i] - b
    return out


def _dot(row: list[int], ints: Sequence[int]) -> int:
    return sum(map(operator.mul, row, ints))


def first_failure(residuals: Sequence, vertices: Sequence[Pmf]) -> Optional[Counterexample]:
    """The evaluator: the first failing residual, scanning ``vertices`` in
    order and each vertex's residuals in order.

    Exact residuals are decided by the signs of their integer rows on the
    vertex's integer weights, and the hull test on the integer law of the
    target; the counterexample's values are computed exactly once a
    residual fails. Its ``w`` is left for the caller to set.
    """
    for p in vertices:
        x, ints = p.as_tuple(), p.integer_weights()
        for r in residuals:
            if isinstance(r, HullTest):
                law = {uv: sum(ints[i] for i in idx) for uv, idx in r.cells.items()}
                mass = sum(law.values())
                if not hull_membership({uv: Fraction(c, mass) for uv, c in law.items()},
                                       r.generators):
                    return Counterexample(vertex=p)
                continue
            row = r.rows
            if row is None:
                bound = r.lo if abs(r.lhs.at(x) - r.lo.at(x)) > r.tol else None
            elif row[1] is None:
                bound = r.lo if _dot(row[0], ints) else None
            else:
                bound = (r.lo if _dot(row[0], ints) < 0
                         else r.hi if _dot(row[1], ints) < 0 else None)
            if bound is not None:
                if r.error is not None:
                    raise r.error(p)
                denom = Fraction(1) if r.denom is None else r.denom.at(x)
                return Counterexample(vertex=p, v=r.v, u=r.u,
                                      lhs=r.lhs.at(x) / denom, rhs=bound.at(x) / denom)
    return None


def supported_values(w: Rv, vertices: Sequence[Pmf]) -> list:
    """Values of ``w`` some vertex gives mass to, in canonical order."""
    tuples = [p.as_tuple() for p in vertices]
    return [wv for wv, idx in w.cells().items() if any(x[i] for i in idx for x in tuples)]


def stratify(w: Rv, values: Sequence, vertices: Sequence[Pmf], notes: list):
    """Yield ``(value, atom indices, vertices giving it mass)`` for each
    stratum value of ``w`` in order, noting the vertices skipped."""
    cells = w.cells()
    for wv in values:
        stratum = cells[wv]
        kept = [p for p in vertices if any(p.as_tuple()[i] for i in stratum)]
        if len(kept) < len(vertices):
            notes.append(f"stratum {w.name}={format_value(wv)}: "
                         f"skipped {len(vertices) - len(kept)} zero-mass vertex(es)")
        yield wv, stratum, kept


def require_unique(ptilde: Pmf, v: Rv, credal: CredalSet) -> tuple[Pmf, ...]:
    """The credal vertices, once the pragmatic conditionals on ``v`` are
    essentially unique; raises NotEssentiallyUnique otherwise."""
    verts = credal.vertex_list()
    if not essentially_unique(ptilde, v, credal):
        raise NotEssentiallyUnique(
            f"pragmatic conditionals on {v.name} are not essentially unique"
        )
    return verts


def notion_residuals(
    left: str, right: str, u: Rv, v: Rv, ptilde: Pmf,
    stratum: Optional[Sequence[int]] = None,
) -> list:
    """Compile the (left, right) notion for target ``u`` and conditioner
    ``v`` from the pragmatic distribution on ``stratum`` (atom indices;
    None is the whole space), multiplied through by the stratum's mass.

    Counterexample values print divided by the stratum's mass, and
    average-mode values per conditioning value (``sqerr``) by P(V = v, W = w).
    Full-distribution ``dblsquare`` compiles to a single :class:`HullTest`.
    Each residual carries its integer rows, built from the pragmatic
    distribution's integer weights.
    """
    ints = ptilde.integer_weights()
    n = len(ints)
    atoms = range(n) if stratum is None else stratum
    cells = v.cells()
    if stratum is not None:
        inside = set(stratum)
        cells = {val: [i for i in idx if i in inside] for val, idx in cells.items()}
    # the supported values with their atoms, and their integer masses
    supported = [(val, idx) for val, idx in cells.items() if any(ints[i] for i in idx)]
    mass = [sum(ints[i] for i in idx) for _, idx in supported]

    # one component per target value (full) or coordinate (average):
    # (counterexample label, coefficient per atom, the same times some
    # d > 0 as integers, per supported value the sum of those integers
    # times the integer weights, and per supported value the pragmatic
    # claim sum / (d * mass))
    components = []
    if left == LEFT_FULL:
        u_range, uk = u.range(), u.codes()
        per_value = []
        for _, idx in supported:
            sums = [0] * len(u_range)
            for i in idx:
                sums[uk[i]] += ints[i]
            per_value.append(sums)
        if right == RIGHT_DBLSQUARE:
            return [HullTest(
                cells={uv: [i for i in atoms if uk[i] == k] for k, uv in enumerate(u_range)},
                generators=[{uv: Fraction(b, t) for uv, b in zip(u_range, sums)}
                            for sums, t in zip(per_value, mass)],
            )]
        for k, uv in enumerate(u_range):
            coef = [int(j == k) for j in uk]
            components.append((uv, coef, coef, 1, [sums[k] for sums in per_value]))
    else:
        ut = [u.table[z] for z in ptilde.space.atoms]
        for j in range(len(ut[0])):
            coef = [t[j] for t in ut]
            d = math.lcm(*(c.denominator for c in coef))
            icoef = [c.numerator * (d // c.denominator) for c in coef]
            components.append((None, coef, icoef, d,
                               [sum(ints[i] * icoef[i] for i in idx) for _, idx in supported]))
    components = [(label, coef, icoef, sums, [Fraction(b, d * t) for b, t in zip(sums, mass)])
                  for label, coef, icoef, d, sums in components]

    def part(coef, idx):
        return Linear({i: coef[i] for i in idx if coef[i]})

    stratum_mass = None if stratum is None else Linear.mass(stratum)
    if right in (RIGHT_PLAIN, RIGHT_SQUARE):
        plain = right == RIGHT_PLAIN
        out = []
        for s, (val, idx) in enumerate(supported):
            scope = idx if plain else atoms
            denom = Linear.mass(idx) if plain and left == LEFT_AVERAGE else stratum_mass
            out += [equal(part(coef, scope), Linear.mass(scope, claims[s]), v=val, u=label,
                          denom=denom, rows=(scaled_row(icoef, mass[s], sums[s], scope, n), None))
                    for label, coef, icoef, sums, claims in components]
        return out
    if right == RIGHT_ANGLE:
        common = math.lcm(*mass)
        out = []
        for label, coef, icoef, sums, claims in components:
            diff = scaled_row(icoef, common, 0, atoms, n)
            for (_, idx), t, b in zip(supported, mass, sums):
                b *= common // t
                for i in idx:
                    diff[i] -= b
            out.append(equal(part(coef, atoms),
                             Linear({i: c for (_, idx), c in zip(supported, claims) for i in idx}),
                             u=label, denom=stratum_mass, rows=(diff, None)))
        return out
    out = []  # RIGHT_DBLSQUARE, average: the bracket of the conditional means
    for label, coef, icoef, sums, claims in components:
        lo = min(range(len(claims)), key=claims.__getitem__)
        hi = max(range(len(claims)), key=claims.__getitem__)
        out.append(Residual(
            part(coef, atoms), Linear.mass(atoms, claims[lo]), Linear.mass(atoms, claims[hi]),
            u=label, denom=stratum_mass,
            rows=(scaled_row(icoef, mass[lo], sums[lo], atoms, n),
                  scaled_row(icoef, -mass[hi], -sums[hi], atoms, n))))
    return out


def check_safety(query: SafetyQuery, ptilde: Pmf, credal: CredalSet) -> Verdict:
    """Decide the queried safety notion against every credal vertex.

    Raises NotEssentiallyUnique when some vertex supports a conditioning
    (or stratum) value the pragmatic distribution does not, and
    NonNumericTarget for average-mode queries on non-numeric targets.
    """
    u, v, w = query.target, query.conditioner, query.stratifier
    if query.left_mode == LEFT_AVERAGE and not u.is_numeric:
        raise NonNumericTarget(f"average-mode query needs a numeric target, got {u.name!r}")
    verts = require_unique(ptilde, joint_rv(v, w) if w is not None else v, credal)
    modes = (query.left_mode, query.right_mode)

    notes: list[str] = []
    strata = ([(None, None, verts)] if w is None
              else stratify(w, supported_values(w, verts), verts, notes))
    for wv, stratum, kept in strata:
        ce = first_failure(notion_residuals(*modes, u, v, ptilde, stratum), kept)
        if ce is not None:
            return Verdict(holds=False, counterexample=replace(ce, w=wv), notes=tuple(notes))
    return Verdict(holds=True, notes=tuple(notes))


#: Solid implication arrows of the hierarchy, antecedent -> consequent.
HIERARCHY_IMPLICATIONS = (
    ("valid", "sqerr"),
    ("valid", "dist-unbiased"),
    ("valid", "calibrated"),
    ("sqerr", "unbiased"),
    ("dist-unbiased", "unbiased"),
    ("unbiased", "range"),
    ("marginal", "dist-unbiased"),
)


def hierarchy_report(u: Rv, v: Rv, ptilde: Pmf, credal: CredalSet) -> dict:
    """Evaluate every unstratified notion plus calibration and (when the
    probability-of-outcome pivot is available) pivotal safety.

    Violated implication arrows are appended to the consequent verdict's
    notes as internal-error diagnostics; they indicate a checker bug, not
    a property of the inputs.
    """
    from .calibration import check_calibrated_full
    from .errors import NotAPivot, NotFullSupport, UniquenessViolated
    from .pivots import canonical_pivot, check_pivotal_safety

    report: dict[str, Verdict] = {}
    for notion, (left, right) in NOTION_QUERIES.items():
        query = SafetyQuery(u, left, v, right)
        report[notion] = check_safety(query, ptilde, credal)
    report["calibrated"] = check_calibrated_full(u, v, ptilde, credal)
    try:
        spec = canonical_pivot(ptilde, u, v)
        report["pivotal"] = check_pivotal_safety(ptilde, u, v, spec, credal)
    except (UniquenessViolated, NotFullSupport):
        pass  # probability-of-outcome pivot undefined here; key omitted
    except NotAPivot as exc:
        report["pivotal"] = Verdict(
            holds=False,
            counterexample=Counterexample(),
            notes=(f"probability-of-outcome map is not a pivot: {exc}",),
        )

    for antecedent, consequent in HIERARCHY_IMPLICATIONS:
        flagged = report[consequent]
        if report[antecedent].holds and not flagged.holds:
            report[consequent] = replace(flagged, notes=flagged.notes + (
                f"internal-error: {NOTION_NOTATION[antecedent]} holds "
                f"but {NOTION_NOTATION[consequent]} fails",
            ))
    return report
