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
calibration, decision and pivot checks compile to the same form: lhs,
lo and hi are integer rows over the atoms times one positive scale, the
signs of lhs - lo and hi - lhs on a vertex's integer weights decide it,
and a counterexample's values are read off the same weights exactly.
Only the log-score decision check is a float form, compared within a
tolerance. The full-distribution range notion (``dist-range``) is the
one non-linear check: each vertex's integer target law must lie in the
cone of the pragmatic conditionals' integer laws, compiled once per
query and stratum (see :func:`hull_membership`).

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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from ._linalg import UNIQUE, matrix_rank, solve_linear
from .core import (
    CredalSet,
    Pmf,
    Rv,
    essentially_unique,
    format_value,
    joint_rv,
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
        require_one_space(self.target, self.conditioner, self.stratifier)


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


class Hull(NamedTuple):
    """A cone compiled once for :func:`hull_membership`: ``rows[k][j]`` is
    coordinate k of the j-th distinct primitive integer column, and
    ``rank`` the rank of those columns."""

    rows: list
    rank: int


def compile_hull(columns: Sequence[Sequence[int]]) -> Hull:
    """The :class:`Hull` of nonzero, nonnegative integer ``columns``: each
    divided by the gcd of its entries, repeats dropped in first-occurrence
    order."""
    distinct = {}
    for col in columns:
        g = math.gcd(*col)
        distinct[tuple(x // g for x in col)] = None
    rows = [list(row) for row in zip(*distinct)]
    return Hull(rows, matrix_rank(rows))


def hull_membership(point: Sequence[int], hull: Hull) -> bool:
    """Is the integer vector ``point`` in the cone of ``hull``'s columns?

    Decided by exact feasibility of ``B mu = point``, ``mu >= 0``, for the
    column matrix B: every basis, a set of ``rank`` columns, is solved
    exactly and accepted when its solution is nonnegative. Bases suffice:
    a feasible combination has a basic solution whose support columns are
    linearly independent; that support extends to a basis, on which the
    solution is unique and still nonnegative.

    This is convex-hull membership of probability laws. When the point is
    t * p and each column t_j * g_j for laws p and g_j summing to 1 and
    positive t, t_j, then ``B mu = point`` with ``mu >= 0`` holds exactly
    when p = sum_j lam_j g_j with lam_j = mu_j * t_j / t >= 0, and summing
    the coordinates gives sum_j lam_j = 1; for maps that do not all sum to
    1 the caller appends a constant-1 coordinate, which is that condition.
    Each basis system is then the convex-combination system up to positive
    scaling of its rows and columns, so the same bases are unique and
    nonnegative, in the same order. A gcd-reduced column is the same for
    every positive multiple of a law, so dropping repeated columns drops
    repeated generators, whose bases would be singular. With no columns
    the answer is False.
    """
    rows, rank = hull
    if not rows:
        return False
    ncols = len(rows[0])
    aug = [[*row, x] for row, x in zip(rows, point)]
    for basis in itertools.combinations(range(ncols), rank):
        status, mu, _ = solve_linear(list(map(operator.itemgetter(*basis, ncols), aug)))
        if status == UNIQUE and all(x >= 0 for x in mu):
            return True
    return False


@dataclass(frozen=True)
class Residual:
    """One condition lo(P) <= lhs(P) <= hi(P), an equality when ``lo is hi``.

    ``lhs``, ``lo`` and ``hi`` are integer rows over the atoms, each the
    functional times one ``scale`` > 0 (a constant c is c * P(all atoms));
    ``rows`` holds ``lhs - lo`` and ``hi - lhs`` (None for an equality).
    ``v`` and ``u`` label the counterexample: the values of ``lhs`` and of
    the violated bound divided by P(atoms ``denom``), by 1 when None.
    ``error`` makes an exact failure raise ``error(vertex)`` instead. With
    ``tol`` the residual is the float form: float coefficients in ``lhs``,
    the float claim as ``lo`` and ``hi``, compared within ``tol``, no rows."""

    lhs: Sequence
    lo: object
    hi: object
    scale: int = 1
    v: object = None
    u: object = None
    denom: Optional[Sequence[int]] = None
    tol: Optional[float] = None
    error: Optional[Callable[[Pmf], Exception]] = None
    rows: Optional[tuple] = field(default=None, init=False)

    def __post_init__(self):
        if self.tol is None:
            object.__setattr__(self, "rows", (
                list(map(operator.sub, self.lhs, self.lo)),
                None if self.lo is self.hi else list(map(operator.sub, self.hi, self.lhs))))


def equal(lhs, rhs, **labels) -> Residual:
    return Residual(lhs, rhs, rhs, **labels)


def atom_row(c, idx: Sequence[int], n: int, coef=None) -> list:
    """c * coef (c alone without coef) on the atoms ``idx``, 0 on the others of the ``n``."""
    out = [0] * n
    for i in idx:
        out[i] = c if coef is None else c * coef[i]
    return out


@dataclass(frozen=True)
class HullTest:
    """The one non-linear check (``dist-range``): the target law of a
    vertex on the stratum must lie in the convex hull of the pragmatic
    conditionals, compiled as ``hull``. ``cells`` lists, per target value
    in canonical order, its atom indices on the stratum."""

    cells: list
    hull: Hull


def _dot(row: list[int], ints: Sequence[int]) -> int:
    return sum(map(operator.mul, row, ints))


def first_failure(residuals: Sequence, vertices: Sequence[Pmf]) -> Optional[Counterexample]:
    """The evaluator: the first failing residual, scanning ``vertices`` in
    order and each vertex's residuals in order.

    Exact residuals are decided by the signs of their rows on the vertex's
    integer weights w, and a failing one's values are read off w exactly:
    ``lhs . w / (scale * sum of w on denom)``, likewise the bound. A float
    residual sums coefficient times weight in atom order, skipping zero
    weights; the hull test runs on the integer law of the target. The
    counterexample's ``w`` is left for the caller to set.
    """
    for p in vertices:
        ints = p.integer_weights()
        for r in residuals:
            if isinstance(r, HullTest):
                if not hull_membership([sum(ints[i] for i in idx) for idx in r.cells], r.hull):
                    return Counterexample(vertex=p)
                continue
            rows = r.rows
            if rows is None:  # the float form
                x = p.as_tuple()
                lhs = sum(c * x[i] for i, c in enumerate(r.lhs) if x[i])
                if abs(lhs - r.lo) > r.tol:
                    return Counterexample(vertex=p, v=r.v, u=r.u, lhs=lhs, rhs=r.lo)
                continue
            if rows[1] is None:
                bound = r.lo if _dot(rows[0], ints) else None
            else:
                bound = (r.lo if _dot(rows[0], ints) < 0
                         else r.hi if _dot(rows[1], ints) < 0 else None)
            if bound is not None:
                if r.error is not None:
                    raise r.error(p)
                total = r.scale * sum(ints if r.denom is None else [ints[i] for i in r.denom])
                return Counterexample(vertex=p, v=r.v, u=r.u,
                                      lhs=Fraction(_dot(r.lhs, ints), total),
                                      rhs=Fraction(_dot(bound, ints), total))
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


def require_one_space(*objects) -> None:
    """Raise ValidationError unless the non-None ``objects`` (variables,
    pmfs, credal sets) all have the atoms of the first, by value."""
    atoms = objects[0].space.atoms
    if any(obj is not None and obj.space.atoms != atoms for obj in objects[1:]):
        raise ValidationError("variables, pmfs and credal sets must share one outcome space")


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
    Full-distribution ``dblsquare`` compiles to a single :class:`HullTest`,
    whose hull is compiled from the per-value integer sums. The others
    write a claim b / (d * t) with the scale d * t (or d * an lcm of such
    t), making no ``Fraction`` but to pick a bracket's ends.
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
    # (counterexample label, its coefficient per atom times some d > 0 as
    # integers, that d, and per supported value the sum of those integers
    # times the integer weights, b, making the pragmatic claim b / (d * mass))
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
            return [HullTest(cells=[[i for i in atoms if uk[i] == k] for k in range(len(u_range))],
                             hull=compile_hull(per_value))]
        for k, uv in enumerate(u_range):
            components.append((uv, [int(j == k) for j in uk], 1, [sums[k] for sums in per_value]))
    else:
        ut = [u.table[z] for z in ptilde.space.atoms]
        for j in range(len(ut[0])):
            coef = [t[j] for t in ut]
            d = math.lcm(*(c.denominator for c in coef))
            icoef = [c.numerator * (d // c.denominator) for c in coef]
            components.append((None, icoef, d,
                               [sum(ints[i] * icoef[i] for i in idx) for _, idx in supported]))

    if right in (RIGHT_PLAIN, RIGHT_SQUARE):
        plain = right == RIGHT_PLAIN
        out = []
        for s, (val, idx) in enumerate(supported):
            scope = idx if plain else atoms
            denom = idx if plain and left == LEFT_AVERAGE else stratum
            out += [equal(atom_row(mass[s], scope, n, icoef), atom_row(sums[s], scope, n),
                          scale=d * mass[s], v=val, u=label, denom=denom)
                    for label, icoef, d, sums in components]
        return out
    if right == RIGHT_ANGLE:
        common = math.lcm(*mass)
        out = []
        for label, icoef, d, sums in components:
            claim = [0] * n
            for (_, idx), t, b in zip(supported, mass, sums):
                b *= common // t
                for i in idx:
                    claim[i] = b
            out.append(equal(atom_row(common, atoms, n, icoef), claim,
                             scale=d * common, u=label, denom=stratum))
        return out
    out = []  # RIGHT_DBLSQUARE, average: the bracket of the conditional means
    for label, icoef, d, sums in components:
        claims = [Fraction(b, t) for b, t in zip(sums, mass)]
        lo = min(range(len(claims)), key=claims.__getitem__)
        hi = max(range(len(claims)), key=claims.__getitem__)
        common = math.lcm(mass[lo], mass[hi])
        out.append(Residual(atom_row(common, atoms, n, icoef),
                            atom_row(sums[lo] * (common // mass[lo]), atoms, n),
                            atom_row(sums[hi] * (common // mass[hi]), atoms, n),
                            scale=d * common, u=label, denom=stratum))
    return out


def check_safety(query: SafetyQuery, ptilde: Pmf, credal: CredalSet) -> Verdict:
    """Decide the queried safety notion against every credal vertex.

    Raises NotEssentiallyUnique when some vertex supports a conditioning
    (or stratum) value the pragmatic distribution does not, and
    NonNumericTarget for average-mode queries on non-numeric targets.
    """
    u, v, w = query.target, query.conditioner, query.stratifier
    require_one_space(u, ptilde, credal)
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


def hierarchy_report(u: Rv, v: Rv, ptilde: Pmf, credal: CredalSet,
                     omitted: Optional[dict] = None) -> dict:
    """Evaluate every unstratified notion plus calibration and (when the
    probability-of-outcome pivot is available) pivotal safety.

    The average-mode notions are left out for a non-numeric target, and
    pivotal safety where that pivot is undefined (UniquenessViolated) or
    the conditioner lacks full pragmatic support (NotFullSupport). When
    ``omitted`` is given, each notion left out is added to it with the
    exception that kept it out, in the order of the report.

    Violated implication arrows whose ends are both in the report are
    appended to the consequent verdict's notes as internal-error
    diagnostics; they indicate a checker bug, not a property of the
    inputs.
    """
    from .calibration import check_calibrated_full
    from .errors import NotAPivot, NotFullSupport, UniquenessViolated
    from .pivots import canonical_pivot, check_pivotal_safety

    if omitted is None:
        omitted = {}
    report: dict[str, Verdict] = {}
    for notion, (left, right) in NOTION_QUERIES.items():
        query = SafetyQuery(u, left, v, right)
        try:
            report[notion] = check_safety(query, ptilde, credal)
        except NonNumericTarget as exc:
            omitted[notion] = exc
    report["calibrated"] = check_calibrated_full(u, v, ptilde, credal)
    try:
        spec = canonical_pivot(ptilde, u, v)
        report["pivotal"] = check_pivotal_safety(ptilde, u, v, spec, credal)
    except (UniquenessViolated, NotFullSupport) as exc:
        omitted["pivotal"] = exc
    except NotAPivot as exc:
        report["pivotal"] = Verdict(
            holds=False,
            counterexample=Counterexample(),
            notes=(f"probability-of-outcome map is not a pivot: {exc}",),
        )

    for antecedent, consequent in HIERARCHY_IMPLICATIONS:
        if antecedent not in report or consequent not in report:
            continue
        flagged = report[consequent]
        if report[antecedent].holds and not flagged.holds:
            report[consequent] = replace(flagged, notes=flagged.notes + (
                f"internal-error: {NOTION_NOTATION[antecedent]} holds "
                f"but {NOTION_NOTATION[consequent]} fails",
            ))
    return report
