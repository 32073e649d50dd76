"""Exact finite probability substrate.

Outcome spaces, random variables, probability mass functions, credal sets
(finite vertex lists or constraint polytopes) and conditioning, all in
exact rational arithmetic. Every object is immutable after construction
and every operation is a pure function, so concurrent readers are safe.
A pmf keeps its weight tuple and integer weights from the pass that
validates it. A variable's range and atom indices per value are computed
on first use (or given by ``Rv._coded``, which builds a variable from
value codes) and cached on the object; they depend on nothing else, so a
race only computes the same value twice.

Probabilities are `fractions.Fraction` throughout; nothing in this module
ever rounds.
"""

from __future__ import annotations

import itertools
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Union

from ._linalg import UNIQUE, integer_row, matrix_rank, solve_linear
from .errors import (
    InfeasibleCredalSet,
    NonNumericTarget,
    SizeLimit,
    ValidationError,
    ZeroProbabilityConditioning,
)

# A random variable value is either a numeric vector (tuple of rationals)
# or an opaque symbol. Derived generalized variables may carry other
# hashable values (pairs, encoded distributions); see Rv.generalized.
NumericValue = tuple[Fraction, ...]
Value = Union[NumericValue, str]

DEFAULT_SIZE_LIMIT = 16
_SIZE_LIMIT_ENV = "SAFEPROB_SIZE_LIMIT"

_ZERO, _MISSING = Fraction(0), object()
_denominator = attrgetter("denominator")


def size_limit() -> int:
    """Atom cap for exact enumeration; overridable via SAFEPROB_SIZE_LIMIT."""
    raw = os.environ.get(_SIZE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_SIZE_LIMIT
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValidationError(f"{_SIZE_LIMIT_ENV} must be a positive integer, got {raw!r}")
    return cap


#: A rational literal as ``Fraction`` reads one: p/q, or a decimal with
#: an optional exponent.
_RATIONAL_LITERAL = (r"\s*[-+]?(?=\d|\.\d)(?:\d+(?:_\d+)*)?(?:/\d+(?:_\d+)*"
                     r"|(?:\.(?:\d+(?:_\d+)*)?)?(?:[eE](?P<exp>[-+]?\d+(?:_\d+)*))?)\s*")


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, but OverflowError for a literal beyond Python's
    bound on int strings, ``sys.get_int_max_str_digits()`` (none when 0):
    a run of digits longer than the bound, which ``Fraction`` would reject
    as no number at all, or a decimal exponent above it, for which
    ``Fraction`` would build 10 to that power."""
    limit = sys.get_int_max_str_digits()
    match = (limit and (len(text) > limit or "e" in text or "E" in text)
             and re.fullmatch(_RATIONAL_LITERAL, text))
    if match:
        if len(text) > limit and max(map(len, re.findall(r"\d+", text.replace("_", "")))) > limit:
            raise OverflowError(f"numeric literal of {len(text)} characters has a run of "
                                f"digits beyond the limit ({limit})")
        if match["exp"] and abs(int(match["exp"])) > limit:
            raise OverflowError(f"decimal exponent of {text!r} exceeds the limit ({limit})")
    return Fraction(text)


def as_rational(x) -> Fraction:
    """Exact conversion of ints, Fractions and 'p/q'/decimal strings."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValidationError(f"boolean is not a rational value: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return parse_rational(x)
        except (ValueError, ArithmeticError) as exc:
            raise ValidationError(f"not a rational literal: {x!r}") from exc
    raise ValidationError(f"not an exact rational: {x!r} (floats are rejected)")


def as_value(x) -> Value:
    """Coerce a python object to a random-variable value.

    Ints, Fractions and numeric strings become 1-dimensional numeric
    values; sequences of those become numeric vectors; any other string
    is an opaque symbol; a numeric literal beyond the bound of
    :func:`parse_rational` raises.
    """
    if isinstance(x, str):
        try:
            return (parse_rational(x),)
        except OverflowError as exc:
            raise ValidationError(str(exc)) from exc
        except (ValueError, ZeroDivisionError):
            return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return (Fraction(x),)
    if isinstance(x, (tuple, list)):
        return tuple(as_rational(c) for c in x)
    raise ValidationError(f"cannot interpret {x!r} as a random-variable value")


def value_sort_key(value):
    """Total order usable across the value kinds produced in this package."""
    if isinstance(value, str):
        return (1, value)
    if isinstance(value, tuple):
        return (0, tuple(value_sort_key(c) for c in value))
    return (2, value)


def format_value(value) -> str:
    """Readable rendering: a rational as ``p/q``, a one-dimensional value
    as its coordinate, any other tuple item by item in parentheses."""
    if isinstance(value, (str, Fraction)):
        return str(value)
    if isinstance(value, tuple):
        if len(value) == 1 and isinstance(value[0], Fraction):
            return str(value[0])
        return "(" + ",".join(format_value(c) for c in value) + ")"
    return repr(value)


@dataclass(frozen=True)
class OutcomeSpace:
    """Finite ordered set of atomic outcomes.

    The atom order is fixed and used for tie-breaking and for the
    deterministic ordering of enumerated vertices.
    """

    atoms: tuple[str, ...]

    def __init__(self, atoms: Iterable[str]):
        atoms = tuple(atoms)
        if not atoms:
            raise ValidationError("outcome space must be non-empty")
        if len(set(atoms)) != len(atoms):
            raise ValidationError("atom identifiers must be unique")
        object.__setattr__(self, "atoms", atoms)

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class Rv:
    """A total labelling of atoms with values.

    Numeric variables carry rational vectors and support expectations;
    generalized variables (built with :meth:`generalized`) may carry any
    hashable values and support everything else.
    """

    space: OutcomeSpace
    name: str
    table: Mapping[str, Value]

    def __init__(self, space: OutcomeSpace, name: str, table: Mapping):
        table = {atom: as_value(v) for atom, v in table.items()}
        missing = set(space.atoms) - set(table)
        extra = set(table) - set(space.atoms)
        if missing or extra:
            raise ValidationError(
                f"rv {name!r} must be total over the outcome space "
                f"(missing {sorted(missing)}, extra {sorted(extra)})"
            )
        kinds = {isinstance(v, str) for v in table.values()}
        if kinds == {True, False}:
            raise ValidationError(f"rv {name!r} mixes numeric and symbol values")
        arities = {len(v) for v in table.values() if isinstance(v, tuple)}
        if len(arities) > 1:
            raise ValidationError(f"rv {name!r} mixes numeric arities {sorted(arities)}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "table", MappingProxyType(table))

    @classmethod
    def generalized(cls, space: OutcomeSpace, name: str, table: Mapping) -> "Rv":
        """Build a generalized variable without value coercion checks."""
        rv = object.__new__(cls)
        missing = set(space.atoms) - set(table)
        if missing:
            raise ValidationError(f"rv {name!r} missing atoms {sorted(missing)}")
        object.__setattr__(rv, "space", space)
        object.__setattr__(rv, "name", name)
        object.__setattr__(rv, "table", MappingProxyType(dict(table)))
        return rv

    @classmethod
    def _coded(cls, space: OutcomeSpace, name: str, values: list, codes: list) -> "Rv":
        """The generalized variable taking ``values[codes[i]]`` at atom i,
        for distinct ``values`` each taken at some atom. Its range, cells
        and codes come from ``codes``, so no value is hashed per atom."""
        order = sorted(range(len(values)), key=lambda c: value_sort_key(values[c]))
        rank = [0] * len(values)
        for r, c in enumerate(order):
            rank[c] = r
        recoded = tuple(rank[c] for c in codes)
        groups = [[] for _ in values]
        for i, c in enumerate(recoded):
            groups[c].append(i)
        ranged = tuple(values[c] for c in order)
        rv = cls.generalized(space, name, dict(zip(space.atoms, map(ranged.__getitem__, recoded))))
        cells = MappingProxyType(dict(zip(ranged, map(tuple, groups))))
        object.__setattr__(rv, "_level_cache", (ranged, cells, recoded))
        return rv

    @classmethod
    def constant(cls, space: OutcomeSpace, name: str = "0", value=0) -> "Rv":
        return cls(space, name, {z: value for z in space.atoms})

    @classmethod
    def indicator(cls, space: OutcomeSpace, name: str, event: Iterable[str]) -> "Rv":
        event = set(event)
        return cls(space, name, {z: 1 if z in event else 0 for z in space.atoms})

    def __call__(self, atom: str):
        return self.table[atom]

    @property
    def is_numeric(self) -> bool:
        return all(isinstance(v, tuple) and all(isinstance(c, Fraction) for c in v)
                   for v in self.table.values())

    def _levels(self) -> tuple:
        """(values in canonical order, atom indices per value, value code
        per atom), computed in one pass over the atoms once per variable."""
        cached = getattr(self, "_level_cache", None)
        if cached is None:
            groups: dict = {}
            for i, z in enumerate(self.space.atoms):
                groups.setdefault(self.table[z], []).append(i)
            values = tuple(sorted(groups, key=value_sort_key))
            codes = [0] * len(self.space.atoms)
            for k, val in enumerate(values):
                for i in groups[val]:
                    codes[i] = k
            cells = MappingProxyType({val: tuple(groups[val]) for val in values})
            cached = (values, cells, tuple(codes))
            object.__setattr__(self, "_level_cache", cached)
        return cached

    def range(self) -> list:
        """Distinct values in canonical order, as a fresh list."""
        return list(self._levels()[0])

    def cells(self) -> Mapping:
        """Ascending atom indices per value, values in canonical order."""
        return self._levels()[1]

    def codes(self) -> tuple[int, ...]:
        """Per atom, the position of its value in :meth:`range`."""
        return self._levels()[2]

    def range_given(self, other: "Rv", other_value) -> list:
        """Values of self on atoms where ``other`` takes ``other_value``."""
        atoms = self.space.atoms
        vals = {self.table[atoms[i]] for i in other.cells().get(other_value, ())}
        return sorted(vals, key=value_sort_key)

    def compose(self, name: str, func) -> "Rv":
        """The coarsening obtained by applying ``func`` to every value."""
        return Rv.generalized(self.space, name, {z: func(v) for z, v in self.table.items()})

    def __repr__(self) -> str:
        return f"Rv({self.name!r})"


def joint_rv(*rvs: Rv, name: Optional[str] = None) -> Rv:
    """Pair (tuple) of variables as one generalized variable."""
    space = rvs[0].space
    label = name or "(" + ",".join(r.name for r in rvs) + ")"
    table = {z: tuple(r.table[z] for r in rvs) for z in space.atoms}
    return Rv.generalized(space, label, table)


@dataclass(frozen=True)
class Pmf:
    """Exact probability mass function over the atoms of a space."""

    space: OutcomeSpace
    weights: Mapping[str, Fraction]

    def __init__(self, space: OutcomeSpace, weights: Mapping[str, Fraction]):
        x, named = [], 0
        for atom in space.atoms:
            w = weights.get(atom, _MISSING)
            if w is _MISSING:
                w = _ZERO
            else:
                w, named = as_rational(w), named + 1
                if w.numerator < 0:
                    raise ValidationError(f"negative weight {w} at atom {atom!r}")
            x.append(w)
        if named < len(weights):
            extra = set(weights) - set(space.atoms)
            raise ValidationError(f"weights mention unknown atoms {sorted(extra)}")
        # the weights sum to 1 iff their integer row sums to its scale
        scale = lcm(*map(_denominator, x))
        ints = tuple(w.numerator * (scale // w.denominator) for w in x)
        if sum(ints) != scale:
            raise ValidationError(f"weights sum to {sum(x)}, expected exactly 1")
        self._fill(space, tuple(x), ints)

    def _fill(self, space: OutcomeSpace, x: tuple, ints: tuple) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "weights", MappingProxyType(dict(zip(space.atoms, x))))
        object.__setattr__(self, "_tuple", x)
        object.__setattr__(self, "_integers", ints)

    @classmethod
    def _from_integers(cls, space: OutcomeSpace, ints: tuple[int, ...], scale: int) -> "Pmf":
        """The pmf with weights ``ints[i] / scale``, for nonnegative
        integers with gcd 1 summing to ``scale``: ``scale`` is then the lcm
        of the weights' denominators and ``ints`` their integer weights, so
        neither is recomputed."""
        p = object.__new__(cls)
        p._fill(space, tuple(Fraction(v, scale) if v else _ZERO for v in ints), ints)
        return p

    @classmethod
    def point_mass(cls, space: OutcomeSpace, atom: str) -> "Pmf":
        return cls(space, {atom: Fraction(1)})

    @classmethod
    def uniform(cls, space: OutcomeSpace) -> "Pmf":
        n = len(space.atoms)
        return cls(space, {z: Fraction(1, n) for z in space.atoms})

    @classmethod
    def normalized(cls, space: OutcomeSpace, weights: Mapping) -> "Pmf":
        """Build from nonnegative weights, rescaling to total mass one."""
        ws = {z: as_rational(w) for z, w in weights.items()}
        total = sum(ws.values())
        if total <= 0:
            raise ValidationError("total weight must be positive")
        return cls(space, {z: w / total for z, w in ws.items()})

    def __call__(self, atom: str) -> Fraction:
        return self.weights[atom]

    def as_tuple(self) -> tuple[Fraction, ...]:
        """Weights in atom order."""
        return self._tuple

    def integer_weights(self) -> tuple[int, ...]:
        """Weights in atom order scaled by the lcm of their denominators;
        exact linear sign tests can run on these."""
        return self._integers

    def prob(self, rv: Rv, value) -> Fraction:
        """P(rv = value)."""
        return sum(
            (self.weights[z] for z in self.space.atoms if rv.table[z] == value),
            start=Fraction(0),
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Pmf)
            and self.space.atoms == other.space.atoms
            and self.as_tuple() == other.as_tuple()
        )

    def __hash__(self) -> int:
        return hash((self.space.atoms, self.as_tuple()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{z}: {w}" for z, w in self.weights.items() if w)
        return f"Pmf({inner})"


def mix(p: Pmf, q: Pmf, weight: Fraction) -> Pmf:
    """Convex combination ``weight * p + (1 - weight) * q``."""
    w = as_rational(weight)
    return Pmf(p.space, {z: w * p.weights[z] + (1 - w) * q.weights[z] for z in p.space.atoms})


@dataclass(frozen=True)
class LinearConstraint:
    """Linear (in)equality over atom probabilities: sum coeffs[z]*P(z) rel rhs."""

    coeffs: Mapping[str, Fraction]
    relation: str
    rhs: Fraction

    def __init__(self, coeffs: Mapping, relation: str, rhs):
        coeffs = {z: as_rational(c) for z, c in coeffs.items()}
        if not any(coeffs.values()):
            raise ValidationError("constraint needs at least one nonzero coefficient")
        if relation not in ("=", "<=", ">="):
            raise ValidationError(f"relation must be '=', '<=' or '>=', got {relation!r}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "rhs", as_rational(rhs))

    def satisfied_by(self, p: Pmf) -> bool:
        lhs = sum(
            (c * p.weights[z] for z, c in self.coeffs.items()),
            start=Fraction(0),
        )
        if self.relation == "=":
            return lhs == self.rhs
        if self.relation == "<=":
            return lhs <= self.rhs
        return lhs >= self.rhs


@dataclass(frozen=True)
class CredalSet:
    """Set of candidate truths: explicit vertices or a constraint polytope.

    Polytope form implicitly includes the simplex constraints
    (nonnegativity and total mass one).
    """

    space: OutcomeSpace
    vertices: Optional[tuple[Pmf, ...]] = None
    constraints: Optional[tuple[LinearConstraint, ...]] = None

    def __post_init__(self):
        if (self.vertices is None) == (self.constraints is None):
            raise ValidationError("credal set needs either vertices or constraints")
        if self.vertices is not None:
            if not self.vertices:
                raise ValidationError("vertex form must be non-empty")
            if len(set(self.vertices)) != len(self.vertices):
                raise ValidationError("vertex form must list distinct vertices")
            if any(p.space.atoms != self.space.atoms for p in self.vertices):
                raise ValidationError("vertex form must lie on the credal set's outcome space")

    @classmethod
    def from_vertices(cls, vertices: Iterable[Pmf]) -> "CredalSet":
        vertices = tuple(vertices)
        if not vertices:
            raise ValidationError("vertex form must be non-empty")
        return cls(vertices[0].space, vertices=vertices)

    @classmethod
    def from_constraints(
        cls, space: OutcomeSpace, constraints: Iterable[LinearConstraint]
    ) -> "CredalSet":
        return cls(space, constraints=tuple(constraints))

    def vertex_list(self) -> tuple[Pmf, ...]:
        """Extreme points, in deterministic order; enumerates once and
        caches for constraint form."""
        if self.vertices is not None:
            return self.vertices
        cached = getattr(self, "_vertex_cache", None)
        if cached is None:
            cached = tuple(enumerate_vertices(list(self.constraints), self.space))
            object.__setattr__(self, "_vertex_cache", cached)
        return cached


def enumerate_vertices(
    constraints: list[LinearConstraint], space: OutcomeSpace
) -> list[Pmf]:
    """Exact extreme points of the constrained probability simplex.

    Enumerates constraint bases: the simplex equality and every user
    equality are always tight; the remaining tight rows are chosen among
    nonnegativity facets and user inequalities. Each rational linear
    system with a unique solution that satisfies every constraint yields
    a candidate vertex; candidates are deduplicated and returned in
    descending lexicographic order of their weight vectors (atom order).

    Raises InfeasibleCredalSet when the polytope is empty and SizeLimit
    when the space exceeds the configured atom cap.
    """
    n = len(space.atoms)
    cap = size_limit()
    if n > cap:
        raise SizeLimit(f"{n} atoms exceeds the cap of {cap} (set {_SIZE_LIMIT_ENV})")
    index = {z: i for i, z in enumerate(space.atoms)}

    def row_of(c: LinearConstraint) -> list[int]:
        """``[coefficients..., rhs]`` scaled to integers by a positive factor."""
        row = [0] * n + [c.rhs]
        for z, coef in c.coeffs.items():
            if z not in index:
                raise ValidationError(f"constraint mentions unknown atom {z!r}")
            row[index[z]] = coef
        return integer_row(row)

    eq_rows = [[1] * (n + 1)]  # total mass one
    inequalities: list[tuple[list[int], str]] = []
    for c in constraints:
        if c.relation == "=":
            eq_rows.append(row_of(c))
        else:
            inequalities.append((row_of(c), c.relation))
    m = len(inequalities)

    def holds(row: list[int], relation: str, key: list[int], scale: int) -> bool:
        lhs = sum(a * v for a, v in zip(row, key) if a)
        return lhs <= row[n] * scale if relation == "<=" else lhs >= row[n] * scale

    r = matrix_rank([row[:n] for row in eq_rows])
    k = n - r
    seen: set[tuple[int, ...]] = set()
    found: list[tuple[tuple[int, ...], int]] = []
    # A basis takes k tight rows among the user inequalities and then the
    # nonnegativity facets; a chosen facet fixes its coordinate to 0, so
    # only the remaining columns enter the system.
    for chosen in itertools.combinations(range(m + n), k):
        zero = {i - m for i in chosen if i >= m}
        free = [j for j in range(n) if j not in zero]
        system = itemgetter(*free, n)
        status, y, den = solve_linear([system(row) for row in eq_rows] +
                                      [system(inequalities[i][0]) for i in chosen if i < m])
        if status != UNIQUE or any(v < 0 for v in y):
            continue
        # The candidate's numerators over their gcd identify it exactly,
        # since its weights sum to 1; den // g is the key's sum, its scale.
        g = gcd(*y)
        key = [0] * n
        for j, v in zip(free, y):
            key[j] = v // g
        key = tuple(key)
        if key in seen:
            continue
        seen.add(key)
        scale = den // g
        if all(holds(row, relation, key, scale) for row, relation in inequalities):
            found.append((key, scale))
    if not found:
        raise InfeasibleCredalSet("no distribution satisfies the constraints")
    # on one common scale, integer order is the order of the weights
    common = lcm(*(scale for _, scale in found))
    found.sort(key=lambda f: [v * (common // f[1]) for v in f[0]], reverse=True)
    return [Pmf._from_integers(space, key, scale) for key, scale in found]


def support(p: Pmf, x: Rv) -> set:
    """Values of ``x`` receiving positive probability under ``p``."""
    return {x.table[z] for z, w in p.weights.items() if w}


def determines(
    x: Rv, y: Rv, p: Optional[Pmf] = None
) -> Optional[dict]:
    """Witness function f with y = f(x), if one exists.

    With ``p`` given, the identity only needs to hold on atoms of
    positive probability. Returns the witness as a map from x-values to
    y-values, or None.
    """
    atoms = x.space.atoms if p is None else [z for z in x.space.atoms if p.weights[z] > 0]
    witness: dict = {}
    for z in atoms:
        xv, yv = x.table[z], y.table[z]
        if witness.setdefault(xv, yv) != yv:
            return None
    return witness


def condition(p: Pmf, w: Rv, value) -> Pmf:
    """Exact conditional distribution of ``p`` given ``w = value``."""
    mass = p.prob(w, value)
    if mass == 0:
        raise ZeroProbabilityConditioning(
            f"P({w.name} = {format_value(value)}) = 0"
        )
    return Pmf(
        p.space,
        {z: (p.weights[z] / mass if w.table[z] == value else Fraction(0))
         for z in p.space.atoms},
    )


def value_pmf(p: Pmf, x: Rv) -> dict:
    """Distribution of ``x`` under ``p`` as a map over the full range."""
    out = {v: Fraction(0) for v in x.range()}
    for z in p.space.atoms:
        out[x.table[z]] += p.weights[z]
    return out


def expectation(p: Pmf, u: Rv) -> NumericValue:
    """Exact vector expectation of a numeric variable."""
    if not u.is_numeric:
        raise NonNumericTarget(f"rv {u.name!r} is not numeric")
    arity = len(next(iter(u.table.values())))
    acc = [Fraction(0)] * arity
    for z in p.space.atoms:
        w = p.weights[z]
        if w:
            for j, c in enumerate(u.table[z]):
                acc[j] += w * c
    return tuple(acc)


@dataclass(frozen=True)
class ConditionalTable:
    """Conditional distribution of a target given a conditioner, one row
    (a pmf over the target's range) per conditioner value.

    Rows at unsupported conditioner values cannot be inferred from the
    joint; they are filled uniformly and listed in ``arbitrary_rows`` so
    reports can flag them. ``sums`` holds, per conditioner value in
    canonical order, one integer per target value in canonical order, and
    the row is these over their total: the pmf's integer weights summed
    per target value, or all 1 for the uniform fill.
    """

    given: Rv
    target: Rv
    rows: Mapping
    arbitrary_rows: frozenset = field(default_factory=frozenset)
    sums: tuple = field(default=(), compare=False, repr=False)


def conditional_table(p: Pmf, u: Rv, v: Rv) -> ConditionalTable:
    """P(u | v) as a table over range(v), exact where supported: the
    integer weights are summed per (v value, u value) cell, and each
    cell's probability is one ``Fraction`` of its sum over the v value's."""
    u_range, codes, ints = u.range(), u.codes(), p.integer_weights()
    k = len(u_range)
    rows, sums, arbitrary = {}, [], set()
    for val, idx in v.cells().items():
        cell = [0] * k
        for i in idx:
            cell[codes[i]] += ints[i]
        mass = sum(cell)
        if mass:
            rows[val] = dict(zip(u_range, [Fraction(c, mass) if c else _ZERO for c in cell]))
        else:
            cell = [1] * k
            rows[val] = dict.fromkeys(u_range, Fraction(1, k))
            arbitrary.add(val)
        sums.append(tuple(cell))
    return ConditionalTable(given=v, target=u, rows=rows, arbitrary_rows=frozenset(arbitrary),
                            sums=tuple(sums))


def essentially_unique(ptilde: Pmf, v: Rv, credal: CredalSet) -> bool:
    """True when every vertex-supported conditioning value is also
    supported by the pragmatic distribution, so its conditionals are
    pinned down wherever a candidate truth can land: no vertex puts mass
    on an atom whose conditioning value the pragmatic distribution
    leaves without mass."""
    vertices = credal.vertex_list()
    x = ptilde.as_tuple()
    uncovered = [i for idx in v.cells().values() if not any(x[i] for i in idx) for i in idx]
    return not any(p.as_tuple()[i] for p in vertices for i in uncovered)
