"""Shared instance generators for the property and acceptance suites,
and the map form of ``safety.hull_membership``.

Everything is driven by `random.Random` with explicit seeds so failures
reproduce; probabilities are built exactly (random integer weights
normalized in rational arithmetic).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping, Sequence

from safeprob import safety
from safeprob._linalg import integer_row
from safeprob.core import CredalSet, OutcomeSpace, Pmf, Rv, value_sort_key


def map_hull_membership(point: Mapping, generators: Sequence[Mapping]) -> bool:
    """Is the map ``point`` a convex combination of the maps ``generators``?

    The maps share one value set (missing keys mean zero). Each becomes an
    integer column, one coordinate per value in canonical order, scaled by
    the lcm of its denominators; a constant-1 coordinate is appended
    exactly when some map, the point included, does not sum to 1, since
    only then is the sum-to-one condition not implied by the others. The
    cone test of ``safety.hull_membership`` on these columns is then the
    convex-hull test, with the same bases solved in the same order.
    """
    values = sorted({v for g in (point, *generators) for v in g}, key=value_sort_key)
    cols = [[Fraction(g.get(val, 0)) for val in values] for g in (point, *generators)]
    if any(sum(col) != 1 for col in cols):
        cols = [[*col, Fraction(1)] for col in cols]
    target, *columns = map(integer_row, cols)
    return safety.hull_membership(target, safety.compile_hull(columns))


def rational_pmf(rng: random.Random, keys, full_support=True, max_weight=9) -> dict:
    """Random exact pmf over ``keys`` from integer weights."""
    keys = list(keys)
    while True:
        weights = [
            rng.randint(1 if full_support else 0, max_weight) for _ in keys
        ]
        if sum(weights) > 0:
            break
    total = sum(weights)
    return {k: Fraction(w, total) for k, w in zip(keys, weights)}


def product_space(n_u: int, n_v: int) -> tuple[OutcomeSpace, Rv, Rv]:
    """Grid outcome space with projection variables."""
    atoms = [f"u{i}v{j}" for i in range(n_u) for j in range(n_v)]
    space = OutcomeSpace(atoms)
    u = Rv(space, "U", {z: int(z[1]) for z in atoms})
    v = Rv(space, "V", {z: int(z[3]) for z in atoms})
    return space, u, v


def random_dims(rng: random.Random, max_atoms: int = 8) -> tuple[int, int]:
    while True:
        n_u, n_v = rng.randint(2, 4), rng.randint(2, 4)
        if n_u * n_v <= max_atoms:
            return n_u, n_v


def joint_from_rows(space, u, v, v_marginal: dict, rows: dict) -> Pmf:
    """Joint with the given conditioner marginal and conditional rows."""
    weights = {}
    for z in space.atoms:
        uu, vv = u.table[z], v.table[z]
        weights[z] = v_marginal[vv] * rows[vv][uu]
    return Pmf(space, weights)


def random_rows(rng, u_values, v_values, full_support=False) -> dict:
    return {vv: rational_pmf(rng, u_values, full_support=full_support) for vv in v_values}


def make_instance(rng: random.Random, strategy: str, max_atoms: int = 8, dims=None) -> dict:
    """One random checking instance.

    Strategies seed different regions of the hierarchy so implication
    tests have non-vacuous antecedents:

    - ``valid``: all vertices share the pragmatic conditionals.
    - ``marginal``: common target marginal, pragmatic ignores the
      conditioner.
    - ``singleton``: the credal set is exactly the pragmatic joint.
    - ``random``: unconstrained (pragmatic kept fully supported so
      conditionals stay essentially unique).
    """
    n_u, n_v = dims if dims is not None else random_dims(rng, max_atoms)
    space, u, v = product_space(n_u, n_v)
    u_values, v_values = u.range(), v.range()
    n_vertices = rng.randint(1, 4)

    if strategy == "valid":
        rows = random_rows(rng, u_values, v_values)
        ptilde = joint_from_rows(space, u, v, rational_pmf(rng, v_values), rows)
        vertices = []
        for _ in range(n_vertices):
            vertices.append(joint_from_rows(
                space, u, v, rational_pmf(rng, v_values, full_support=False), rows
            ))
    elif strategy == "marginal":
        mu = rational_pmf(rng, u_values)
        ptilde = joint_from_rows(
            space, u, v, rational_pmf(rng, v_values),
            {vv: dict(mu) for vv in v_values},
        )
        vertices = []
        for _ in range(n_vertices):
            split = {uu: rational_pmf(rng, v_values, full_support=False) for uu in u_values}
            vertices.append(Pmf(space, {
                z: mu[u.table[z]] * split[u.table[z]][v.table[z]] for z in space.atoms
            }))
    elif strategy == "singleton":
        ptilde = Pmf(space, rational_pmf(rng, space.atoms))
        vertices = [ptilde]
    elif strategy == "random":
        ptilde = Pmf(space, rational_pmf(rng, space.atoms))
        vertices = [
            Pmf(space, rational_pmf(rng, space.atoms, full_support=False))
            for _ in range(n_vertices)
        ]
    else:
        raise ValueError(strategy)

    seen = []
    for p in vertices:
        if p not in seen:
            seen.append(p)
    return {
        "space": space, "U": u, "V": v, "ptilde": ptilde,
        "credal": CredalSet.from_vertices(seen),
    }


STRATEGIES = ("valid", "marginal", "singleton", "random")


def mixed_instance(rng: random.Random, max_atoms: int = 8) -> dict:
    return make_instance(rng, rng.choice(STRATEGIES), max_atoms)


def calibrated_instance(rng: random.Random, max_atoms: int = 8, dims=None) -> dict:
    """Instance whose vertices match the pragmatic rows on average within
    each block of equal rows: calibrated, usually not valid."""
    n_u, n_v = dims if dims is not None else random_dims(rng, max_atoms)
    space, u, v = product_space(n_u, n_v)
    u_values, v_values = u.range(), v.range()

    n_groups = rng.randint(1, n_v)
    group_of = {vv: rng.randrange(n_groups) for vv in v_values}
    base = {g: rational_pmf(rng, u_values, full_support=False)
            for g in set(group_of.values())}
    rows = {vv: dict(base[group_of[vv]]) for vv in v_values}
    ptilde = joint_from_rows(space, u, v, rational_pmf(rng, v_values), rows)

    vertices = []
    for _ in range(rng.randint(1, 4)):
        v_marg = rational_pmf(rng, v_values, full_support=False)
        q = {vv: dict(base[group_of[vv]]) for vv in v_values}
        for g in set(group_of.values()):
            members = [vv for vv in v_values if group_of[vv] == g and v_marg[vv] > 0]
            positive = [uu for uu in u_values if base[g][uu] > 0]
            if len(members) >= 2 and len(positive) >= 2 and rng.random() < 0.8:
                v1, v2 = rng.sample(members, 2)
                a, b = rng.sample(positive, 2)
                m1, m2 = v_marg[v1], v_marg[v2]
                t = min(base[g][b] / m2, (1 - base[g][a]) / m2,
                        base[g][a] / m1, (1 - base[g][b]) / m1) / 2
                if t > 0:
                    q[v1] = dict(q[v1]); q[v2] = dict(q[v2])
                    q[v1][a] += t * m2; q[v1][b] -= t * m2
                    q[v2][a] -= t * m1; q[v2][b] += t * m1
        vertices.append(joint_from_rows(space, u, v, v_marg, q))
    distinct = []
    for p in vertices:
        if p not in distinct:
            distinct.append(p)
    return {"space": space, "U": u, "V": v, "ptilde": ptilde,
            "credal": CredalSet.from_vertices(distinct)}


def distinct_prob_row(rng: random.Random, keys) -> dict:
    """Exact pmf whose nonzero entries are pairwise distinct."""
    keys = list(keys)
    while True:
        weights = rng.sample(range(1, 12), len(keys))
        total = sum(weights)
        row = {k: Fraction(w, total) for k, w in zip(keys, weights)}
        if len({p for p in row.values() if p}) == len([p for p in row.values() if p]):
            return row


def pivotal_instance(rng: random.Random, safe: bool = True, max_atoms: int = 6) -> dict:
    """Instance for probability-of-outcome pivot checks.

    Pragmatic rows are permutations of one base row with pairwise
    distinct masses, so the injectivity hypothesis always holds and the
    pivot law under the pragmatic distribution is value -> value. With
    ``safe=True`` vertices start from the pragmatic conditionals and then
    shuffle mass only within level sets of the pivot map, which preserves
    the induced law exactly; with ``safe=False`` a move crosses level
    sets (or a pragmatic row breaks the permutation pattern), perturbing
    the law.
    """
    while True:
        n_u, n_v = rng.randint(2, 3), rng.randint(2, 3)
        if n_u * n_v <= max_atoms:
            break
    space, u, v = product_space(n_u, n_v)
    u_values, v_values = u.range(), v.range()
    base = distinct_prob_row(rng, u_values)

    def permuted_row():
        perm = list(u_values)
        rng.shuffle(perm)
        return {uu: base[pp] for uu, pp in zip(u_values, perm)}

    ptilde_rows = {vv: permuted_row() for vv in v_values}
    if not safe and rng.random() < 0.4:
        ptilde_rows[v_values[0]] = distinct_prob_row(rng, u_values)
    ptilde = joint_from_rows(space, u, v, rational_pmf(rng, v_values), ptilde_rows)

    pivot_value = {z: ptilde_rows[v.table[z]][u.table[z]] for z in space.atoms}
    level_sets = {}
    for z in space.atoms:
        level_sets.setdefault(pivot_value[z], []).append(z)

    def shuffled_vertex(break_law: bool) -> Pmf:
        v_marg = rational_pmf(rng, v_values, full_support=False)
        weights = {z: v_marg[v.table[z]] * ptilde_rows[v.table[z]][u.table[z]]
                   for z in space.atoms}
        for _ in range(rng.randint(0, 4)):
            cells = rng.choice(list(level_sets.values()))
            if len(cells) < 2:
                continue
            src, dst = rng.sample(cells, 2)
            if weights[src] > 0:
                delta = weights[src] * Fraction(rng.randint(1, 3), 4)
                weights[src] -= delta
                weights[dst] += delta
        if break_law:
            donors = [z for z in space.atoms if weights[z] > 0]
            src = rng.choice(donors)
            others = [z for z in space.atoms if pivot_value[z] != pivot_value[src]]
            if others:
                dst = rng.choice(others)
                delta = weights[src] * Fraction(1, 2)
                weights[src] -= delta
                weights[dst] += delta
        return Pmf(space, weights)

    vertices = []
    n_vertices = rng.randint(1, 3)
    for k in range(n_vertices):
        vertices.append(shuffled_vertex(break_law=not safe and k == 0
                                        and len(set(pivot_value.values())) > 1))
    distinct = []
    for p in vertices:
        if p not in distinct:
            distinct.append(p)
    return {"space": space, "U": u, "V": v, "ptilde": ptilde,
            "credal": CredalSet.from_vertices(distinct)}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            if "test_acceptance" in rep.nodeid and rep.when == "call":
                rows.append((rep.nodeid.split("::")[-1], status.upper()))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, status in sorted(rows):
            terminalreporter.write_line(f"{name}: {status}")
