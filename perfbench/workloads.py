"""Seeded workloads for the safeprob benchmark.

Each workload is an endless sequence of *rounds*. A round is a fixed list
of query templates (kind and size); only the values inside each template
come from the seeded generator. Fixing the structure of a round keeps the
cost of a run nearly the same from seed to seed, while every seed still
draws fresh inputs.

A query calls one of safeprob's public entry points and returns its raw
output; its check derives what must be true of that output from how the
input was generated (never from a golden file). Checks compare verdict
booleans, never counterexample bytes, so a change of witness is not
counted as a failure as long as the witness is a member of the credal set.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from safeprob import cli, core, decisions, pivots, safety

WORKLOADS = ("cli-constraint", "notions-vertex", "dist-range")

#: Notions every hierarchy report carries; ``pivotal`` is optional.
REPORT_NOTIONS = frozenset(
    ("valid", "sqerr", "dist-unbiased", "unbiased", "marginal", "range", "calibrated")
)

#: Notions that hold whenever every credal member has the pragmatic
#: target law and the pragmatic distribution ignores the conditioner.
MARGINAL_FACTS = ("marginal", "dist-unbiased", "unbiased", "range", "calibrated", "pivotal")

#: Notions that hold whenever every credal member has the pragmatic
#: conditionals, and those are permutations of one row.
VALID_FACTS = ("valid", "sqerr", "dist-unbiased", "unbiased", "range", "calibrated", "pivotal")


@dataclass
class Query:
    """One call into safeprob. ``run`` returns the raw output and
    ``check`` returns None when that output is correct, else the reason.
    ``shape`` gives the input's sizes and ``digest`` identifies its values."""

    kind: str
    shape: dict
    digest: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# ---------------------------------------------------------------- values


#: Every generated probability is a multiple of 1/DENOMINATOR, so the
#: cost of exact arithmetic does not swing with the size of random
#: denominators and a run costs about the same at every seed.
DENOMINATOR = 60

#: Denominator of event-scenario priors.
EVENT_DENOMINATOR = 720


def rational_pmf(rng: random.Random, keys, full_support: bool = True,
                 denominator: int = DENOMINATOR) -> dict:
    """Exact pmf over ``keys``: a random composition of ``denominator``."""
    keys = list(keys)
    if full_support:
        cuts = sorted(rng.sample(range(1, denominator), len(keys) - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [denominator])]
    else:
        cuts = sorted(rng.sample(range(1, denominator + len(keys)), len(keys) - 1))
        parts = [b - a - 1 for a, b in zip([0] + cuts, cuts + [denominator + len(keys)])]
    return {k: Fraction(w, denominator) for k, w in zip(keys, parts)}


def distinct_pmf(rng: random.Random, keys) -> dict:
    """Full-support exact pmf whose entries are pairwise distinct, so the
    probability-of-outcome pivot is defined on it."""
    while True:
        pmf = rational_pmf(rng, keys)
        if len(set(pmf.values())) == len(pmf):
            return pmf


def grid(ku: int, kv: int) -> list[str]:
    return [f"u{i}v{j}" for i in range(ku) for j in range(kv)]


def _u(atom: str) -> int:
    return int(atom[1:atom.index("v")])


def _v(atom: str) -> int:
    return int(atom[atom.index("v") + 1:])


def _weights_from_strings(raw: dict, atoms) -> Optional[dict]:
    """Weights named in a rendered vertex, zero elsewhere; None when the
    rendering names an unknown atom."""
    if not set(raw) <= set(atoms):
        return None
    return {z: Fraction(raw.get(z, 0)) for z in atoms}


def _is_pmf(weights: dict) -> bool:
    return all(w >= 0 for w in weights.values()) and sum(weights.values()) == 1


def _satisfies(weights: dict, constraints: list) -> bool:
    for con in constraints:
        lhs = sum(Fraction(c) * weights[z] for z, c in con["coeffs"].items())
        rhs = Fraction(con["rhs"])
        if (con["rel"] == "=" and lhs != rhs) or (con["rel"] == "<=" and lhs > rhs) \
                or (con["rel"] == ">=" and lhs < rhs):
            return False
    return True


def _invoke_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


# ---------------------------------------------------------- cli-constraint

#: One round: (ku, kv, pragmatic strategy, inequalities) per dilation file.
#: Costs per query run from about 10 ms (6 atoms) to about 0.4 s (3x4):
#: the many 6-atom files put the median among queries of similar cost,
#: where parsing and rendering stay visible; the 9- and 10-atom files
#: with an inequality set the p90 tail; the 12-atom 3x4 file is the
#: enumeration blow-up. (A 4x3 file costs about 0.8 s a query and would
#: leave a 30 s run only six or seven rounds to average over.)
CLI_FILES = (
    (2, 3, "marginal", 0), (3, 2, "random", 1), (2, 3, "random", 2), (3, 2, "marginal", 0),
    (3, 2, "random", 2), (2, 3, "marginal", 1), (3, 2, "marginal", 1), (2, 3, "random", 0),
    (2, 4, "marginal", 1), (4, 2, "random", 0), (2, 4, "random", 0), (3, 3, "random", 0),
    (3, 3, "marginal", 1), (2, 5, "random", 1), (2, 6, "random", 0), (3, 4, "marginal", 0),
)
#: Check commands cycled over the files of a round: (notion, stratified).
#: Every round gets the same ones, so that no round costs more than
#: another by its position in the cycle.
CLI_CHECKS = (
    ("pivotal", False), ("valid", True), ("marginal", False), ("unbiased", False),
    ("calibrated", False), ("dist-unbiased", True), ("range", False),
    ("sqerr", False), ("marginal", True),
)
#: One round of event scenarios: (kind, outcomes).
CLI_EVENTS = (
    ("partition", 3), ("monty", 3), ("overlap", 4), ("partition", 5), ("monty", 4),
)


def dilation_doc(rng: random.Random, ku: int, kv: int, strategy: str, n_ineq: int) -> dict:
    """Constraint-form dilation scenario: the target marginal is known,
    the conditioner is free, plus ``n_ineq`` inequalities that a known
    member satisfies. ``marginal`` pragmatics ignore the conditioner and
    predict the known marginal; ``random`` ones are any full-support joint."""
    atoms = grid(ku, kv)
    m = distinct_pmf(rng, range(ku))
    constraints = [
        {"coeffs": {f"u{i}v{j}": "1" for j in range(kv)}, "rel": "=", "rhs": str(m[i])}
        for i in range(ku - 1)
    ]
    q0 = rational_pmf(rng, range(kv))
    member = {z: m[_u(z)] * q0[_v(z)] for z in atoms}
    for _ in range(n_ineq):
        cell = rng.sample(atoms, len(atoms) // 3)
        value = sum(member[z] for z in cell)
        slack = Fraction(rng.randint(0, 6), DENOMINATOR)
        rel = rng.choice(("<=", ">="))
        rhs = value + slack if rel == "<=" else value - slack
        constraints.append({"coeffs": {z: "1" for z in sorted(cell)}, "rel": rel, "rhs": str(rhs)})
    if strategy == "marginal":
        q = rational_pmf(rng, range(kv))
        joint = {z: m[_u(z)] * q[_v(z)] for z in atoms}
    else:
        joint = rational_pmf(rng, atoms)
    return {
        "format": 1,
        "atoms": atoms,
        "rvs": {
            "U": {z: _u(z) for z in atoms},
            "V": {z: _v(z) for z in atoms},
            "W": {z: _v(z) % 2 for z in atoms},
        },
        "credal": {"constraints": constraints},
        "pragmatic": {"joint": {z: str(p) for z, p in joint.items()}},
    }


def _constraint_member(doc: dict) -> Callable[[dict], bool]:
    atoms, constraints = doc["atoms"], doc["credal"]["constraints"]

    def member(raw: dict) -> bool:
        weights = _weights_from_strings(raw, atoms)
        return weights is not None and _is_pmf(weights) and _satisfies(weights, constraints)

    return member


def _verdict_problem(name: str, verdict: dict, member, pragmatic: dict) -> Optional[str]:
    """Problems with one rendered verdict that any input must avoid."""
    if any(note.startswith("internal-error") for note in verdict["notes"]):
        return f"{name}: {verdict['notes']}"
    if not verdict["holds"]:
        ce = verdict["counterexample"]
        if ce is None:
            return f"{name}: failing verdict without counterexample"
        vertex = ce.get("vertex")
        if vertex is not None and not member(vertex):
            if not (name == "pivotal" and vertex == pragmatic):
                return f"{name}: counterexample vertex {vertex} is not a credal member"
    return None


def _report_check(doc: dict, holds: tuple) -> Callable:
    member = _constraint_member(doc)
    pragmatic = {z: p for z, p in doc["pragmatic"]["joint"].items() if Fraction(p)}

    def check(output) -> Optional[str]:
        code, text = output
        if code != 0:
            return f"report exited {code}: {text[-200:]}"
        verdicts = json.loads(text)["verdicts"]
        if not REPORT_NOTIONS <= set(verdicts):
            return f"report lacks notions {sorted(REPORT_NOTIONS - set(verdicts))}"
        for name in holds:
            if name in verdicts and not verdicts[name]["holds"]:
                return f"{name} must hold by construction"
        if "pivotal" in holds and "pivotal" not in verdicts:
            return "pivotal must be evaluated on a distinct-probability marginal"
        for name, verdict in verdicts.items():
            problem = _verdict_problem(name, verdict, member, pragmatic)
            if problem:
                return problem
        return None

    return check


def _parse_check_text(text: str, notion: str) -> Optional[dict]:
    """The verdict of a text-mode ``check`` rendering, as in --json."""
    verdict: Optional[dict] = None
    for line in text.splitlines():
        if line.startswith(f"{notion} (") and line.endswith(("HOLDS", "FAILS")):
            verdict = {"holds": line.endswith("HOLDS"), "counterexample": None, "notes": []}
        elif verdict is not None and line.startswith("  counterexample vertex: "):
            pairs = line.split(": ", 1)[1].split()
            verdict["counterexample"] = {"vertex": dict(p.rsplit("=", 1) for p in pairs)}
        elif verdict is not None and line.startswith("  note: "):
            verdict["notes"].append(line[len("  note: "):])
        elif verdict is not None and line.startswith("  ") and verdict["counterexample"] is None:
            verdict["counterexample"] = {}
    return verdict


def _cli_check_check(doc: dict, notion: str, holds: bool) -> Callable:
    member = _constraint_member(doc)
    pragmatic = {z: p for z, p in doc["pragmatic"]["joint"].items() if Fraction(p)}

    def check(output) -> Optional[str]:
        code, text = output
        verdict = _parse_check_text(text, notion)
        if code not in (0, 1) or verdict is None:
            return f"check {notion} exited {code}: {text[-200:]}"
        if code != (0 if verdict["holds"] else 1):
            return f"check {notion}: exit {code} disagrees with the printed verdict"
        if holds and not verdict["holds"]:
            return f"{notion} must hold by construction"
        return _verdict_problem(notion, verdict, member, pragmatic)

    return check


def event_doc(rng: random.Random, kind: str, n: int) -> tuple[dict, bool]:
    """Event scenario with a full-support prior; returns the document and
    whether its observable sets partition the outcomes."""
    outcomes = list(range(1, n + 1))
    if kind == "monty":
        # the contestant picks door 1 and the host opens some other door j
        sets = [[d for d in outcomes if d != j] for j in outcomes[1:]]
    else:
        # two blocks, plus for "overlap" a pair of outcomes across them
        shuffled = rng.sample(outcomes, n)
        cut = rng.randint(1, n - 1)
        sets = [shuffled[:cut], shuffled[cut:]]
        if kind == "overlap":
            sets.append([rng.choice(sets[0]), rng.choice(sets[1])])
    # a finer grid than DENOMINATOR: a 3-outcome prior on it has only
    # 1711 values, so two seeds would too often draw the same scenario
    prior = rational_pmf(rng, outcomes, denominator=EVENT_DENOMINATOR)
    doc = {
        "format": 1,
        "events": {
            "outcomes": outcomes,
            "prior": {str(o): str(p) for o, p in prior.items()},
            "observables": [sorted(s) for s in sets],
        },
    }
    return doc, kind == "partition"


def _event_check(doc: dict, is_partition: bool) -> Callable:
    prior = {str(o): Fraction(p) for o, p in doc["events"]["prior"].items()}

    def member(raw: dict) -> bool:
        # atoms are "u=<outcome>|v=<observed set>"; members have the prior
        # as their outcome marginal
        weights = {z: Fraction(w) for z, w in raw.items()}
        marginal = {o: Fraction(0) for o in prior}
        for z, w in weights.items():
            outcome = z[2:z.index("|")]
            if outcome not in marginal:
                return False
            marginal[outcome] += w
        return _is_pmf(weights) and marginal == prior

    def check(output) -> Optional[str]:
        code, text = output
        if code not in (0, 1):
            return f"events exited {code}: {text[-200:]}"
        report = json.loads(text)
        verdict = report["verdicts"]["valid"]
        if report["is_partition"] != is_partition:
            return f"is_partition={report['is_partition']}, generated {is_partition}"
        if verdict["holds"] != is_partition:
            return "full-support prior: naive conditioning must be valid iff partition"
        if code != (0 if verdict["holds"] else 1):
            return f"events exit {code} disagrees with the verdict"
        return _verdict_problem("valid", verdict, member, {})

    return check


def cli_round(rng: random.Random, workdir: Path, index: int) -> list[Query]:
    queries = []
    for slot, (ku, kv, strategy, n_ineq) in enumerate(CLI_FILES):
        doc = dilation_doc(rng, ku, kv, strategy, n_ineq)
        path = workdir / f"r{index}-d{slot}.scn"
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        holds = MARGINAL_FACTS if strategy == "marginal" else ()
        shape = {"atoms": ku * kv, "constraints": len(doc["credal"]["constraints"])}
        argv = ["report", str(path), "--u", "U", "--v", "V", "--json"]
        queries.append(Query("report", shape, digest(doc), lambda a=argv: _invoke_cli(a),
                             _report_check(doc, holds)))
        notion, stratified = CLI_CHECKS[slot % len(CLI_CHECKS)]
        if notion == "pivotal" and strategy != "marginal":
            notion = "marginal"  # the canonical pivot is a pivot only there
        argv = ["check", str(path), "--u", "U", "--v", "V", "--notion", notion]
        if stratified:
            argv += ["--w", "W"]
        known = strategy == "marginal" and not stratified and notion in MARGINAL_FACTS
        queries.append(Query("check", shape, digest(doc), lambda a=argv: _invoke_cli(a),
                             _cli_check_check(doc, notion, known)))
    for slot, (kind, n) in enumerate(CLI_EVENTS):
        doc, is_partition = event_doc(rng, kind, n)
        path = workdir / f"r{index}-e{slot}.scn"
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        argv = ["events", str(path), "--json"]
        shape = {"outcomes": n, "atoms": sum(len(s) for s in doc["events"]["observables"])}
        queries.append(Query("events", shape, digest(doc), lambda a=argv: _invoke_cli(a),
                             _event_check(doc, is_partition)))
    return queries


# ---------------------------------------------------------- notions-vertex

#: One round: (strategy, ku, kv, vertices) per vertex-form instance.
NOTION_INSTANCES = (
    ("valid", 6, 5, 40), ("marginal", 4, 4, 40), ("random", 5, 5, 60),
    ("valid", 5, 6, 40), ("marginal", 3, 6, 10), ("random", 4, 3, 30),
)


def _space(ku: int, kv: int):
    atoms = grid(ku, kv)
    space = core.OutcomeSpace(atoms)
    u = core.Rv(space, "U", {z: _u(z) for z in atoms})
    v = core.Rv(space, "V", {z: _v(z) for z in atoms})
    w = core.Rv(space, "W", {z: _v(z) % 2 for z in atoms})
    return space, u, v, w


def vertex_instance(rng: random.Random, strategy: str, ku: int, kv: int, n_vertices: int) -> dict:
    """Vertex-form instance.

    - ``valid``: every vertex has the pragmatic conditionals, which are
      permutations of one distinct-probability row.
    - ``marginal``: every vertex has the pragmatic target law and the
      pragmatic distribution ignores the conditioner.
    - ``random``: unconstrained vertices; the pragmatic distribution has
      full support so its conditionals stay essentially unique.
    """
    space, u, v, w = _space(ku, kv)
    atoms = space.atoms
    if strategy == "valid":
        base = list(distinct_pmf(rng, range(ku)).values())
        rows = {j: dict(zip(range(ku), rng.sample(base, ku))) for j in range(kv)}

        def joint(vm):
            return {z: vm[_v(z)] * rows[_v(z)][_u(z)] for z in atoms}

        ptilde = joint(rational_pmf(rng, range(kv)))
        draw = lambda: joint(rational_pmf(rng, range(kv), full_support=False))  # noqa: E731
    elif strategy == "marginal":
        mu = distinct_pmf(rng, range(ku))
        q = rational_pmf(rng, range(kv))
        ptilde = {z: mu[_u(z)] * q[_v(z)] for z in atoms}

        def draw():
            split = {i: rational_pmf(rng, range(kv), full_support=False) for i in range(ku)}
            return {z: mu[_u(z)] * split[_u(z)][_v(z)] for z in atoms}
    else:
        ptilde = rational_pmf(rng, atoms)
        draw = lambda: rational_pmf(rng, atoms, full_support=False)  # noqa: E731
    vertices: list = []
    while len(vertices) < n_vertices:
        p = core.Pmf(space, draw())
        if p not in vertices:
            vertices.append(p)
    return {
        "strategy": strategy, "space": space, "U": u, "V": v, "W": w,
        "ptilde": core.Pmf(space, ptilde),
        "credal": core.CredalSet.from_vertices(vertices),
    }


def _library_problem(name: str, verdict, inst: dict) -> Optional[str]:
    if any(note.startswith("internal-error") for note in verdict.notes):
        return f"{name}: {verdict.notes}"
    if not verdict.holds:
        vertex = verdict.counterexample.vertex
        if vertex is not None and vertex not in inst["credal"].vertices:
            if not (name == "pivotal" and vertex == inst["ptilde"]):
                return f"{name}: counterexample vertex is not a credal member"
    return None


def _verdict_check(name: str, inst: dict, must_hold: bool) -> Callable:
    def check(verdict) -> Optional[str]:
        if must_hold and not verdict.holds:
            return f"{name} must hold by construction ({inst['strategy']})"
        return _library_problem(name, verdict, inst)

    return check


def _hierarchy_check(inst: dict) -> Callable:
    facts = {"valid": VALID_FACTS, "marginal": MARGINAL_FACTS}.get(inst["strategy"], ())

    def check(report) -> Optional[str]:
        if not REPORT_NOTIONS <= set(report):
            return f"report lacks notions {sorted(REPORT_NOTIONS - set(report))}"
        for name in facts:
            if name not in report or not report[name].holds:
                return f"{name} must hold by construction ({inst['strategy']})"
        for name, verdict in report.items():
            problem = _library_problem(name, verdict, inst)
            if problem:
                return problem
        return None

    return check


def _instance_digest(inst: dict) -> str:
    return digest((inst["ptilde"].as_tuple(), [p.as_tuple() for p in inst["credal"].vertices]))


def notions_round(rng: random.Random, workdir: Path, index: int) -> list[Query]:
    queries = []
    for strategy, ku, kv, nv in NOTION_INSTANCES:
        inst = vertex_instance(rng, strategy, ku, kv, nv)
        u, v, w, pt, cs = inst["U"], inst["V"], inst["W"], inst["ptilde"], inst["credal"]
        shape, key = {"atoms": ku * kv, "vertices": nv}, _instance_digest(inst)

        def add(kind, call, check):
            queries.append(Query(kind, shape, key, call, check))

        add("hierarchy", lambda u=u, v=v, pt=pt, cs=cs: safety.hierarchy_report(u, v, pt, cs),
            _hierarchy_check(inst))
        notion = "dist-unbiased" if strategy == "marginal" else "valid"
        left, right = safety.NOTION_QUERIES[notion]
        query = safety.SafetyQuery(u, left, v, right, stratifier=w)
        add("stratified", lambda q=query, pt=pt, cs=cs: safety.check_safety(q, pt, cs),
            _verdict_check(notion, inst, strategy == "valid"))
        for kind in (decisions.ZERO_ONE, decisions.BRIER):
            loss = decisions.LossFunction(kind)
            add(f"decision-{kind}",
                lambda u=u, v=v, pt=pt, cs=cs, loss=loss:
                decisions.check_decision_safety(pt, u, v, loss, cs),
                _verdict_check("decision", inst, False))
        if strategy != "random":  # the canonical pivot is a pivot only by construction
            add("pivotal",
                lambda u=u, v=v, pt=pt, cs=cs:
                pivots.check_pivotal_safety(pt, u, v, pivots.canonical_pivot(pt, u, v), cs),
                _verdict_check("pivotal", inst, True))
    return queries


# -------------------------------------------------------------- dist-range

#: One round: (conditioner values, target values, vertices, position of
#: the first vertex outside the hull or None when all lie inside).
HULL_INSTANCES = (
    (6, 3, 5, None), (9, 3, 7, None), (10, 4, 4, None), (12, 5, 6, None),
    (6, 3, 3, 1), (8, 4, 6, 3), (8, 4, 4, 0), (8, 4, 8, 1), (10, 4, 5, 0),
    (10, 4, 8, 2), (12, 4, 4, 1), (12, 4, 6, 2), (12, 4, 5, 0),
)


def hull_instance(rng: random.Random, kv: int, ku: int, n_vertices: int,
                  outside_at: Optional[int]) -> dict:
    """Vertex-form instance for the ``dist-range`` query.

    Pragmatic rows have full support. Each inside vertex keeps the rows
    and puts all conditioner mass on one value, so its target law is one
    generator and the subset search stops at size one. The outside vertex
    puts all its mass on one target value, which no mixture of
    full-support rows reaches, so the search tries every subset.
    """
    space, u, v, _ = _space(ku, kv)
    atoms = space.atoms
    rows = {j: rational_pmf(rng, range(ku)) for j in range(kv)}
    vm = rational_pmf(rng, range(kv))
    ptilde = {z: vm[_v(z)] * rows[_v(z)][_u(z)] for z in atoms}
    inside = iter(rng.sample(range(kv), n_vertices))
    vertices = []
    for position in range(n_vertices):
        if position == outside_at:
            target = rng.randrange(ku)
            q = rational_pmf(rng, range(kv))
            weights = {z: q[_v(z)] if _u(z) == target else Fraction(0) for z in atoms}
        else:
            j = next(inside)
            weights = {z: rows[j][_u(z)] if _v(z) == j else Fraction(0) for z in atoms}
        vertices.append(core.Pmf(space, weights))
    return {
        "strategy": "inside" if outside_at is None else "outside",
        "space": space, "U": u, "V": v,
        "ptilde": core.Pmf(space, ptilde),
        "credal": core.CredalSet.from_vertices(vertices),
    }


def hull_round(rng: random.Random, workdir: Path, index: int) -> list[Query]:
    queries = []
    for kv, ku, nv, outside_at in HULL_INSTANCES:
        inst = hull_instance(rng, kv, ku, nv, outside_at)
        query = safety.SafetyQuery(inst["U"], safety.LEFT_FULL, inst["V"], safety.RIGHT_DBLSQUARE)
        holds = outside_at is None

        def check(verdict, inst=inst, holds=holds) -> Optional[str]:
            if verdict.holds != holds:
                return f"dist-range verdict {verdict.holds}, generated {inst['strategy']}"
            return _library_problem("dist-range", verdict, inst)

        queries.append(Query(f"hull-{inst['strategy']}",
                             {"generators": kv, "targets": ku, "vertices": nv},
                             _instance_digest(inst),
                             lambda q=query, pt=inst["ptilde"], cs=inst["credal"]:
                             safety.check_safety(q, pt, cs), check))
    return queries


ROUNDS = {"cli-constraint": cli_round, "notions-vertex": notions_round, "dist-range": hull_round}


def rounds(workload: str, seed: int, workdir: Path):
    """The workload's rounds, in order; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    make = ROUNDS[workload]
    index = 0
    while True:
        yield make(rng, workdir, index)
        index += 1
