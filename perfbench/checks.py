"""Checks of each answer against the oracles, run after the timed phase."""

from __future__ import annotations

import oracles as O
from workloads import Instance


def _levels(case) -> range:
    depth = dict(case.options).get("depth_of_search", 1)
    return range(1, max(depth, 2) + 1)


def check_fpt(inst: Instance, result) -> list[str]:
    case = inst.case
    p = case.p
    f = O.parse(inst.text, case.names, p)
    problems = []
    if result.kind == "exact":
        c = result.value
        if case.golden is not None and c != case.golden:
            problems.append(f"fpt {c} differs from the published {case.golden}")
        if case.factors is not None:
            expected = O.snc_threshold(list(case.factors), p)
            if c != expected:
                problems.append(f"fpt {c} differs from 1/(largest multiplicity) = {expected}")
        if case.diagonal is not None and not O.diagonal_threshold_consistent(c, list(case.diagonal), p, 4):
            problems.append(f"fpt {c} disagrees with the carry-free digit count")
        # for products of linear forms the multiplicity above is the oracle;
        # expanding their powers, unit factors and all, costs seconds
        for e in _levels(case) if case.factors is None else ():
            nu_e = O.nu_principal(f, p, e)
            if O.nu_from_threshold(c, p, e) != nu_e:
                problems.append(f"fpt {c}: ceil(c p^{e}) - 1 != nu_{e} = {nu_e}")
    elif result.kind == "interval":
        if case.golden is not None or case.factors is not None or case.diagonal is not None:
            problems.append(f"interval {result} where the exact value is known")
        depth = dict(case.options).get("depth_of_search", 1)
        lo, hi = O.interval_at_level(O.nu_principal(f, p, depth), p, depth)
        if not (lo <= result.lower < result.upper <= hi):
            problems.append(f"interval {result} not inside [{lo}, {hi}] at level {depth}")
    else:
        problems.append(f"fpt result of kind {result.kind!r}")
    return problems


def check_nu(inst: Instance, value) -> list[str]:
    case = inst.case
    p, e = case.p, case.e
    f = O.parse(inst.text, case.names, p)
    m = O.maximal_ideal(case.nvars)
    problems = []
    if not isinstance(value, int):
        return [f"nu returned {value!r}"]
    if case.factors is None:
        if not O.principal_outside(f, value, p, e, m):
            problems.append(f"f^{value} lies in m^[{p}^{e}]")
        if O.principal_outside(f, value + 1, p, e, m):
            problems.append(f"f^{value + 1} does not lie in m^[{p}^{e}]")
    if case.diagonal is not None and value != O.nu_diagonal(list(case.diagonal), p, e):
        problems.append(f"nu {value} differs from the carry-free digit count")
    if case.factors is not None:
        c = O.snc_threshold(list(case.factors), p)
        if value != O.nu_from_threshold(c, p, e):
            problems.append(f"nu {value} differs from ceil(p^e / multiplicity) - 1")
    return problems


def check_nu_ideal(inst: Instance, values) -> list[str]:
    case = inst.case
    p = case.p
    gens = [O.parse(g, case.names, p) for g in inst.gens]
    if case.J:
        J = O.MonomialIdeal(next(iter(O.parse(j, case.names, p))) for j in case.J)
    else:
        J = O.maximal_ideal(case.nvars)
    mode = dict(case.options)["containment"]
    outside = O.frobenius_power_outside if mode == "power" else O.ideal_power_outside
    if not isinstance(values, list) or len(values) != case.e + 1:
        return [f"expected the list of levels 0..{case.e}, got {values!r}"]
    problems = []
    for s, v in enumerate(values):
        at_v, at_next = outside(gens, v, p, s, J)
        if not at_v:
            problems.append(f"level {s}: power {v} already lies in J^[{p}^{s}]")
        if at_next:
            problems.append(f"level {s}: power {v + 1} does not lie in J^[{p}^{s}]")
    slack = 0 if mode == "power" else len(gens) * (p - 1)
    if not O.sandwich_holds(values, p, slack):
        problems.append(f"levels {values} break the recurrence window")
    if case.golden is not None and values[-1] != case.golden:
        problems.append(f"nu {values[-1]} differs from the published {case.golden}")
    return problems


def check(inst: Instance, answer) -> list[str]:
    if inst.case.op == "fpt":
        return check_fpt(inst, answer)
    if inst.case.op == "nu":
        return check_nu(inst, answer)
    return check_nu_ideal(inst, answer)


def check_pairs(answers: list[tuple[Instance, object]]) -> list[str]:
    """mu <= nu at every level, for the cases paired on one (I, J, e)."""
    by_pair: dict[str, dict[str, list]] = {}
    for inst, values in answers:
        if inst.case.pair and isinstance(values, list):
            by_pair.setdefault(inst.case.pair, {})[dict(inst.case.options)["containment"]] = values
    problems = []
    for key, modes in by_pair.items():
        mu, nu = modes.get("power"), modes.get("standard")
        if mu is not None and nu is not None and any(a > b for a, b in zip(mu, nu)):
            problems.append(f"pair {key}: mu {mu} exceeds nu {nu}")
    return problems
