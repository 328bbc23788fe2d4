"""The workloads: fixed lists of fthresh calls, and the seeded inputs for them.

Each workload is a fixed list of cases.  A case fixes the shape of its input
(the polynomial or ideal up to coefficients), the prime, the call and its
options.  The seed picks an isomorphic copy of each input: f(x) becomes
u * f(l_1 x_1, ..., l_n x_n) for units u, l_i of F_p.  A diagonal change of
coordinates maps monomials to multiples of themselves, so every monomial
order, Groebner basis, Frobenius root and containment test of the copy has
the same supports as the original; the answers are the same, and so is the
work, which is what lets runs with different seeds be compared.  The shapes
themselves never depend on the seed.

For inputs with linear factors the seed uses one unit for every variable:
that keeps each monic linear factor unchanged, so the trial division in the
special-shape check finds its factors at the same candidate as in any other
run.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

VARIABLES = ("x", "y", "z")


@dataclass(frozen=True)
class Case:
    label: str
    op: str  # "fpt" or "nu" of a polynomial, "nu_ideal" of an ideal
    p: int
    nvars: int
    text: str = ""  # the polynomial, for "fpt" and "nu"
    gens: tuple[str, ...] = ()  # generators of I, for "nu_ideal"
    J: tuple[str, ...] = ()  # monomial generators of J; empty means the maximal ideal
    e: int = 0  # Frobenius level of a nu call
    options: tuple = ()  # keyword arguments of the call, as (name, value) pairs
    golden: object = None  # the value the paper prints
    diagonal: tuple[int, ...] | None = None  # exponents of a diagonal form
    factors: tuple | None = None  # ((linear coefficients, constant, multiplicity), ...)
    pair: str = ""  # cases sharing a pair key are the nu and mu of one (I, J, e)
    uniform: bool = False  # scale every variable by one unit: the input has linear factors

    @property
    def names(self) -> tuple[str, ...]:
        return VARIABLES[: self.nvars]


@dataclass(frozen=True)
class Instance:
    """A case with the seed's coefficients: every text is in x, y, z."""

    case: Case
    text: str = ""
    gens: tuple[str, ...] = ()


def substitute(text: str, mapping: dict[str, str]) -> str:
    return re.sub(r"[A-Za-z_]\w*", lambda m: mapping.get(m.group(), m.group()), text)


def scaled(text: str, names, lams, unit: int) -> str:
    return f"{unit}*({substitute(text, {v: f'({l}*{v})' for v, l in zip(names, lams)})})"


def linear_product(factors) -> str:
    pieces = []
    for coeffs, const, mult in factors:
        form = " + ".join(f"{c}*{v}" for c, v in zip(coeffs, VARIABLES) if c)
        if const:
            form += f" + {const}"
        pieces.append(f"({form})^{mult}")
    return "*".join(pieces)


def instantiate(case: Case, rng: random.Random) -> Instance:
    p = case.p
    unit = rng.randrange(1, p)
    if case.uniform:
        lams = [rng.randrange(1, p)] * case.nvars
    else:
        lams = [rng.randrange(1, p) for _ in range(case.nvars)]
    if case.op == "nu_ideal":
        gens = tuple(scaled(g, case.names, lams, rng.randrange(1, p)) for g in case.gens)
        return Instance(case, gens=gens)
    return Instance(case, text=scaled(case.text, case.names, lams, unit))


# ---------------------------------------------------------------------------
# fpt_search: bivariate polynomials no closed form handles


def _family(p, depth, attempts, a, b, c, d, e, i, j, k) -> Case:
    text = f"x^{a}*y^{b} + {c}*x^{d}*y^{e} + (x^{i} + y^{j})^{k}"
    return Case(f"fpt {text} p={p} depth={depth} attempts={attempts}", "fpt", p, 2, text,
                options=(("depth_of_search", depth), ("attempts", attempts)))


def _golden_fpt(text, p, nvars, golden, uniform=False, **options) -> Case:
    opts = tuple(sorted(options.items()))
    return Case(f"fpt {text} p={p} {opts}", "fpt", p, nvars, text, options=opts, golden=golden,
                uniform=uniform)


# Members of x^a*y^b + c*x^d*y^e + (x^i + y^j)^k, drawn once and kept fixed:
# (p, depth, attempts, a, b, c, d, e, i, j, k).  They span 0.1 s to 5 s a call.
FAMILY = [
    (5, 2, 4, 1, 7, 2, 7, 1, 5, 2, 2),
    (7, 2, 5, 4, 8, 2, 8, 9, 3, 5, 2),
    (5, 2, 4, 1, 7, 3, 9, 2, 3, 4, 3),
    (7, 3, 5, 9, 7, 5, 9, 4, 2, 7, 2),
    (7, 3, 4, 1, 8, 2, 4, 7, 4, 3, 3),
    (7, 2, 3, 6, 6, 6, 8, 5, 2, 3, 2),
    (5, 3, 4, 1, 8, 4, 6, 9, 3, 5, 3),
    (7, 2, 2, 3, 2, 1, 9, 5, 2, 3, 3),
    (3, 3, 5, 3, 3, 2, 5, 9, 3, 4, 3),
    (3, 3, 4, 5, 2, 1, 2, 5, 2, 7, 3),
    (5, 2, 2, 4, 5, 4, 2, 7, 3, 2, 3),
    (7, 3, 4, 1, 2, 2, 3, 3, 3, 4, 3),
    (3, 2, 3, 5, 2, 2, 5, 9, 3, 5, 3),
]

FPT_SEARCH = [
    _golden_fpt("x^2*(x + y)^3*(x + 3*y^2)^5", 5, 2, Fraction(22, 125), uniform=True,
                depth_of_search=3, attempts=1),
    _golden_fpt("x^6*y^4 + x^4*y^9 + (x^2 + y^3)^3", 5, 2, Fraction(17, 62), depth_of_search=3, attempts=2),
    _golden_fpt("x^3*y^11*(x + y)^8*(x^2 + y^3)^8", 5, 2, Fraction(1, 19), uniform=True,
                depth_of_search=3, attempts=8),
    _golden_fpt("2*x^10*y^8 + x^4*y^7 - 2*x^3*y^8", 5, 2, Fraction(1, 7), depth_of_search=4),
] + [_family(*row) for row in FAMILY]


# ---------------------------------------------------------------------------
# nu_ideals: nu and mu of non-principal ideals


def _ideal(p, e, gens, J=(), mode="standard", golden=None, pair="") -> Case:
    nvars = 3 if any("z" in g for g in gens + J) else 2
    label = f"nu_ideal e={e} p={p} I=({', '.join(gens)}) J=({', '.join(J) or 'm'}) {mode}"
    return Case(label, "nu_ideal", p, nvars, gens=tuple(gens), J=tuple(J), e=e,
                options=(("containment", mode), ("return_list", True)), golden=golden, pair=pair)


M3 = ("x", "y", "z")
M3_SQUARED = ("x^2", "x*y", "x*z", "y^2", "y*z", "z^2")
M2_FIFTH = ("x^5", "x^4*y", "x^3*y^2", "x^2*y^3", "x*y^4", "y^5")

NU_IDEALS = [
    _ideal(11, 2, ("x^2 + y^3", "x*y"), ("x^2", "y^3"), golden=281),
    _ideal(5, 2, M3, M3_SQUARED, golden=97),
    _ideal(3, 4, M2_FIFTH, golden=32, pair="m^5"),
    _ideal(3, 4, M2_FIFTH, mode="power", golden=26, pair="m^5"),
    _ideal(7, 2, M3, M3_SQUARED),
    _ideal(3, 3, M3, M3_SQUARED),
    _ideal(5, 3, ("x^3 + y^2", "x*y"), mode="root"),
    _ideal(11, 2, ("x^2 + y*z", "y^2 + x*z", "z^2"), mode="power"),
    _ideal(11, 1, ("x^2 + y*z", "y^2 + x*z", "z^2"), mode="root"),
    _ideal(11, 2, ("x^3 + y^2", "x*y"), ("x^2", "y^3")),
    _ideal(5, 2, ("x^2 + y*z", "y^3", "z^2")),
    _ideal(7, 2, ("x^3 + y^2", "x^2*y"), ("x^2", "y^2")),
    _ideal(7, 1, ("x^3 + y^2", "x*y"), ("x^2", "y^3", "x*y^2")),
    _ideal(3, 3, ("x^2 + y^2", "x*y^3", "y^4"), pair="binomial"),
    _ideal(3, 3, ("x^2 + y^2", "x*y^3", "y^4"), mode="power", pair="binomial"),
    _ideal(7, 2, ("x^2 + y^3", "x*y^2"), pair="cusp"),
    _ideal(7, 2, ("x^2 + y^3", "x*y^2"), mode="power", pair="cusp"),
    _ideal(3, 2, ("x^2 + y^2 + z^2", "x*y", "y*z")),
]


# ---------------------------------------------------------------------------
# special_dispatch: fpt(f) and nu(2, f) with default options, three variables


def _diagonal(p, exponents, golden=None) -> list[Case]:
    text = " + ".join(f"{v}^{a}" for v, a in zip(VARIABLES, exponents))
    return [
        Case(f"fpt {text} p={p}", "fpt", p, 3, text, golden=golden, diagonal=tuple(exponents)),
        Case(f"nu(2) {text} p={p}", "nu", p, 3, text, e=2, diagonal=tuple(exponents)),
    ]


def _snc(p, factors) -> list[Case]:
    text = linear_product(factors)
    return [
        Case(f"fpt {text} p={p}", "fpt", p, 3, text, factors=factors, uniform=True),
        Case(f"nu(2) {text} p={p}", "nu", p, 3, text, e=2, factors=factors, uniform=True),
    ]


def _generic(p, text, golden=None) -> list[Case]:
    return [
        Case(f"fpt {text} p={p}", "fpt", p, 3, text, golden=golden),
        Case(f"nu(2) {text} p={p}", "nu", p, 3, text, e=2),
    ]


# each product has a factor z + c: its lead variable comes last in the trial
# order, so the search for linear factors runs to the end of the candidates
SNC_SMALL = (((1, 2, 0), 0, 2), ((0, 1, 3), 0, 1), ((0, 0, 1), 1, 1))
SNC_THREE = (((1, 0, 0), 0, 1), ((1, 2, 0), 0, 2), ((0, 1, 3), 0, 3), ((0, 0, 1), 1, 1))
TRINOMIAL = "x^2*y^3 + y^2*z^3 + z^2*x^3"
CUBIC = "x^3 + y^3 + z^3 + x*y*z"

SPECIAL_DISPATCH = (
    _diagonal(5, (17, 20, 24), golden=Fraction(94, 625))
    + _diagonal(17, (3, 4, 5))
    + _diagonal(13, (2, 3, 7))
    + _diagonal(11, (4, 5, 6))
    + _snc(13, SNC_SMALL)
    + _snc(17, SNC_SMALL)
    + _snc(11, SNC_THREE)
    + _snc(13, SNC_THREE)
    + _generic(7, TRINOMIAL)
    + _generic(11, TRINOMIAL)
    + _generic(13, TRINOMIAL)
    + _generic(17, TRINOMIAL)
    + _generic(5, CUBIC, golden=Fraction(4, 5))
    + _generic(11, CUBIC)
)

WORKLOADS = {
    "fpt_search": FPT_SEARCH,
    "nu_ideals": NU_IDEALS,
    "special_dispatch": SPECIAL_DISPATCH,
}


def instances(workload: str, seed: int) -> list[Instance]:
    rng = random.Random(f"{workload}:{seed}")
    return [instantiate(case, rng) for case in WORKLOADS[workload]]
