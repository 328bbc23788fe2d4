"""Closed-form F-pure thresholds for special polynomial shapes.

* shape classification (diagonal / binomial / binary form / other),
* the base-p carry algorithm for diagonal polynomials,
* simple-normal-crossing detection via Jacobian ranks and heights,
* limited factorization: monomial content, linear factors (trial division
  by the candidates that root sets of f on a few lines allow), and char-p
  squarefree decomposition of the leftover cofactor.

Closed forms for binomials and binary forms are deliberately not implemented;
they classify for dispatch and fall through to the general machinery.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    DomainError,
    MultiPoly,
    Ring,
    ceil_fraction,
    multiplicative_order,
    p_adic_split,
)
from .groebner import Ideal, poly_gcd, exact_div, try_div

DIAGONAL = "diagonal"
BINOMIAL = "binomial"
BINARY_FORM = "binary_form"
OTHER = "other"


def classify(f: MultiPoly) -> str:
    """Shape tag checked in dispatch order: diagonal, binomial, binary form."""
    if f.is_zero():
        raise DomainError("cannot classify the zero polynomial")
    if _diagonal_exponents(f) is not None:
        return DIAGONAL
    if len(f.terms) == 2:
        return BINOMIAL
    support = f.support_variables()
    if len(support) == 2:
        degrees = {sum(exps) for exps in f.terms}
        if len(degrees) == 1:
            return BINARY_FORM
    return OTHER


def _diagonal_exponents(f: MultiPoly) -> list[int] | None:
    """Exponents [a_1, ...] if f = sum c_i x_i^(a_i) over distinct variables."""
    seen = set()
    exponents = []
    for exps in f.terms:
        nz = [(i, e) for i, e in enumerate(exps) if e]
        if len(nz) != 1:
            return None
        i, e = nz[0]
        if i in seen:
            return None
        seen.add(i)
        exponents.append(e)
    return exponents or None


# ---------------------------------------------------------------------------
# diagonal polynomials


def _truncate(x: Fraction, p: int, e: int) -> Fraction:
    """Level-e truncation of the nonterminating base-p expansion of x > 0:
    (ceil(x p^e) - 1) / p^e.  For x with p^e x not an integer this is
    floor(x p^e)/p^e; for exact p-power points it drops to the expansion
    ...(p-1)(p-1) from below, which is what the carry test needs."""
    q = p**e
    return Fraction(ceil_fraction(x * q) - 1, q)


def diagonal_fpt(exponents: list[int], p: int) -> Fraction:
    """F-pure threshold at the origin of sum_i x_i^(a_i) over F_p.

    With S = sum 1/a_i, returns S when adding the nonterminating base-p
    expansions of the 1/a_i involves no carrying; otherwise, with L the first
    level where the truncated digit sums disagree with the truncation of S
    (carry-in propagates upward, so truncations are compared rather than
    single digits), returns sum_i <1/a_i>_L + p^(-L), capped at 1.
    """
    if not exponents:
        raise DomainError("empty exponent list")
    if any(a < 1 for a in exponents):
        raise DomainError("diagonal exponents must be >= 1")
    if any(a == 1 for a in exponents):
        return Fraction(1)
    parts = [Fraction(1, a) for a in exponents]
    S = sum(parts)
    # carry pattern is eventually periodic: preperiod max g, period lcm of
    # the orders of p modulo the prime-to-p parts of the denominators
    max_g, period = 0, 1
    for v in parts + [S]:
        g, d = p_adic_split(v.denominator, p)
        max_g = max(max_g, g)
        if d > 1:
            h = multiplicative_order(p, d)
            period = math.lcm(period, h)
    for e in range(1, max_g + period + 1):
        lhs = sum(_truncate(v, p, e) for v in parts)
        rhs = _truncate(S, p, e)
        if lhs != rhs:
            return min(Fraction(1), lhs + Fraction(1, p**e))
    if S > 1:
        raise RuntimeError("carry-free digit sums force S <= 1")
    return S


# ---------------------------------------------------------------------------
# factorization: content, linear factors, squarefree structure


@dataclass(frozen=True)
class FactoredPoly:
    """A partial factorization f = unit * prod factor^multiplicity.

    ``fully_split`` records whether every factor is certified irreducible
    (monomials and linear forms are; leftover squarefree cofactors of degree
    >= 2 are not).
    """

    unit: int
    factors: tuple[tuple[MultiPoly, int], ...]
    fully_split: bool = True

    def expand(self, ring: Ring) -> MultiPoly:
        out = ring.constant(self.unit)
        for fac, mult in self.factors:
            out = out * fac ** mult
        return out

    def __str__(self):
        pieces = [f"({fac})^{mult}" if mult > 1 else f"({fac})" for fac, mult in self.factors]
        if self.unit != 1 or not pieces:
            pieces.insert(0, str(self.unit))
        return " * ".join(pieces)


def _line_roots(f: MultiPoly, a: list[int], i: int) -> list[int]:
    """The s in F_p with f(a + s e_i) = 0, where a_i = 0."""
    p = f.ring.characteristic
    g: dict[int, int] = {}  # f restricted to the line, as a polynomial in s
    for exps, c in f.terms.items():
        for j, e in enumerate(exps):
            if e and j != i:
                c = c * pow(a[j], e, p) % p
        g[exps[i]] = (g.get(exps[i], 0) + c) % p
    return [s for s in range(p) if sum(c * pow(s, k, p) for k, c in g.items()) % p == 0]


def _monic_linear_forms(f: MultiPoly, lead: int):
    """Monic linear forms x_lead + sum_{j > lead} c_j x_j + c_0, among them
    every such factor of f, in the order of (c_{lead+1}, ..., c_{n-1}, c_0).

    On a line a + s e_lead with a_lead = 0 such a form is s + lam(a), with
    lam(a) = sum_j c_j a_j + c_0, so if it divides f, then -lam(a) is a root
    of f there.  Roots on the lines through a base point w and through each
    w + e_j (j > lead) give lam(w) and c_j = lam(w + e_j) - lam(w).  A line
    inside V(f) tells nothing; if each of 4p base points lies on one, all
    p^(n - lead) forms are candidates.
    """
    ring, p, n = f.ring, f.ring.characteristic, f.ring.arity
    tails = itertools.product(range(p), repeat=n - lead)
    for rest in itertools.islice(itertools.product(range(p), repeat=n - 1), 4 * p):
        w = [*rest[:lead], 0, *rest[lead:]]
        lines = [w] + [[v + (k == j) for k, v in enumerate(w)] for j in range(lead + 1, n)]
        roots = [_line_roots(f, a, lead) for a in lines]
        if all(len(r) < p for r in roots):
            found = set()
            for r0, *rs in itertools.product(*roots):
                cs = [(r0 - r) % p for r in rs]
                found.add((*cs, (-r0 - sum(c * v for c, v in zip(cs, w[lead + 1:]))) % p))
            tails = sorted(found)
            break
    unit = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    for *cs, c0 in tails:
        yield ring.poly({unit[lead]: 1, **dict(zip(unit[lead + 1:], cs)), (0,) * n: c0})


def _pth_root(f: MultiPoly) -> MultiPoly:
    p = f.ring.characteristic
    if any(e % p for exps in f.terms for e in exps):
        raise RuntimeError("p-th root of a polynomial that is not a p-th power")
    return f.ring.poly({tuple(e // p for e in exps): c for exps, c in f.terms.items()})


def squarefree_factors(h: MultiPoly) -> list[tuple[MultiPoly, int]]:
    """Squarefree decomposition of a nonconstant polynomial in char p.

    Classic derivative-gcd iteration; multiplicities divisible by p are
    recovered through the p-th root of the derivative-free part (coefficients
    are Frobenius-fixed, so the root is an exponent shift).  Factors are
    squarefree and pairwise coprime but not certified irreducible.
    """
    p = h.ring.characteristic
    h = h.monic()
    partials = [h.derivative(i) for i in range(h.ring.arity)]
    if all(d.is_zero() for d in partials):
        return [(q, p * m) for q, m in squarefree_factors(_pth_root(h))]
    c = h
    for d in partials:
        if not d.is_zero():
            c = poly_gcd(c, d)
        if c.is_constant():
            break
    w = exact_div(h, c).monic()
    c = c.monic()
    out: list[tuple[MultiPoly, int]] = []
    i = 1
    while not w.is_constant():
        y = poly_gcd(w, c)
        z = exact_div(w, y).monic()
        if not z.is_constant():
            out.append((z, i))
        i += 1
        w = y.monic()
        c = exact_div(c, y).monic()
    if not c.is_constant():
        out.extend((q, p * m) for q, m in squarefree_factors(_pth_root(c)))
    return out


def extract_linear_factors(f: MultiPoly) -> FactoredPoly:
    """Split off the monomial content and all monic linear factors, by trial
    division by the candidates that root sets on lines leave; the leftover
    cofactor is squarefree-decomposed and kept as uncertified factors."""
    if f.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    ring = f.ring
    factors: list[tuple[MultiPoly, int]] = []
    # monomial content
    for i in range(ring.arity):
        m = min(exps[i] for exps in f.terms)
        if m:
            factors.append((ring.variable(i), m))
            f = f.ring.poly({tuple(e - m if j == i else e for j, e in enumerate(exps)): c for exps, c in f.terms.items()})
    # monic linear forms, by lead variable; candidates come from what is left
    for lead in range(ring.arity):
        if f.is_constant():
            break
        for ell in _monic_linear_forms(f, lead):
            mult = 0
            while True:
                q = try_div(f, ell)
                if q is None:
                    break
                f = q
                mult += 1
            if mult:
                factors.append((ell, mult))
            if f.is_constant():
                break
    fully_split = True
    if not f.is_constant():
        lead = f.leading_coefficient()
        for piece, mult in squarefree_factors(f):
            factors.append((piece, mult))
            if piece.degree() >= 2:
                fully_split = False
        unit = lead
    else:
        unit = f.constant_term()
    return FactoredPoly(unit, tuple(factors), fully_split)


# ---------------------------------------------------------------------------
# simple normal crossings


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    rows = [row[:] for row in rows]
    rank, col = 0, 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                factor = rows[r][col] * inv % p
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _poly_det(matrix: list[list[MultiPoly]], ring: Ring) -> MultiPoly:
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = ring.zero()
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        prod = ring.constant(sign)
        for r, c in enumerate(perm):
            prod = prod * matrix[r][c]
        total = total + prod
    return total


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def is_simple_normal_crossing(F: FactoredPoly, at_origin: bool = True) -> bool:
    """Do the factors of F form part of a regular system of parameters
    (at the origin, or at every common point when ``at_origin`` is false)?

    At the origin, a single rank computation suffices: the Jacobian of the
    vanishing factors, evaluated there, must have full rank (full rank of the
    whole set forces full rank of every subset).  Globally, every subset T
    must cut a locus of height |T| on which its Jacobian keeps full rank,
    checked via unit-ideal tests on T plus its maximal minors.
    """
    factors = [fac for fac, _mult in F.factors]
    if any(fac.is_constant() for fac in factors):
        raise DomainError("constant factor in simple-normal-crossing test")
    if not factors:
        return True
    ring = factors[0].ring
    n = ring.arity
    origin = [0] * n
    if at_origin:
        vanishing = [fac for fac in factors if fac.evaluate(origin) == 0]
        if not vanishing:
            return True
        if len(vanishing) > n:
            return False
        rows = [[fac.derivative(i).evaluate(origin) for i in range(n)] for fac in vanishing]
        return _rank_mod_p(rows, ring.characteristic) == len(vanishing)
    for size in range(1, len(factors) + 1):
        for T in itertools.combinations(factors, size):
            ideal_T = Ideal(ring, list(T))
            if ideal_T.is_unit():
                continue
            if size > n:
                return False
            if ideal_T.krull_dimension() != n - size:
                return False
            jac = [[fac.derivative(i) for i in range(n)] for fac in T]
            minors = []
            for cols in itertools.combinations(range(n), size):
                sub = [[jac[r][c] for c in cols] for r in range(size)]
                minors.append(_poly_det(sub, ring))
            if not (ideal_T + Ideal(ring, minors)).is_unit():
                return False
    return True


def snc_fpt(F: FactoredPoly, at_origin: bool = True) -> Fraction:
    """For factors in simple normal crossing: the reciprocal of the largest
    multiplicity among the factors through the origin (or among all factors,
    for the global threshold)."""
    if at_origin:
        origin = [0] * F.factors[0][0].ring.arity if F.factors else []
        relevant = [mult for fac, mult in F.factors if fac.evaluate(origin) == 0]
    else:
        relevant = [mult for _fac, mult in F.factors]
    if not relevant:
        raise DomainError("no factor vanishes at the requested locus")
    return Fraction(1, max(relevant))


def snc_verdict_raw(f: MultiPoly, at_origin: bool = True) -> tuple[bool, FactoredPoly]:
    """SNC test entered from a raw polynomial.

    Degree >= 2 pieces of the cofactor are not certified irreducible; when
    such a piece is relevant to the test, the verdict is a conservative False
    with a warning rather than a guess.
    """
    F = extract_linear_factors(f)
    origin = [0] * f.ring.arity
    if at_origin:
        blockers = [
            fac for fac, _m in F.factors if fac.degree() >= 2 and fac.evaluate(origin) == 0
        ]
    else:
        blockers = [fac for fac, _m in F.factors if fac.degree() >= 2]
    if blockers:
        warnings.warn(
            "factorization incomplete (cofactor of degree >= 2); "
            "reporting not simple normal crossing",
            stacklevel=2,
        )
        return False, F
    return is_simple_normal_crossing(F, at_origin=at_origin), F


def special_fpt_at_origin(f: MultiPoly) -> Fraction | None:
    """Closed-form F-pure threshold at the origin when a special shape
    applies: diagonal polynomials, then simple normal crossings.  Binomials
    and binary forms have no closed form here and return None."""
    exponents = _diagonal_exponents(f)
    if exponents is not None:
        return diagonal_fpt(exponents, f.ring.characteristic)
    verdict, F = snc_verdict_raw(f, at_origin=True)
    if verdict:
        return snc_fpt(F, at_origin=True)
    return None


def special_fpt_global(f: MultiPoly) -> Fraction | None:
    """Global analogue; only the simple-normal-crossing check applies."""
    verdict, F = snc_verdict_raw(f, at_origin=False)
    if verdict:
        return snc_fpt(F, at_origin=False)
    return None
