"""Reference answers computed without fthresh.

Polynomials here are plain dicts ``{exponent tuple: coefficient mod p}``.
Every containment question the benchmark asks is against a monomial ideal
K = J^[q] (J monomial, q = p^e), and a polynomial lies in a monomial ideal
exactly when each of its terms does.  So powers are expanded with the terms
inside K dropped as they appear: dropping them is the quotient map
R -> R/K, which is a ring map.  Nothing here calls into fthresh.
"""

from __future__ import annotations

import bisect
import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import add as _add, ge


# ---------------------------------------------------------------------------
# polynomials as dicts


def add(f: dict, g: dict, p: int) -> dict:
    out = dict(f)
    for e, c in g.items():
        v = (out.get(e, 0) + c) % p
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def scale(f: dict, c: int, p: int) -> dict:
    c %= p
    return {e: v * c % p for e, v in f.items()} if c else {}


def twist(f: dict, q: int) -> dict:
    """f(x^q) for q a power of p; over F_p this is f^q."""
    return {tuple(x * q for x in e): c for e, c in f.items()}


def parse(text: str, names: tuple[str, ...], p: int) -> dict:
    """Expand a polynomial expression (integers, variables, + - * ^ and
    parentheses) into a dict, with this module's own arithmetic."""
    tokens = re.findall(r"\d+|[A-Za-z_]\w*|[-+*^()]", text)
    if "".join(tokens) != re.sub(r"\s+", "", text):
        raise ValueError(f"cannot read {text!r}")
    pos = 0
    one = {(0,) * len(names): 1}

    def peek():
        return tokens[pos] if pos < len(tokens) else ""

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expression():
        value = term()
        while peek() in ("+", "-"):
            sign = take()
            rhs = term()
            value = add(value, rhs if sign == "+" else scale(rhs, -1, p), p)
        return value

    def term():
        value = factor()
        while peek() == "*":
            take()
            value = mul(value, factor(), p)
        return value

    def factor():
        if peek() == "-":
            take()
            return scale(factor(), -1, p)
        value = atom()
        while peek() == "^":
            take()
            value = power(value, int(take()), p)
        return value

    def atom():
        tok = take()
        if tok == "(":
            value = expression()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return value
        if tok.isdigit():
            return scale(one, int(tok), p)
        exps = [0] * len(names)
        exps[names.index(tok)] = 1
        return {tuple(exps): 1}

    value = expression()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return value


class MonomialIdeal:
    """A monomial ideal given by generator exponent tuples."""

    def __init__(self, gens):
        self.gens = tuple(tuple(g) for g in gens)
        # per-variable bounds from pure-power generators; the rest is checked term by term
        n = len(self.gens[0])
        self.bounds = [math.inf] * n
        self.mixed = []
        for g in self.gens:
            support = [i for i, x in enumerate(g) if x]
            if len(support) == 1:
                i = support[0]
                self.bounds[i] = min(self.bounds[i], g[i])
            else:
                self.mixed.append(g)

    def frobenius(self, q: int) -> "MonomialIdeal":
        return MonomialIdeal(tuple(x * q for x in g) for g in self.gens)

    def contains_term(self, e) -> bool:
        if any(map(ge, e, self.bounds)):
            return True
        return any(all(map(ge, e, g)) for g in self.mixed)

    def reduce(self, f: dict) -> dict:
        return {e: c for e, c in f.items() if not self.contains_term(e)}


def maximal_ideal(n: int) -> MonomialIdeal:
    return MonomialIdeal(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))


def mul(f: dict, g: dict, p: int, K: MonomialIdeal | None = None) -> dict:
    """f * g, with the terms inside K dropped."""
    if len(f) > len(g):
        f, g = g, f
    out: dict = {}
    if K is None:
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                e = tuple(map(_add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
    else:
        # sort g by its first exponent so each term of f skips the terms of g
        # that push the first exponent past K's bound on that variable
        items = sorted(g.items())
        firsts = [e[0] for e, _ in items]
        bound0 = K.bounds[0]
        for e1, c1 in f.items():
            stop = len(items) if bound0 == math.inf else bisect.bisect_left(firsts, bound0 - e1[0])
            for e2, c2 in items[:stop]:
                e = tuple(map(_add, e1, e2))
                if K.contains_term(e):
                    continue
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c % p for e, c in out.items() if c % p}


def power(f: dict, n: int, p: int, K: MonomialIdeal | None = None) -> dict:
    """f^n by repeated multiplication, with the terms inside K dropped."""
    one = {(0,) * len(next(iter(f))): 1} if f else {}
    result = one if K is None else K.reduce(one)
    for _ in range(n):
        result = mul(result, f, p, K)
        if not result:
            break
    return result


def power_mod_frobenius(f: dict, n: int, p: int, J: MonomialIdeal, e: int) -> dict:
    """f^n modulo J^[p^e].

    Uses f^n = prod_i (f^(d_i))(x^(p^i)) over the base-p digits d_i of n, and
    that x^(p^i a) lies in J^[p^e] exactly when x^a lies in J^[p^(e-i)] (i <= e),
    so each digit power is expanded modulo the smaller ideal before twisting.
    """
    K = J.frobenius(p**e)
    nvars = len(J.gens[0])
    result = K.reduce({(0,) * nvars: 1})
    i = 0
    while n and result:
        d = n % p
        n //= p
        if d:
            level = J.frobenius(p ** (e - i)) if i <= e else None
            piece = K.reduce(twist(power(f, d, p, level), p**i))
            result = mul(result, piece, p, K)
        i += 1
    return result


# ---------------------------------------------------------------------------
# nu of a principal ideal


def principal_outside(f: dict, n: int, p: int, e: int, J: MonomialIdeal) -> bool:
    """True when f^n is not in J^[p^e]."""
    return bool(power_mod_frobenius(f, n, p, J, e))


def nu_principal(f: dict, p: int, e: int, J: MonomialIdeal | None = None) -> int:
    """Largest n with f^n outside J^[p^e], for f in the radical of J.

    The search only uses that "outside" is downward closed in n.  The level
    window [p*nu_(e-1), p*nu_(e-1) + p - 1] is a starting guess, checked
    before it is trusted and widened when a check fails.
    """
    J = J or maximal_ideal(len(next(iter(f))))
    if e == 0:
        lo, hi = 0, 1
    else:
        prev = nu_principal(f, p, e - 1, J)
        lo, hi = p * prev, p * (prev + 1)
        if not principal_outside(f, lo, p, e, J):
            lo = 0
    while principal_outside(f, hi, p, e, J):
        if hi > 1 << 40:
            raise ValueError("f is not in the radical of J")
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # outside(lo), not outside(hi)
        mid = (lo + hi) // 2
        if principal_outside(f, mid, p, e, J):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# nu and mu of a non-principal ideal against a monomial ideal


def _compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def power_images(gens: list[dict], n: int, p: int, K: MonomialIdeal | None) -> list[dict]:
    """The nonzero images modulo K of all products of n generators."""
    nvars = len(next(iter(gens[0])))
    one = {(0,) * nvars: 1}
    if K is not None:
        one = K.reduce(one)
    if all(len(g) == 1 for g in gens):
        # monomial generators: products are monomials, so track exponent sets
        steps = [next(iter(g)) for g in gens]
        current = set(one)
        for _ in range(n):
            current = {tuple(map(_add, s, t)) for s in current for t in steps}
            if K is not None:
                current = {s for s in current if not K.contains_term(s)}
        return [{s: 1} for s in sorted(current)]
    pows = []
    for g in gens:
        table = [one]
        for _ in range(n):
            table.append(mul(table[-1], g, p, K) if table[-1] else {})
        pows.append(table)
    out = []
    for counts in _compositions(n, len(gens)):
        prod = pows[0][counts[0]]
        for table, k in zip(pows[1:], counts[1:]):
            if not prod:
                break
            prod = mul(prod, table[k], p, K)
        if prod:
            out.append(prod)
    return out


def ideal_power_outside(gens: list[dict], n: int, p: int, e: int, J: MonomialIdeal) -> tuple[bool, bool]:
    """Whether I^n and I^(n+1) are outside J^[p^e].

    I^n is outside when some product of n generators of I has a term outside
    J^[p^e].  I^(n+1) = I^n * I is generated by the products h*g of the
    generators h of I^n and g of I, so it is decided from the images of I^n.
    """
    K = J.frobenius(p**e)
    images = power_images(gens, n, p, K)
    return bool(images), any(mul(h, g, p, K) for h in images for g in gens)


def _generalized_outside(gens: list[dict], n: int, p: int, e: int, J: MonomialIdeal) -> bool:
    """True when the generalized Frobenius power I^[n] is not in J^[p^e].

    I^[n] is generated by prod_i h_i(x^(p^i)), with h_i running over the
    products of d_i generators, d_i the base-p digits of n.
    """
    K = J.frobenius(p**e)
    nvars = len(J.gens[0])
    digits = []
    while n:
        digits.append(n % p)
        n //= p
    levels = []
    for i, d in enumerate(digits):
        if not d:
            continue
        small = J.frobenius(p ** (e - i)) if i <= e else None
        pieces = [K.reduce(twist(h, p**i)) for h in power_images(gens, d, p, small)]
        levels.append([h for h in pieces if h])
    # any product with one factor per level that survives modulo K
    def search(k: int, acc: dict) -> bool:
        if not acc:
            return False
        if k == len(levels):
            return True
        return any(search(k + 1, mul(acc, h, p, K)) for h in levels[k])

    return search(0, K.reduce({(0,) * nvars: 1}))


def frobenius_power_outside(gens: list[dict], n: int, p: int, e: int, J: MonomialIdeal) -> tuple[bool, bool]:
    """Whether I^[n] and I^[n+1] are outside J^[p^e]."""
    return _generalized_outside(gens, n, p, e, J), _generalized_outside(gens, n + 1, p, e, J)


# ---------------------------------------------------------------------------
# diagonal forms


def nu_diagonal(exponents: list[int], p: int, e: int) -> int:
    """nu_e of sum_i c_i x_i^(a_i) at the origin.

    The term prod x_i^(a_i k_i) of f^n has coefficient multinomial(n; k) times
    a unit, nonzero mod p exactly when the k_i add in base p without carrying
    (Lucas).  Distinct k give distinct monomials, so nu_e is the largest
    sum k_1 + ... + k_r over carry-free k with a_i k_i < p^e.
    """
    q = p**e
    bounds = [(q - 1) // a for a in exponents]
    digits = [[(b // p**j) % p for j in range(e)] for b in bounds]

    @lru_cache(maxsize=None)
    def best(j: int, tight: tuple) -> int:
        # digit positions e-1 down to j are still free; tight[i]: k_i equals its bound so far
        if j < 0:
            return 0
        caps = [digits[i][j] if tight[i] else p - 1 for i in range(len(exponents))]
        top = -1
        for choice in product(*(range(c + 1) for c in caps)):
            if sum(choice) > p - 1:
                continue
            nxt = tuple(t and d == c for t, d, c in zip(tight, choice, caps))
            top = max(top, sum(choice) * p**j + best(j - 1, nxt))
        return top

    return best(e - 1, (True,) * len(exponents))


def diagonal_threshold_consistent(c: Fraction, exponents: list[int], p: int, levels: int) -> bool:
    """An exact threshold c of a diagonal form has ceil(c p^e) - 1 = nu_e."""
    return all(nu_from_threshold(c, p, e) == nu_diagonal(exponents, p, e) for e in range(1, levels + 1))


# ---------------------------------------------------------------------------
# products of linear forms


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                k = rows[r][col] * inv % p
                rows[r] = [(a - k * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def snc_threshold(factors: list[tuple[list[int], int, int]], p: int) -> Fraction:
    """fpt at the origin of prod (l_i + c_i)^(m_i), with l_i linear.

    When the linear parts of the factors through the origin are independent,
    a linear change of coordinates turns them into variables and the other
    factors into units at the origin, so the threshold is 1 / max m_i over
    the factors with c_i = 0.
    """
    through = [(lin, m) for lin, const, m in factors if const % p == 0]
    if rank_mod_p([lin for lin, _ in through], p) != len(through):
        raise ValueError("factors through the origin are not independent")
    return Fraction(1, max(m for _, m in through))


# ---------------------------------------------------------------------------
# properties of answers


def nu_from_threshold(c: Fraction, p: int, e: int) -> int:
    return math.ceil(c * p**e) - 1


def interval_at_level(nu_e: int, p: int, e: int) -> tuple[Fraction, Fraction]:
    """The a-priori interval [nu_e / (p^e - 1), (nu_e + 1) / p^e] holding the fpt."""
    return Fraction(nu_e, p**e - 1), Fraction(nu_e + 1, p**e)


def sandwich_holds(values: list[int], p: int, slack: int = 0) -> bool:
    """p nu_(s-1) <= nu_s <= p nu_(s-1) + p - 1 + slack for every level s.

    slack is 0 for principal ideals and for generalized Frobenius powers, and
    g(p - 1) for ordinary powers of a g-generated ideal.
    """
    return all(p * a <= b <= p * a + p - 1 + slack for a, b in zip(values, values[1:]))
