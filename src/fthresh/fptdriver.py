"""The fpt driver: special-algorithm dispatch, the a-priori interval
[nu/(p^e - 1), (nu + 1)/p^e], endpoint checks and educated guessing, and the
F-signature secant refinement.

The result is either an exact rational, a rational interval with
per-endpoint open/closed flags, or a distinguished "undefined" outcome for a
polynomial that does not vanish at the origin.  A structured trace of the
pipeline stages is always collected and can be rendered as text or JSON.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .arith import DomainError, MultiPoly, Rational
from .frobenius import root_of_product
from .groebner import Ideal
from .nu import NuOptions, nu
from .special import special_fpt_at_origin, special_fpt_global
from .testideal import compare_fpt, f_signature_value, secant_intercept

MINIMAL_DENOMINATOR = "minimal-denominator"
DENOMINATOR_POWER = "denominator-power"


@dataclass(frozen=True)
class FptOptions:
    depth_of_search: int = 1
    attempts: int = 3
    use_special_algorithms: bool = True
    final_attempt: bool = False
    guess_strategy: str = MINIMAL_DENOMINATOR
    bounds: tuple[Rational, Rational] | None = None
    at_origin: bool = True
    verbose: bool = False


@dataclass
class TraceEvent:
    stage: str
    data: dict = field(default_factory=dict)


class Trace:
    """Ordered record of driver stages, in pipeline order."""

    def __init__(self):
        self.events: list[TraceEvent] = []

    def add(self, stage: str, **data):
        self.events.append(TraceEvent(stage, data))

    def to_json(self) -> str:
        return json.dumps(
            [{"stage": ev.stage, **{k: _jsonable(v) for k, v in ev.data.items()}} for ev in self.events]
        )

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        trace = cls()
        for item in json.loads(text):
            stage = item.pop("stage")
            trace.add(stage, **item)
        return trace


def _jsonable(v):
    """Booleans and None as they are; numbers, Fractions included, as exact strings."""
    return v if v is None or isinstance(v, bool) else str(v)


@dataclass
class FptResult:
    """Exact value, enclosing interval, or the not-in-maximal-ideal outcome."""

    kind: str  # "exact" | "interval" | "undefined"
    value: Fraction | None = None
    lower: Fraction | None = None
    upper: Fraction | None = None
    lower_closed: bool = True
    upper_closed: bool = True
    reason: str | None = None
    trace: Trace | None = None

    @classmethod
    def exact(cls, value: Fraction, trace=None) -> "FptResult":
        return cls("exact", value=Fraction(value), trace=trace)

    @classmethod
    def interval(cls, lower, upper, lower_closed, upper_closed, trace=None) -> "FptResult":
        return cls(
            "interval",
            lower=Fraction(lower),
            upper=Fraction(upper),
            lower_closed=lower_closed,
            upper_closed=upper_closed,
            trace=trace,
        )

    @classmethod
    def undefined(cls, reason: str, trace=None) -> "FptResult":
        return cls("undefined", reason=reason, trace=trace)

    def is_exact(self) -> bool:
        return self.kind == "exact"

    def __str__(self):
        if self.kind == "exact":
            return str(self.value)
        if self.kind == "interval":
            return f"{{{self.lower}, {self.upper}}}"
        return f"undefined ({self.reason})"

    def numeric_str(self, digits: int = 6) -> str:
        def dec(v):
            return f"{float(v):.{digits}g}"

        if self.kind == "exact":
            return dec(self.value)
        if self.kind == "interval":
            return f"{{{dec(self.lower)}, {dec(self.upper)}}}"
        return str(self)

    def to_json(self, numeric: bool = False) -> str:
        out: dict = {"kind": self.kind}
        if self.kind == "exact":
            out["numerator"] = str(self.value.numerator)
            out["denominator"] = str(self.value.denominator)
        elif self.kind == "interval":
            out["lower_numerator"] = str(self.lower.numerator)
            out["lower_denominator"] = str(self.lower.denominator)
            out["upper_numerator"] = str(self.upper.numerator)
            out["upper_denominator"] = str(self.upper.denominator)
            out["lower_closed"] = self.lower_closed
            out["upper_closed"] = self.upper_closed
        else:
            out["reason"] = self.reason
        if numeric:
            if self.kind == "exact":
                out["numeric"] = float(self.value)
            elif self.kind == "interval":
                out["numeric"] = [float(self.lower), float(self.upper)]
        return json.dumps(out)


def parse_result_json(text: str) -> FptResult:
    data = json.loads(text)
    kind = data["kind"]
    if kind == "exact":
        return FptResult.exact(Fraction(int(data["numerator"]), int(data["denominator"])))
    if kind == "interval":
        return FptResult.interval(
            Fraction(int(data["lower_numerator"]), int(data["lower_denominator"])),
            Fraction(int(data["upper_numerator"]), int(data["upper_denominator"])),
            data["lower_closed"],
            data["upper_closed"],
        )
    return FptResult.undefined(data.get("reason", ""))


# ---------------------------------------------------------------------------
# guess strategies


def simplest_rational_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Stern-Brocot descent: the unique minimal-denominator rational in the
    open interval (lo, hi), ties broken toward the smaller numerator."""
    if not 0 <= lo < hi:
        raise DomainError("need 0 <= lo < hi")
    a, b, c, d = 0, 1, 1, 0
    while True:
        med = Fraction(a + c, b + d)
        if med <= lo:
            a, b = a + c, b + d
        elif med >= hi:
            c, d = a + c, b + d
        else:
            return med


def denominator_power_candidate(lo: Fraction, hi: Fraction, p: int) -> Fraction:
    """Smallest candidate k/D in (lo, hi) whose raw denominator D has the
    shape p^g or p^g (p^h - 1) - the shapes actual thresholds have.  The
    returned fraction may reduce further."""
    if not 0 <= lo < hi:
        raise DomainError("need 0 <= lo < hi")
    cap = p
    while True:
        denominators = set()
        power = 1
        while power <= cap:
            denominators.add(power)
            q = p
            while power * (q - 1) <= cap:
                denominators.add(power * (q - 1))
                q *= p
            power *= p
        for D in sorted(denominators):
            k = lo.numerator * D // lo.denominator + 1  # smallest k with k/D > lo
            if Fraction(k, D) < hi:
                return Fraction(k, D)
        cap *= p


def _pick_candidate(strategy: str, lo: Fraction, hi: Fraction, p: int) -> Fraction:
    if strategy == MINIMAL_DENOMINATOR:
        return simplest_rational_between(lo, hi)
    if strategy == DENOMINATOR_POWER:
        return denominator_power_candidate(lo, hi, p)
    raise DomainError(f"unknown guess strategy {strategy!r}")


# ---------------------------------------------------------------------------
# the driver


def fpt(f: MultiPoly, opts: FptOptions | None = None, **overrides) -> FptResult:
    """F-pure threshold of f at the origin (or globally), exact when found."""
    opts = replace(opts or FptOptions(), **overrides)
    if opts.depth_of_search < 1:
        raise DomainError("depth of search must be >= 1")
    if f.is_zero() or f.is_constant():
        raise DomainError("fpt requires a nonzero nonconstant polynomial")
    ring = f.ring
    p = ring.characteristic
    trace = Trace()
    trace.add("start")

    if opts.at_origin and f.evaluate([0] * ring.arity) != 0:
        trace.add("not_in_maximal_ideal")
        result = FptResult.undefined("f does not vanish at the origin", trace)
        _emit(trace, opts, result)
        return result

    if threshold_is_one(f, opts.at_origin):
        result = FptResult.exact(Fraction(1), trace)
        trace.add("exact", value=Fraction(1), how="threshold one")
        _emit(trace, opts, result)
        return result
    trace.add("not_one")

    if opts.use_special_algorithms:
        trace.add("special_check")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            c = special_fpt_at_origin(f) if opts.at_origin else special_fpt_global(f)
        if c is not None:
            trace.add("special_used", value=c)
            result = FptResult.exact(c, trace)
            _emit(trace, opts, result)
            return result
        trace.add("special_not_used")

    e = opts.depth_of_search
    nu_value = nu(e, f, opts=NuOptions(use_special_algorithms=False, at_origin=opts.at_origin))
    trace.add("nu_computed", e=e, value=nu_value)

    lo = Fraction(nu_value, p**e - 1)
    hi = Fraction(nu_value + 1, p**e)
    lo_closed = hi_closed = True
    trace.add("interval", lower=lo, upper=hi)
    if opts.bounds is not None:
        blo, bhi = Fraction(opts.bounds[0]), Fraction(opts.bounds[1])
        if blo > bhi:
            raise DomainError("bounds lower endpoint exceeds upper endpoint")
        lo, hi = max(lo, blo), min(hi, bhi)
        trace.add("bounds_applied", lower=lo, upper=hi)
        if lo > hi:
            raise DomainError("bounds are incompatible with the computed interval")
        if lo == hi:
            result = FptResult.exact(lo, trace)
            _emit(trace, opts, result)
            return result

    state = {"lo": lo, "hi": hi, "lo_closed": True, "hi_closed": True}
    exact = None
    if opts.attempts > 0:
        trace.add("guess_start")
        exact = _guess_fpt(f, state, opts, p, trace)

    if exact is None and opts.final_attempt and opts.at_origin:
        exact = _final_attempt(f, state, e, nu_value, p, trace)

    if exact is not None:
        trace.add("exact", value=exact)
        result = FptResult.exact(exact, trace)
    else:
        trace.add(
            "final_interval",
            lower=state["lo"],
            upper=state["hi"],
            lower_closed=state["lo_closed"],
            upper_closed=state["hi_closed"],
        )
        result = FptResult.interval(
            state["lo"], state["hi"], state["lo_closed"], state["hi_closed"], trace
        )
    _emit(trace, opts, result)
    return result


def threshold_is_one(f: MultiPoly, at_origin: bool) -> bool:
    """Fedder's criterion (Trans. AMS 278, 1983): the threshold is 1 exactly
    when (f^(p-1))^[1/p] is the unit ideal, or at the origin when
    f^(p-1) has a term outside m^[p] (f must vanish there)."""
    ring = f.ring
    p = ring.characteristic
    if not at_origin:
        return root_of_product(f, p - 1, Ideal(ring, [ring.one()]), 1).is_unit()
    # expand f^(p-1) modulo m^[p]: drop every term with an exponent >= p
    power = {(0,) * ring.arity: 1}
    for _ in range(p - 1):
        product: dict = {}
        for e1, c1 in power.items():
            for e2, c2 in f.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if max(e) < p:
                    product[e] = (product.get(e, 0) + c1 * c2) % p
        power = {e: c for e, c in product.items() if c}
    return bool(power)


def _guess_fpt(f, state, opts: FptOptions, p: int, trace: Trace) -> Fraction | None:
    """Endpoint checks first, then strategy-guided guesses; each test narrows
    the interval and consumes one attempt."""
    attempts = opts.attempts
    narrowed = False
    # attempt 1: the right-hand endpoint
    if attempts >= 1:
        verdict = compare_fpt(state["hi"], f, at_origin=opts.at_origin)
        if verdict == 0:
            return state["hi"]
        state["hi_closed"] = False
        trace.add("right_endpoint_rejected")
    # attempt 2: the left-hand endpoint
    if attempts >= 2:
        if state["lo"] > 0:
            verdict = compare_fpt(state["lo"], f, at_origin=opts.at_origin)
            if verdict == 0:
                return state["lo"]
        state["lo_closed"] = False
        trace.add("left_endpoint_rejected")
    # further attempts: guesses inside the open interval
    for _ in range(attempts - 2):
        if state["lo"] >= state["hi"]:
            break
        candidate = _pick_candidate(opts.guess_strategy, state["lo"], state["hi"], p)
        verdict = compare_fpt(candidate, f, at_origin=opts.at_origin)
        trace.add("guess", candidate=candidate, verdict=verdict)
        if verdict == 0:
            return candidate
        narrowed = True
        if verdict < 0:
            state["lo"] = candidate
            state["lo_closed"] = False
        else:
            state["hi"] = candidate
            state["hi_closed"] = False
    if narrowed:
        trace.add("narrowed", lower=state["lo"], upper=state["hi"])
    return None


def _final_attempt(f, state, e: int, nu_value, p: int, trace: Trace) -> Fraction | None:
    """Secant refinement through two F-signature values; by convexity the
    intercept bounds the threshold from below."""
    if nu_value < 1:
        return None
    trace.add("fsig_start")
    s1 = f_signature_value(e, nu_value - 1, f)
    trace.add("fsig_first", value=s1)
    s2 = f_signature_value(e, nu_value, f)
    trace.add("fsig_second", value=s2)
    if not s1 > s2:
        trace.add("secant_degenerate")
        return None
    intercept = secant_intercept(e, nu_value, s1, s2, p)
    trace.add("secant", value=intercept)
    if intercept > state["hi"]:
        # only reachable through inconsistent user bounds; do not "improve"
        trace.add("secant_not_improved")
        return None
    if intercept == state["hi"]:
        return intercept
    if intercept > state["lo"]:
        state["lo"] = intercept
        trace.add("secant_improved", lower=intercept)
        verdict = compare_fpt(intercept, f, at_origin=True)
        if verdict == 0:
            return intercept
        state["lo_closed"] = False
        trace.add("secant_rejected")
    else:
        trace.add("secant_not_improved")
    return None


# ---------------------------------------------------------------------------
# verbose rendering


# one format per rendered stage, filled from the event's data; stages not
# listed here (and exact values that carry a ``how``) print nothing
_STAGE_FORMATS = {
    "start": "Starting fpt ...",
    "not_in_maximal_ideal": "f does not vanish at the origin ...",
    "not_one": "fpt is not 1 ...",
    "special_check": "Verifying if special algorithms apply...",
    "special_not_used": "Special fpt algorithms were not used ...",
    "special_used": "Special fpt algorithms computed the answer: {value} ...",
    "nu_computed": "ν has been computed: ν = nu({e},f) = {value} ...",
    "interval": "fpt lies in the interval [ν/(p^e-1),(ν+1)/p^e] = [{lower},{upper}] ...",
    "bounds_applied": "User bounds narrow the interval to [{lower},{upper}] ...",
    "guess_start": "Starting guessFPT ...",
    "right_endpoint_rejected": "The right-hand endpoint is not the fpt ...",
    "left_endpoint_rejected": "The left-hand endpoint is not the fpt ...",
    "narrowed": "guessFPT narrowed the interval down to ({lower},{upper}) ...",
    "fsig_start": "Beginning F-signature computation ...",
    "fsig_first": "First F-signature computed: s(f,(ν-1)/p^e) = {value} ...",
    "fsig_second": "Second F-signature computed: s(f,ν/p^e) = {value} ...",
    "secant": "Computed F-signature secant line intercept: {value} ...",
    "secant_improved": "F-signature intercept is an improved lower bound;\n"
    "Using F-regularity to check if it is the fpt ...",
    "secant_rejected": "The new lower bound is not the fpt ...",
    "final_interval": "fpt failed to find the exact answer; try increasing the value of\n"
    "    DepthOfSearch or Attempts.\n\n"
    "fpt lies in the interval {left}{lower},{upper}{right}.",
    "exact": "fpt is exactly {value}.",
}


def render_trace(trace: Trace, result: FptResult | None = None) -> str:
    """Human-readable trace, one line per stage."""
    return "\n\n".join(
        _STAGE_FORMATS[ev.stage].format(
            **ev.data,
            left="[" if ev.data.get("lower_closed") else "(",
            right="]" if ev.data.get("upper_closed") else ")",
        )
        for ev in trace.events
        if ev.stage in _STAGE_FORMATS and "how" not in ev.data
    )


def _emit(trace: Trace, opts: FptOptions, result: FptResult):
    if opts.verbose:
        print(render_trace(trace, result))
