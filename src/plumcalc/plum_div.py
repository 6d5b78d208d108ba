"""Long division by partial plum products and partial wedge products.

At step ``n`` the running remainder takes the next dividend digit and gives up
the partial product ``PP_n``, split into a part that only involves earlier
quotient digits (``pp0``) and a part involving the digit chosen at this step
(``pp1``):

* ``pp0`` (plum form): ``sum(b[i] ♣ c[n+1-i] for i in 2..t)`` plus
  ``sum(J(b[i] ♣ c[n+2-i]) for i in 3..t)``, quotient digits outside their
  range counting as 0.
* ``pp0`` (wedge form): ``sum((b[i], b[i+1]) ⋈ c[n+1-i] for i in 2..t)`` with
  ``b[t+1] = 0`` — same value, terms folded pairwise.
* ``pp1``: ``b[1]*c[n] + J(b[2] ♣ c[n])``.

Both ``pp0`` forms have the same value, and every step's value is read off one
call of the column kernel: with ``W = cross_mul._wedge_columns(b[2..t], c)``
over the whole quotient ``c``, step ``n`` has ``pp0 = W[n-1] - J(b[2] ♣ c[n])``
while ``n <= len(c)`` and ``W[n-1]`` after that (0-indexed ``W``; a one-digit
divisor gives all zeros).  The subtracted J is the ``pp1`` carry that the
kernel's zero pad folds into column ``n-1``.  A step's terms are generated by
``pp0_plum``/``pp0_wedge``/``pp1`` only when they are first read.

The partial remainders obey ``r[n] = 10*r[n-1] + a[n] - pp0 - pp1`` and may go
negative between steps; only the final remainder is range-checked.  Quotient
digits are selected exactly (they are the true long-division digits, taken
from a running remainder that brings down one dividend digit at a time), so
the trace reproduces each worked vertical layout while termination and
``0 <= r < b`` are guaranteed.
"""

from __future__ import annotations

import builtins
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .cross_mul import Term, _wedge_columns
from .digit_core import carry, clubsuit, wedge
from .digit_string import DigitString, _horner

__all__ = [
    "DivisionStep",
    "DivisionTrace",
    "pp0_plum",
    "pp0_wedge",
    "pp1",
    "divmod",
    "div_decimal",
    "DIV_METHODS",
]

@dataclass(frozen=True)
class DivisionStep:
    """One step of the division loop.

    ``interim`` is ``10*r_prev + digit`` (the bring-down value), ``after_pp0``
    is ``interim - pp0``, and ``remainder`` is the step's final ``r_n``.  For
    steps past the quotient length there is no digit choice: ``quotient_digit``
    and ``pp1`` are None and ``remainder == after_pp0``.

    ``division`` is the (method, divisor, quotient digits) that every step of
    one division shares; :attr:`pp0_terms` and :attr:`pp1_terms` are built
    from it when first read, so they are not dataclass fields.
    """

    index: int
    digit: int
    interim: int
    pp0: int
    after_pp0: int
    quotient_digit: int | None
    pp1: int | None
    remainder: int
    division: tuple[str, DigitString, tuple[int, ...]] = field(repr=False, compare=False)

    @cached_property
    def pp0_terms(self) -> tuple[Term, ...]:
        """Terms of ``pp0`` in the division's method; their values sum to ``pp0``."""
        method, b, c = self.division
        return _PP0[method](b, c, self.index)[1]

    @cached_property
    def pp1_terms(self) -> tuple[Term, ...]:
        """Terms of ``pp1``; empty past the quotient length."""
        if self.quotient_digit is None:
            return ()
        return pp1(self.division[1], self.quotient_digit)[1]


@dataclass(frozen=True)
class DivisionTrace:
    """Complete record of one division, including a possibly zero-padded quotient."""

    method: str
    dividend: DigitString
    divisor: DigitString
    quotient: DigitString
    quotient_digits: tuple[int, ...]
    steps: tuple[DivisionStep, ...]
    remainder: DigitString

    def pp_reconstruction(self) -> int:
        """``sum(PP_n * 10**(s-n))`` over the steps ``1..s``; equals divisor * quotient."""
        return _horner((step.pp0 + (step.pp1 or 0) for step in self.steps), 10)


def pp0_plum(b: DigitString, c_so_far: Sequence[int], n: int) -> tuple[int, tuple[Term, ...]]:
    """Plum form of the step-``n`` partial product over the quotient digits before ``c[n]``."""
    if n < 1:
        raise ValueError(f"step index must be positive, got {n}")
    t, k = len(b), len(c_so_far)
    terms = []
    for i in range(max(2, n + 1 - k), min(t, n) + 1):  # quotient index n+1-i in 1..k
        terms.append(Term("residue", i - 1, n - i, clubsuit(b[i - 1], c_so_far[n - i])))
    for i in range(max(3, n + 2 - k), min(t, n + 1) + 1):  # quotient index n+2-i in 1..k
        terms.append(Term("carry", i - 1, n + 1 - i, carry(b[i - 1], c_so_far[n + 1 - i])))
    return sum(term.value for term in terms), tuple(terms)


def pp0_wedge(b: DigitString, c_so_far: Sequence[int], n: int) -> tuple[int, tuple[Term, ...]]:
    """Wedge form of the same partial product: equal value, pairwise terms."""
    if n < 1:
        raise ValueError(f"step index must be positive, got {n}")
    t, k = len(b), len(c_so_far)
    terms = []
    for i in range(max(2, n + 1 - k), min(t, n) + 1):  # quotient index n+1-i in 1..k
        follower = b[i] if i < t else 0
        terms.append(Term("wedge", i - 1, n - i, wedge(b[i - 1], follower, c_so_far[n - i])))
    return sum(term.value for term in terms), tuple(terms)


def pp1(b: DigitString, c_n: int) -> tuple[int, tuple[Term, ...]]:
    """Partial product involving the newly chosen digit: ``b[1]*c_n + J(b[2] ♣ c_n)``."""
    if not 0 <= c_n <= 9:
        raise ValueError(f"quotient digit must lie in 0..9, got {c_n}")
    terms = [Term("product", 0, 0, b[0] * c_n)]
    if len(b) > 1:
        terms.append(Term("carry", 1, 0, carry(b[1], c_n)))
    return sum(term.value for term in terms), tuple(terms)


_PP0 = {"plum": pp0_plum, "wedge": pp0_wedge}
DIV_METHODS = tuple(_PP0)


def divmod(a: DigitString, b: DigitString, method: str = "plum") -> tuple[DigitString, DigitString, DivisionTrace]:
    """Divide ``a`` by ``b``, returning quotient, remainder, and the full trace.

    Quotient digits come from schoolbook long division: a running remainder
    starts as the first ``t - 1`` dividend digits and brings down one more per
    quotient digit, so the quotient has exactly ``s - t + 1`` digits (a leading
    zero is allowed).  Each dividend digit is then processed in one step of the
    partial-remainder recurrence, whose final remainder must equal the running
    one.  Every step's ``pp0`` comes from one column-kernel call (see the
    module docstring) and ``pp1`` is computed once per distinct quotient digit.
    """
    if method not in _PP0:
        raise ValueError(f"unknown division method {method!r}; expected one of {DIV_METHODS}")
    if b.is_zero:
        raise ZeroDivisionError("division by zero")
    s, t = len(a), len(b)
    divisor = int(b)
    window = _horner(a.digits[: t - 1], 10)
    c = []
    for digit in a.digits[t - 1 :]:
        c_n, window = builtins.divmod(10 * window + digit, divisor)
        c.append(c_n)
    c = tuple(c)
    if not any(c):
        quotient = DigitString((0,))
        trace = DivisionTrace(method, a, b, quotient, (), (), a)
        return quotient, a, trace
    if t == 1:
        pp0_values = [0] * s
    else:
        pp0_values = _wedge_columns(b.digits[1:], c)
        for k, c_k in enumerate(c):
            pp0_values[k] -= carry(b[1], c_k)
    pp1_values = {d: pp1(b, d)[0] for d in set(c)}
    division = (method, b, c)
    steps = []
    r = 0
    for n in range(1, s + 1):
        digit = a[n - 1]
        interim = 10 * r + digit
        p0 = pp0_values[n - 1]
        after0 = interim - p0
        if n <= len(c):
            c_n = c[n - 1]
            p1 = pp1_values[c_n]
            r_n = after0 - p1
        else:
            c_n, p1, r_n = None, None, after0
        steps.append(DivisionStep(n, digit, interim, p0, after0, c_n, p1, r_n, division))
        r = r_n
    if r != window:
        raise RuntimeError(f"{method} division of {a} by {b}: partial remainder chain diverged: {r} vs {window}")
    quotient = DigitString(c[next(i for i, d in enumerate(c) if d) :])
    trace = DivisionTrace(method, a, b, quotient, c, tuple(steps), DigitString.from_int(r))
    return quotient, trace.remainder, trace


def _scale(a: DigitString, decimals: int) -> DigitString:
    """``a * 10**decimals`` by appending zero digits."""
    return a if a.is_zero else DigitString(a.digits + (0,) * decimals)


def _point_text(quotient: str, decimals: int) -> str:
    """Quotient digits of a scaled division, with the point put back ``decimals`` from the end."""
    if not decimals:
        return quotient
    text = quotient.zfill(decimals + 1)
    return f"{text[:-decimals]}.{text[-decimals:]}"


def div_decimal(
    a: DigitString, b: DigitString, decimals: int, method: str = "plum"
) -> tuple[str, DigitString, DivisionTrace]:
    """Quotient to a fixed number of decimal places, plus the scaled remainder.

    Divides ``a * 10**decimals`` by ``b``; the text quotient carries exactly
    ``decimals`` digits after the point, and the remainder is returned raw
    (it carries a factor of ``10**-decimals`` relative to ``a / b``).
    """
    if decimals < 0:
        raise ValueError(f"decimal places must be non-negative, got {decimals}")
    q, r, trace = divmod(_scale(a, decimals), b, method)
    return _point_text(str(q), decimals), r, trace
