"""Long division by partial plum products and partial wedge products.

At step ``n`` the running remainder takes the next dividend digit and gives up
the partial product ``PP_n``, split into a part that only involves earlier
quotient digits (``pp0``) and a part involving the digit chosen now (``pp1``):

* ``pp0`` (plum form): ``sum(b[i] ♣ c[n+1-i] for i in 2..t)`` plus
  ``sum(J(b[i] ♣ c[n+2-i]) for i in 3..t)``, quotient digits outside their
  range counting as 0.
* ``pp0`` (wedge form): ``sum((b[i], b[i+1]) ⋈ c[n+1-i] for i in 2..t)`` with
  ``b[t+1] = 0`` — same value, terms folded pairwise.
* ``pp1``: ``b[1]*c[n] + J(b[2] ♣ c[n])``.

Both ``pp0`` forms have the same value, and every step's value is read off one
call of the column kernel: with ``W = cross_mul._wedge_columns(b[2..t], c)``
over the whole quotient ``c`` and ``J_n = J(b[2] ♣ c[n])``, step ``n`` has
``pp0 = W[n-1] - J_n`` and ``pp1 = b[1]*c[n] + J_n`` while ``n <= len(c)``,
and ``pp0 = W[n-1]`` after that (0-indexed ``W``; a one-digit divisor gives
all zeros and ``J_n = 0``).  ``J_n`` is the ``pp1`` carry that the kernel's
zero pad folds into column ``n-1``, so it cancels in ``PP_n = pp0 + pp1``.

The partial remainders obey ``r[n] = 10*r[n-1] + a[n] - PP_n`` and may go
negative between steps; only the final remainder is range-checked.  Quotient
digits are the true long-division digits of a running remainder, so the trace
reproduces each worked vertical layout and ``0 <= r < b`` is guaranteed.
Those digits are the decimal digits of ``a // b``, zero-padded to ``s - t + 1``
places, so ``divmod`` reads them off one ``int`` division instead of choosing
them one at a time.

``divmod`` builds no step and no term.  The chain's last remainder is
``int(a) - sum(PP_n * 10**(s-n))``, so it checks the chain with one evaluation
of the ``PP_n`` (:meth:`DivisionTrace.pp_reconstruction`) and keeps the
kernel's :class:`SignedDigitString` ``W`` in the trace, which builds its
``steps`` from ``W``'s columns, and each step its terms, when first read.  The
terms are ``(kind, i, j, value)`` of divisor digits ``b[i]`` against quotient
digits ``c[j]`` (0-indexed here) along one diagonal ``i + j``, from
``cross_mul._diagonal_terms``, on the rows the multiplication terms use too:

* plum ``pp0``: residues on ``i + j == n-1`` with ``i >= 1``, and carries on
  ``i + j == n`` with ``i >= 2``;
* wedge ``pp0``: wedges of the windows of ``b`` followed by 0 on
  ``i + j == n-1`` with ``i >= 1``;
* ``pp1``: the product on diagonal 0 and the carry on diagonal 1 of ``b``
  against the single digit chosen at step ``n``.
"""

from __future__ import annotations

import builtins
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .cross_mul import Term, _diagonal_terms, _wedge_columns
from .digit_core import carry
from .digit_string import (
    DigitString,
    SignedDigitString,
    _decimal_digits,
    _decimal_text,
    _has_stray_digit,
    _valid_by_construction,
)

__all__ = ["DivisionStep", "DivisionTrace", "pp0_plum", "pp0_wedge", "pp1", "divmod", "div_decimal", "DIV_METHODS"]

@dataclass(frozen=True, init=False)
class DivisionStep:
    """One step of the division loop.

    ``interim`` is ``10*r_prev + digit`` (the bring-down value), ``after_pp0``
    is ``interim - pp0``, and ``remainder`` is the step's final ``r_n``.  For
    steps past the quotient length there is no digit choice: ``quotient_digit``
    and ``pp1`` are None and ``remainder == after_pp0``.  ``division`` is the
    (method, divisor, quotient digits) all steps of one division share;
    :attr:`pp0_terms` and :attr:`pp1_terms` are built from it when first read.
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

    def __init__(
        self,
        index: int,
        digit: int,
        interim: int,
        pp0: int,
        after_pp0: int,
        quotient_digit: int | None,
        pp1: int | None,
        remainder: int,
        division: tuple[str, DigitString, tuple[int, ...]],
    ) -> None:
        fields = self.__dict__  # stored directly, as in ``SignedDigitString.__init__``
        fields["index"] = index
        fields["digit"] = digit
        fields["interim"] = interim
        fields["pp0"] = pp0
        fields["after_pp0"] = after_pp0
        fields["quotient_digit"] = quotient_digit
        fields["pp1"] = pp1
        fields["remainder"] = remainder
        fields["division"] = division

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


@dataclass(frozen=True, init=False)
class DivisionTrace:
    """Complete record of one division, including a possibly zero-padded quotient."""

    method: str
    dividend: DigitString
    divisor: DigitString
    quotient: DigitString
    quotient_digits: tuple[int, ...]
    remainder: DigitString
    _columns: SignedDigitString = field(repr=False, compare=False)  # the kernel's W; no columns for a zero quotient

    def __init__(
        self,
        method: str,
        dividend: DigitString,
        divisor: DigitString,
        quotient: DigitString,
        quotient_digits: tuple[int, ...],
        remainder: DigitString,
        _columns: SignedDigitString,
    ) -> None:
        fields = self.__dict__  # stored directly, as in ``SignedDigitString.__init__``
        fields["method"] = method
        fields["dividend"] = dividend
        fields["divisor"] = divisor
        fields["quotient"] = quotient
        fields["quotient_digits"] = quotient_digits
        fields["remainder"] = remainder
        fields["_columns"] = _columns

    @cached_property
    def steps(self) -> tuple[DivisionStep, ...]:
        """One step per dividend digit, built from ``W`` when first read; none for a zero quotient.

        Step ``n`` subtracts ``PP_n = pp0 + pp1`` from ``interim = 10*r[n-1] + a[n]``.
        """
        b, c = self.divisor, self.quotient_digits
        lead, second = (b.digits + (0,))[:2]  # a one-digit divisor has no second digit
        division = (self.method, b, c)
        steps, r = [], 0
        for n, (digit, column) in enumerate(zip(self.dividend.digits, self._columns.columns), 1):
            interim = 10 * r + digit
            if n <= len(c):
                c_n = c[n - 1]
                carry_n = carry(second, c_n)
                p0, p1 = column - carry_n, lead * c_n + carry_n
                r = interim - p0 - p1
                steps.append(DivisionStep(n, digit, interim, p0, interim - p0, c_n, p1, r, division))
            else:
                r = interim - column
                steps.append(DivisionStep(n, digit, interim, column, r, None, None, r, division))
        return tuple(steps)

    def pp_reconstruction(self) -> int:
        """``sum(PP_n * 10**(s-n))`` over the steps ``1..s``; equals divisor * quotient.

        By linearity this is ``W.value() + b[1] * q * 10**(t-1)``: the ``b[1]*c[n]``
        parts of the ``PP_n`` sum to ``b[1]`` times the quotient, whose last digit
        ``c[s-t+1]`` has weight ``10**(t-1)``.  A long ``W`` is read from the
        kernel's slot bytes.
        """
        return _reconstruction(self._columns, self.divisor, int(self.quotient))


def _reconstruction(columns: SignedDigitString, b: DigitString, q: int) -> int:
    """``sum(PP_n * 10**(s-n))`` of a division by ``b`` with quotient ``q``, whose kernel gave ``columns``."""
    return columns.value() + b.digits[0] * q * 10 ** (len(b) - 1)


def _check_step(c_so_far: Sequence[int], n: int) -> None:
    """Reject a step index below 1, and quotient digits outside 0..9, which would misread the digit tables."""
    if n < 1:
        raise ValueError(f"step index must be positive, got {n}")
    if _has_stray_digit(c_so_far):
        raise ValueError(f"quotient digits must lie in 0..9, got {c_so_far!r}")


def pp0_plum(b: DigitString, c_so_far: Sequence[int], n: int) -> tuple[int, tuple[Term, ...]]:
    """Plum form of the step-``n`` partial product over the quotient digits before ``c[n]``."""
    _check_step(c_so_far, n)
    terms = _diagonal_terms("residue", b.digits, c_so_far[::-1], n - 1, first=1)
    terms += _diagonal_terms("carry", b.digits, c_so_far[::-1], n, first=2)
    return sum(term.value for term in terms), tuple(terms)


def pp0_wedge(b: DigitString, c_so_far: Sequence[int], n: int) -> tuple[int, tuple[Term, ...]]:
    """Wedge form of the same partial product: equal value, pairwise terms."""
    _check_step(c_so_far, n)
    terms = _diagonal_terms("wedge", b.digits + (0,), c_so_far[::-1], n - 1, first=1)
    return sum(term.value for term in terms), tuple(terms)


def pp1(b: DigitString, c_n: int) -> tuple[int, tuple[Term, ...]]:
    """Partial product involving the newly chosen digit: ``b[1]*c_n + J(b[2] ♣ c_n)``."""
    if not 0 <= c_n <= 9:
        raise ValueError(f"quotient digit must lie in 0..9, got {c_n}")
    terms = _diagonal_terms("product", b.digits, (c_n,), 0) + _diagonal_terms("carry", b.digits, (c_n,), 1)
    return sum(term.value for term in terms), tuple(terms)


_PP0 = {"plum": pp0_plum, "wedge": pp0_wedge}
DIV_METHODS = tuple(_PP0)


def divmod(a: DigitString, b: DigitString, method: str = "plum") -> tuple[DigitString, DigitString, DivisionTrace]:
    """Divide ``a`` by ``b``, returning quotient, remainder, and the full trace.

    Quotient digits are those of schoolbook long division: a running remainder
    starts as the first ``t - 1`` dividend digits and brings down one more per
    quotient digit, so the quotient has exactly ``s - t + 1`` digits (a leading
    zero is allowed).  They are read off one ``int`` division, since
    ``a < 10**s`` and ``b >= 10**(t-1)`` give ``a // b < 10**(s-t+1)``.  The
    partial-remainder chain, read off one column-kernel call, must end at the
    same remainder: ``int(a) - pp_reconstruction()`` is its last link.  No step
    is built until read.
    """
    if method not in _PP0:
        raise ValueError(f"unknown division method {method!r}; expected one of {DIV_METHODS}")
    if b.is_zero:
        raise ZeroDivisionError("division by zero")
    s, t = len(a), len(b)
    dividend = int(a)
    q, r = builtins.divmod(dividend, int(b))
    if not q:
        quotient = _valid_by_construction((0,))
        return quotient, a, DivisionTrace(method, a, b, quotient, (), a, SignedDigitString(()))
    c = tuple(_decimal_digits(q, s - t + 1))
    columns = _wedge_columns(b.digits[1:], c)  # a one-digit divisor's: s zero columns
    # a >= 10**(s-1) and b < 10**t, so q has at least s - t digits: c has at most one leading zero
    quotient = _valid_by_construction(c[1:] if c[0] == 0 else c)
    trace = DivisionTrace(method, a, b, quotient, c, DigitString.from_int(r), columns)
    chain = dividend - _reconstruction(columns, b, q)  # trace.pp_reconstruction(), from divmod's own q
    if chain != r:
        raise RuntimeError(
            f"{method} division of {a} by {b}: partial remainder chain diverged: "
            f"{_decimal_text(chain)} vs {_decimal_text(r)}"
        )
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
