"""Carry-reduced decimal arithmetic with plum-blossom and wedge products.

The core single-digit operations live in :mod:`plumcalc.digit_core`, the
multiplication methods in :mod:`plumcalc.cross_mul`, division in
:mod:`plumcalc.plum_div`, and the independent schoolbook reference in
:mod:`plumcalc.oracle`.  :mod:`plumcalc.trace` renders step traces and
:mod:`plumcalc.cli` exposes everything on the command line.
"""

from .cross_mul import (
    MulTrace,
    cross_sum,
    plum_mul,
    rapid_mul,
    wedge_mul,
    wedge_mul_single,
)
from .digit_core import (
    LawReport,
    WedgeTable,
    carry,
    carry_closed_form,
    carry_split,
    clubsuit,
    delta,
    verify_laws,
    wedge,
    wedge_table,
)
from .digit_string import (
    DigitString,
    SegmentString,
    SignedDigitString,
    normalize,
    parse,
    segment,
)
from .plum_div import DivisionTrace, div_decimal
from .trace import RenderedTrace, render_div, render_mul

__version__ = "0.1.0"

__all__ = [
    "carry",
    "carry_closed_form",
    "carry_split",
    "clubsuit",
    "delta",
    "wedge",
    "wedge_table",
    "verify_laws",
    "LawReport",
    "WedgeTable",
    "DigitString",
    "SignedDigitString",
    "SegmentString",
    "parse",
    "segment",
    "normalize",
    "cross_sum",
    "rapid_mul",
    "plum_mul",
    "wedge_mul",
    "wedge_mul_single",
    "MulTrace",
    "div_decimal",
    "DivisionTrace",
    "render_mul",
    "render_div",
    "RenderedTrace",
]
