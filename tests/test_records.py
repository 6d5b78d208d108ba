"""The frozen result records: signed columns, multiplication and division traces, division steps.

Each stores its fields through its own ``__init__``; these tests pin that the
records still behave as the frozen dataclasses they are declared as.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from plumcalc.cross_mul import MulTrace, plum_mul
from plumcalc.digit_string import SignedDigitString, parse
from plumcalc.plum_div import DivisionStep, DivisionTrace, divmod


def _record(cls):
    """A new record of ``cls``, none of whose cached properties has been read."""
    if cls is SignedDigitString:
        return SignedDigitString((4, 13, -6))
    if cls is MulTrace:
        return plum_mul(parse("34"), parse("7"))[1]
    trace = divmod(parse("56789"), parse("369"))[2]
    return trace if cls is DivisionTrace else trace.steps[2]


RECORDS = (SignedDigitString, MulTrace, DivisionTrace, DivisionStep)
# the cached properties of each record, each absent from __dict__ until read
LAZY = {SignedDigitString: (), MulTrace: ("columns",), DivisionTrace: ("steps",), DivisionStep: ("pp0_terms", "pp1_terms")}
REPRS = {
    SignedDigitString: "SignedDigitString(columns=(4, 13, -6))",
    MulTrace: (
        "MulTrace(method='plum', a=DigitString(digits=(3, 4)), b=DigitString(digits=(7,)), radix_power=1, "
        "signed=SignedDigitString(columns=(23, 8)), product=DigitString(digits=(2, 3, 8)))"
    ),
    DivisionTrace: (
        "DivisionTrace(method='plum', dividend=DigitString(digits=(5, 6, 7, 8, 9)), "
        "divisor=DigitString(digits=(3, 6, 9)), quotient=DigitString(digits=(1, 5, 3)), quotient_digits=(1, 5, 3), "
        "remainder=DigitString(digits=(3, 3, 2)))"
    ),
    DivisionStep: (
        "DivisionStep(index=3, digit=7, interim=17, pp0=4, after_pp0=13, quotient_digit=3, pp1=11, remainder=2)"
    ),
}


def _field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


@pytest.fixture(params=RECORDS, ids=lambda c: c.__name__)
def cls(request):
    return request.param


def test_init_takes_and_stores_exactly_the_fields(cls):
    assert list(inspect.signature(cls.__init__).parameters)[1:] == _field_names(cls)
    arguments = {name: object() for name in _field_names(cls)}
    assert cls(**arguments).__dict__ == arguments
    assert cls(*arguments.values()).__dict__ == arguments


def test_cached_properties_stay_out_of_the_dict_until_read(cls):
    record = _record(cls)
    for name in LAZY[cls]:
        assert name not in record.__dict__
        value = getattr(record, name)
        assert record.__dict__[name] is value and getattr(record, name) is value


def test_records_stay_frozen(cls):
    record = _record(cls)
    for name in [*_field_names(cls), *LAZY[cls], "unrelated"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 0)
    for name in [*_field_names(cls), *LAZY[cls]]:
        getattr(record, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)


def test_repr_replace_equality_and_hash_read_the_dataclass_fields(cls):
    record = _record(cls)
    assert repr(record) == REPRS[cls]
    for name in LAZY[cls]:
        getattr(record, name)
    copy = dataclasses.replace(record)
    assert copy == record and copy is not record and hash(copy) == hash(record)
    assert all(name not in copy.__dict__ for name in LAZY[cls])  # a copy builds its own cache
    compared = tuple(getattr(record, f.name) for f in dataclasses.fields(cls) if f.compare)
    assert hash(record) == hash(compared)
    for f in dataclasses.fields(cls):
        changed = dataclasses.replace(record, **{f.name: None})
        assert getattr(changed, f.name) is None
        assert (changed == record) is not f.compare, f.name
        assert all(getattr(changed, g.name) is getattr(record, g.name) for g in dataclasses.fields(cls) if g is not f)
