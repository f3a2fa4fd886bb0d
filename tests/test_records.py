"""Every record the library returns or takes is immutable.

Assigning to any field raises AttributeError and leaves the value as it was,
and _replace refuses what the constructor refuses.
"""

import math

import pytest

from cvqss import (
    DealerConfig,
    FieldState,
    Metrics,
    NoiseBasis,
    Photocurrent,
    Quad,
    Shares,
    detect,
    evaluate,
    field_from_mode,
)
from cvqss.cli import ScenarioConfig

from conftest import dealt


def _example(cls):
    psi, shares = dealt(0.5, 1.0)
    return {
        FieldState: lambda: psi,
        Photocurrent: lambda: detect(shares.share3, 0.9, shares.detector),
        DealerConfig: lambda: DealerConfig(0.5, 1.0),
        Shares: lambda: shares,
        Metrics: lambda: evaluate(psi, shares.share1),
        ScenarioConfig: lambda: ScenarioConfig("feedforward", r=0.5),
    }[cls]()


RECORDS = (FieldState, Photocurrent, DealerConfig, Shares, Metrics, ScenarioConfig)
FIELDS = [(cls, name) for cls in RECORDS for name in cls._fields]


@pytest.mark.parametrize(
    "cls, name", FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in FIELDS]
)
def test_fields_cannot_be_reassigned(cls, name):
    record = _example(cls)
    assert type(record) is cls
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, -1.0)
    assert getattr(record, name) is before


@pytest.mark.parametrize("cls", RECORDS, ids=[cls.__name__ for cls in RECORDS])
def test_no_attribute_can_be_added(cls):
    with pytest.raises(AttributeError):
        _example(cls).extra = 0.0


@pytest.mark.parametrize("cls, name, value, error", [
    (DealerConfig, "r", -1.0, ValueError),
    (ScenarioConfig, "eta", -1.0, ValueError),
    (FieldState, "coeffs_plus", {(10**6, Quad.PLUS): 1.0}, KeyError),
    (FieldState, "mean_minus", math.nan, ValueError),
], ids=["DealerConfig-r", "ScenarioConfig-eta", "FieldState-coeffs_plus", "FieldState-mean_minus"])
def test_replace_checks_like_the_constructor(cls, name, value, error):
    with pytest.raises(error):
        _example(cls)._replace(**{name: value})


def test_fields_with_the_same_basis_means_and_dicts_compare_equal():
    basis = NoiseBasis()
    mid = basis.vacuum()
    built = FieldState(basis, 1.0, 2.0, {(mid, Quad.PLUS): 1.0}, {(mid, Quad.MINUS): 1.0})
    assert built == field_from_mode(basis, mid, 1.0, 2.0)
    assert built != field_from_mode(basis, mid, 1.0, 2.5)
