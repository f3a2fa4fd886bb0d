"""Every record the library returns or takes is immutable.

Assigning to any field raises AttributeError and leaves the value as it was.
"""

import pytest

from cvqss import (
    DealerConfig,
    FieldState,
    Metrics,
    Photocurrent,
    Shares,
    detect,
    evaluate,
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
FIELDS = [
    (cls, name) for cls in RECORDS for name in getattr(cls, "_fields", cls.__slots__)
]


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


@pytest.mark.parametrize("cls, name", [(DealerConfig, "r"), (ScenarioConfig, "eta")])
def test_replace_checks_like_the_constructor(cls, name):
    with pytest.raises(ValueError):
        _example(cls)._replace(**{name: -1.0})
