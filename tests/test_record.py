"""Contract of cavityvdw.record.Record, the base of the package's value
classes: what dataclasses.dataclass(frozen=True) gave them."""

import dataclasses
import inspect
import pydoc
from functools import cached_property

import numpy as np
import pytest

from cavityvdw.greens import ComplexDyad, PlanarCavity, SpectralFunction
from cavityvdw.record import Record


class Point(Record):
    """A record with a default and a normalising __post_init__."""

    x: float
    y: float
    label: str = "p"

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))

    @cached_property
    def norm(self) -> float:
        return (self.x**2 + self.y**2) ** 0.5


@dataclasses.dataclass(frozen=True)
class DataPoint:
    x: float
    y: float
    label: str = "p"


def test_fields_by_position_or_name_with_defaults():
    assert Point._fields == ("x", "y", "label")
    for p in (Point(1, 2.0), Point(1, y=2.0), Point(y=2.0, x=1), Point(1, 2.0, "p"),
              Point(label="p", y=2.0, x=1)):
        assert (p.x, p.y, p.label) == (1.0, 2.0, "p")
        assert type(p.x) is float
        assert list(vars(p)) == ["x", "y", "label"]
    assert Point(1, 2.0, label="q").label == "q"


@pytest.mark.parametrize("args,kwargs,message", [
    ((), {}, r"missing required arguments: 'x', 'y'"),
    ((1,), {}, r"missing required arguments: 'y'"),
    ((1, 2, "p", 4), {}, r"takes 3 arguments but 4 were given"),
    ((1, 2), {"z": 3}, r"unexpected keyword argument 'z'"),
    ((1, 2), {"x": 3}, r"multiple values for argument 'x'"),
])
def test_bad_arguments_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Point(*args, **kwargs)


def test_field_without_default_after_one_with_is_rejected():
    with pytest.raises(TypeError, match="'b' without a default"):
        class Bad(Record):
            a: int = 0
            b: int


def test_frozen():
    p = Point(1, 2)
    for name in ("x", "label", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, 0)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert (p.x, p.y, p.label) == (1.0, 2, "p")
    # a cached property stores its value past the frozen __setattr__
    assert p.norm == 5.0**0.5 and vars(p)["norm"] == p.norm


def test_eq_hash_and_repr_as_a_frozen_dataclass():
    p, d = Point(1.0, 2.0), DataPoint(1.0, 2.0)
    assert repr(p) == repr(d).replace("DataPoint", "Point") == "Point(x=1.0, y=2.0, label='p')"
    assert hash(p) == hash(d) == hash((1.0, 2.0, "p"))
    assert p == Point(1, 2.0) and p != Point(1, 3) and p != Point(1, 2, "q")
    # equal fields of another type do not make an equal record
    assert p != d and p != (1.0, 2.0, "p")
    assert len({p, Point(1, 2.0), Point(1, 3)}) == 2
    with pytest.raises(TypeError):
        hash(ComplexDyad(np.eye(3)))


def test_signature_lists_the_fields():
    assert inspect.signature(Point).parameters == inspect.signature(DataPoint).parameters
    assert str(inspect.signature(PlanarCavity)) == "(d: 'float', delta: 'float', nu: 'int' = 1)"
    assert "PlanarCavity(d: 'float', delta: 'float', nu: 'int' = 1)" in pydoc.render_doc(
        PlanarCavity, renderer=pydoc.plaintext)
    # a callable record's instances have the signature of __call__
    sf = SpectralFunction(func=lambda w: 0.0 * w, support=(1.0, 2.0))
    assert str(inspect.signature(sf)) == "(omega: 'float') -> 'float'"


def test_post_init_is_looked_up_on_the_class_at_each_call(monkeypatch):
    calls = []
    original = Point.__post_init__

    def counted(self):
        calls.append(self.y)
        original(self)

    monkeypatch.setattr(Point, "__post_init__", counted)
    assert Point(1, 2).x == 1.0 and Point(3, y=4).x == 3.0
    assert calls == [2, 4]
