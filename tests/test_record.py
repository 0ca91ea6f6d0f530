"""errors.Record, the frozen base of the package's value types: construction,
defaults, repr, per-class equality, the tuple hash and immutability, on each
of the 20 value types."""

import pytest

from mahlerdyn.algnum import AlgebraicNumber, NumberClass, an_from_rational
from mahlerdyn.classify import AllPreperiodic, HasWanderer, HasWandererByTheorem, Unsupported
from mahlerdyn.errors import Record
from mahlerdyn.factor import Factorization
from mahlerdyn.intpoly import from_text
from mahlerdyn.mahler import (
    CitedGrowth,
    Inconclusive,
    OrbitResult,
    PowerIdentity,
    Preperiodic,
    TorsionFreePower,
    Wandering,
)
from mahlerdyn.nfield import ConjugatePattern, FieldElement, NumberField, UnitSublattice, nf_new
from mahlerdyn.roots import CirclePartition, IsolatingBox

# every value type with its fields in order; the record compares and prints
# all of them except UnitSublattice.logs
FIELDS = {
    IsolatingBox: ("center", "radius"),
    CirclePartition: ("outside", "on", "inside"),
    AlgebraicNumber: ("minpoly", "box"),
    NumberClass: ("tag", "extra"),
    Factorization: ("content", "factors"),
    PowerIdentity: ("k", "l", "n"),
    TorsionFreePower: ("k", "n"),
    CitedGrowth: ("tag", "facts"),
    Preperiodic: ("fixed_point", "number_class"),
    Wandering: ("certificate",),
    Inconclusive: ("reason",),
    OrbitResult: ("trace", "verdict"),
    FieldElement: ("coords",),
    NumberField: ("defining", "degree", "signature", "embeddings"),
    UnitSublattice: ("generators", "logs"),
    ConjugatePattern: ("order", "one_position", "extras"),
    AllPreperiodic: ("reason",),
    HasWanderer: ("witness", "certificate"),
    HasWandererByTheorem: ("quotient",),
    Unsupported: ("reason",),
}


def _compared(cls) -> tuple:
    return tuple(n for n in FIELDS[cls] if (cls, n) != (UnitSublattice, "logs"))


def _sample(cls) -> Record:
    # Record checks no types, so distinct strings stand for the fields
    return cls(*(f"{cls.__name__}.{n}" for n in FIELDS[cls]))


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
class TestEachValueType:
    def test_is_a_record_with_these_fields(self, cls):
        assert issubclass(cls, Record)
        assert cls._fields == FIELDS[cls]

    def test_hash_is_the_hash_of_the_compared_fields(self, cls):
        x = _sample(cls)
        assert hash(x) == hash(tuple(getattr(x, n) for n in _compared(cls)))

    def test_keywords_build_the_same_value(self, cls):
        x = _sample(cls)
        assert cls(**{n: getattr(x, n) for n in FIELDS[cls]}) == x

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        x = _sample(cls)
        for name in FIELDS[cls] + ("other",):
            with pytest.raises(AttributeError):
                setattr(x, name, 0)
        for name in FIELDS[cls]:
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert x == _sample(cls)

    def test_a_missing_or_unknown_field_is_a_type_error(self, cls):
        values = [getattr(_sample(cls), n) for n in FIELDS[cls]]
        with pytest.raises(TypeError):
            cls(*values, "one too many")
        with pytest.raises(TypeError):
            cls(*values, unknown=0)
        with pytest.raises(TypeError):
            cls(*values, **{FIELDS[cls][0]: values[0]})
        if cls not in (NumberClass, CitedGrowth, ConjugatePattern):
            with pytest.raises(TypeError):
                cls(*values[:-1])


# AlgebraicNumber prints its own form, checked below
@pytest.mark.parametrize("cls", [cls for cls in FIELDS if cls is not AlgebraicNumber], ids=lambda cls: cls.__name__)
def test_repr_names_the_compared_fields(cls):
    fields = ", ".join(f"{n}={cls.__name__ + '.' + n!r}" for n in _compared(cls))
    assert repr(_sample(cls)) == f"{cls.__name__}({fields})"


def test_equality_is_per_class():
    assert Unsupported("r") == Unsupported("r")
    assert Unsupported("r") != Unsupported("s")
    assert Unsupported("r") != Inconclusive("r")
    assert AllPreperiodic("r") != Unsupported("r")
    assert PowerIdentity(2, 1, 2) != (2, 1, 2)
    assert len({Unsupported("r"), Inconclusive("r"), AllPreperiodic("r"), Unsupported("r")}) == 3


def test_unit_sublattice_ignores_its_log_cache():
    a, b = UnitSublattice(("u",), ("logs a",)), UnitSublattice(("u",), ("logs b",))
    assert a == b and hash(a) == hash(b)
    assert a.logs == ("logs a",)
    assert repr(a) == "UnitSublattice(generators=('u',))"


def test_defaults():
    assert NumberClass("Pisot").extra is None
    assert CitedGrowth(tag="t").facts == ()
    assert ConjugatePattern(((0,), (1,)), 1).extras == ()
    assert CitedGrowth("t", ("f",)).facts == ("f",)
    with pytest.raises(TypeError):
        CitedGrowth(facts=())


def test_built_values_print_and_compare():
    K = nf_new(from_text("-2,0,1"))
    assert K == nf_new(from_text("-2,0,1")) and hash(K) == hash(nf_new(from_text("-2,0,1")))
    assert repr(K).startswith("NumberField(defining=IntPoly('-2,0,1'), degree=2, signature=(2, 0), embeddings=(")
    assert repr(an_from_rational(3)) == "AlgebraicNumber('-3,1' ~ 3+0j)"
    assert repr(TorsionFreePower(2, 3)) == "TorsionFreePower(k=2, n=3)"
