"""The immutable value classes that the lattice and fiber commands load.

`BinaryEvenForm`, `KodairaFiber`, `FiberProfile` and `Assumption` behave
as frozen dataclasses do: field-wise equality with instances of the same
class only (never with a plain tuple), the hash of the field tuple,
`Name(field=value, ...)` reprs, and no assignment after construction.
`BinaryEvenForm` also orders by its field tuple.  The repr is part of
user-visible error text.
"""

import copy
import pickle

import pytest

from invcycle.jsonio import Assumption
from invcycle.kodaira import FiberProfile, KodairaFiber, fiber, fiber_profile
from invcycle.lattice import BinaryEvenForm, NotPositiveDefiniteError, reduce_binary

PROFILE_I5 = (5, 5, "A", 4, 5, None, frozenset({1, 5}))
FIRST_FIELD = {BinaryEvenForm: "a", KodairaFiber: "kind", FiberProfile: "euler", Assumption: "name"}


def instances():
    """(equal, equal again, different, field tuple of the first) per class."""
    return [
        (BinaryEvenForm(1, 0, 1), BinaryEvenForm(a=1, b=0, c=1), BinaryEvenForm(1, 1, 1), (1, 0, 1)),
        (KodairaFiber("I", 5), fiber("I5"), fiber("I6"), ("I", 5)),
        (fiber_profile(fiber("I5")), FiberProfile(*PROFILE_I5), fiber_profile(fiber("I6")), PROFILE_I5),
        (
            Assumption("torsion_order", {"stage": "X", "order": 2}, "p", "X", 2),
            Assumption("torsion_order", {"stage": "X", "order": 2}, "p", stage="X", value=2),
            Assumption("torsion_order", {"stage": "X", "order": 3}, "p", "X", 3),
            ("torsion_order", {"stage": "X", "order": 2}, "p", "X", 2),
        ),
    ]


@pytest.mark.parametrize("same, again, other, fields", instances())
def test_equality_is_fieldwise_within_the_class(same, again, other, fields):
    assert same == again and not (same != again)
    assert same != other and not (same == other)
    assert same != fields and not (same == fields)
    assert fields != same
    assert same != object()


@pytest.mark.parametrize("same, again, other, fields", instances()[:3])
def test_equal_instances_hash_equal(same, again, other, fields):
    assert hash(same) == hash(again) == hash(fields)
    assert len({same, again, other}) == 2


def test_assumption_with_a_dict_payload_is_unhashable():
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(Assumption("picard_maximal", {}, "p"))


@pytest.mark.parametrize("same, again, other, fields", instances())
def test_assignment_and_deletion_raise(same, again, other, fields):
    name = FIRST_FIELD[type(same)]
    with pytest.raises(AttributeError):
        setattr(same, name, 0)
    with pytest.raises(AttributeError):
        delattr(same, name)
    with pytest.raises(AttributeError):
        same.not_a_field = 0
    assert same == again


@pytest.mark.parametrize("same, again, other, fields", instances())
def test_copy_and_pickle_round_trip(same, again, other, fields):
    assert copy.copy(same) == same
    assert copy.deepcopy(same) == same
    assert pickle.loads(pickle.dumps(same)) == same


def test_binary_forms_sort_by_field_tuple():
    forms = [BinaryEvenForm(2, 1, 3), BinaryEvenForm(1, 0, 5), BinaryEvenForm(2, -1, 3), BinaryEvenForm(1, 1, 2)]
    assert sorted(forms) == [
        BinaryEvenForm(1, 0, 5), BinaryEvenForm(1, 1, 2), BinaryEvenForm(2, -1, 3), BinaryEvenForm(2, 1, 3),
    ]
    small, large = BinaryEvenForm(1, 0, 1), BinaryEvenForm(1, 0, 2)
    assert small < large and small <= large and large > small and large >= small
    assert small <= BinaryEvenForm(1, 0, 1) >= small
    assert max(forms) == BinaryEvenForm(2, 1, 3)


def test_binary_forms_do_not_order_against_tuples():
    with pytest.raises(TypeError):
        BinaryEvenForm(1, 0, 1) < (1, 0, 2)


def test_fibers_and_profiles_do_not_order():
    with pytest.raises(TypeError):
        fiber("I5") < fiber("I6")
    with pytest.raises(TypeError):
        fiber_profile(fiber("I5")) < fiber_profile(fiber("I6"))


def test_reprs():
    assert repr(BinaryEvenForm(1, -2, 3)) == "BinaryEvenForm(a=1, b=-2, c=3)"
    assert str(BinaryEvenForm(1, -2, 3)) == "BinaryEvenForm(a=1, b=-2, c=3)"
    assert repr(fiber("I0*")) == "fiber('I0*')"
    assert str(fiber("I0*")) == "I0*"
    assert repr(fiber_profile(fiber("I5"))) == (
        "FiberProfile(euler=5, components=5, root_type='A', root_rank=4, root_disc=5, "
        "odd_multiplicity_components=None, contribution_denominators=frozenset({1, 5}))"
    )
    assert repr(Assumption("picard_maximal", {}, "p")) == (
        "Assumption(name='picard_maximal', payload={}, provenance='p', stage=None, value=None)"
    )


def test_repr_in_error_text():
    with pytest.raises(NotPositiveDefiniteError) as info:
        reduce_binary(BinaryEvenForm(-1, 0, -1))
    assert str(info.value) == "form BinaryEvenForm(a=-1, b=0, c=-1) is not positive definite"


def test_defaults():
    assert KodairaFiber("II").n is None
    bare = Assumption("picard_maximal", {}, "p")
    assert (bare.stage, bare.value) == (None, None)


@pytest.mark.parametrize("args, message", [
    ((1.0, 0, 1), "matrix entries must be integers, got float"),
    ((1, True, 1), "matrix entries must be integers, got bool"),
    ((1, 0, "1"), "matrix entries must be integers, got str"),
])
def test_binary_form_validation(args, message):
    with pytest.raises(ValueError, match=message):
        BinaryEvenForm(*args)


@pytest.mark.parametrize("args, message", [
    (("I",), "I fiber needs an integer n >= 0"),
    (("I*", -1), r"I\* fiber needs an integer n >= 0"),
    (("I", "3"), "I fiber needs an integer n >= 0"),
    (("II", 3), "II fiber takes no parameter"),
    (("X",), "unknown fiber kind 'X'"),
])
def test_fiber_validation(args, message):
    with pytest.raises(ValueError, match=message):
        KodairaFiber(*args)


def test_missing_and_unknown_arguments():
    with pytest.raises(TypeError):
        BinaryEvenForm(1, 0)
    with pytest.raises(TypeError):
        BinaryEvenForm(1, 0, 1, d=2)
    with pytest.raises(TypeError):
        Assumption("picard_maximal", {})
