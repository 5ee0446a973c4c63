"""Every library refusal of input from outside: the exception type and the
exact message, one row each."""

import pytest

from genusfields import (Poly, RadicandGroup, build_field, enumerate_subgroup,
                         pow_mod, smith_normal_form)
from genusfields.errors import FieldArgumentError

from conftest import field

F5, F7, F9 = field(5, 1), field(7, 1), field(3, 2)
T_PLUS_1 = Poly.from_ints(F5, [1, 1])
Z6 = RadicandGroup.spanned_by(6, 2, [(1, 0)])

REFUSALS = {
    "snf_ragged_rows": (lambda: smith_normal_form([[1, 2], [3]], 6),
                        ValueError, "matrix rows must have equal length"),
    "group_modulus_0": (lambda: RadicandGroup.spanned_by(0, 2, []),
                        ValueError, "modulus and dimension must be positive"),
    "group_dim_0": (lambda: RadicandGroup.spanned_by(6, 0, []),
                    ValueError, "modulus and dimension must be positive"),
    "group_generator_length": (
        lambda: RadicandGroup.spanned_by(6, 2, [(1, 2, 3)]),
        ValueError, "generator has length 3, expected 2"),
    "contains_non_group": (lambda: Z6.contains(((1, 0),)),
                           TypeError, "expected a RadicandGroup"),
    # 257^2 = 66049 elements, past the 2^16 the enumeration allows
    "enumerate_too_large": (
        lambda: enumerate_subgroup(
            RadicandGroup.spanned_by(257, 2, [(1, 0), (0, 1)])),
        ValueError, "subgroup too large to enumerate"),
    "poly_foreign_coefficient": (
        lambda: Poly(F5, [F7.one]),
        ValueError, "coefficient does not belong to the given field"),
    "poly_plus_int": (lambda: T_PLUS_1 + 1,
                      TypeError, "cannot combine Poly with int"),
    # a constant base: without the check the loop would not end, but it
    # would not grow either
    "poly_negative_power": (
        lambda: Poly.from_ints(F5, [2]) ** -1,
        ValueError, "polynomial exponent must be a nonnegative integer"),
    "pow_mod_constant_modulus": (
        lambda: pow_mod(T_PLUS_1, 3, Poly.from_ints(F5, [2])),
        ValueError, "modulus must have degree >= 1"),
    "elem_coordinate_count": (lambda: F9.elem([1]),
                              ValueError, "expected 2 coordinates, got 1"),
    "from_index_range": (lambda: F9.from_index(9),
                         ValueError, "index 9 out of range for q = 9"),
    "dlog_foreign_element": (lambda: F5.dlog(F7.one),
                             ValueError, "element does not belong to this field"),
    "elem_plus_int": (lambda: F5.one + 1,
                      TypeError, "cannot combine FqElem with int"),
    "elem_float_power": (lambda: F5.one ** 1.5,
                         TypeError, "exponent must be an integer"),
    "generator_coordinate_count": (
        lambda: build_field(3, 2, generator=(1,)),
        FieldArgumentError, "generator must have f coordinates"),
    "modulus_coefficient_range": (
        lambda: build_field(3, 2, modulus=(5, 0, 1)),
        FieldArgumentError, "modulus coefficients must lie in [0, p)"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_type_and_message(name):
    call, exc_type, message = REFUSALS[name]
    with pytest.raises(exc_type) as err:
        call()
    assert type(err.value) is exc_type and str(err.value) == message
