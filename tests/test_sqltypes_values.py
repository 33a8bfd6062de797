"""Tests for value comparison and type-lattice operations."""

import decimal

import pytest

from repro import errors
from repro.sqltypes import (
    BigIntType,
    BooleanType,
    CharType,
    ClobType,
    DateType,
    DecimalType,
    DoubleType,
    IntegerType,
    ObjectType,
    SmallIntType,
    VarCharType,
    common_supertype,
    compare_values,
    is_null,
)
from repro.sqltypes.values import key_image, sort_key

D = decimal.Decimal


class TestCompareValues:
    def test_null_yields_unknown(self):
        assert compare_values(None, 1) is None
        assert compare_values(1, None) is None
        assert compare_values(None, None) is None

    def test_numeric_ordering(self):
        assert compare_values(1, 2) == -1
        assert compare_values(2, 1) == 1
        assert compare_values(2, 2) == 0

    def test_cross_numeric_comparison(self):
        assert compare_values(1, D("1.0")) == 0
        assert compare_values(1.5, D("1.5")) == 0
        assert compare_values(2, 1.5) == 1

    def test_char_padding_ignored(self):
        assert compare_values("CA   ", "CA") == 0
        assert compare_values("CA   ", "CB") == -1

    def test_leading_spaces_significant(self):
        assert compare_values(" CA", "CA") != 0

    def test_string_ordering(self):
        assert compare_values("apple", "banana") == -1

    def test_incomparable_domains(self):
        with pytest.raises(errors.InvalidCastError):
            compare_values(1, "one")

    def test_objects_with_equality(self):
        class Point:
            def __init__(self, x):
                self.x = x

            def __eq__(self, other):
                return isinstance(other, Point) and self.x == other.x

            def __hash__(self):
                return hash(self.x)

        assert compare_values(Point(1), Point(1)) == 0
        assert compare_values(Point(1), Point(2)) != 0

    def test_is_null(self):
        assert is_null(None)
        assert not is_null(0)
        assert not is_null("")


class TestSortKey:
    def test_nulls_sort_last(self):
        values = [3, None, 1, None, 2]
        ordered = sorted(values, key=sort_key)
        assert ordered == [1, 2, 3, None, None]

    def test_mixed_numeric_sort(self):
        values = [D("2.5"), 1, 2.0, D("0.5")]
        ordered = sorted(values, key=sort_key)
        assert ordered == [D("0.5"), 1, 2.0, D("2.5")]

    def test_char_padding_in_sort(self):
        assert sort_key("CA  ") == sort_key("CA")


class TestNaN:
    """NaN equals NaN and sorts above every number (PostgreSQL's rule)."""

    NAN = float("nan")

    def test_nan_equals_nan(self):
        assert compare_values(self.NAN, float("nan")) == 0

    def test_nan_above_every_number(self):
        assert compare_values(self.NAN, 1.0) == 1
        assert compare_values(1e308, self.NAN) == -1
        assert compare_values(D("-5"), self.NAN) == -1
        assert compare_values(self.NAN, float("inf")) == 1

    def test_nan_against_text_is_a_cast_error(self):
        with pytest.raises(errors.InvalidCastError):
            compare_values(self.NAN, "x")

    def test_nan_sorts_last_before_nulls(self):
        values = [self.NAN, None, 2.0, float("-inf"), 1]
        ordered = sorted(values, key=sort_key)
        assert ordered[:3] == [float("-inf"), 1, 2.0]
        assert ordered[3] != ordered[3] and ordered[4] is None
        assert sort_key(self.NAN) == sort_key(float("nan"))
        assert hash(sort_key(self.NAN)) == hash(sort_key(float("nan")))


class TestKeyImage:
    def test_pad_space_and_numbers(self):
        assert key_image("CA  ") == key_image("CA") == "CA"
        assert key_image(" CA") != key_image("CA")
        assert {key_image(1), key_image(1.0), key_image(D("1"))} == {1}
        assert key_image(None) is None

    def test_every_nan_is_one_key(self):
        keys = {key_image(float("nan")), key_image(float("nan"))}
        assert len(keys) == 1

    def test_agrees_with_compare_values_within_a_type(self):
        values = ["a", "a ", "b", "", " ", 0.0, -0.0, 2.5, float("nan"),
                  D("1.10"), D("1.1"), True, False]
        for left in values:
            for right in values:
                if type(left) is not type(right):
                    continue
                # compared as container keys are (identity first)
                same_key = (key_image(left),) == (key_image(right),)
                assert same_key == (compare_values(left, right) == 0), \
                    (left, right)


class TestCommonSupertype:
    def test_identical_types(self):
        assert common_supertype(IntegerType(), IntegerType()) == \
            IntegerType()

    def test_integer_widening(self):
        assert common_supertype(SmallIntType(), IntegerType()) == \
            IntegerType()
        assert common_supertype(IntegerType(), BigIntType()) == \
            BigIntType()

    def test_approximate_dominates(self):
        assert common_supertype(IntegerType(), DoubleType()) == \
            DoubleType()
        assert common_supertype(DecimalType(6, 2), DoubleType()) == \
            DoubleType()

    def test_decimal_merge(self):
        merged = common_supertype(DecimalType(6, 2), DecimalType(10, 4))
        assert isinstance(merged, DecimalType)
        assert merged.scale == 4
        assert merged.precision >= 10

    def test_decimal_with_integer(self):
        merged = common_supertype(DecimalType(6, 2), IntegerType())
        assert isinstance(merged, DecimalType)
        assert merged.scale == 2

    def test_string_merge(self):
        merged = common_supertype(VarCharType(10), VarCharType(20))
        assert merged == VarCharType(20)

    def test_char_same_length(self):
        assert common_supertype(CharType(5), CharType(5)) == CharType(5)

    def test_char_varchar_merge(self):
        merged = common_supertype(CharType(5), VarCharType(3))
        assert isinstance(merged, VarCharType)
        assert merged.length == 5

    def test_clob_dominates_strings(self):
        assert common_supertype(ClobType(), VarCharType(5)) == ClobType()

    def test_unbounded_varchar(self):
        assert common_supertype(VarCharType(None), CharType(3)) == \
            VarCharType(None)

    def test_boolean(self):
        assert common_supertype(BooleanType(), BooleanType()) == \
            BooleanType()

    def test_object_types_via_subclassing(self):
        class Base:
            pass

        class Sub(Base):
            pass

        base = ObjectType("base", Base)
        sub = ObjectType("sub", Sub)
        assert common_supertype(base, sub) == base
        assert common_supertype(sub, base) == base

    def test_incompatible_raises(self):
        with pytest.raises(errors.InvalidCastError):
            common_supertype(IntegerType(), DateType())

    def test_string_number_incompatible(self):
        with pytest.raises(errors.InvalidCastError):
            common_supertype(VarCharType(5), IntegerType())
