"""Value-level operations with SQL semantics.

SQL three-valued logic treats NULL specially: any comparison involving
NULL is unknown, NULLs sort together, and arithmetic with NULL yields
NULL.  The executor and the expression evaluator route every comparison
through :func:`compare_values` so those rules live in one place.
"""

from __future__ import annotations

import decimal
from typing import Any, Optional

from repro import errors
from repro.sqltypes import typecodes
from repro.sqltypes.core import (
    BigIntType,
    BooleanType,
    CharType,
    ClobType,
    DecimalType,
    DoubleType,
    IntegerType,
    ObjectType,
    SmallIntType,
    TypeDescriptor,
    VarCharType,
)

__all__ = [
    "NULL",
    "is_null",
    "coerce",
    "cast_value",
    "compare_values",
    "key_image",
    "common_supertype",
]

#: SQL NULL is represented as Python ``None`` throughout the system.
NULL = None


def is_null(value: Any) -> bool:
    """True if ``value`` is SQL NULL."""
    return value is None


def coerce(value: Any, descriptor: TypeDescriptor) -> Any:
    """Coerce ``value`` into ``descriptor``'s domain (NULL passes through)."""
    return descriptor.coerce(value)


def cast_value(value: Any, descriptor: TypeDescriptor) -> Any:
    """Explicit CAST conversion: storage coercion plus the cross-family
    conversions SQL CAST permits (numeric/boolean/datetime → character).
    """
    import datetime

    from repro.sqltypes import typecodes

    if value is None:
        return None
    if typecodes.is_character(descriptor.type_code) and not isinstance(
        value, str
    ):
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(
            value,
            (int, float, decimal.Decimal, datetime.date, datetime.time,
             datetime.datetime),
        ):
            text = str(value)
        else:
            raise errors.InvalidCastError(
                f"cannot cast {type(value).__name__} to "
                f"{descriptor.sql_spelling()}"
            )
        return descriptor.coerce(text)
    return descriptor.coerce(value)


class _NaNKey:
    """Comparison image of every NaN: equal to itself and greater than
    every number (PostgreSQL's rule), so NaN sorts, groups and collides
    like an ordinary value instead of raising ``InvalidOperation``."""

    __slots__ = ()

    def __lt__(self, other: Any) -> bool:
        if isinstance(other, (_NaNKey, decimal.Decimal, int)):
            return False
        return NotImplemented

    def __gt__(self, other: Any) -> bool:
        if isinstance(other, (decimal.Decimal, int)):
            return True
        if isinstance(other, _NaNKey):
            return False
        return NotImplemented

    def __hash__(self) -> int:
        return hash(_NaNKey)


#: The one key of every NaN: comparison, sorting and hashing alike.
_NAN_KEY = _NaNKey()


def _comparison_key(value: Any) -> Any:
    """Normalise a non-null value for cross-type comparison."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return _NAN_KEY if value != value else decimal.Decimal(str(value))
    if isinstance(value, int):
        return decimal.Decimal(value)
    if isinstance(value, decimal.Decimal):
        return _NAN_KEY if value.is_nan() else value
    if isinstance(value, str):
        # SQL CHAR comparison ignores trailing blanks (PAD SPACE).
        return value.rstrip(" ")
    return value


def key_image(value: Any) -> Any:
    """Hashable equality image of one value, for DISTINCT, GROUP BY,
    set operations and UNIQUE keys.

    Trailing blanks are insignificant (PAD SPACE) and every NaN is one
    key; numbers need nothing, since Python already hashes ``1``, ``1.0``
    and ``Decimal('1')`` alike.  Values of one column share a type, so
    this agrees with :func:`compare_values` ``== 0`` at a fraction of
    :func:`sort_key`'s cost.  Unhashable values (Part 2 objects) come
    back unchanged; callers probe those with :func:`compare_values`.
    """
    if isinstance(value, str):
        return value.rstrip(" ")
    if isinstance(value, float) and value != value:
        return _NAN_KEY
    return value


def compare_values(left: Any, right: Any) -> Optional[int]:
    """Three-valued SQL comparison.

    Returns ``-1``/``0``/``1`` like a comparator, or ``None`` when the
    result is *unknown* (either operand NULL).  Raises
    :class:`repro.errors.InvalidCastError` for incomparable domains.
    """
    if left is None or right is None:
        return None
    lk, rk = _comparison_key(left), _comparison_key(right)
    try:
        if lk == rk:
            return 0
        if lk < rk:
            return -1
        return 1
    except TypeError:
        # Part 2 objects may define __eq__ but not ordering; equality-only
        # comparison is still meaningful for them.  Mismatched *scalar*
        # domains (e.g. 1 vs 'one') stay errors.
        scalars = (str, bool, int, float, decimal.Decimal, _NaNKey)
        if not (isinstance(lk, scalars) and isinstance(rk, scalars)):
            try:
                return 0 if lk == rk else 1
            except Exception:  # pragma: no cover - defensive
                pass
        raise errors.InvalidCastError(
            f"cannot compare {type(left).__name__} with "
            f"{type(right).__name__}"
        ) from None


def sort_key(value: Any) -> tuple:
    """Total-order key placing NULLs last (the SQL default for ASC)."""
    if value is None:
        return (1, 0)
    if value.__class__ is int:  # _comparison_key's commonest case, inlined
        return (0, decimal.Decimal(value))
    return (0, _comparison_key(value))


_NUMERIC_RANK = {
    "SmallIntType": 0,
    "IntegerType": 1,
    "BigIntType": 2,
    "DecimalType": 3,
    "RealType": 4,
    "DoubleType": 5,
}


def common_supertype(
    left: TypeDescriptor, right: TypeDescriptor
) -> TypeDescriptor:
    """Return the type that can hold values of both ``left`` and ``right``.

    Used for CASE arms, set operations, and the translator's inference of
    iterator column types.  Raises :class:`repro.errors.InvalidCastError`
    when no common supertype exists.
    """
    if left == right:
        return left

    if typecodes.is_numeric(left.type_code) and typecodes.is_numeric(
        right.type_code
    ):
        lr = _NUMERIC_RANK[type(left).__name__]
        rr = _NUMERIC_RANK[type(right).__name__]
        if isinstance(left, DecimalType) and isinstance(right, DecimalType):
            scale = max(left.scale, right.scale)
            integral = max(
                left.precision - left.scale, right.precision - right.scale
            )
            return DecimalType(integral + scale, scale)
        if max(lr, rr) >= _NUMERIC_RANK["RealType"]:
            return DoubleType()
        if isinstance(left, DecimalType) or isinstance(right, DecimalType):
            dec = left if isinstance(left, DecimalType) else right
            other_rank = rr if isinstance(left, DecimalType) else lr
            digits = {0: 5, 1: 10, 2: 19}[other_rank]
            assert isinstance(dec, DecimalType)
            return DecimalType(
                max(dec.precision - dec.scale, digits) + dec.scale, dec.scale
            )
        widest = max(lr, rr)
        return {0: SmallIntType, 1: IntegerType, 2: BigIntType}[widest]()

    if typecodes.is_character(left.type_code) and typecodes.is_character(
        right.type_code
    ):
        if isinstance(left, ClobType) or isinstance(right, ClobType):
            return ClobType()
        left_len = getattr(left, "length", None)
        right_len = getattr(right, "length", None)
        if left_len is None or right_len is None:
            return VarCharType(None)
        if isinstance(left, CharType) and isinstance(right, CharType) \
                and left_len == right_len:
            return CharType(left_len)
        return VarCharType(max(left_len, right_len))

    if isinstance(left, BooleanType) and isinstance(right, BooleanType):
        return BooleanType()

    if isinstance(left, ObjectType) and isinstance(right, ObjectType):
        if left.assignable_from(right):
            return left
        if right.assignable_from(left):
            return right

    if left.type_code == right.type_code:
        return left

    raise errors.InvalidCastError(
        f"no common supertype for {left.sql_spelling()} and "
        f"{right.sql_spelling()}"
    )
