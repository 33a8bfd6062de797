"""SQL type descriptors.

A :class:`TypeDescriptor` describes one SQL data type as it appears in a
column definition, a routine signature, or a describe result.  Descriptors
know how to validate/coerce Python values into their domain
(:meth:`TypeDescriptor.coerce`), whether another type can be assigned to
them (:meth:`TypeDescriptor.assignable_from`), and which Python classes
their values map to — the JDBC "getObject" mapping the paper relies on.

``ObjectType`` is the Part 2 extension point: a column typed by a
user-defined type whose values are host-language (Python) objects stored
by value.
"""

from __future__ import annotations

import datetime
import decimal
import re
from typing import Any, Optional, Tuple

from repro import errors
from repro.sqltypes import typecodes

__all__ = [
    "TypeDescriptor",
    "CharType",
    "VarCharType",
    "ClobType",
    "BlobType",
    "SmallIntType",
    "IntegerType",
    "BigIntType",
    "DecimalType",
    "RealType",
    "DoubleType",
    "BooleanType",
    "DateType",
    "TimeType",
    "TimestampType",
    "ObjectType",
    "parse_type",
    "type_from_python_value",
]


class TypeDescriptor:
    """Base class for SQL type descriptors.

    Descriptors are immutable value objects: equality is structural and
    they may be used as dict keys (e.g. by the translator's type cache).
    """

    #: JDBC-style type code (see :mod:`repro.sqltypes.typecodes`).
    type_code: int = typecodes.OTHER
    #: SQL spelling without parameters, e.g. ``"VARCHAR"``.
    type_name: str = "OTHER"
    #: Python classes whose instances are in this type's domain.
    python_types: Tuple[type, ...] = (object,)

    def coerce(self, value: Any) -> Any:
        """Validate ``value`` and convert it to this type's canonical
        Python representation.  ``None`` (SQL NULL) always passes through.

        Raises :class:`repro.errors.DataError` subclasses on failure.
        """
        if value is None:
            return None
        return self._coerce_non_null(value)

    def _coerce_non_null(self, value: Any) -> Any:
        raise NotImplementedError

    def assignable_from(self, other: "TypeDescriptor") -> bool:
        """True if a value of type ``other`` may be stored into this type
        (possibly with a runtime conversion)."""
        return type(other) is type(self) or (
            typecodes.is_numeric(self.type_code)
            and typecodes.is_numeric(other.type_code)
        ) or (
            typecodes.is_character(self.type_code)
            and typecodes.is_character(other.type_code)
        )

    def comparable_with(self, other: "TypeDescriptor") -> bool:
        """True if values of the two types may be compared with ``=``/``<``."""
        return self.assignable_from(other) or other.assignable_from(self)

    def contains(self, value: Any) -> bool:
        """True if ``value`` is already a legal member of this type."""
        if value is None:
            return True
        try:
            self.coerce(value)
        except errors.SQLException:
            return False
        return True

    # -- structural identity ---------------------------------------------
    def _key(self) -> tuple:
        return (type(self).__name__,)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TypeDescriptor) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.sql_spelling()}>"

    def sql_spelling(self) -> str:
        """Canonical SQL spelling, e.g. ``DECIMAL(6,2)``."""
        return self.type_name


# ---------------------------------------------------------------------------
# Character strings
# ---------------------------------------------------------------------------


class _StringType(TypeDescriptor):
    python_types = (str,)

    def __init__(self, length: Optional[int] = None) -> None:
        if length is not None and length <= 0:
            raise errors.SQLSyntaxError(
                f"length of {self.type_name} must be positive, got {length}"
            )
        self.length = length

    def _key(self) -> tuple:
        return (type(self).__name__, self.length)

    def _check_length(self, text: str) -> str:
        if self.length is not None and len(text) > self.length:
            # SQL permits silently truncating trailing spaces only.
            trimmed = text[: self.length] + text[self.length:].rstrip(" ")
            if len(trimmed) > self.length:
                raise errors.StringTruncationError(
                    f"value of length {len(text)} too long for "
                    f"{self.sql_spelling()}"
                )
            text = text[: self.length]
        return text

    def sql_spelling(self) -> str:
        if self.length is None:
            return self.type_name
        return f"{self.type_name}({self.length})"


class CharType(_StringType):
    """Fixed-length, blank-padded character string."""

    type_code = typecodes.CHAR
    type_name = "CHAR"

    def __init__(self, length: int = 1) -> None:
        super().__init__(length)

    def _coerce_non_null(self, value: Any) -> str:
        if isinstance(value, bool) or not isinstance(value, str):
            raise errors.InvalidCastError(
                f"cannot store {type(value).__name__} in {self.sql_spelling()}"
            )
        text = self._check_length(value)
        assert self.length is not None
        return text.ljust(self.length)


class VarCharType(_StringType):
    """Variable-length character string with an optional maximum."""

    type_code = typecodes.VARCHAR
    type_name = "VARCHAR"

    def _coerce_non_null(self, value: Any) -> str:
        if isinstance(value, bool) or not isinstance(value, str):
            raise errors.InvalidCastError(
                f"cannot store {type(value).__name__} in {self.sql_spelling()}"
            )
        return self._check_length(value)


class ClobType(_StringType):
    """Character large object (unbounded string)."""

    type_code = typecodes.CLOB
    type_name = "CLOB"

    def __init__(self) -> None:
        super().__init__(None)

    def _coerce_non_null(self, value: Any) -> str:
        if not isinstance(value, str):
            raise errors.InvalidCastError(
                f"cannot store {type(value).__name__} in CLOB"
            )
        return value


class BlobType(TypeDescriptor):
    """Binary large object — one of the SQL3 types JDBC 2.0 added."""

    type_code = typecodes.BLOB
    type_name = "BLOB"
    python_types = (bytes, bytearray)

    def _coerce_non_null(self, value: Any) -> bytes:
        if isinstance(value, (bytes, bytearray, memoryview)):
            return bytes(value)
        raise errors.InvalidCastError(
            f"cannot store {type(value).__name__} in BLOB"
        )


# ---------------------------------------------------------------------------
# Exact and approximate numerics
# ---------------------------------------------------------------------------


class _IntType(TypeDescriptor):
    python_types = (int,)
    #: The range of the type's values.
    minimum: int = 0
    maximum: int = 0

    def _coerce_non_null(self, value: Any) -> int:
        if isinstance(value, bool):
            raise errors.InvalidCastError(
                f"cannot store BOOLEAN in {self.type_name}"
            )
        if isinstance(value, int):
            result = value
        elif isinstance(value, float):
            if value != int(value):
                raise errors.InvalidCastError(
                    f"cannot store non-integral {value!r} in {self.type_name}"
                )
            result = int(value)
        elif isinstance(value, decimal.Decimal):
            if value != value.to_integral_value():
                raise errors.InvalidCastError(
                    f"cannot store non-integral {value!r} in {self.type_name}"
                )
            result = int(value)
        elif isinstance(value, str):
            try:
                result = int(value.strip())
            except ValueError:
                raise errors.InvalidCastError(
                    f"cannot cast {value!r} to {self.type_name}"
                ) from None
        else:
            raise errors.InvalidCastError(
                f"cannot store {type(value).__name__} in {self.type_name}"
            )
        if not (self.minimum <= result <= self.maximum):
            raise errors.NumericOverflowError(
                f"value {result} out of range for {self.type_name}"
            )
        return result


class SmallIntType(_IntType):
    type_code = typecodes.SMALLINT
    type_name = "SMALLINT"
    minimum, maximum = -(2 ** 15), 2 ** 15 - 1


class IntegerType(_IntType):
    type_code = typecodes.INTEGER
    type_name = "INTEGER"
    minimum, maximum = -(2 ** 31), 2 ** 31 - 1


class BigIntType(_IntType):
    type_code = typecodes.BIGINT
    type_name = "BIGINT"
    minimum, maximum = -(2 ** 63), 2 ** 63 - 1


class DecimalType(TypeDescriptor):
    """Exact numeric with fixed precision and scale, e.g. the paper's
    ``sales decimal(6,2)`` column."""

    type_code = typecodes.DECIMAL
    type_name = "DECIMAL"
    python_types = (decimal.Decimal,)

    def __init__(self, precision: int = 18, scale: int = 0) -> None:
        if precision <= 0:
            raise errors.SQLSyntaxError(
                f"DECIMAL precision must be positive, got {precision}"
            )
        if scale < 0 or scale > precision:
            raise errors.SQLSyntaxError(
                f"DECIMAL scale {scale} invalid for precision {precision}"
            )
        self.precision = precision
        self.scale = scale

    def _key(self) -> tuple:
        return ("DecimalType", self.precision, self.scale)

    def _coerce_non_null(self, value: Any) -> decimal.Decimal:
        if isinstance(value, bool):
            raise errors.InvalidCastError("cannot store BOOLEAN in DECIMAL")
        try:
            if isinstance(value, float):
                result = decimal.Decimal(str(value))
            elif isinstance(value, (int, decimal.Decimal)):
                result = decimal.Decimal(value)
            elif isinstance(value, str):
                result = decimal.Decimal(value.strip())
            else:
                raise errors.InvalidCastError(
                    f"cannot store {type(value).__name__} in "
                    f"{self.sql_spelling()}"
                )
        except decimal.InvalidOperation:
            raise errors.InvalidCastError(
                f"cannot cast {value!r} to {self.sql_spelling()}"
            ) from None
        quantum = decimal.Decimal(1).scaleb(-self.scale)
        try:
            result = result.quantize(quantum, rounding=decimal.ROUND_HALF_UP)
        except decimal.InvalidOperation:
            raise errors.NumericOverflowError(
                f"value {value!r} does not fit {self.sql_spelling()}"
            ) from None
        digits = result.as_tuple()
        if len(digits.digits) - max(0, -int(digits.exponent) - self.scale) \
                > self.precision:
            raise errors.NumericOverflowError(
                f"value {value!r} exceeds precision of {self.sql_spelling()}"
            )
        if abs(result) >= decimal.Decimal(10) ** (self.precision - self.scale):
            raise errors.NumericOverflowError(
                f"value {value!r} exceeds precision of {self.sql_spelling()}"
            )
        return result

    def sql_spelling(self) -> str:
        return f"DECIMAL({self.precision},{self.scale})"


class _FloatBase(TypeDescriptor):
    python_types = (float,)

    def _coerce_non_null(self, value: Any) -> float:
        if isinstance(value, bool):
            raise errors.InvalidCastError(
                f"cannot store BOOLEAN in {self.type_name}"
            )
        if isinstance(value, (int, float, decimal.Decimal)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value.strip())
            except ValueError:
                raise errors.InvalidCastError(
                    f"cannot cast {value!r} to {self.type_name}"
                ) from None
        raise errors.InvalidCastError(
            f"cannot store {type(value).__name__} in {self.type_name}"
        )


class RealType(_FloatBase):
    type_code = typecodes.REAL
    type_name = "REAL"


class DoubleType(_FloatBase):
    type_code = typecodes.DOUBLE
    type_name = "DOUBLE PRECISION"


class BooleanType(TypeDescriptor):
    type_code = typecodes.BOOLEAN
    type_name = "BOOLEAN"
    python_types = (bool,)

    def _coerce_non_null(self, value: Any) -> bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "t", "1"):
                return True
            if lowered in ("false", "f", "0"):
                return False
        raise errors.InvalidCastError(
            f"cannot cast {value!r} to BOOLEAN"
        )


# ---------------------------------------------------------------------------
# Datetimes
# ---------------------------------------------------------------------------


class DateType(TypeDescriptor):
    type_code = typecodes.DATE
    type_name = "DATE"
    python_types = (datetime.date,)

    def _coerce_non_null(self, value: Any) -> datetime.date:
        if isinstance(value, datetime.datetime):
            return value.date()
        if isinstance(value, datetime.date):
            return value
        if isinstance(value, str):
            try:
                return datetime.date.fromisoformat(value.strip())
            except ValueError:
                raise errors.InvalidCastError(
                    f"cannot cast {value!r} to DATE"
                ) from None
        raise errors.InvalidCastError(
            f"cannot store {type(value).__name__} in DATE"
        )


class TimeType(TypeDescriptor):
    type_code = typecodes.TIME
    type_name = "TIME"
    python_types = (datetime.time,)

    def _coerce_non_null(self, value: Any) -> datetime.time:
        if isinstance(value, datetime.time):
            return value
        if isinstance(value, str):
            try:
                return datetime.time.fromisoformat(value.strip())
            except ValueError:
                raise errors.InvalidCastError(
                    f"cannot cast {value!r} to TIME"
                ) from None
        raise errors.InvalidCastError(
            f"cannot store {type(value).__name__} in TIME"
        )


class TimestampType(TypeDescriptor):
    type_code = typecodes.TIMESTAMP
    type_name = "TIMESTAMP"
    python_types = (datetime.datetime,)

    def _coerce_non_null(self, value: Any) -> datetime.datetime:
        if isinstance(value, datetime.datetime):
            return value
        if isinstance(value, datetime.date):
            return datetime.datetime(value.year, value.month, value.day)
        if isinstance(value, str):
            try:
                return datetime.datetime.fromisoformat(value.strip())
            except ValueError:
                raise errors.InvalidCastError(
                    f"cannot cast {value!r} to TIMESTAMP"
                ) from None
        raise errors.InvalidCastError(
            f"cannot store {type(value).__name__} in TIMESTAMP"
        )


# ---------------------------------------------------------------------------
# User-defined (Part 2) object types
# ---------------------------------------------------------------------------


class ObjectType(TypeDescriptor):
    """A column/parameter typed by a SQLJ Part 2 user-defined type.

    Only the SQL name is carried here; the binding to a Python class, the
    attribute map and the method map live in the catalog's
    :class:`~repro.engine.catalog.UserDefinedType` entry.  ``coerce`` is
    therefore identity plus a class check installed by the catalog at
    binding time (see :meth:`bind_class`).
    """

    type_code = typecodes.PY_OBJECT
    type_name = "PY_OBJECT"

    def __init__(self, udt_name: str, python_class: Optional[type] = None):
        self.udt_name = udt_name.lower()
        self.python_class = python_class

    def bind_class(self, python_class: type) -> "ObjectType":
        """Return a copy bound to the implementing Python class."""
        return ObjectType(self.udt_name, python_class)

    def _key(self) -> tuple:
        return ("ObjectType", self.udt_name)

    def _coerce_non_null(self, value: Any) -> Any:
        if self.python_class is not None and not isinstance(
            value, self.python_class
        ):
            raise errors.InvalidCastError(
                f"value of class {type(value).__name__} is not an instance "
                f"of UDT {self.udt_name!r} "
                f"({self.python_class.__name__})"
            )
        return value

    def assignable_from(self, other: "TypeDescriptor") -> bool:
        # Substitutability: a subtype column accepts the subtype.  The
        # catalog refines this with the real subtype graph; structurally we
        # accept any ObjectType whose bound class is a subclass of ours.
        if not isinstance(other, ObjectType):
            return False
        if other.udt_name == self.udt_name:
            return True
        if self.python_class is not None and other.python_class is not None:
            return issubclass(other.python_class, self.python_class)
        return False

    def sql_spelling(self) -> str:
        return self.udt_name


# ---------------------------------------------------------------------------
# Parsing SQL type spellings
# ---------------------------------------------------------------------------

_TYPE_RE = re.compile(
    r"""^\s*
        (?P<name>[A-Za-z_][A-Za-z0-9_ ]*?)
        \s*
        (?:\(\s*(?P<p>\d+)\s*(?:,\s*(?P<s>\d+)\s*)?\))?
        \s*$""",
    re.VERBOSE,
)

_SIMPLE_TYPES = {
    "SMALLINT": SmallIntType,
    "INT": IntegerType,
    "INTEGER": IntegerType,
    "BIGINT": BigIntType,
    "REAL": RealType,
    "DOUBLE": DoubleType,
    "DOUBLE PRECISION": DoubleType,
    "FLOAT": DoubleType,
    "BOOLEAN": BooleanType,
    "DATE": DateType,
    "TIME": TimeType,
    "TIMESTAMP": TimestampType,
    "BLOB": BlobType,
    "CLOB": ClobType,
}


def parse_type(spelling: str) -> TypeDescriptor:
    """Parse a SQL type spelling (``"decimal(6,2)"``) into a descriptor.

    Unknown names become unbound :class:`ObjectType` references, to be
    resolved against the catalog's user-defined types; this is how a
    ``create table`` can use a Part 2 type name as a column type.
    """
    match = _TYPE_RE.match(spelling)
    if not match:
        raise errors.SQLSyntaxError(f"malformed type spelling {spelling!r}")
    name = " ".join(match.group("name").upper().split())
    precision = match.group("p")
    scale = match.group("s")

    if name in ("CHAR", "CHARACTER"):
        return CharType(int(precision) if precision else 1)
    if name in ("VARCHAR", "CHARACTER VARYING", "CHAR VARYING"):
        return VarCharType(int(precision) if precision else None)
    if name in ("DECIMAL", "DEC", "NUMERIC"):
        if precision is None:
            return DecimalType()
        return DecimalType(int(precision), int(scale) if scale else 0)
    if name in _SIMPLE_TYPES:
        if precision is not None and name != "FLOAT":
            raise errors.SQLSyntaxError(
                f"type {name} does not take parameters"
            )
        return _SIMPLE_TYPES[name]()
    if precision is not None:
        raise errors.SQLSyntaxError(f"unknown parameterised type {name!r}")
    return ObjectType(match.group("name").strip())


def type_from_python_value(value: Any) -> TypeDescriptor:
    """Infer a descriptor for a literal Python value (used when describing
    host variables and dynamic parameters)."""
    if isinstance(value, bool):
        return BooleanType()
    if isinstance(value, int):
        return IntegerType() if -(2 ** 31) <= value < 2 ** 31 else BigIntType()
    if isinstance(value, float):
        return DoubleType()
    if isinstance(value, decimal.Decimal):
        exponent = value.as_tuple().exponent
        scale = -exponent if isinstance(exponent, int) and exponent < 0 else 0
        return DecimalType(max(len(value.as_tuple().digits), scale + 1), scale)
    if isinstance(value, str):
        return VarCharType(None)
    if isinstance(value, (bytes, bytearray)):
        return BlobType()
    if isinstance(value, datetime.datetime):
        return TimestampType()
    if isinstance(value, datetime.date):
        return DateType()
    if isinstance(value, datetime.time):
        return TimeType()
    return ObjectType(type(value).__name__, type(value))
