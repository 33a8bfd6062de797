"""Built-in scalar functions.

The registry maps lower-case SQL function names to Python implementations.
Unless a function is registered in :data:`NULL_TOLERANT`, a NULL argument
makes the result NULL (the SQL convention), so implementations may assume
non-null inputs.
"""

from __future__ import annotations

import datetime
import decimal
import math
from typing import Any, Callable, Dict, List, Optional

from repro import errors
from repro.sqltypes import DoubleType, IntegerType, TypeDescriptor, \
    VarCharType

__all__ = ["BUILTINS", "NULL_TOLERANT", "lookup_builtin", "result_type"]


def _upper(value: str) -> str:
    return str(value).upper()


def _lower(value: str) -> str:
    return str(value).lower()


def _length(value: str) -> int:
    return len(value)


def _substring(value: str, start: int, length: Optional[int] = None) -> str:
    """SQL SUBSTRING with 1-based start; negative starts clamp per ISO."""
    start_index = int(start) - 1
    if length is None:
        return value[max(start_index, 0):]
    if length < 0:
        raise errors.DataError("negative length in SUBSTRING")
    end_index = start_index + int(length)
    return value[max(start_index, 0): max(end_index, 0)]


def _trim(value: str) -> str:
    return value.strip(" ")


def _ltrim(value: str) -> str:
    return value.lstrip(" ")


def _rtrim(value: str) -> str:
    return value.rstrip(" ")


def _replace(value: str, target: str, replacement: str) -> str:
    return value.replace(target, replacement)


def _position(needle: str, haystack: str) -> int:
    """1-based position of ``needle`` in ``haystack``; 0 when absent."""
    return haystack.find(needle) + 1


def _concat(*parts: Any) -> str:
    return "".join(str(p) for p in parts)


def _abs(value: Any) -> Any:
    return abs(value)


def _mod(left: Any, right: Any) -> Any:
    if right == 0:
        raise errors.DivisionByZeroError("MOD by zero")
    return left % right


def _round(value: Any, places: int = 0) -> Any:
    if isinstance(value, decimal.Decimal):
        quantum = decimal.Decimal(1).scaleb(-int(places))
        return value.quantize(quantum, rounding=decimal.ROUND_HALF_UP)
    return round(float(value), int(places))


def _floor(value: Any) -> int:
    return math.floor(value)


def _ceiling(value: Any) -> int:
    return math.ceil(value)


def _power(base: Any, exponent: Any) -> float:
    return float(base) ** float(exponent)


def _sqrt(value: Any) -> float:
    if value < 0:
        raise errors.DataError("SQRT of negative value")
    return math.sqrt(value)


def _sign(value: Any) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def _coalesce(*values: Any) -> Any:
    for value in values:
        if value is not None:
            return value
    return None


def _nullif(left: Any, right: Any) -> Any:
    return None if left == right else left


def _current_date() -> datetime.date:
    return datetime.date.today()


def _current_time() -> datetime.time:
    return datetime.datetime.now().time()


def _current_timestamp() -> datetime.datetime:
    return datetime.datetime.now()


#: name -> implementation.  All names lower case.
BUILTINS: Dict[str, Callable[..., Any]] = {
    "upper": _upper,
    "lower": _lower,
    "length": _length,
    "char_length": _length,
    "character_length": _length,
    "substring": _substring,
    "substr": _substring,
    "trim": _trim,
    "ltrim": _ltrim,
    "rtrim": _rtrim,
    "replace": _replace,
    "position": _position,
    "concat": _concat,
    "abs": _abs,
    "mod": _mod,
    "round": _round,
    "floor": _floor,
    "ceiling": _ceiling,
    "ceil": _ceiling,
    "power": _power,
    "sqrt": _sqrt,
    "sign": _sign,
    "coalesce": _coalesce,
    "nullif": _nullif,
    "current_date": _current_date,
    "current_time": _current_time,
    "current_timestamp": _current_timestamp,
}

#: Built-ins that receive NULL arguments instead of short-circuiting.
NULL_TOLERANT = frozenset(["coalesce", "nullif", "concat"])


def lookup_builtin(name: str) -> Optional[Callable[..., Any]]:
    """Return the built-in implementation for ``name`` or None."""
    return BUILTINS.get(name.lower())


def result_type(
    name: str, arguments: List[Optional[TypeDescriptor]]
) -> Optional[TypeDescriptor]:
    """Best-effort result type of built-in ``name`` given its argument
    types (None: unknown)."""
    if name in ("upper", "lower", "substring", "substr", "trim", "ltrim",
                "rtrim", "replace", "concat"):
        return VarCharType(None)
    if name in ("length", "char_length", "character_length", "position",
                "floor", "ceiling", "ceil", "sign"):
        return IntegerType()
    if name in ("power", "sqrt"):
        return DoubleType()
    if name in ("abs", "mod", "round", "coalesce", "nullif") and arguments:
        return arguments[0]
    return None
