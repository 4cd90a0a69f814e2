"""The fixed typeside: base types plus built-in functions and predicates.

There are no user-defined base types or functions; every schema draws from
this one table. Functions are overloaded by argument types and every
reference must resolve to exactly one signature.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import Callable, NamedTuple, Optional, Union

from .errors import SchemaError


class BaseType(enum.Enum):
    STRING = "String"
    INT = "Int"
    DOUBLE = "Double"
    BOOL = "Bool"

    def __str__(self) -> str:
        return self.value


BASE_TYPES_BY_NAME = {t.value: t for t in BaseType}

PyValue = Union[str, int, float, bool]


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance (insert/delete/substitute, unit costs) over
    code points.

    Myers' bit-vector algorithm (J. ACM 46(3), 1999) in Hyyrö's form for
    edit distance (2001). The DP column over the shorter string ``a`` is
    kept as its vertical deltas, one bit per character of ``a`` in the ints
    ``pv`` (+1) and ``mv`` (-1), and one pass over the longer string ``b``
    advances the whole column per character: O(|b|) steps of
    O(|a| / word size) each.
    """
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return len(b)
    masks: dict[str, int] = {}  # per character of a: the positions it occurs at
    bit = 1
    for ch in a:
        masks[ch] = masks.get(ch, 0) | bit
        bit <<= 1
    full, last = bit - 1, bit >> 1
    pv, mv, dist = full, 0, len(a)  # column 0 is 0, 1, ..., |a|
    for ch in b:
        eq = masks.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:  # dist is the column's last entry
            dist += 1
        elif mh & last:
            dist -= 1
        ph = (ph << 1) | 1  # row 0 is 0, 1, ..., |b|: its deltas are all +1
        # bits above |a| never reach the lower ones, but would grow pv by a
        # bit per step
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return dist


class FnSig(NamedTuple):
    name: str
    arg_types: tuple[BaseType, ...]
    result: BaseType
    impl: Callable[..., PyValue]


def representable(value: PyValue) -> bool:
    """Can a literal hold ``value``, so that it prints and parses back?

    A Double must be finite; an Int must have no more digits than the
    interpreter's ``str`` writes and ``int`` reads
    (``sys.get_int_max_str_digits``, 0 for no limit)."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, int):
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        # 8 ** limit < 10 ** limit, so the bit length settles most values
        return not limit or value.bit_length() <= 3 * limit or abs(value) < 10**limit
    return True


def apply_function(fn: FnSig, args: list[PyValue]) -> Optional[PyValue]:
    """``fn`` applied to constant arguments; None where it is undefined: a
    division by zero, or a result no literal can hold (``representable``).
    A Double result is normalized as a literal is, so that it prints and
    parses back as the same value."""
    try:
        result = fn.impl(*args)
    except ZeroDivisionError:
        return None
    if not representable(result):
        return None
    return normalize_double(result) if fn.result is BaseType.DOUBLE else result


def _int_div(a: int, b: int) -> int:
    return a // b


def _dbl_div(a: float, b: float) -> float:
    return a / b


_S, _I, _D = BaseType.STRING, BaseType.INT, BaseType.DOUBLE

BUILTIN_FUNCTIONS: tuple[FnSig, ...] = (
    FnSig("levenshtein", (_S, _S), _I, levenshtein),
    FnSig("concat", (_S, _S), _S, lambda a, b: a + b),
    FnSig("add", (_I, _I), _I, lambda a, b: a + b),
    FnSig("add", (_D, _D), _D, lambda a, b: a + b),
    FnSig("sub", (_I, _I), _I, lambda a, b: a - b),
    FnSig("sub", (_D, _D), _D, lambda a, b: a - b),
    FnSig("mul", (_I, _I), _I, lambda a, b: a * b),
    FnSig("mul", (_D, _D), _D, lambda a, b: a * b),
    FnSig("div", (_I, _I), _I, _int_div),
    FnSig("div", (_D, _D), _D, _dbl_div),
)

_FN_INDEX: dict[tuple[str, tuple[BaseType, ...]], FnSig] = {
    (sig.name, sig.arg_types): sig for sig in BUILTIN_FUNCTIONS
}

FUNCTION_NAMES = frozenset(sig.name for sig in BUILTIN_FUNCTIONS)

# Comparison predicates usable in constraint premises. Equality is defined
# on every base type; the orderings only on Int and Double.
COMPARE_OPS = ("=", "<", ">", "<=", ">=")
_NUMERIC = frozenset({BaseType.INT, BaseType.DOUBLE})


def resolve_function(name: str, arg_types: tuple[BaseType, ...]) -> FnSig:
    """Resolve a function reference to its unique signature or fail."""
    sig = _FN_INDEX.get((name, arg_types))
    if sig is None:
        if name not in FUNCTION_NAMES:
            raise SchemaError(f"unknown built-in function '{name}'")
        raise SchemaError(
            f"no signature {name}({', '.join(map(str, arg_types))}) among built-ins"
        )
    return sig


def has_signature(name: str, arg_types: tuple[BaseType, ...]) -> bool:
    return (name, arg_types) in _FN_INDEX


def predicate_defined(op: str, left: BaseType, right: BaseType) -> bool:
    if op == "=":
        return left == right or (left in _NUMERIC and right in _NUMERIC)
    return op in COMPARE_OPS and left in _NUMERIC and right in _NUMERIC


def apply_predicate(op: str, left: PyValue, right: PyValue) -> bool:
    if op == "=":
        return left == right
    if op == "<":
        return left < right  # type: ignore[operator]
    if op == ">":
        return left > right  # type: ignore[operator]
    if op == "<=":
        return left <= right  # type: ignore[operator]
    if op == ">=":
        return left >= right  # type: ignore[operator]
    raise SchemaError(f"unknown predicate '{op}'")


def normalize_double(value: float) -> float:
    """Doubles are normalized when parsed and when computed, so equality is
    exact."""
    return round(float(value), 6)
