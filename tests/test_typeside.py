from __future__ import annotations

import functools
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from catamerge import SchemaError
from catamerge.typeside import (
    BaseType,
    apply_function,
    apply_predicate,
    levenshtein,
    normalize_double,
    predicate_defined,
    representable,
    resolve_function,
)


def reference_levenshtein(a: str, b: str) -> int:
    @functools.lru_cache(maxsize=None)
    def d(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            d(i - 1, j) + 1,
            d(i, j - 1) + 1,
            d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return d(len(a), len(b))


def test_levenshtein_known_values():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("Person B", "Vacant") == 7
    assert levenshtein("", "abc") == 3


def test_levenshtein_identity_is_zero():
    rng = random.Random(31)
    for _ in range(100):
        s = "".join(rng.choice("abcXYZ 0_") for _ in range(rng.randrange(0, 12)))
        assert levenshtein(s, s) == 0


def _edited(rng: random.Random, s: str, alphabet: str, edits: int) -> str:
    chars = list(s)
    for _ in range(edits):
        at = rng.randrange(len(chars) + 1)
        kind = rng.randrange(3)
        if kind == 0 or not chars or at == len(chars):
            chars.insert(at, rng.choice(alphabet))
        elif kind == 1:
            del chars[at]
        else:
            chars[at] = rng.choice(alphabet)
    return "".join(chars)


def test_levenshtein_matches_reference_on_random_pairs():
    rng = random.Random(32)

    def word(alphabet: str, low: int, high: int) -> str:
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(low, high)))

    pairs = []
    for _ in range(200):
        pairs.append((word("abcde ", 0, 9), word("abcde ", 0, 9)))
    # the bitmasks cross 64 and 128 bits, on unrelated and on nearby strings
    for low, high in ((60, 70), (120, 140), (180, 200)):
        for _ in range(6):
            a = word("abcd", low, high)
            pairs.append((a, word("abcd", low, high)))
            pairs.append((a, _edited(rng, a, "abcdx", rng.randrange(1, 12))))
    # code points outside the BMP and combining marks count one each
    wide = "a\u0301e\U0001F600\U0001D538\u00e9\u200d"
    for _ in range(60):
        pairs.append((word(wide, 0, 20), word(wide, 0, 20)))
    pairs.append(("e\u0301", "\u00e9"))
    # one or both sides empty
    for a in ("", "x", "\U0001F600", word("abc", 65, 70)):
        pairs += [(a, ""), ("", a)]
    # long shared prefixes and suffixes around a short difference
    for _ in range(20):
        prefix, suffix = word("abc", 0, 100), word("abc", 0, 100)
        pairs.append((prefix + word("abcd", 0, 5) + suffix, prefix + word("abcd", 0, 5) + suffix))
    for a, b in pairs:
        assert levenshtein(a, b) == reference_levenshtein(a, b), (a, b)
        assert levenshtein(b, a) == levenshtein(a, b)
    assert levenshtein("e\u0301", "\u00e9") == 2
    assert levenshtein("\U0001F600x", "x") == 1


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=150), st.text(max_size=150))
def test_levenshtein_matches_reference_on_text(a, b):
    assert levenshtein(a, b) == reference_levenshtein(a, b)


def test_function_resolution_is_unique():
    sig = resolve_function("levenshtein", (BaseType.STRING, BaseType.STRING))
    assert sig.result is BaseType.INT
    assert resolve_function("add", (BaseType.INT, BaseType.INT)).result is BaseType.INT
    assert resolve_function("add", (BaseType.DOUBLE, BaseType.DOUBLE)).result is BaseType.DOUBLE
    with pytest.raises(SchemaError):
        resolve_function("levenshtein", (BaseType.INT, BaseType.INT))
    with pytest.raises(SchemaError):
        resolve_function("nope", (BaseType.INT,))


def test_predicates_on_base_types():
    assert predicate_defined("=", BaseType.STRING, BaseType.STRING)
    assert predicate_defined("<", BaseType.INT, BaseType.DOUBLE)
    assert not predicate_defined("<", BaseType.STRING, BaseType.STRING)
    assert apply_predicate(">", 7, 0)
    assert apply_predicate("<=", 2, 2.0)
    # the parser makes every `=` an equation, but `=` is a predicate too
    assert apply_predicate("=", 2, 2.0) and not apply_predicate("=", "a", "b")
    assert not predicate_defined("!=", BaseType.INT, BaseType.INT)
    with pytest.raises(SchemaError, match="unknown predicate '!='"):
        apply_predicate("!=", 1, 2)


def test_normalize_double_kills_representation_noise():
    assert normalize_double(18.680000001) == 18.68
    assert normalize_double(26.0) == 26.0


def test_representable_is_what_a_literal_holds():
    """Finite Doubles, and Ints with at most as many digits as ``str``
    writes; ``inf`` would print as a name and NaN equals nothing."""
    limit = sys.get_int_max_str_digits()
    assert all(map(representable, ("", "x", True, 0, -(10**limit - 1), 10**limit - 1, 1e308, -0.0)))
    assert not any(map(representable, (10**limit, -(10**limit), math.inf, -math.inf, math.nan)))
    for value in (10**limit - 1, 10**limit, 2 ** (3 * limit), 2 ** (3 * limit + 1)):
        try:
            written = len(str(abs(value))) <= limit
        except ValueError:
            written = False
        assert representable(value) == written


def test_functions_are_undefined_where_no_literal_holds_the_result():
    """A built-in is total: a division by zero, an overflowing Double and an
    Int too long to print are all undefined (None), never a value."""
    ints, dbls = (BaseType.INT, BaseType.INT), (BaseType.DOUBLE, BaseType.DOUBLE)
    mul_i, mul_d = resolve_function("mul", ints), resolve_function("mul", dbls)
    big = 10 ** (sys.get_int_max_str_digits() // 2 + 1)
    assert apply_function(resolve_function("div", ints), [1, 0]) is None
    assert apply_function(resolve_function("div", dbls), [1.0, 0.0]) is None
    assert apply_function(mul_i, [big, big]) is None
    assert apply_function(mul_i, [big, 7]) == 7 * big
    assert apply_function(mul_d, [1e200, 1e200]) is None
    assert apply_function(resolve_function("add", dbls), [1e308, 1e308]) is None
    assert apply_function(resolve_function("sub", dbls), [1e308, 1.0]) == 1e308


def test_double_results_are_normalized_as_literals_are():
    """A computed Double is rounded as a parsed literal is, so that a
    printed instance reads back with the same values."""
    dbls = (BaseType.DOUBLE, BaseType.DOUBLE)
    mul_d, div_d = resolve_function("mul", dbls), resolve_function("div", dbls)
    assert apply_function(mul_d, [0.000001, 0.000001]) == 0.0
    assert apply_function(div_d, [1.0, 3.0]) == normalize_double(1.0 / 3.0) == 0.333333
    assert apply_function(resolve_function("add", dbls), [0.1, 0.2]) == 0.3
