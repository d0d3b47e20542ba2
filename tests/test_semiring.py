"""Max-plus scalars as plain floats: the semiring laws and the one validator.

Semiring addition (oplus) is ``max`` and multiplication (odot) is ``+``;
``-inf`` is the bottom element and 0.0 the unit. These are the laws the
library's exact checks and its max-merge of duplicate atoms rely on.
"""

import json
import math

import pytest
from hypothesis import given, strategies as st

from maxplus.errors import ScalarError
from maxplus.semiring import scalar, weight_from_json

finite = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False)
scalars = st.one_of(st.just(-math.inf), finite)


# oplus is idempotent: a ⊕ a = a
@given(scalars)
def test_oplus_idempotent(a):
    assert max(a, a) == a


# oplus is commutative and associative
@given(scalars, scalars, scalars)
def test_oplus_commutative_associative(a, b, c):
    assert max(a, b) == max(b, a)
    assert max(max(a, b), c) == max(a, max(b, c))


# bottom is the oplus identity
@given(scalars)
def test_oplus_identity(a):
    assert max(a, -math.inf) == a
    assert max(-math.inf, a) == a


# odot is commutative with 0.0 as its exact identity (a peak atom adds 0.0)
@given(scalars, scalars)
def test_odot_commutative_associative(a, b):
    assert a + b == b + a
    assert a + 0.0 == a
    assert 0.0 + a == a


# bottom absorbs under odot
@given(scalars)
def test_odot_absorbing(a):
    assert a + -math.inf == -math.inf
    assert -math.inf + a == -math.inf


# odot distributes over oplus: a ⊙ (b ⊕ c) = (a ⊙ b) ⊕ (a ⊙ c)
# This holds exactly in floats: adding a constant is monotone, so the max
# commutes with it without rounding disagreement.
@given(scalars, scalars, scalars)
def test_distributivity(a, b, c):
    assert a + max(b, c) == max(a + b, a + c)


# the float order is total on scalars and oplus picks the larger one
@given(scalars, scalars)
def test_order_total(a, b):
    assert (a <= b) or (b <= a)
    assert max(a, b) == (b if a <= b else a)


@given(scalars)
def test_bottom_is_least(a):
    assert -math.inf <= a


@pytest.mark.parametrize(
    "value, expected",
    [(2.5, 2.5), (-math.inf, -math.inf), (3, 3.0), (-0.0, -0.0), (10**300, 1e300)],
    ids=["float", "bottom", "int", "negative-zero", "large-int"],
)
def test_scalar_accepts(value, expected):
    got = scalar(value)
    assert type(got) is float and got == expected
    assert math.copysign(1.0, got) == math.copysign(1.0, expected)


def test_nan_rejected():
    with pytest.raises(ScalarError, match="must be finite or -inf"):
        scalar(math.nan)


def test_plus_infinity_rejected():
    with pytest.raises(ScalarError, match="must be finite or -inf"):
        scalar(math.inf)


@pytest.mark.parametrize(
    "value, message",
    [
        (10**400, "out of float range"),
        (True, "not a max-plus scalar: True"),
        (False, "not a max-plus scalar: False"),
        ("-inf", "not a max-plus scalar: '-inf'"),
        ("1.5", "not a max-plus scalar: '1.5'"),
        (None, "not a max-plus scalar: None"),
    ],
    ids=["int-overflow", "true", "false", "string-bottom", "string", "none"],
)
def test_scalar_rejects(value, message):
    with pytest.raises(ScalarError, match=message):
        scalar(value)


def test_json_round_trip():
    # measures print weights as float reprs; bottom is never printed but reads as "-inf"
    assert weight_from_json(json.loads(json.dumps(2.5))) == 2.5
    for text in ("-inf", "-Infinity", " -INF "):
        assert weight_from_json(text) == -math.inf


@pytest.mark.parametrize("obj", ["inf", "0.5", True, None, [0.0]])
def test_json_weight_rejects(obj):
    with pytest.raises(ScalarError, match="not a max-plus scalar"):
        weight_from_json(obj)
