"""Constraint expression parser, interval bounds, feasibility enumeration."""

import numpy as np
import pytest

from hoamp.constraints import (ConstraintExpr, ConstraintSystem,
                               evaluate_constraints, feasible_set,
                               relation_accepts)
from hoamp.errors import DomainTooLarge, ParseError


def ev(src, **env):
    return ConstraintExpr.parse(src).evaluate(env)


def test_parse_precedence():
    assert ev("2 + 3*4") == 14
    assert ev("2*3 + 4") == 10
    assert ev("2^3*4") == 32                 # power binds tighter than *
    assert ev("-x^2", x=3) == -9             # unary minus below power
    assert ev("(2 + 3)*4") == 20
    assert ev("2 - 3 - 4") == -5             # left associative


def test_parse_power_forms():
    assert ev("x**3", x=2) == 8
    assert ev("x^0", x=5) == 1
    assert ev("2^10") == 1024


def test_parse_variables_and_whitespace():
    e = ConstraintExpr.parse("  a*b + c^2 ")
    assert e.variables() == {"a", "b", "c"}
    assert e.evaluate({"a": 2, "b": 3, "c": 4}) == 22


def test_parse_errors():
    for bad in ("", "2 +", "x y", "2^(3)", "^2", "2^^3", "(1", "1)", "x^-1",
                "x^y", "3.5", "x$"):
        with pytest.raises(ParseError):
            ConstraintExpr.parse(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as ei:
        ConstraintExpr.parse("x@")
    assert ei.value.pos == 1
    assert ei.value.source == "x@"


def test_evaluate_big_integers_exact():
    # beyond int64: exact Python integer arithmetic must kick in
    e = ConstraintExpr.parse("x^4")
    big = 3_000_000_000
    assert e.evaluate({"x": big}) == big ** 4


def test_evaluate_batch_matches_scalar():
    e = ConstraintExpr.parse("x*y + y^2 - 3")
    xs = np.arange(0, 7, dtype=np.int64)
    ys = np.arange(6, 13, dtype=np.int64)
    out = e.evaluate_batch({"x": xs, "y": ys})
    for i in range(7):
        assert int(out[i]) == e.evaluate({"x": int(xs[i]), "y": int(ys[i])})


def test_evaluate_batch_object_fallback():
    e = ConstraintExpr.parse("x^3")
    xs = np.array([3_000_000_000, 4_000_000_000], dtype=np.int64)
    out = e.evaluate_batch({"x": xs})
    assert list(out) == [27_000_000_000_000_000_000_000_000_000,
                         64_000_000_000_000_000_000_000_000_000]
    # whole columns either way: int64 while the interval fits int64 (here up
    # to 8e18), exact Python-int objects past it
    xs = np.arange(0, 2_000_001, dtype=np.int64)
    for src, dtype in (("x^3", np.int64), ("x^4 + x", object)):
        e = ConstraintExpr.parse(src)
        out = e.evaluate_batch({"x": xs})
        assert out.dtype == dtype and len(out) == len(xs)
        for i in (*range(0, len(xs), 99_991), len(xs) - 1):
            assert int(out[i]) == e.evaluate({"x": int(xs[i])})
        if dtype is object:
            assert type(out[-1]) is int


def test_evaluate_batch_wraps_exactly_in_int64():
    # x^5 wraps mod 2^64, yet the interval of the whole, and its value, fit
    xs = np.array([0, 1, 2_000_000, 3_037_000_499], dtype=np.int64)
    e = ConstraintExpr.parse("x^5*0 + x*x")
    out = e.evaluate_batch({"x": xs})
    assert out.dtype == np.int64 and out.tolist() == [int(x) ** 2 for x in xs]
    # a constant subterm past int64 cannot meet an int64 column: exact objects
    e = ConstraintExpr.parse("x + 2^70 - 2^70")
    assert e.evaluate_batch({"x": xs}).tolist() == xs.tolist()
    # an expression without variables still gives one value per row
    out = ConstraintExpr.parse("2^3 - 1").evaluate_batch({"x": xs})
    assert out.dtype == np.int64 and out.tolist() == [7] * 4


def test_values_past_128_bits_overflow():
    e = ConstraintExpr.parse("x^9")              # 100000^9 = 1e45 > 2^127
    with pytest.raises(OverflowError):
        e.evaluate({"x": 100_000})
    with pytest.raises(OverflowError):
        e.evaluate_batch({"x": np.arange(100_001, dtype=np.int64)})
    assert e.evaluate({"x": 10}) == 10**9
    # only the final value is checked: Python ints stay exact throughout
    e = ConstraintExpr.parse("x^9 - x^9 + 1")
    assert e.evaluate({"x": 100_000}) == 1
    assert e.evaluate_batch({"x": np.array([100_000])}).tolist() == [1]


def test_interval_bounds():
    b = {"x": (0, 5), "y": (2, 4)}
    assert ConstraintExpr.parse("x + y").interval(b) == (2, 9)
    assert ConstraintExpr.parse("x - y").interval(b) == (-4, 3)
    assert ConstraintExpr.parse("x*y").interval(b) == (0, 20)
    assert ConstraintExpr.parse("x^2").interval(b) == (0, 25)
    assert ConstraintExpr.parse("-x").interval(b) == (-5, 0)
    # even power of a sign-straddling range clamps low end at 0
    assert ConstraintExpr.parse("(x - 3)^2").interval(b) == (0, 9)
    assert ConstraintExpr.parse("x^0").interval(b) == (1, 1)


def test_relation_accepts_integer_semantics():
    assert relation_accepts(3, "<=", 3.5)
    assert not relation_accepts(4, "<=", 3.5)
    assert relation_accepts(4, ">=", 3.5)
    assert not relation_accepts(3, ">=", 3.5)
    assert relation_accepts(3, "=", 3.0)
    assert not relation_accepts(3, "=", 3.5)     # no integer equals 3.5
    assert relation_accepts(-2, "<=", -2.0)
    # elementwise over an int array, the same answers as one value at a time
    vals = np.array([-3, 3, 4, 2**40], dtype=np.int64)
    for relation, bound in (("<=", 3.5), (">=", 3.5), ("=", 3.0), ("=", 3.5), ("<=", 1e30)):
        want = [bool(relation_accepts(int(v), relation, bound)) for v in vals]
        assert relation_accepts(vals, relation, bound).tolist() == want


def test_system_validation():
    with pytest.raises(ValueError):
        ConstraintSystem(variables=(), constraints=((ConstraintExpr.parse("1"), "=", 1),))
    with pytest.raises(ValueError):
        ConstraintSystem(variables=(("x", 3), ("x", 4)),
                         constraints=((ConstraintExpr.parse("x"), "=", 1),))
    with pytest.raises(ValueError):
        ConstraintSystem(variables=(("x", 3),),
                         constraints=((ConstraintExpr.parse("y"), "=", 1),))
    with pytest.raises(ValueError):
        ConstraintSystem(variables=(("x", 3),),
                         constraints=((ConstraintExpr.parse("x"), "<", 1),))
    for bad in ("3", None, True, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite number"):
            ConstraintSystem(variables=(("x", 3),),
                             constraints=((ConstraintExpr.parse("x"), "<=", bad),))


@pytest.mark.parametrize("bad", [3.7, 3.0, "3", True, None, -1])
def test_variable_bounds_must_be_integers(bad):
    doc = {"variables": [{"name": "x", "bound": bad}],
           "constraints": [{"expr": "x", "relation": "<=", "bound": 2}]}
    with pytest.raises(ValueError, match="'x' must be an integer" if bad != -1 else ">= 0"):
        ConstraintSystem.from_json(doc)
    with pytest.raises(ValueError):
        ConstraintSystem(variables=(("x", bad),), constraints=((ConstraintExpr.parse("x"), "<=", 2),))


def test_system_json_round_trip():
    doc = {
        "variables": [{"name": "x", "bound": 7}, {"name": "y", "bound": 3}],
        "constraints": [
            {"expr": "x*y", "relation": ">=", "bound": 4},
            {"expr": "x + y", "relation": "<=", "bound": 8},
        ],
    }
    system = ConstraintSystem.from_json(doc)
    assert system.arity == 2
    assert system.names == ("x", "y")
    assert system.domain_size() == 32
    assert system.to_json() == doc
    again = ConstraintSystem.from_json(system.to_json())
    assert again.to_json() == doc


def test_evaluate_constraints():
    system = ConstraintSystem.from_json({
        "variables": [{"name": "x", "bound": 5}, {"name": "y", "bound": 5}],
        "constraints": [{"expr": "x + y", "relation": "=", "bound": 4}],
    })
    # returns the exact constraint values f_k(tuple)
    assert evaluate_constraints(system, (1, 3)) == [4]
    assert evaluate_constraints(system, (1, 2)) == [3]
    with pytest.raises(ValueError):
        evaluate_constraints(system, (9, 0))     # outside declared bounds


def test_feasible_set_brute_force_agreement():
    system = ConstraintSystem.from_json({
        "variables": [{"name": "x", "bound": 6}, {"name": "y", "bound": 6}],
        "constraints": [
            {"expr": "x*y", "relation": ">=", "bound": 6},
            {"expr": "x + y", "relation": "<=", "bound": 7},
        ],
    })
    want = {
        (x, y)
        for x in range(7) for y in range(7)
        if x * y >= 6 and x + y <= 7
    }
    assert feasible_set(system) == want


def test_feasible_set_object_valued_constraint():
    # x^4 reaches 1e20 over the box, past int64: decided on exact objects
    system = ConstraintSystem.from_json({
        "variables": [{"name": "x", "bound": 100_000}, {"name": "y", "bound": 2}],
        "constraints": [
            {"expr": "x^4 + y", "relation": ">=", "bound": 10**19 + 1.5},
            {"expr": "x^4 - 10^19*y", "relation": "<=", "bound": 3 * 10**19},
        ],
    })
    e1, e2 = (ConstraintExpr.parse(c) for c in ("x^4 + y", "x^4 - 10^19*y"))
    want = {
        (x, y) for x in range(100_001) for y in range(3)
        if e1.evaluate({"x": x, "y": y}) >= 10**19 + 2
        and e2.evaluate({"x": x, "y": y}) <= 3 * 10**19
    }
    assert 0 < len(want) < 3 * 100_001
    assert feasible_set(system) == want


def test_feasible_set_domain_cap():
    system = ConstraintSystem.from_json({
        "variables": [{"name": "x", "bound": 2_000_000_000}],
        "constraints": [{"expr": "x", "relation": "=", "bound": 7}],
    })
    with pytest.raises(DomainTooLarge):
        feasible_set(system)
