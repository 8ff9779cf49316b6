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


def test_feasible_set_domain_cap():
    system = ConstraintSystem.from_json({
        "variables": [{"name": "x", "bound": 2_000_000_000}],
        "constraints": [{"expr": "x", "relation": "=", "bound": 7}],
    })
    with pytest.raises(DomainTooLarge):
        feasible_set(system)
