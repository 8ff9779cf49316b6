"""Division-free integer constraint expressions over bounded variables.

Grammar (ASCII, infix):

    expr     := term (('+' | '-') term)*
    term     := unary ('*' unary)*
    unary    := '-' unary | power
    power    := atom (('^' | '**') INT)?      # literal non-negative exponent
    atom     := INT | IDENT | '(' expr ')'

No division, no variable exponents: every expression is a polynomial with
integer coefficients.  Parse errors carry the 0-based source position.

Each node has one `ev`, a ring operation that runs unchanged on Python ints
and on numpy arrays.  `evaluate` walks the tree over Python ints, exactly;
`evaluate_batch` walks it once over whole columns, as int64 when the value
interval of the expression fits int64 (int64 arithmetic wraps exactly mod
2^64, so a result in that range is exact even where an intermediate wrapped),
and as object arrays of Python ints otherwise.  Both raise OverflowError when
a final value leaves the signed 128-bit range; intermediates may pass it.

A ConstraintSystem binds variables m_1..m_A with inclusive bounds [0, N_j] and
a list of (expression, relation, bound) rows, relation one of <=, =, >=.  The
bound a_k may be any real; membership is decided by exact integer comparison
against floor/ceil of the bound.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainTooLarge, ParseError

_INT128_MAX = (1 << 127) - 1
_INT64 = np.iinfo(np.int64)
_FEASIBLE_CAP = 100_000_000
RELATIONS = ("<=", "=", ">=")


def _check128(v: int) -> int:
    if v > _INT128_MAX or v < -_INT128_MAX - 1:
        raise OverflowError("constraint value exceeds signed 128-bit range")
    return v


@dataclass(frozen=True)
class Const:
    value: int

    def ev(self, env):
        return self.value

    def bounds(self, env):
        return (self.value, self.value)


@dataclass(frozen=True)
class Var:
    name: str

    def ev(self, env):
        return env[self.name]

    def bounds(self, env):
        return env[self.name]


@dataclass(frozen=True)
class Neg:
    x: object

    def ev(self, env):
        return -self.x.ev(env)

    def bounds(self, env):
        lo, hi = self.x.bounds(env)
        return (-hi, -lo)


@dataclass(frozen=True)
class Add:
    a: object
    b: object

    def ev(self, env):
        return self.a.ev(env) + self.b.ev(env)

    def bounds(self, env):
        (al, ah), (bl, bh) = self.a.bounds(env), self.b.bounds(env)
        return (al + bl, ah + bh)


@dataclass(frozen=True)
class Sub:
    a: object
    b: object

    def ev(self, env):
        return self.a.ev(env) - self.b.ev(env)

    def bounds(self, env):
        (al, ah), (bl, bh) = self.a.bounds(env), self.b.bounds(env)
        return (al - bh, ah - bl)


@dataclass(frozen=True)
class Mul:
    a: object
    b: object

    def ev(self, env):
        return self.a.ev(env) * self.b.ev(env)

    def bounds(self, env):
        (al, ah), (bl, bh) = self.a.bounds(env), self.b.bounds(env)
        c = (al * bl, al * bh, ah * bl, ah * bh)
        return (min(c), max(c))


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int

    def ev(self, env):
        return self.base.ev(env) ** self.exponent

    def bounds(self, env):
        if self.exponent == 0:
            return (1, 1)
        lo, hi = self.base.bounds(env)
        c = (lo**self.exponent, hi**self.exponent)
        if self.exponent % 2 == 0 and lo < 0 < hi:
            return (0, max(c))
        return (min(c), max(c))


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(\*\*|\^|[-+*()]))")


def _tokenize(src: str):
    tokens, pos = [], 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m or m.end() == m.start():
            if src[pos:].strip():
                raise ParseError("unexpected character", src, pos)
            break
        if m.group(1):
            tokens.append(("INT", int(m.group(1)), m.start(1)))
        elif m.group(2):
            tokens.append(("IDENT", m.group(2), m.start(2)))
        else:
            tokens.append(("OP", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("END", None, len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("OP", "+"), ("OP", "-")):
            op = self.take()[1]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[:2] == ("OP", "*"):
            self.take()
            node = Mul(node, self.unary())
        return node

    def unary(self):
        if self.peek()[:2] == ("OP", "-"):
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[:2] in (("OP", "^"), ("OP", "**")):
            pos = self.take()[2]
            kind, val, vpos = self.peek()
            if kind != "INT":
                raise ParseError("exponent must be a non-negative integer literal",
                                 self.src, vpos if kind != "END" else pos)
            self.take()
            node = Pow(node, val)
        return node

    def atom(self):
        kind, val, pos = self.take()
        if kind == "INT":
            return Const(val)
        if kind == "IDENT":
            return Var(val)
        if (kind, val) == ("OP", "("):
            node = self.expr()
            kind, val, pos = self.take()
            if (kind, val) != ("OP", ")"):
                raise ParseError("expected ')'", self.src, pos)
            return node
        raise ParseError("expected a number, variable, or '('", self.src, pos)


@dataclass(frozen=True)
class ConstraintExpr:
    source: str
    root: object

    @classmethod
    def parse(cls, source: str) -> "ConstraintExpr":
        p = _Parser(source)
        root = p.expr()
        kind, _, pos = p.peek()
        if kind != "END":
            raise ParseError("trailing input after expression", source, pos)
        return cls(source=source, root=root)

    def variables(self) -> set:
        # every identifier in the grammar is a variable
        return {val for kind, val, _ in _tokenize(self.source) if kind == "IDENT"}

    def evaluate(self, env: dict) -> int:
        """Exact integer value; raises OverflowError beyond 128 bits."""
        return _check128(self.root.ev(env))

    def interval(self, var_bounds: dict) -> tuple:
        """(lo, hi) over the given inclusive variable ranges, exact ints."""
        return self.root.bounds(var_bounds)

    def evaluate_batch(self, cols: dict) -> np.ndarray:
        """Values over equal-length integer columns: int64 when the interval
        over the columns' ranges fits int64, exact Python-int objects
        otherwise; raises OverflowError beyond 128 bits."""
        n = len(next(iter(cols.values())))
        lo, hi = self.interval({k: (int(v.min()), int(v.max())) if n else (0, 0)
                                for k, v in cols.items()})
        dtype = np.int64 if _INT64.min <= lo and hi <= _INT64.max else object
        try:
            out = self.root.ev({k: v.astype(dtype) for k, v in cols.items()})
        except OverflowError:
            # a constant subterm beyond int64 met an int64 column
            dtype = object
            out = self.root.ev({k: v.astype(dtype) for k, v in cols.items()})
        out = np.full(n, out, dtype=dtype) if np.ndim(out) == 0 else out
        if dtype is object and n:
            _check128(out.min())
            _check128(out.max())
        return out


def relation_accepts(value, relation: str, bound):
    """Exact integer-vs-real comparison for one constraint row, or elementwise
    over an integer array (int64 or Python-int objects)."""
    if relation == "<=":
        return value <= math.floor(bound)
    if relation == ">=":
        return value >= math.ceil(bound)
    if relation == "=":
        if bound == math.floor(bound):
            return value == math.floor(bound)
        return np.zeros_like(value, dtype=bool)
    raise ValueError(f"unknown relation {relation!r}")


@dataclass(frozen=True)
class ConstraintSystem:
    variables: tuple                   # ((name, inclusive_upper_bound), ...)
    constraints: tuple                 # ((ConstraintExpr, relation, bound), ...)

    def __post_init__(self):
        if not self.variables:
            raise ValueError("need at least one variable")
        if not self.constraints:
            raise ValueError("need at least one constraint")
        names = [n for n, _ in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for name, bound in self.variables:
            # bool is an int subclass; a float or string bound has no range
            if type(bound) is not int:
                raise ValueError(f"bound of variable {name!r} must be an integer, "
                                 f"got {bound!r}")
            if bound < 0:
                raise ValueError("variable bounds must be >= 0")
        declared = set(names)
        for expr, relation, bound in self.constraints:
            if relation not in RELATIONS:
                raise ValueError(f"relation must be one of {RELATIONS}")
            # bool is an int subclass; an infinite bound has no floor
            if not (type(bound) is int or isinstance(bound, float) and math.isfinite(bound)):
                raise ValueError(f"bound of {expr.source!r} must be a finite number, "
                                 f"got {bound!r}")
            missing = expr.variables() - declared
            if missing:
                raise ValueError(f"undeclared variables {sorted(missing)} in {expr.source!r}")

    @property
    def arity(self) -> int:
        return len(self.variables)

    @property
    def names(self) -> tuple:
        return tuple(n for n, _ in self.variables)

    def domain_size(self) -> int:
        size = 1
        for _, bound in self.variables:
            size *= bound + 1
        return size

    @classmethod
    def from_json(cls, doc) -> "ConstraintSystem":
        if isinstance(doc, str):
            doc = json.loads(doc)
        variables = tuple((v["name"], v["bound"]) for v in doc["variables"])
        constraints = tuple(
            (ConstraintExpr.parse(c["expr"]), c["relation"], c["bound"])
            for c in doc["constraints"]
        )
        return cls(variables=variables, constraints=constraints)

    def to_json(self) -> dict:
        return {
            "variables": [{"name": n, "bound": b} for n, b in self.variables],
            "constraints": [
                {"expr": e.source, "relation": r, "bound": a}
                for e, r, a in self.constraints
            ],
        }


def evaluate_constraints(system: ConstraintSystem, tup) -> list:
    """All constraint function values f_k at one tuple, exact."""
    env = {name: int(v) for (name, _), v in zip(system.variables, tup)}
    for (name, bound), v in zip(system.variables, tup):
        if not 0 <= int(v) <= bound:
            raise ValueError(f"{name}={v} outside [0, {bound}]")
    return [expr.evaluate(env) for expr, _, _ in system.constraints]


def feasible_set(system: ConstraintSystem) -> set:
    """Brute-force enumeration of all satisfying tuples (the oracle)."""
    size = system.domain_size()
    if size > _FEASIBLE_CAP:
        raise DomainTooLarge(f"{size} tuples exceeds the brute-force cap {_FEASIBLE_CAP}")
    grids = np.meshgrid(*[np.arange(b + 1, dtype=np.int64) for _, b in system.variables],
                        indexing="ij")
    cols = {name: g.ravel() for (name, _), g in zip(system.variables, grids)}
    keep = np.ones(size, dtype=bool)
    for expr, relation, bound in system.constraints:
        keep &= relation_accepts(expr.evaluate_batch(cols), relation, bound)
    return {tuple(int(cols[n][i]) for n in system.names) for i in np.flatnonzero(keep)}
