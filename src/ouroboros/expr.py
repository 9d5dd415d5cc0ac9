"""Expression trees for multivariate real functions.

Variables are positional: ``x1`` is index 1, ``x2`` is index 2, and so on.
Exponents are nonnegative integers, so any tree that divides by no variable
is a polynomial. Trees are immutable and hashable, and every operation in
this module is pure. A sum is one n-ary ``Add`` of (sign, term) pairs and a
product one n-ary ``Mul`` of (sign, factor) pairs, -1 marking subtraction
and division; both evaluate left to right. Their first sign is +1 and their
first entry is never of their own kind (the constructor splices one in), so
each printed form has exactly one tree.

Grammar accepted by :func:`parse` (whitespace is ignored everywhere):

    expr     := term (("+"|"-") term)*
    term     := factor (("*"|"/") factor)*
    factor   := ("-")* atom ("^" integer)?
    atom     := number | variable | "(" expr ")"
    variable := "x" positive-integer
    number   := decimal literal, optional fraction and exponent parts

``^`` binds tighter than a leading unary minus, so ``-x1^2`` reads as
``-(x1^2)``. :func:`to_string` produces a string that re-parses to a
structurally equal tree; the only normalisation involved is that a minus
sign directly in front of a bare number literal is folded into the constant
(``-5`` is the constant -5, while ``-(5)`` is a negation node).

Each ``(`` and each unary minus opens a level of nesting; :func:`parse`
refuses more than ``MAX_DEPTH`` levels, which bounds the recursion of every
walker below on what it parses.

Simplification is deliberately conservative: the smart constructors below
fold constant subtrees and eliminate additive zeros and multiplicative
zeros/ones, nothing else.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Add",
    "Const",
    "EvaluationError",
    "Expr",
    "MAX_DEPTH",
    "Mul",
    "Neg",
    "ParseError",
    "Pow",
    "Var",
    "add",
    "differentiate",
    "dimension",
    "div",
    "evaluate",
    "evaluate_many",
    "mul",
    "neg",
    "parse",
    "power",
    "sub",
    "to_string",
]

# levels of parentheses and unary minus the parser accepts
MAX_DEPTH = 100


class ParseError(ValueError):
    """Syntax error carrying the byte offset of the offending input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


class EvaluationError(ArithmeticError):
    """Raised when an expression has no value at the given point."""

    def __init__(self, message: str, sample_index: int | None = None):
        self.message = message  # without the sample index
        self.sample_index = sample_index
        if sample_index is not None:
            message = f"{message} (sample {sample_index})"
        super().__init__(message)


@dataclass(frozen=True)
class Const:
    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class Var:
    index: int  # 1-based

    def __post_init__(self) -> None:
        if not isinstance(self.index, int) or self.index < 1:
            raise ValueError(f"variable index must be a positive integer, got {self.index!r}")


def _set_entries(node, field: str) -> None:
    """Store ``node.<field>`` as a tuple, splicing in a leading entry of the node's own kind."""
    entries = tuple(getattr(node, field))
    if len(entries) < 2 or entries[0][0] != 1 or any(s not in (1, -1) for s, _ in entries):
        raise ValueError(
            f"{type(node).__name__} needs two or more (sign, node) pairs, signs +1 or -1, the first +1")
    if type(entries[0][1]) is type(node):
        entries = getattr(entries[0][1], field) + entries[1:]
    object.__setattr__(node, field, entries)


@dataclass(frozen=True)
class Add:
    """Sum of (sign, term) pairs, sign +1 or -1, taken left to right."""

    terms: tuple[tuple[int, "Expr"], ...]

    def __post_init__(self) -> None:
        _set_entries(self, "terms")


@dataclass(frozen=True)
class Mul:
    """Product of (sign, factor) pairs, +1 multiplying and -1 dividing, left to right."""

    factors: tuple[tuple[int, "Expr"], ...]

    def __post_init__(self) -> None:
        _set_entries(self, "factors")


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int

    def __post_init__(self) -> None:
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {self.exponent!r}")


Expr = Union[Const, Var, Add, Mul, Neg, Pow]


# ---------------------------------------------------------------------------
# parsing

_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_VAR_RE = re.compile(r"x(\d+)")


def _tokenize(text: str) -> list[tuple]:
    """(kind, pos, text, value) tuples; kind is "number", "var", "end" or the operator itself."""
    tokens = []
    pos = 0
    end = len(text)
    while pos < end:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "x":
            m = _VAR_RE.match(text, pos)
            if m is None:
                raise ParseError("expected a variable index after 'x'", pos)
            index = int(m.group(1))
            if index == 0:
                raise ParseError("variable index must be at least 1", pos)
            tokens.append(("var", pos, m.group(0), index))
            pos = m.end()
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER_RE.match(text, pos)
            if m is None:
                raise ParseError("malformed number literal", pos)
            value = float(m.group(0))
            if math.isinf(value):
                raise ParseError("number literal out of range", pos)
            tokens.append(("number", pos, m.group(0), value))
            pos = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append((ch, pos, ch, None))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", end, "", None))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # enclosing parentheses and unary minus signs

    def peek(self) -> tuple:
        return self.tokens[self.i]

    def advance(self) -> tuple:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse_expr(self) -> Expr:
        terms = [(1, self.parse_term())]
        while self.peek()[0] in ("+", "-"):
            sign = 1 if self.advance()[0] == "+" else -1
            terms.append((sign, self.parse_term()))
        return Add(terms) if len(terms) > 1 else terms[0][1]

    def parse_term(self) -> Expr:
        factors = [(1, self.parse_factor())]
        while self.peek()[0] in ("*", "/"):
            sign = 1 if self.advance()[0] == "*" else -1
            factors.append((sign, self.parse_factor()))
        return Mul(factors) if len(factors) > 1 else factors[0][1]

    def parse_factor(self) -> Expr:
        minus_count = 0
        while self.peek()[0] == "-":
            if self.depth + minus_count == MAX_DEPTH:
                raise ParseError("expression nested too deeply", self.peek()[1])
            self.advance()
            minus_count += 1
        self.depth += minus_count
        node, bare_number = self.parse_atom()
        self.depth -= minus_count
        has_exponent = False
        if self.peek()[0] == "^":
            self.advance()
            kind, pos, text, _ = self.advance()
            if kind != "number" or not text.isdigit():
                raise ParseError("exponent must be a nonnegative integer", pos)
            node = Pow(node, int(text))
            has_exponent = True
        # A minus directly before a bare literal denotes a negative constant;
        # with an exponent present the minus stays outside ("-5^2" is -(5^2)).
        if minus_count and bare_number and not has_exponent:
            node = Const(-node.value)
            minus_count -= 1
        for _ in range(minus_count):
            node = Neg(node)
        return node

    def parse_atom(self) -> tuple[Expr, bool]:
        kind, pos, _, value = self.advance()
        if kind == "number":
            return Const(value), True
        if kind == "var":
            return Var(value), False
        if kind == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError("expression nested too deeply", pos)
            self.depth += 1
            node = self.parse_expr()
            self.depth -= 1
            closing_kind, closing_pos, _, _ = self.advance()
            if closing_kind != ")":
                raise ParseError("expected ')'", closing_pos)
            return node, False
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError("expected a number, a variable, or '('", pos)


def parse(text: str) -> Expr:
    """Parse an expression string into a tree, raising :class:`ParseError`."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    kind, pos, _, _ = parser.peek()
    if kind != "end":
        raise ParseError("unexpected input after expression", pos)
    return node


# ---------------------------------------------------------------------------
# printing

_LEVEL_EXPR, _LEVEL_TERM, _LEVEL_FACTOR, _LEVEL_ATOM = 0, 1, 2, 3


def _level(e: Expr) -> int:
    if isinstance(e, Add):
        return _LEVEL_EXPR
    if isinstance(e, Mul):
        return _LEVEL_TERM
    if isinstance(e, (Neg, Pow)):
        return _LEVEL_FACTOR
    if isinstance(e, Const):
        return _LEVEL_ATOM if e.value >= 0 else _LEVEL_FACTOR
    return _LEVEL_ATOM


def _format_const(value: float) -> str:
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))  # also drops the sign of -0.0
    return repr(value)


def _render(e: Expr, min_level: int = _LEVEL_EXPR) -> str:
    """``e`` as text, parenthesised when it binds looser than ``min_level``."""
    if isinstance(e, Const):
        text = _format_const(e.value)
    elif isinstance(e, Var):
        text = f"x{e.index}"
    elif isinstance(e, Add):
        parts = [_render(e.terms[0][1])]
        for sign, term in e.terms[1:]:
            parts.append(" + " if sign > 0 else " - ")
            parts.append(_render(term, _LEVEL_TERM))
        text = "".join(parts)
    elif isinstance(e, Mul):
        parts = [_render(e.factors[0][1], _LEVEL_TERM)]
        for sign, factor in e.factors[1:]:
            parts.append("*" if sign > 0 else "/")
            parts.append(_render(factor, _LEVEL_FACTOR))
        text = "".join(parts)
    elif isinstance(e, Neg):
        if isinstance(e.operand, Const):
            # "-5" would re-parse as a negative literal, not a negation node
            text = f"-({_format_const(e.operand.value)})"
        else:
            text = f"-{_render(e.operand, _LEVEL_FACTOR)}"
    elif isinstance(e, Pow):
        base = e.base
        if isinstance(base, Var) or (isinstance(base, Const) and base.value >= 0):
            text = f"{_render(base)}^{e.exponent}"
        else:
            text = f"({_render(base)})^{e.exponent}"
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return f"({text})" if _level(e) < min_level else text


def to_string(e: Expr) -> str:
    """Render a tree; the result re-parses to a structurally equal tree."""
    return _render(e)


for _cls in (Const, Var, Add, Mul, Neg, Pow):
    _cls.__str__ = to_string  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# evaluation

def dimension(e: Expr) -> int:
    """Largest variable index occurring in ``e``; 0 for a constant."""
    if isinstance(e, Const):
        return 0
    if isinstance(e, Var):
        return e.index
    if isinstance(e, (Add, Mul)):
        d = 0
        for _, child in e.terms if isinstance(e, Add) else e.factors:
            d = max(d, dimension(child))
        return d
    if isinstance(e, Neg):
        return dimension(e.operand)
    if isinstance(e, Pow):
        return dimension(e.base)
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e: Expr, point: Sequence[float]) -> float:
    """Evaluate at a point (a sequence at least ``dimension(e)`` long)."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.index > len(point):
            raise ValueError(f"point of length {len(point)} is too short for x{e.index}")
        return float(point[e.index - 1])
    if isinstance(e, Add):
        total = evaluate(e.terms[0][1], point)
        for sign, term in e.terms[1:]:
            value = evaluate(term, point)
            total = total + value if sign > 0 else total - value
        return total
    if isinstance(e, Mul):
        product = evaluate(e.factors[0][1], point)
        for sign, factor in e.factors[1:]:
            value = evaluate(factor, point)
            if sign < 0 and value == 0.0:
                raise EvaluationError("division by zero")
            product = product * value if sign > 0 else product / value
        return product
    if isinstance(e, Neg):
        return -evaluate(e.operand, point)
    if isinstance(e, Pow):
        return _pow_repeated(evaluate(e.base, point), e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


def _pow_repeated(base, exponent: int):
    """Binary exponentiation over * only.

    Works on floats and arrays alike and keeps the two evaluation paths
    bitwise consistent; overflow follows IEEE multiplication (inf, no raise).
    The zero power is 1 everywhere, inf and nan included: 1.0 for a float,
    an array of ones (``**`` makes one) for an array.
    """
    result = None
    b = base
    e = exponent
    while e > 0:
        if e & 1:
            result = b if result is None else result * b
        e >>= 1
        if e:
            b = b * b
    if result is None:  # exponent == 0, including 0^0 = 1
        return 1.0 if isinstance(base, float) else base ** 0
    return result


def evaluate_many(e: Expr, points: np.ndarray) -> np.ndarray:
    """Evaluate at each row of an (N, m) array; returns a length-N array.

    Semantics match :func:`evaluate` per row: a zero divisor raises
    :class:`EvaluationError` carrying the first offending row index.
    """
    import numpy as np  # here, so that the scalar and exact paths never load it

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array, one point per row")
    with np.errstate(over="ignore", invalid="ignore"):
        return _eval_array(e, pts, np)


def _eval_array(e: Expr, pts: np.ndarray, np) -> np.ndarray:
    """``e`` at each row of ``pts``; ``np`` is the numpy module, bound once by the caller.

    :func:`_evaluate_columns` repeats this walk on Python floats: a change to
    the order or the operations here must be made there too, or the two
    routes stop giving the same bits.
    """
    if isinstance(e, Const):
        return np.full(pts.shape[0], e.value)
    if isinstance(e, Var):
        if e.index > pts.shape[1]:
            raise ValueError(f"points of width {pts.shape[1]} are too short for x{e.index}")
        return pts[:, e.index - 1]
    if isinstance(e, Add):
        total = _eval_array(e.terms[0][1], pts, np)
        for sign, term in e.terms[1:]:
            value = _eval_array(term, pts, np)
            total = (np.add if sign > 0 else np.subtract)(total, value, out=_spare(total, value))
        return total
    if isinstance(e, Mul):
        product = _eval_array(e.factors[0][1], pts, np)
        for sign, factor in e.factors[1:]:
            value = _eval_array(factor, pts, np)
            if sign < 0 and (value == 0.0).any():
                raise EvaluationError("division by zero", sample_index=int(np.flatnonzero(value == 0.0)[0]))
            product = (np.multiply if sign > 0 else np.divide)(product, value, out=_spare(product, value))
        return product
    if isinstance(e, Neg):
        return -_eval_array(e.operand, pts, np)
    if isinstance(e, Pow):
        return _pow_repeated(_eval_array(e.base, pts, np), e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


def _spare(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """An operand the result may overwrite: one that is no view of the points."""
    return a if a.base is None else b if b.base is None else None


def _evaluate_columns(e: Expr, columns: list[list[float]]) -> list[float]:
    """evaluate_many on Python floats; ``columns[j]`` holds x_{j+1} at every point.

    Node by node in _eval_array's order and with its operations, so the
    values, inf and nan included, and the sample index of a zero divisor are
    those evaluate_many gives on the same points. No list passed in is changed.
    """
    if isinstance(e, Const):
        return [e.value] * len(columns[0])
    if isinstance(e, Var):
        if e.index > len(columns):
            raise ValueError(f"points of width {len(columns)} are too short for x{e.index}")
        return columns[e.index - 1]
    if isinstance(e, Add):
        total = _evaluate_columns(e.terms[0][1], columns)
        for sign, term in e.terms[1:]:
            value = _evaluate_columns(term, columns)
            if sign > 0:
                total = [a + b for a, b in zip(total, value)]
            else:
                total = [a - b for a, b in zip(total, value)]
        return total
    if isinstance(e, Mul):
        product = _evaluate_columns(e.factors[0][1], columns)
        for sign, factor in e.factors[1:]:
            value = _evaluate_columns(factor, columns)
            if sign > 0:
                product = [a * b for a, b in zip(product, value)]
                continue
            if 0.0 in value:  # -0.0 too, as value == 0.0
                raise EvaluationError("division by zero", sample_index=value.index(0.0))
            product = [a / b for a, b in zip(product, value)]
        return product
    if isinstance(e, Neg):
        return [-a for a in _evaluate_columns(e.operand, columns)]
    if isinstance(e, Pow):
        return [_pow_repeated(a, e.exponent) for a in _evaluate_columns(e.base, columns)]
    raise TypeError(f"not an expression node: {e!r}")


def _size_at_most(e: Expr, limit: int) -> bool:
    """Whether ``e`` has at most ``limit`` nodes; no more than ``limit`` of them are visited."""
    pending = [e]
    limit -= 1
    while pending and limit >= 0:
        node = pending.pop()
        if isinstance(node, (Add, Mul)):
            entries = node.terms if isinstance(node, Add) else node.factors
            limit -= len(entries)
            if limit >= 0:  # a long sum or product costs nothing more to refuse
                pending.extend(child for _, child in entries)
        elif isinstance(node, Neg):
            limit -= 1
            pending.append(node.operand)
        elif isinstance(node, Pow):
            limit -= 1
            pending.append(node.base)
    return limit >= 0


# ---------------------------------------------------------------------------
# smart constructors and differentiation

def add(left: Expr, right: Expr) -> Expr:
    if isinstance(left, Const) and isinstance(right, Const):
        return Const(left.value + right.value)
    if isinstance(left, Const) and left.value == 0.0:
        return right
    if isinstance(right, Const) and right.value == 0.0:
        return left
    return Add(((1, left), (1, right)))


def sub(left: Expr, right: Expr) -> Expr:
    if isinstance(left, Const) and isinstance(right, Const):
        return Const(left.value - right.value)
    if isinstance(right, Const) and right.value == 0.0:
        return left
    if isinstance(left, Const) and left.value == 0.0:
        return neg(right)
    return Add(((1, left), (-1, right)))


def mul(left: Expr, right: Expr) -> Expr:
    if isinstance(left, Const) and isinstance(right, Const):
        return Const(left.value * right.value)
    if isinstance(left, Const):
        if left.value == 0.0:
            return Const(0.0)
        if left.value == 1.0:
            return right
    if isinstance(right, Const):
        if right.value == 0.0:
            return Const(0.0)
        if right.value == 1.0:
            return left
    return Mul(((1, left), (1, right)))


def div(left: Expr, right: Expr) -> Expr:
    if isinstance(right, Const) and right.value == 1.0:
        return left
    if isinstance(left, Const) and isinstance(right, Const) and right.value != 0.0:
        return Const(left.value / right.value)
    return Mul(((1, left), (-1, right)))


def neg(operand: Expr) -> Expr:
    if isinstance(operand, Const):
        return Const(-operand.value)
    return Neg(operand)


def power(base: Expr, exponent: int) -> Expr:
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
    if exponent == 0:
        return Const(1.0)
    if exponent == 1:
        return base
    if isinstance(base, Const):
        return Const(_pow_repeated(base.value, exponent))
    return Pow(base, exponent)


def differentiate(e: Expr, k: int) -> Expr:
    """Exact partial derivative with respect to ``xk``.

    The result is built through the smart constructors, so the derivative
    of a constant is the constant zero and variables absent from ``e``
    yield zero. A product differentiates to one summand per factor that
    depends on ``xk``, so the result is no deeper for a longer product.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"variable index must be a positive integer, got {k!r}")
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.index == k else 0.0)
    if isinstance(e, Add):
        total = differentiate(e.terms[0][1], k)
        for sign, term in e.terms[1:]:
            d = differentiate(term, k)
            total = add(total, d) if sign > 0 else sub(total, d)
        return total
    if isinstance(e, Mul):
        total = Const(0.0)
        for i, (sign, factor) in enumerate(e.factors):
            d = differentiate(factor, k)
            if isinstance(d, Const) and d.value == 0.0:
                continue
            summand: Expr = Const(1.0)  # the product with d in place of factor i
            for j, (other_sign, other) in enumerate(e.factors):
                if j == i or other_sign > 0:
                    summand = mul(summand, d if j == i else other)
                else:
                    summand = div(summand, other)
            # (1/f)' = -f'/f^2
            total = add(total, summand) if sign > 0 else sub(total, div(summand, power(factor, 2)))
        return total
    if isinstance(e, Neg):
        return neg(differentiate(e.operand, k))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Const(0.0)
        outer = mul(Const(float(e.exponent)), power(e.base, e.exponent - 1))
        return mul(outer, differentiate(e.base, k))
    raise TypeError(f"not an expression node: {e!r}")
