"""Expression trees for multivariate real functions.

Variables are positional: ``x1`` is index 1, ``x2`` is index 2, and so on.
Exponents are nonnegative integers, so any tree without ``/`` nodes is a
polynomial. Trees are immutable and hashable, and every operation in this
module is pure.

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

Simplification is deliberately conservative: the smart constructors below
fold constant subtrees and eliminate additive zeros and multiplicative
zeros/ones, nothing else.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "Add",
    "Const",
    "Div",
    "EvaluationError",
    "Expr",
    "Mul",
    "Neg",
    "ParseError",
    "Pow",
    "Sub",
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


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


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


Expr = Union[Const, Var, Add, Sub, Mul, Div, Neg, Pow]


# ---------------------------------------------------------------------------
# parsing

@dataclass(frozen=True)
class _Token:
    kind: str  # "number", "var", "end", or the operator character itself
    text: str
    pos: int
    value: object = None


_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_VAR_RE = re.compile(r"x(\d+)")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
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
            tokens.append(_Token("var", m.group(0), pos, index))
            pos = m.end()
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER_RE.match(text, pos)
            if m is None:
                raise ParseError("malformed number literal", pos)
            value = float(m.group(0))
            if math.isinf(value):
                raise ParseError("number literal out of range", pos)
            tokens.append(_Token("number", m.group(0), pos, value))
            pos = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("end", "", end))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            right = self.parse_term()
            node = Add(node, right) if op.kind == "+" else Sub(node, right)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            right = self.parse_factor()
            node = Mul(node, right) if op.kind == "*" else Div(node, right)
        return node

    def parse_factor(self) -> Expr:
        minus_count = 0
        while self.peek().kind == "-":
            self.advance()
            minus_count += 1
        node, bare_number = self.parse_atom()
        has_exponent = False
        if self.peek().kind == "^":
            self.advance()
            exp_tok = self.peek()
            if exp_tok.kind != "number" or not exp_tok.text.isdigit():
                raise ParseError("exponent must be a nonnegative integer", exp_tok.pos)
            self.advance()
            node = Pow(node, int(exp_tok.text))
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
        tok = self.advance()
        if tok.kind == "number":
            return Const(tok.value), True
        if tok.kind == "var":
            return Var(tok.value), False
        if tok.kind == "(":
            node = self.parse_expr()
            closing = self.advance()
            if closing.kind != ")":
                raise ParseError("expected ')'", closing.pos)
            return node, False
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.pos)
        raise ParseError("expected a number, a variable, or '('", tok.pos)


def parse(text: str) -> Expr:
    """Parse an expression string into a tree, raising :class:`ParseError`."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError("unexpected input after expression", trailing.pos)
    return node


# ---------------------------------------------------------------------------
# printing

_LEVEL_EXPR, _LEVEL_TERM, _LEVEL_FACTOR, _LEVEL_ATOM = 0, 1, 2, 3


def _level(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _LEVEL_EXPR
    if isinstance(e, (Mul, Div)):
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


def _render(e: Expr, min_level: int) -> str:
    text = _render_natural(e)
    if _level(e) < min_level:
        return f"({text})"
    return text


def _render_natural(e: Expr) -> str:
    if isinstance(e, Const):
        return _format_const(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Add):
        return f"{_render(e.left, _LEVEL_EXPR)} + {_render(e.right, _LEVEL_TERM)}"
    if isinstance(e, Sub):
        return f"{_render(e.left, _LEVEL_EXPR)} - {_render(e.right, _LEVEL_TERM)}"
    if isinstance(e, Mul):
        return f"{_render(e.left, _LEVEL_TERM)}*{_render(e.right, _LEVEL_FACTOR)}"
    if isinstance(e, Div):
        return f"{_render(e.left, _LEVEL_TERM)}/{_render(e.right, _LEVEL_FACTOR)}"
    if isinstance(e, Neg):
        if isinstance(e.operand, Const):
            # "-5" would re-parse as a negative literal, not a negation node
            inner = f"({_render_natural(e.operand)})"
        else:
            inner = _render(e.operand, _LEVEL_FACTOR)
        return f"-{inner}"
    if isinstance(e, Pow):
        base = e.base
        if isinstance(base, Var) or (isinstance(base, Const) and base.value >= 0):
            base_text = _render_natural(base)
        else:
            base_text = f"({_render_natural(base)})"
        return f"{base_text}^{e.exponent}"
    raise TypeError(f"not an expression node: {e!r}")


def to_string(e: Expr) -> str:
    """Render a tree; the result re-parses to a structurally equal tree."""
    return _render_natural(e)


for _cls in (Const, Var, Add, Sub, Mul, Div, Neg, Pow):
    _cls.__str__ = to_string  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# evaluation

def dimension(e: Expr, n_hint: int | None = None) -> int:
    """Largest variable index occurring in ``e``, or ``n_hint`` if larger."""
    d = _max_index(e)
    if n_hint is not None:
        d = max(d, n_hint)
    return d


def _max_index(e: Expr) -> int:
    if isinstance(e, Const):
        return 0
    if isinstance(e, Var):
        return e.index
    if isinstance(e, (Add, Sub, Mul, Div)):
        return max(_max_index(e.left), _max_index(e.right))
    if isinstance(e, Neg):
        return _max_index(e.operand)
    if isinstance(e, Pow):
        return _max_index(e.base)
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
        return evaluate(e.left, point) + evaluate(e.right, point)
    if isinstance(e, Sub):
        return evaluate(e.left, point) - evaluate(e.right, point)
    if isinstance(e, Mul):
        return evaluate(e.left, point) * evaluate(e.right, point)
    if isinstance(e, Div):
        denominator = evaluate(e.right, point)
        if denominator == 0.0:
            raise EvaluationError("division by zero")
        return evaluate(e.left, point) / denominator
    if isinstance(e, Neg):
        return -evaluate(e.operand, point)
    if isinstance(e, Pow):
        return _pow_repeated(evaluate(e.base, point), e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


def _pow_repeated(base, exponent: int):
    """Binary exponentiation over * only.

    Works on floats and arrays alike and keeps the two evaluation paths
    bitwise consistent; overflow follows IEEE multiplication (inf, no raise).
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
        return np.ones(base.shape) if isinstance(base, np.ndarray) else 1.0
    return result


def evaluate_many(e: Expr, points: np.ndarray) -> np.ndarray:
    """Evaluate at each row of an (N, m) array; returns a length-N array.

    Semantics match :func:`evaluate` per row: a zero divisor raises
    :class:`EvaluationError` carrying the first offending row index.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array, one point per row")
    with np.errstate(over="ignore", invalid="ignore"):
        return _eval_array(e, pts)


def _eval_array(e: Expr, pts: np.ndarray) -> np.ndarray:
    if isinstance(e, Const):
        return np.full(pts.shape[0], e.value)
    if isinstance(e, Var):
        if e.index > pts.shape[1]:
            raise ValueError(f"points of width {pts.shape[1]} are too short for x{e.index}")
        return pts[:, e.index - 1]
    if isinstance(e, Add):
        return _eval_array(e.left, pts) + _eval_array(e.right, pts)
    if isinstance(e, Sub):
        return _eval_array(e.left, pts) - _eval_array(e.right, pts)
    if isinstance(e, Mul):
        return _eval_array(e.left, pts) * _eval_array(e.right, pts)
    if isinstance(e, Div):
        denominator = _eval_array(e.right, pts)
        zero = denominator == 0.0
        if zero.any():
            raise EvaluationError("division by zero", sample_index=int(np.flatnonzero(zero)[0]))
        return _eval_array(e.left, pts) / denominator
    if isinstance(e, Neg):
        return -_eval_array(e.operand, pts)
    if isinstance(e, Pow):
        return _pow_repeated(_eval_array(e.base, pts), e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# smart constructors and differentiation

def add(left: Expr, right: Expr) -> Expr:
    if isinstance(left, Const) and isinstance(right, Const):
        return Const(left.value + right.value)
    if isinstance(left, Const) and left.value == 0.0:
        return right
    if isinstance(right, Const) and right.value == 0.0:
        return left
    return Add(left, right)


def sub(left: Expr, right: Expr) -> Expr:
    if isinstance(left, Const) and isinstance(right, Const):
        return Const(left.value - right.value)
    if isinstance(right, Const) and right.value == 0.0:
        return left
    if isinstance(left, Const) and left.value == 0.0:
        return neg(right)
    return Sub(left, right)


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
    return Mul(left, right)


def div(left: Expr, right: Expr) -> Expr:
    if isinstance(right, Const) and right.value == 1.0:
        return left
    if isinstance(left, Const) and isinstance(right, Const) and right.value != 0.0:
        return Const(left.value / right.value)
    return Div(left, right)


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
    yield zero.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"variable index must be a positive integer, got {k!r}")
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.index == k else 0.0)
    if isinstance(e, Add):
        return add(differentiate(e.left, k), differentiate(e.right, k))
    if isinstance(e, Sub):
        return sub(differentiate(e.left, k), differentiate(e.right, k))
    if isinstance(e, Mul):
        return add(
            mul(differentiate(e.left, k), e.right),
            mul(e.left, differentiate(e.right, k)),
        )
    if isinstance(e, Div):
        numerator = sub(
            mul(differentiate(e.left, k), e.right),
            mul(e.left, differentiate(e.right, k)),
        )
        return div(numerator, power(e.right, 2))
    if isinstance(e, Neg):
        return neg(differentiate(e.operand, k))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Const(0.0)
        outer = mul(Const(float(e.exponent)), power(e.base, e.exponent - 1))
        return mul(outer, differentiate(e.base, k))
    raise TypeError(f"not an expression node: {e!r}")
