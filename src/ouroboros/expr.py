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
refuses more than ``MAX_DEPTH`` levels, which bounds its own recursion. Of
the walks over a tree only printing, hashing and equality recurse, so
``MAX_DEPTH`` bounds them on parsed trees; every other walk is a loop and
takes a tree of any depth built by hand.

A tree may share subtrees: :func:`parse` makes the equal subtrees of its
text one object, and a tree built by hand may reuse a node. Equality,
hashing, printing, pickling and copying read a shared node once per path,
as they would read copies of it. ``_shape`` lists the distinct nodes once
each, children first, and evaluation, differentiation and expansion
(:mod:`ouroboros.poly`) are each one loop over that list, keeping one
result per node.

Evaluation is one walk over columns, one per variable: Python float lists,
numpy arrays, or a float standing for every sample. :func:`evaluate`,
:func:`evaluate_many` and the sampled checks all take it, and only a few
leaf helpers tell the containers apart.

Simplification is deliberately conservative: the smart constructors below
fold constant subtrees and eliminate additive zeros and multiplicative
zeros/ones, nothing else.
"""

from __future__ import annotations

import math
import operator
import re
from contextlib import nullcontext
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

from ._record import Record

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


class Const(Record):
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        object.__setattr__(self, "value", float(value))


class Var(Record):
    __slots__ = ("index",)  # 1-based

    def __init__(self, index: int) -> None:
        if not isinstance(index, int) or index < 1:
            raise ValueError(f"variable index must be a positive integer, got {index!r}")
        object.__setattr__(self, "index", index)


def _entries(kind: type, entries) -> tuple:
    """``entries`` as a tuple of (sign, node) pairs, splicing in a leading entry of ``kind``."""
    entries = tuple(entries)
    if len(entries) < 2 or entries[0][0] != 1 or any(s not in (1, -1) for s, _ in entries):
        raise ValueError(
            f"{kind.__name__} needs two or more (sign, node) pairs, signs +1 or -1, the first +1")
    if type(entries[0][1]) is kind:
        entries = getattr(entries[0][1], kind._fields[0]) + entries[1:]
    return entries


class Add(Record):
    """Sum of (sign, term) pairs, sign +1 or -1, taken left to right."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, Expr], ...]) -> None:
        object.__setattr__(self, "terms", _entries(Add, terms))


class Mul(Record):
    """Product of (sign, factor) pairs, +1 multiplying and -1 dividing, left to right."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[int, Expr], ...]) -> None:
        object.__setattr__(self, "factors", _entries(Mul, factors))


class Neg(Record):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr) -> None:
        object.__setattr__(self, "operand", operand)


class Pow(Record):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int) -> None:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


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
        self.nodes: dict = {}  # every node of this parse, by the key that leaf or share gives it

    def peek(self) -> tuple:
        return self.tokens[self.i]

    def advance(self) -> tuple:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def leaf(self, kind: type, value) -> Expr:
        """The constant or variable of this parse with ``value``, made on first use.

        A variable is keyed by its index, a constant by ``value.hex()``, so
        0 and -0 stay two nodes.
        """
        key = value.hex() if kind is Const else value
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = kind(value)
        return node

    def share(self, node: Expr) -> Expr:
        """The sum, product, negation or power of this parse equal to ``node``; ``node`` if it is the first.

        The key is the kind and the fields, each child by identity: children
        are shared already, so equal subtrees have equal keys. A sum or
        product is keyed after it has spliced in a leading entry of its kind.
        """
        kind = type(node)
        if kind is Mul:
            key = (Mul, *[(sign, id(factor)) for sign, factor in node.factors])
        elif kind is Add:
            key = (Add, *[(sign, id(term)) for sign, term in node.terms])
        elif kind is Pow:
            key = (Pow, id(node.base), node.exponent)
        else:
            key = (Neg, id(node.operand))
        return self.nodes.setdefault(key, node)

    def parse_expr(self) -> Expr:
        terms = [(1, self.parse_term())]
        while self.peek()[0] in ("+", "-"):
            sign = 1 if self.advance()[0] == "+" else -1
            terms.append((sign, self.parse_term()))
        return self.share(Add(terms)) if len(terms) > 1 else terms[0][1]

    def parse_term(self) -> Expr:
        factors = [(1, self.parse_factor())]
        while self.peek()[0] in ("*", "/"):
            sign = 1 if self.advance()[0] == "*" else -1
            factors.append((sign, self.parse_factor()))
        return self.share(Mul(factors)) if len(factors) > 1 else factors[0][1]

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
            node = self.share(Pow(node, int(text)))
            has_exponent = True
        # A minus directly before a bare literal denotes a negative constant;
        # with an exponent present the minus stays outside ("-5^2" is -(5^2)).
        if minus_count and bare_number and not has_exponent:
            node = self.leaf(Const, -node.value)
            minus_count -= 1
        for _ in range(minus_count):
            node = self.share(Neg(node))
        return node

    def parse_atom(self) -> tuple[Expr, bool]:
        kind, pos, _, value = self.advance()
        if kind == "number":
            return self.leaf(Const, value), True
        if kind == "var":
            return self.leaf(Var, value), False
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
    """Parse an expression string into a tree, raising :class:`ParseError`.

    Equal subtrees of the text become one object (``_Parser.leaf`` and ``_Parser.share``).
    """
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

class _Shape(NamedTuple):
    """What :func:`_shape` finds in one walk of a tree."""

    dimension: int  # the largest variable index, 0 for a constant
    # the distinct nodes, each after its children and the tree last, each with
    # its children's slots (their positions here) in the order of its entries
    order: list[tuple[Expr, tuple[int, ...]]]
    parents: list[int]  # the slot of the node a recursive walk first reaches each node from, -1 for the tree
    readers: list[int]  # the entries that name each node

    @property
    def size(self) -> int:
        """Distinct nodes, leaves included."""
        return len(self.order)


def _shape(e: Expr) -> _Shape:
    """The shape of ``e``, each distinct node visited once, without recursion.

    The order is the one in which a recursive walk, children left to right,
    first finishes each node. The other walks are each one loop over it.
    """
    top = 0
    slots: dict[int, int] = {}  # each listed node's slot, by id
    order: list[tuple[Expr, tuple[int, ...]]] = []
    parents: list[int] = []
    readers: list[int] = []
    pending: list = [e]  # nodes to visit, and (node, children, first slot) to list once the children are
    while pending:
        node = pending.pop()
        kind = type(node)
        if kind is tuple:
            node, children, first = node
            entries = tuple([slots[id(child)] for child in children])
            for slot in entries:
                readers[slot] += 1
                if slot >= first and parents[slot] < 0:  # listed during its visit, and not from a node inside it
                    parents[slot] = len(order)
        elif id(node) in slots:
            continue
        elif kind is Add or kind is Mul:
            children = [child for _, child in (node.terms if kind is Add else node.factors)]
            pending.append((node, children, len(order)))
            pending += reversed(children)
            continue
        elif kind is Neg or kind is Pow:
            child = node.operand if kind is Neg else node.base
            pending += ((node, (child,), len(order)), child)
            continue
        elif kind is Const or kind is Var:
            if kind is Var and node.index > top:
                top = node.index
            entries = ()
        else:
            raise TypeError(f"not an expression node: {node!r}")
        slots[id(node)] = len(order)
        order.append((node, entries))
        parents.append(-1)
        readers.append(0)
    return _Shape(top, order, parents, readers)


def dimension(e: Expr) -> int:
    """Largest variable index occurring in ``e``; 0 for a constant."""
    return _shape(e).dimension


def evaluate(e: Expr, point: Sequence[float]) -> float:
    """Evaluate at a point (a sequence at least ``dimension(e)`` long).

    The walk of :func:`evaluate_many`, with one float per variable.
    """
    try:
        return _evaluate_columns(_shape(e), [float(x) for x in point])
    except EvaluationError as exc:
        raise EvaluationError(exc.message) from None


def _pow_repeated(base, exponent: int):
    """Binary exponentiation over * only, of a column: a float, a list of floats or an array.

    Each multiplication takes whole columns (:func:`_map`), so every
    container takes its powers with the same operations; overflow follows
    IEEE multiplication (inf, no raise). The zero power is the float 1.0,
    standing for 1 at every sample, inf and nan included.
    """
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else _map(operator.mul, result, base)
        exponent >>= 1
        if exponent:
            base = _map(operator.mul, base, base)
    return 1.0 if result is None else result  # exponent 0, including 0^0 = 1


def evaluate_many(e: Expr, points: np.ndarray) -> np.ndarray:
    """Evaluate at each row of an (N, m) array; returns a length-N array.

    The walk of :func:`evaluate`, on the array's columns. Semantics match it
    per row: a zero divisor raises :class:`EvaluationError` carrying the
    first offending row index.
    """
    import numpy as np  # here, so that the scalar and exact paths never load it

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array, one point per row")
    return _column(_evaluate_columns(_shape(e), list(pts.T.copy())), pts)


def _evaluate_columns(shape: _Shape, columns: list) -> list[float] | np.ndarray | float:
    """The tree of ``shape`` at every sample; ``columns[j]`` holds x_{j+1}.

    Python floats and float64 arrays round each operation alike, so every
    container gives the same bits, inf and nan included, and the same
    sample index for a zero divisor; a tree that reads no column gives a
    float. No column passed in is written: a sum or product accumulates in
    place only into the new column its first two entries make.

    One loop over ``shape.order``. Each node's entries are folded into its
    value left to right as soon as they are done, from the node the
    recursive walk reaches them from, and a column is dropped once its last
    reader has read it: so no more columns are held at once than that walk
    holds. A node with no value holds the first of its entries' errors and
    zero divisors, left to right, the error that walk would raise first. A
    point too short for the tree is refused first; the tree's error is raised.
    """
    if shape.dimension > len(columns):
        raise ValueError(f"point of length {len(columns)} is too short for x{shape.dimension}")
    order, parents = shape.order, shape.parents
    results: list = [None] * len(order)
    folded = [0] * len(order)  # the entries of each node folded into its value so far
    readers = list(shape.readers)

    def fold(target: int, done: int) -> None:
        """Fold into the node at ``target`` its next entries that are done, those at slots up to ``done``."""
        node, entries = order[target]
        kind = type(node)
        value = results[target]
        entry = folded[target]
        while entry < len(entries) and entries[entry] <= done:
            slot = entries[entry]
            operand = results[slot]
            readers[slot] -= 1
            if not readers[slot]:
                results[slot] = None
            if type(value) is EvaluationError or type(operand) is EvaluationError:
                value = value if type(value) is EvaluationError else operand
            elif kind is Neg:
                value = _map(operator.neg, operand)
            elif kind is Pow:
                value = _pow_repeated(operand, node.exponent)
            elif not entry:
                value = operand
            elif kind is Add:
                ops = (operator.add, operator.sub) if entry == 1 else (operator.iadd, operator.isub)
                value = _map(ops[node.terms[entry][0] < 0], value, operand)
            elif node.factors[entry][0] > 0:
                value = _map(operator.mul if entry == 1 else operator.imul, value, operand)
            elif (bad := _first(_map(operator.eq, operand, 0.0))) is not None:  # -0.0 too
                value = EvaluationError("division by zero", sample_index=bad)
            else:
                value = _map(operator.truediv if entry == 1 else operator.itruediv, value, operand)
            entry += 1
        results[target] = value
        folded[target] = entry

    with _errstate(columns[0] if columns else 0.0):
        for position, (node, entries) in enumerate(order):
            if entries:
                fold(position, position)
            elif type(node) is Var:
                results[position] = columns[node.index - 1]
            else:
                results[position] = node.value
            if parents[position] >= 0:
                fold(parents[position], position)
    if isinstance(results[-1], EvaluationError):  # an entry's error is its node's, so the tree holds the first
        raise results[-1]
    return results[-1]


# The leaf helpers: a column is a list of Python floats, a numpy array, or a
# float standing for its value at every sample. Each helper gives numpy's
# answer on every container; numpy is imported only for an array.

def _map(op, *args):
    """``op`` at every sample; numpy arrays and floats take it whole, as they broadcast alike."""
    if list not in map(type, args):
        return op(*args)
    return list(map(op, *[a if type(a) is list else repeat(a) for a in args]))


def _first(mask) -> int | None:
    """The first sample at which ``mask`` is true, or None."""
    if isinstance(mask, list):
        return mask.index(True) if True in mask else None
    if isinstance(mask, bool):
        return 0 if mask else None
    return int(mask.argmax()) if mask.any() else None


def _max(column) -> float:
    """The largest value, nan when any value is nan, as numpy's max reads it."""
    if isinstance(column, float):
        return column
    if isinstance(column, list):
        return math.nan if any(v != v for v in column) else max(column)
    return float(column.max())


def _argmax(column) -> int:
    """The first sample of the largest value of a column without nan, as numpy's argmax."""
    if isinstance(column, list):
        return max(range(len(column)), key=column.__getitem__)
    return int(column.argmax())


def _concat(parts: list):
    """The columns ``parts`` one after the other."""
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], list):
        return [x for part in parts for x in part]
    import numpy as np

    return np.concatenate(parts)


def _column(values, like):
    """``values`` as a column of the container and length of ``like``: a float is repeated."""
    if not isinstance(values, float):
        return values
    if isinstance(like, list):
        return [values] * len(like)
    import numpy as np

    return np.full(len(like), values)


def _errstate(column):
    """numpy's errstate that lets an array's overflow and nan pass silently; nothing for Python floats."""
    if isinstance(column, (list, float)):
        return nullcontext()
    import numpy as np

    return np.errstate(over="ignore", invalid="ignore")


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
    """Exact partial derivative with respect to ``xk``: the derivative along the unit vector e_k.

    The result is built through the smart constructors, so the derivative
    of a constant is the constant zero and variables absent from ``e``
    yield zero. A product differentiates to one summand per factor that
    depends on ``xk``, so the result is no deeper for a longer product.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"variable index must be a positive integer, got {k!r}")
    return _derivative(_shape(e), {k: 1.0})


def _derivative(shape: _Shape, w: dict[int, float]) -> Expr:
    """The derivative of the tree of ``shape`` along w, sum(w[k] * d/dx_k), with w[k] = 0 for a k not in w."""
    derivatives: list[Expr] = []
    for node, slots in shape.order:
        kind = type(node)
        if kind is Const or kind is Pow and node.exponent == 0:
            total: Expr = Const(0.0)
        elif kind is Var:
            total = Const(w.get(node.index, 0.0))
        elif kind is Add:
            total = derivatives[slots[0]]
            for (sign, _), slot in zip(node.terms[1:], slots[1:]):
                d = derivatives[slot]
                total = add(total, d) if sign > 0 else sub(total, d)
        elif kind is Mul:
            total = Const(0.0)
            for i, ((sign, factor), slot) in enumerate(zip(node.factors, slots)):
                d = derivatives[slot]
                if isinstance(d, Const) and d.value == 0.0:
                    continue
                summand: Expr = Const(1.0)  # the product with d in place of factor i
                for j, (other_sign, other) in enumerate(node.factors):
                    if j == i or other_sign > 0:
                        summand = mul(summand, d if j == i else other)
                    else:
                        summand = div(summand, other)
                # (1/f)' = -f'/f^2
                total = add(total, summand) if sign > 0 else sub(total, div(summand, power(factor, 2)))
        elif kind is Neg:
            total = neg(derivatives[slots[0]])
        else:
            total = mul(mul(Const(float(node.exponent)), power(node.base, node.exponent - 1)), derivatives[slots[0]])
        derivatives.append(total)
    return derivatives[-1]
