"""Closed-form expression language for metric coefficients.

Infix grammar with the usual precedence (``^`` > unary ``-`` > ``*`` ``/`` >
``+`` ``-``), ``^`` right-associative.  ``compile_tensor`` differentiates
trees symbolically and compiles the value and its first and second partials
to straight-line Python; ``evaluate`` and ``eval2`` run these compiled
functions at one point.  Each compiled function also has an array form over
a batch of points, written from the same statements, whose rows are bitwise
the per-point values.  ``compile_gamma`` writes the connection of a metric
and its Jacobi operator on the same graph as statements (a connection
fragment, see ``manifold.MetricEvaluator``), from which the chart emits its
forms on first use.  A literal square ``a ^ 2`` is the product ``a * a`` in
every form, correctly rounded, where the C library's ``pow`` may be an ulp
off: glibc 2.36's ``u ** 2`` differs from ``u * u``, by one ulp, in 1,764 of
2,000,000 uniform draws from [-3, 3] (``numpy.random.default_rng(0)``).

Evaluation raises DomainFault for ``log`` of an argument <= 0, ``sqrt`` of an
argument < 0 (or = 0 where derivatives are taken), division by 0, and
``a ^ b`` with a <= 0 where b is not an integer literal.  ``a ^ -k``, for an
integer literal k, is ``1 / a ^ k``: a division, so a DomainFault at a = 0.
An overflowing ``^`` (``a ^ -k`` too) or function raises OverflowError; a
written ``+ - * /`` overflows to inf as floats do, and ``sin``, ``cos`` or
``tan`` of an infinite argument raises DomainFault.  A literal that is not
finite is a ParseError at its column; an expression nested too deeply to
parse is a ParseError, and one too deeply nested to compile a BadParam.
"""

from __future__ import annotations

import copy
import functools
import linecache
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import BadParam, DomainFault, ParseError, SingularMetric, UnknownIdentifier

FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "abs")
CONSTANTS = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str  # 'pi' or 'e'


@dataclass(frozen=True)
class Var:
    index: int
    name: str


@dataclass(frozen=True)
class Neg:
    child: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Num | Const | Var | Neg | Bin | Call


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # num ident op lparen rparen end
    text: str
    line: int
    column: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            seen_e = False
            while j < n and (source[j].isdigit() or source[j] == "."
                             or source[j] in "eE"
                             or (seen_e and source[j] in "+-" and source[j - 1] in "eE")):
                if source[j] in "eE":
                    # only scientific notation if followed by digit or sign+digit
                    k = j + 1
                    if k < n and source[k] in "+-":
                        k += 1
                    if k >= n or not source[k].isdigit():
                        break
                    seen_e = True
                j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"bad number literal '{text}'", line, start_col)
            if not math.isfinite(value):
                raise ParseError(f"number literal '{text}' is not finite", line, start_col)
            tokens.append(_Token("num", text, line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c in "+-*/^":
            tokens.append(_Token("op", c, line, start_col))
        elif c == "(":
            tokens.append(_Token("lparen", c, line, start_col))
        elif c == ")":
            tokens.append(_Token("rparen", c, line, start_col))
        else:
            raise ParseError(f"unexpected character '{c}'", line, start_col)
        col += 1
        i += 1
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], coords: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.coords = list(coords)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        what = repr(tok.text) if tok.kind != "end" else "end of input"
        raise ParseError(f"unexpected {what}", tok.line, tok.column, expected)

    def parse(self) -> Node:
        node = self.sum()
        if self.peek().kind != "end":
            self.fail({"operator", "end of input"})
        return node

    def sum(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Bin(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Bin(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return Bin("^", base, self.unary())
        return base

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if self.peek().kind == "lparen":
                if name not in FUNCTIONS:
                    raise UnknownIdentifier(name, tok.line, tok.column)
                self.advance()
                arg = self.sum()
                if self.peek().kind != "rparen":
                    self.fail({")"})
                self.advance()
                return Call(name, arg)
            if name in self.coords:
                return Var(self.coords.index(name), name)
            if name in CONSTANTS:
                return Const(name)
            raise UnknownIdentifier(name, tok.line, tok.column)
        if tok.kind == "lparen":
            self.advance()
            node = self.sum()
            if self.peek().kind != "rparen":
                self.fail({")"})
            self.advance()
            return node
        self.fail({"number", "identifier", "("})


def parse(source: str, coords: list[str]) -> Node:
    """Parse ``source`` into an AST over the named coordinates."""
    if not source or not source.strip():
        raise ParseError("empty expression", 1, 1, {"expression"})
    parser = _Parser(_tokenize(source), coords)
    try:
        return parser.parse()
    except RecursionError:
        tok = parser.peek()
        raise ParseError("expression too deeply nested", tok.line, tok.column) from None


def to_source(node: Node) -> str:
    """Canonical fully-parenthesized form; re-parses to an equivalent AST."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{to_source(node.child)})"
    if isinstance(node, Call):
        return f"{node.fn}({to_source(node.arg)})"
    return f"({to_source(node.left)} {node.op} {to_source(node.right)})"


def _integer_exponent(node: Node):
    """Exponent value when the exponent subtree is an integer literal."""
    if isinstance(node, Num) and float(node.value).is_integer():
        return int(node.value)
    if isinstance(node, Neg):
        inner = _integer_exponent(node.child)
        if inner is not None:
            return -inner
    return None


# ---------------------------------------------------------------------------
# Symbolic derivatives compiled to straight-line Python
# ---------------------------------------------------------------------------
#
# A parsed tree is first interned into a hash-consed graph: structurally equal
# subtrees become one node object, so a node's id keys every memo below.  The
# graph is differentiated symbolically with constant folding and emitted once
# per derivative order (or, for the connection, as statements) as a Python
# function in which every shared subexpression is one local variable.  The
# generated code runs on Python floats, so an overflowing ``**``, square or
# ``exp`` raises OverflowError instead of carrying inf/NaN into the caller.
# The same emitter in batch mode writes each function's array form (see
# ``_Emitter``).


@dataclass(frozen=True)
class _Reciprocal(Bin):
    """``1 / a ^ k``, the lowered ``a ^ -k``, and each division by ``a ^ k``
    in its partials: a division whose overflow to inf raises OverflowError,
    as an overflowing ``**`` does."""


def _is_num(node, value) -> bool:
    return isinstance(node, Num) and node.value == value


class _Graph:
    """Hash-consed nodes, folding constructors and memoized partials."""

    def __init__(self):
        self._nodes = {}
        self._partials = {}
        self.zero = self.num(0.0)
        self.one = self.num(1.0)

    def _intern(self, node):
        if isinstance(node, Num):
            key = (Num, repr(node.value))
        elif isinstance(node, Var):
            key = (Var, node.index)
        elif isinstance(node, Neg):
            key = (Neg, id(node.child))
        elif isinstance(node, Call):
            key = (Call, node.fn, id(node.arg))
        else:
            key = (type(node), node.op, id(node.left), id(node.right))
        return self._nodes.setdefault(key, node)

    # -- the parsed tree, as written ------------------------------------------

    def lower(self, node):
        """Intern a parsed tree without folding, so that every domain check stays.

        Constants become numbers, and a literal negative integer power becomes
        a division, whose zero-denominator check is the one of ``/`` and whose
        overflow raises (``_Reciprocal``).
        """
        if isinstance(node, Num):
            return self.num(node.value)
        if isinstance(node, Const):
            return self.num(CONSTANTS[node.name])
        if isinstance(node, Var):
            return self._intern(node)
        if isinstance(node, Neg):
            return self._intern(Neg(self.lower(node.child)))
        if isinstance(node, Call):
            return self._intern(Call(node.fn, self.lower(node.arg)))
        left = self.lower(node.left)
        if node.op == "^":
            k = _integer_exponent(node.right)
            if k is not None:
                power = self._intern(Bin("^", left, self.num(abs(k))))
                return self._intern(_Reciprocal("/", self.one, power)) if k < 0 else power
        return self._intern(Bin(node.op, left, self.lower(node.right)))

    # -- folding constructors -------------------------------------------------

    def num(self, value):
        return self._intern(Num(float(value)))

    def neg(self, a):
        if isinstance(a, Num):
            return self.num(-a.value)
        if isinstance(a, Neg):
            return a.child
        return self._intern(Neg(a))

    def add(self, a, b):
        if _is_num(a, 0.0):
            return b
        if _is_num(b, 0.0):
            return a
        if isinstance(a, Num) and isinstance(b, Num):
            return self.num(a.value + b.value)
        return self._intern(Bin("+", a, b))

    def sub(self, a, b):
        if _is_num(b, 0.0):
            return a
        if _is_num(a, 0.0):
            return self.neg(b)
        if isinstance(a, Num) and isinstance(b, Num):
            return self.num(a.value - b.value)
        return self._intern(Bin("-", a, b))

    def mul(self, a, b):
        if _is_num(a, 0.0) or _is_num(b, 0.0):
            return self.zero
        if _is_num(a, 1.0):
            return b
        if _is_num(b, 1.0):
            return a
        if isinstance(a, Num) and isinstance(b, Num):
            return self.num(a.value * b.value)
        return self._intern(Bin("*", a, b))

    def div(self, a, b, kind=Bin):
        # a zero numerator drops the division: every denominator built here
        # is a node of the parsed tree whose check already ran, or a pivot of
        # g, which is checked on its own
        if _is_num(a, 0.0):
            return self.zero
        if _is_num(b, 1.0):
            return a
        return self._intern(kind("/", a, b))

    def ipow(self, a, k: int):
        if k == 0:
            return self.one
        if k == 1:
            return a
        return self._intern(Bin("^", a, self.num(k)))

    def call(self, fn, a):
        return self._intern(Call(fn, a))

    def dot(self, pairs):
        """The sum of c * u over the pairs of nodes (c, u), each c once: the u
        of one c are added first (``total``), and a literal zero drops out."""
        groups = {}
        for c, u in pairs:
            if not (_is_num(c, 0.0) or _is_num(u, 0.0)):
                groups.setdefault(id(c), (c, []))[1].append(u)
        return self.total(self.mul(c, self.total(us)) for c, us in groups.values())

    def total(self, terms):
        """The sum of the nodes ``terms``, added pairwise, so that its depth
        grows as the log of their count."""
        terms = list(terms) or [self.zero]
        while len(terms) > 1:
            terms = [self.add(*terms[k:k + 2]) if k + 1 < len(terms) else terms[k]
                     for k in range(0, len(terms), 2)]
        return terms[0]

    # -- differentiation ------------------------------------------------------

    def partial(self, node, i: int):
        """d node / d x_i as a node of this graph."""
        key = (id(node), i)
        got = self._partials.get(key)
        if got is None:
            got = self._partials[key] = self._differentiate(node, i)
        return got

    def _differentiate(self, node, i):
        if isinstance(node, Num):
            return self.zero
        if isinstance(node, Var):
            return self.one if node.index == i else self.zero
        if isinstance(node, Neg):
            return self.neg(self.partial(node.child, i))
        if isinstance(node, Call):
            u = node.arg
            du = self.partial(u, i)
            if _is_num(du, 0.0):
                return self.zero
            fn = node.fn
            if fn == "log":
                return self.div(du, u)
            if fn == "sqrt":
                return self.div(self.mul(self.num(0.5), du), node)
            return self.mul(_SLOPES[fn](self, node, u), du)
        a, b = node.left, node.right
        da, db = self.partial(a, i), self.partial(b, i)
        if node.op == "+":
            return self.add(da, db)
        if node.op == "-":
            return self.sub(da, db)
        if node.op == "*":
            return self.add(self.mul(da, b), self.mul(a, db))
        if node.op == "/":
            # (a/b)' = (a' - (a/b) b') / b keeps b as the only denominator;
            # that of a negative power overflows where 1 / a ^ k does, or sooner
            return self.div(self.sub(da, self.mul(node, db)), b, type(node))
        k = _lowered_integer_exponent(node)
        if k is not None:
            return self.mul(self.mul(self.num(k), self.ipow(a, k - 1)), da)
        # a^b = exp(b log a) with a > 0
        return self.mul(node, self.add(self.mul(db, self.call("log", a)),
                                       self.div(self.mul(b, da), a)))


# f'(u) for the remaining functions, given the call node f(u) and u; ``sign``
# appears only as the derivative of ``abs``
_SLOPES = {
    "sin": lambda graph, f, u: graph.call("cos", u),
    "cos": lambda graph, f, u: graph.neg(graph.call("sin", u)),
    "tan": lambda graph, f, u: graph.add(graph.one, graph.ipow(f, 2)),
    "sinh": lambda graph, f, u: graph.call("cosh", u),
    "cosh": lambda graph, f, u: graph.call("sinh", u),
    "tanh": lambda graph, f, u: graph.sub(graph.one, graph.ipow(f, 2)),
    "exp": lambda graph, f, u: f,
    "abs": lambda graph, f, u: graph.call("sign", u),
    "sign": lambda graph, f, u: graph.zero,
}


def _lowered_integer_exponent(node):
    """k for an interned ``a ^ k`` whose exponent is a literal integer k >= 0."""
    e = node.right
    if isinstance(e, Num) and e.value >= 0.0 and e.value.is_integer():
        return int(e.value)
    return None


def _is_square(node) -> bool:
    """Whether ``node`` is an interned ``a ^ 2``."""
    return type(node) is Bin and node.op == "^" and _lowered_integer_exponent(node) == 2


class _Emitter:
    """Writes the statements of one compiled function, one per graph node.

    A literal square ``a ^ 2`` (the one of a lowered ``a ^ -2`` too) is the
    product ``a * a``, correctly rounded, and checked: where it is inf, the
    per-point form evaluates ``a ** 2``, which raises OverflowError as the
    power did where a finite a overflows, and is inf where a is. A power
    ``a ^ k`` for k >= 3 is ``a ** k``.

    With ``batch`` the same statements make the array form of the function,
    on an (N, n) array of points: every node that depends on the point is an
    (N,) array, on which + - * / (so every square) and the comparisons run as
    numpy ufuncs, and every ``math`` function and every ``**`` is applied
    element by element (``_each``, ``_each_power``), since numpy's are not
    libm's; so each row is bitwise the value at that point. A check becomes
    one ``any`` over the batch and makes the function return None, so that
    the caller can run the per-point function, which raises; a square that
    is inf at some row is such a check. ``point`` is the source of the point
    that a per-point fault names (see ``_fault``), or None.
    """

    def __init__(self, order: int, batch: bool = False, point: str | None = "x"):
        self.strict = order >= 1  # sqrt at 0 faults only when differentiating
        self.batch = batch
        self.point = point  # the source of the point a fault names, or None
        self.lines = []
        self.names = {}
        self.positive = set()  # ids of nodes a log, sqrt or power check proved > 0
        self.nonzero = set()   # ids of denominators a division check proved != 0
        self.arrays = set()    # ids of the nodes that are (N,) arrays in batch mode

    def fork(self) -> "_Emitter":
        """An emitter that continues from the statements written so far."""
        other = copy.copy(self)
        other.lines, other.names = list(self.lines), dict(self.names)
        other.positive, other.nonzero, other.arrays = set(self.positive), set(self.nonzero), set(self.arrays)
        return other

    def ref(self, node) -> str:
        name = self.names.get(id(node))
        if name is None:
            if isinstance(node, Num):
                v = node.value
                name = repr(v) if math.isfinite(v) else f"float('{v!r}')"
                if math.copysign(1.0, v) < 0.0:
                    name = f"({name})"
            elif isinstance(node, Var):
                name = f"x{node.index}"
                if self.batch:
                    self.arrays.add(id(node))
            else:
                rhs = self._expression(node)
                name = f"t{len(self.names)}"
                self.lines.append(f"{name} = {rhs}")
                if isinstance(node, _Reciprocal):
                    self._check(node, f"abs({name}) == _inf",
                                "negative power overflows at {x}", "OverflowError")
                elif _is_square(node):
                    # a * a is inf where u ** 2 raised, and where u is; u ** 2
                    # itself then raises as it did, or is that inf
                    if id(node) in self.arrays:
                        self.lines.append(f"if ({name} == _inf).any(): return None")
                    else:
                        self.lines.append(f"if {name} == _inf: {name} = {self.names[id(node.left)]} ** 2")
            self.names[id(node)] = name
        return name

    def _check(self, node, condition: str, message: str, error: str = "DomainFault"):
        """Fail where ``condition`` on the emitted ``node`` holds."""
        if not self.batch:
            self.lines.append(f"if {condition}: raise {_fault(error, message, self.point)}")
        elif id(node) in self.arrays:
            self.lines.append(f"if ({condition}).any(): return None")
        else:
            self.lines.append(f"if {condition}: return None")

    def _nonzero(self, node, name: str, message: str, error: str = "DomainFault"):
        """Check that ``node``, emitted as ``name``, is not 0, unless proven."""
        key = id(node)
        if (key in self.nonzero or key in self.positive
                or (isinstance(node, Num) and node.value != 0.0)):
            return
        self._check(node, f"{name} == 0.0", message, error)
        self.nonzero.add(key)

    def pivot(self, node, positive: bool = False):
        """Emit a pivot of g, which raises SingularMetric where it is 0, or
        where ``positive`` where it is not > 0; later divisions by it need no
        check."""
        name = self.ref(node)
        if not positive:
            self._nonzero(node, name, "metric singular at {x}", "SingularMetric")
        elif not (id(node) in self.positive or isinstance(node, Num) and node.value > 0.0):
            self._check(node, f"{name} <= 0.0", "metric not positive definite at {x}", "SingularMetric")
            self.positive.add(id(node))

    def _call(self, fn: str, arg: str, each: bool) -> str:
        return f"_each({fn}, {arg})" if each else f"{fn}({arg})"

    def _array(self, node, *operands) -> bool:
        """Whether ``node`` is an array in the batch: where an operand is."""
        each = any(id(operand) in self.arrays for operand in operands)
        if each:
            self.arrays.add(id(node))
        return each

    def _expression(self, node) -> str:
        if isinstance(node, Neg):
            u = self.ref(node.child)
            if self.batch:
                self._array(node, node.child)
            return f"-{u}"
        if isinstance(node, Call):
            u, key = self.ref(node.arg), id(node.arg)
            each = self.batch and self._array(node, node.arg)
            if node.fn == "log":
                if key not in self.positive:
                    self._check(node.arg, f"{u} <= 0.0", f"log of nonpositive argument {{{u}}}")
                    self.positive.add(key)
            elif node.fn == "sqrt":
                if key not in self.positive:
                    self._check(node.arg, f"{u} < 0.0", f"sqrt of negative argument {{{u}}}")
                    if self.strict:
                        self._check(node.arg, f"{u} == 0.0", "sqrt not differentiable at 0")
                        self.positive.add(key)
                if key in self.positive:
                    self.positive.add(id(node))
            if node.fn == "sign":
                return f"_where({u} >= 0.0, 1.0, -1.0)" if each else f"(1.0 if {u} >= 0.0 else -1.0)"
            if node.fn == "abs":
                return f"abs({u})"
            return self._call(f"_{node.fn}", u, each)
        a, b = self.ref(node.left), self.ref(node.right)
        each = self.batch and self._array(node, node.left, node.right)
        if node.op == "/":
            self._nonzero(node.right, b, "division by zero")
        elif node.op == "^":
            k = _lowered_integer_exponent(node)
            if k == 2:
                return f"{a} * {a}"
            if k is not None:
                return f"_each_power({a}, {k})" if each else f"{a} ** {k}"
            key = id(node.left)
            if key not in self.positive:
                self._check(node.left, f"{a} <= 0.0",
                            f"nonpositive base {{{a}}} for non-integer exponent")
                self.positive.add(key)
            log_a = self._call("_log", a, id(node.left) in self.arrays)
            return self._call("_exp", f"{b} * {log_a}", each)
        return f"{a} {node.op} {b}"


def _fault(error: str, message: str, point) -> str:
    """The source of the exception ``error`` whose message is the f-string
    ``message``, in which ``{x}`` is the point; a DomainFault or
    SingularMetric carries the point, built where it is raised, as its
    ``point``."""
    if point is None:
        return f"{error}(f{message!r})"
    located = "" if error == "OverflowError" else f", point=_point({point})"
    return f"{error}(f{message.replace('{x}', '{' + point + '}')!r}{located})"


def _each(fn, a: np.ndarray) -> np.ndarray:
    """fn applied to every element of the 1-D array a, as Python floats."""
    return np.fromiter(map(fn, a.tolist()), float, len(a))


def _each_power(a: np.ndarray, k: int) -> np.ndarray:
    """u ** k for every element u of the 1-D array a, as Python floats."""
    return np.array([u ** k for u in a.tolist()], dtype=float)


_COMPILED_GLOBALS = {
    "_array": np.array, "_empty": np.empty, "_where": np.where, "_each": _each,
    "_each_power": _each_power, "_contiguous": np.ascontiguousarray, "_inf": math.inf,
    "_point": functools.partial(np.array, dtype=float),
    "DomainFault": DomainFault, "SingularMetric": SingularMetric,
    **{f"_{fn}": getattr(math, fn) for fn in
       ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt")},
}


def _shape_and_leaves(nodes):
    if isinstance(nodes, (list, tuple)):
        parts = [_shape_and_leaves(item) for item in nodes]
        inner = parts[0][0] if parts else ()
        return (len(nodes),) + inner, [leaf for _, leaves in parts for leaf in leaves]
    return (), [nodes]


def _shallow(build):
    """``build``, raising BadParam where an expression is too deeply nested
    for its recursion over the tree."""
    @functools.wraps(build)
    def run(*args):
        try:
            return build(*args)
        except RecursionError:
            raise BadParam("expression too deeply nested to compile") from None
    return run


@_shallow
def compile_tensor(nodes, n: int, order: int):
    """Compile expressions in ``n`` coordinates to one straight-line function.

    ``nodes`` is one AST or nested lists of ASTs of shape S.  The result maps a
    float array x of length n to T (order 0), (T, dT) (order 1) or
    (T, dT, d2T) (order 2), where dT[k, ...] = d_k T and d2T[k, l, ...] =
    d_k d_l T, exactly symmetric in (k, l).  T is a Python float when S is (),
    and the derivatives are arrays of shape (n,) * order + S.  Evaluation
    raises DomainFault for log of x <= 0, sqrt of x < 0 (and of x = 0 when
    order >= 1), a zero denominator, ``a ^ -k`` at a = 0 and ``a ^ b`` at
    a <= 0 for b not an integer literal, naming x as its ``point``;
    OverflowError where ``^`` or a function overflows. A square ``a ^ 2`` is
    the correctly rounded product ``a * a`` in both forms (see ``_Emitter``).

    The function's ``batch`` attribute is its array form: on an (N, n) array
    X it returns the same outputs with a leading batch axis, each row bitwise
    the value at that row, or None where a check fails at some row (the
    per-point function then says which and why). It is compiled on its
    first call.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0, 1 or 2, not {order}")
    blocks = _derivative_blocks(_Graph(), nodes, n, order)
    name = f"order{order}"
    return _with_batch(_compile(name, n, _Emitter(order), blocks),
                       lambda: _compile(name, n, _Emitter(order, batch=True), blocks))


@_shallow
def _compile_profile(node):
    """Compile an expression in the one variable u to u -> (f, f', f''),
    a function of a Python float returning three Python floats.

    Its statements and checks are those of ``compile_tensor(node, 1, 2)``,
    in the same order, so it raises where that one does and its values are
    bitwise that one's. Its ``batch`` attribute is its array form: on a 1-D
    array U it returns the three as (N,) arrays, or None where a check fails
    at some element. It is compiled on its first call.
    """
    blocks = [((), flat) for _, flat in _derivative_blocks(_Graph(), node, 1, 2)]
    return _with_batch(_compile("profile", None, _Emitter(2, point=None), blocks),
                       lambda: _compile("profile", None, _Emitter(2, batch=True), blocks))


def compile_gamma(rows, n: int):
    """The connection fragment of an expression metric: the function
    ``connection_fragment(x, terms, rows=False)`` of
    ``manifold.MetricEvaluator``, whose statements set the names q to
    Gamma(v, w)^i = (1/2) g^im K_m(v, w), K_mjk = d_j g_mk - d_m g_jk +
    d_k g_mj, for each term (v, w, q), with no globals beyond the compiled
    ones. A name of x, v or w is any identifier but the fragment's own x0,
    x1, ... (the name x{i} at x[i] aside), and anything else is a literal.

    ``rows`` is the n x n nested list of coefficient ASTs, with rows[i][j] and
    rows[j][i] equal. On the first call the partials of g go on one graph,
    on which g z = y is an unrolled LDL^T solve, so that literal zeros of g
    fold away; LDL^T takes no square root, so an indefinite g is solved as
    by an inverse. The statements open with one preamble, emitted once per
    mode: every check of ``compile_tensor(rows, n, 1)`` in its order, so they
    raise DomainFault and OverflowError where that one does, and then every
    pivot of g, a zero one raising SingularMetric; a fault quotes x as a
    list and carries it as its ``point``, built inside the raise, and where
    ``rows`` a failing check returns None. Squares are products, as in
    ``compile_tensor``. A term whose w is its v is the spray, one solve of
    g z = (1/2) K_m(v, v); any other is (1/2) z for g z = K_m(v, w),
    products with a literal zero left out, so that the term (e_j, e_k) of
    unit literals is column (j, k) of Gamma and shares its solve with
    (e_k, e_j). A term whose w is None sets its n * n names q to the Jacobi
    operator B(v)_jl = low(v, e_j, v, e_l), row by row: d^2 g contracted
    with v and the solved columns Gamma(v, e_j), their sum over v^j for
    Gamma(v, v), on the same graph (see ``jacobi`` below), the second
    partials of g taken on its first use; before it, every pivot of g must
    be > 0, else SingularMetric. Terms alike in their names and literals
    share one emitted body, as the stages of a float step do.
    """
    @functools.cache
    def ldl():
        graph = _Graph()
        blocks = _derivative_blocks(graph, rows, n, 1)
        (_, g_flat), (_, dg_flat) = blocks
        g = [g_flat[i * n:(i + 1) * n] for i in range(n)]
        dg = [[dg_flat[(k * n + i) * n:(k * n + i + 1) * n] for i in range(n)]
              for k in range(n)]

        # g = L D L^T with L unit lower triangular: A[i][j] = L_ij D_j for i >= j
        # and D_j = A[j][j]; L[i][j] = A[i][j] / D_j
        A = [[None] * n for _ in range(n)]
        L = [[None] * n for _ in range(n)]
        for j in range(n):
            for i in range(j, n):
                a = g[i][j]
                for k in range(j):
                    a = graph.sub(a, graph.mul(L[i][k], A[j][k]))
                A[i][j] = a
            for i in range(j + 1, n):
                L[i][j] = graph.div(A[i][j], A[j][j])

        def solve(y):
            """z with g z = y, by the forward and back substitutions of L D L^T."""
            for i in range(n):
                for l in range(i):
                    y[i] = graph.sub(y[i], graph.mul(L[i][l], y[l]))
            z = [None] * n
            for i in reversed(range(n)):
                zi = graph.div(y[i], A[i][i])
                for l in range(i + 1, n):
                    zi = graph.sub(zi, graph.mul(L[l][i], z[l]))
                z[i] = zi
            return z

        def koszul(m, j, k):  # K_mjk for j <= k
            # d_m g_mk - d_m g_mk cancels exactly where m = j, and likewise m = k
            if m == j:
                return dg[k][m][m]
            if m == k:
                return dg[j][m][m]
            return graph.add(graph.sub(dg[j][m][k], dg[m][j][k]), dg[k][m][j])

        half = graph.num(0.5)

        def lowered(v, w):
            """The nodes of y = g Gamma(v, w) solved for: K_m(v, w), twice it,
            or (1/2) K_m(v, v) where w is v, the spray."""
            js, ks = ([j for j in range(n) if not _is_num(u[j], 0.0)] for u in (v, w))
            y = []
            for m in range(n):
                ym = graph.zero
                for j in js:
                    if w is v:  # (1/2) K_m(v, v) = sum_{j<k} K_mjk v_j v_k + (1/2) sum_j K_mjj v_j^2
                        ym = graph.add(ym, graph.mul(graph.mul(half, koszul(m, j, j)),
                                                     graph.mul(v[j], v[j])))
                    for k in ks:
                        if w is not v or k > j:
                            ym = graph.add(ym, graph.mul(koszul(m, min(j, k), max(j, k)),
                                                         graph.mul(v[j], w[k])))
                y.append(ym)
            return y

        def term(v, w):
            """The nodes of Gamma(v, w) for lists v and w of nodes."""
            z = solve(lowered(v, w))
            return z if w is v else [graph.mul(half, zi) for zi in z]

        unit = [[graph.one if i == j else graph.zero for i in range(n)] for j in range(n)]

        def jacobi(v):
            """The nodes of B(v)_jl = low(v, e_j, v, e_l), row by row, from
            R_lvjv = (1/2)(d_v d_j g_lv + d_l d_v g_vj - d_v d_v g_lj - d_l d_j g_vv)
            + g(Gamma(v, e_j), Gamma(v, e_l)) - g(Gamma(v, v), Gamma(e_l, e_j)),
            d_v = v^a d_a (do Carmo, ch. 4). With D_a,ij = d_a d_v g_ij, the first
            part is (1/2)(v^b (D_j,lb + D_l,jb) - v^a D_a,jl - d_j d_l g_vv); and
            g Gamma(v, e_l) = (1/2) K(v, e_l), g Gamma(e_l, e_j) = (1/2) K_.lj, so
            that the columns Gamma(v, e_j) are the only solves, and Gamma(v, v)
            is their sum over v^j. B is symmetric: its (l, j) is its (j, l)."""
            d2 = _derivative_blocks(graph, rows, n, 2)[2][1]

            def dd(a, b, i, j):  # d_a d_b g_ij
                return d2[((a * n + b) * n + i) * n + j]
            D = [[[graph.dot((dd(a, b, i, j), v[b]) for b in range(n)) for j in range(n)]
                  for i in range(n)] for a in range(n)]
            # g_vv = sum over a <= b of g_ab times these, v_a^2 or 2 v_a v_b
            vv = {(a, b): graph.mul(v[a], v[b]) for a in range(n) for b in range(a, n)}
            vv = {(a, b): p if a == b else graph.add(p, p) for (a, b), p in vv.items()}
            cols, kv = [term(v, e) for e in unit], [lowered(v, e) for e in unit]
            spray = [graph.dot((v[b], cols[b][m]) for b in range(n)) for m in range(n)]
            B = [[None] * n for _ in range(n)]
            for j in range(n):
                for l in range(j, n):
                    second = graph.sub(
                        graph.sub(graph.dot([(v[b], D[j][l][b]) for b in range(n)]
                                            + [(v[b], D[l][j][b]) for b in range(n)]),
                                  graph.dot((v[a], D[a][j][l]) for a in range(n))),
                        graph.dot((dd(j, l, a, b), p) for (a, b), p in vv.items()))
                    products = graph.dot((cols[j][m], kv[l][m]) for m in range(n))
                    curved = graph.dot((koszul(m, j, l), spray[m]) for m in range(n))
                    B[j][l] = B[l][j] = graph.mul(half, graph.sub(graph.add(second, products), curved))
            return [b for row in B for b in row]

        @functools.cache
        def preamble(batch):
            emit = _Emitter(1, batch, point=f"[{', '.join(f'x{i}' for i in range(n))}]")
            for _, block in blocks:  # every check of g and dg, before any pivot
                for node in block:
                    emit.ref(node)
            for j in range(n):
                emit.pivot(A[j][j])
            return emit

        return graph, term, jacobi, preamble, [A[j][j] for j in range(n)]

    @_shallow
    @functools.cache
    def body(batch, pattern):
        """The statements and the refs of every term's q for the terms of a
        pattern, their names the variables x{n + slot}."""
        graph, term, jacobi, preamble, pivots = ldl()
        emit = preamble(batch).fork()

        def nodes(vector):
            return [graph.lower(Var(n + f, "")) if isinstance(f, int) else graph.num(float(f))
                    for f in vector]
        refs = []
        for v, w, same in pattern:
            v = nodes(v)
            if w is None:
                for pivot in pivots:
                    emit.pivot(pivot, positive=True)
                refs.append([emit.ref(node) for node in jacobi(v)])
            else:
                refs.append([emit.ref(node) for node in term(v, v if same else nodes(w))])
        return (emit.lines if batch else _guarded(emit.lines, emit.point)), refs

    def fragment(x, terms, rows=False):
        slots = {}  # each name of a v or w, and its slot

        def code(vector):
            return None if vector is None else tuple(
                slots.setdefault(f, len(slots)) if f.isidentifier() else f for f in vector)
        lines, refs = body(rows, tuple((code(v), code(w), w is v) for v, w, _ in terms))
        head = [f"x{i} = {f}" for i, f in enumerate([*x, *slots]) if f != f"x{i}"]
        tail = [f"{name} = {ref}" for (*_, q), term_refs in zip(terms, refs)
                for name, ref in zip(q, term_refs)]
        return [*head, *lines, *tail], {}
    return fragment


def _derivative_blocks(graph, nodes, n: int, order: int):
    """(shape, flat nodes) for the lowered ASTs ``nodes`` of shape S and
    their partials up to ``order``, of shapes S, (n,) + S and (n, n) + S."""
    shape, leaves = _shape_and_leaves(nodes)
    values = [graph.lower(node) for node in leaves]
    blocks = [(shape, values)]
    if order >= 1:
        first = [[graph.partial(v, k) for v in values] for k in range(n)]
        blocks.append(((n,) + shape, [d for row in first for d in row]))
    if order >= 2:
        second = [graph.partial(first[min(k, l)][j], max(k, l))
                  for k in range(n) for l in range(n) for j in range(len(values))]
        blocks.append(((n, n) + shape, second))
    return blocks


def _compile(name: str, n, emit: _Emitter, blocks):
    """The function ``name(x)`` of a float array x of length n returning
    every (shape, flat nodes) block, a block of shape () as a float; in
    batch mode, of an (N, n) array x returning every block with a leading
    axis of length N. With n None, x is the one variable itself: a float,
    or in batch mode a 1-D array of N of them."""
    results = []
    for b, (shape, flat) in enumerate(blocks):
        refs = [emit.ref(node) for node in flat]
        if emit.batch:
            results.append(_gather(emit, f"_b{b}", shape, flat, refs))
        elif not shape:
            results.append(refs[0])
        else:
            text = f"_array([{', '.join(refs)}])"
            results.append(text if len(shape) == 1 else f"{text}.reshape({shape})")
    if n is None:
        head = "_N = len(x); x0 = x" if emit.batch else "x0 = x"
    elif emit.batch:
        head = f"_N = len(x); {_unpack(range(n))}= _contiguous(x.T)"
    else:
        head = f"{_unpack(range(n))}= x.tolist()"
    body = [head, *(emit.lines if emit.batch else _guarded(emit.lines, emit.point)),
            f"return {', '.join(results)}"]
    return _define(name, "x", body)


def _guarded(lines, point) -> list:
    """The statements ``lines`` of a per-point function, in a try where they
    call sin, cos or tan, whose ValueError at an infinite argument is then a
    DomainFault at the point (see ``_fault``); a try costs nothing until it
    catches."""
    if not any(f"_{fn}(" in line for line in lines for fn in ("sin", "cos", "tan")):
        return lines
    fault = _fault("DomainFault", "sin, cos or tan of an infinite argument at {x}", point)
    return ["try:", *(f"    {line}" for line in lines), "except ValueError:",
            f"    raise {fault} from None"]


def _gather(emit: _Emitter, out: str, shape, flat, refs) -> str:
    """Emit the statements that gather the emitted nodes ``flat`` of a block
    of shape S into one (M, N) array ``out``; the expression for it as a
    C-contiguous (N,) + S array, laid out as the per-point arrays are, so
    that a matmul over it takes their summation order."""
    if not shape:  # one node, an array or a float: ``out`` is the (N,) result itself
        emit.lines.append(f"{out} = _empty(_N); {out}[:] = {refs[0]}")
        return out
    arrays = [k for k, node in enumerate(flat) if id(node) in emit.arrays]
    floats = [k for k, node in enumerate(flat) if id(node) not in emit.arrays]
    emit.lines.append(f"{out} = _empty(({len(flat)}, _N))")
    if arrays:
        emit.lines.append(f"{out}[{arrays!r}] = ({''.join(refs[k] + ', ' for k in arrays)})")
    if floats:
        emit.lines.append(f"{out}[{floats!r}] = ({''.join(f'({refs[k]},), ' for k in floats)})")
    return f"_contiguous({out}.T).reshape((_N,) + {shape!r})"


def _with_batch(fn, compile_batch):
    """fn, whose ``batch`` attribute calls ``compile_batch()`` on its first
    call and is then the function that returned."""
    def first(x):
        fn.batch = _shallow(compile_batch)()
        return fn.batch(x)
    fn.batch = first
    return fn


def _unpack(indices) -> str:
    return "".join(f"x{i}, " for i in indices)


def _define(name: str, params: str, body, env=(), filename: str = "") -> object:
    """The function ``name(params)`` whose statements are the lines of ``body``,
    with the globals ``env`` beside the compiled ones. Under a ``filename``,
    its source stays in ``linecache`` while the function lives, so that a
    traceback through it shows each statement."""
    source = f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in body)
    namespace = {**_COMPILED_GLOBALS, **dict(env)}
    exec(compile(source, filename or "<riemannkit.expr compiled>", "exec"), namespace)
    fn = namespace[name]
    if filename:
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        weakref.finalize(fn, linecache.cache.pop, filename, None)
    return fn


@dataclass(frozen=True)
class DualValue2:
    value: float
    grad: np.ndarray
    hess: np.ndarray


@functools.lru_cache(maxsize=256)
def _compiled(node: Node, n: int, order: int):
    return compile_tensor(node, n, order)


def evaluate(node: Node, point) -> float:
    """The value at ``point``, from ``compile_tensor(node, len(point), 0)``."""
    point = np.asarray(point, dtype=float)
    return _compiled(node, len(point), 0)(point)


def eval2(node: Node, point) -> DualValue2:
    """Value, gradient and Hessian at ``point`` from compiled symbolic derivatives."""
    point = np.asarray(point, dtype=float)
    return DualValue2(*_compiled(node, len(point), 2)(point))
