"""Symbolic homotopy classes: spaces, generator symbols, words, formal sums.

A homotopy class is a formal integer combination of *terms*; a term is
either a composable word of symbols (read right to left: the rightmost
symbol is applied first) or a Whitehead-bracket node whose slots are
again elements.  Degree maps ``deg(k, n)`` (k times the identity of S^n)
are first-class word symbols so that scalars can travel through a
composite exactly where that is justified.

Everything is immutable; the rewrite engine lives in ``rewrite.py``.

Texts are compiled once per process.  On first use an integer
expression, a space key or a term text is tokenised and parsed into a
closure that only evaluates: ``eval_int_expr``, ``parse_space`` and
``TermParser.parse`` look the compiled form up by its text (a term by
its text and the names of it that the environment binds, which decide
scalar from symbol) and run it under the environment.  These tables hold
syntax only, never a parameter value, a catalog or a result, so they
serve every catalog alike; the elements a parse builds are cached per
catalog (``KbCatalog.parse_element``).
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from typing import Optional, Sequence


class TermError(ValueError):
    pass


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Space:
    """A space, compared by value.  The constructors below intern each
    value, so equal spaces are usually one object; its key and hash are
    computed once."""
    kind: str          # "sphere" | "wedge" | "moore" | "named"
    data: tuple

    def __post_init__(self):
        if self.kind == "sphere":
            key = f"S{self.data[0]}"
        elif self.kind == "wedge":
            key = "v".join(f"S{n}" for n in self.data)
        elif self.kind == "moore":
            key = f"P{self.data[0]}({self.data[1]})"
        else:
            name, params = self.data
            key = (f"{name}({','.join(str(p) for p in params)})" if params
                   else name)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash((self.kind, self.data)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Space:
            return NotImplemented
        return self.kind == other.kind and self.data == other.data

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.key


@functools.cache
def _space(kind: str, data: tuple) -> Space:
    """The interned space: a space is a value independent of any catalog,
    so one table serves the whole process."""
    return Space(kind, data)


def sphere(n: int) -> Space:
    if n < 1:
        raise TermError("sphere dimension must be >= 1")
    return _space("sphere", (n,))


def wedge(*dims: int) -> Space:
    return _space("wedge", tuple(dims))


def moore(n: int, q: int) -> Space:
    if n < 3:
        raise TermError("mod-2^r Moore spaces here are simply connected: n >= 3")
    if q < 2 or q & (q - 1):
        raise TermError("Moore space order must be a power of two >= 2")
    return _space("moore", (n, q))


def named(name: str, *params: int) -> Space:
    return _space("named", (name, tuple(params)))


def is_suspension_space(sp: Space) -> bool:
    """Whether the space is (recognized as) a suspension."""
    if sp.kind == "sphere":
        return sp.data[0] >= 2
    if sp.kind == "wedge":
        return all(n >= 2 for n in sp.data)
    return False


def suspend_space(sp: Space) -> Space:
    if sp.kind == "sphere":
        return sphere(sp.data[0] + 1)
    if sp.kind == "wedge":
        return wedge(*[n + 1 for n in sp.data])
    if sp.kind == "moore":
        return moore(sp.data[0] + 1, sp.data[1])
    name, params = sp.data
    return named("Sigma" + name, *params)


_SPACE_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\(([^()]*)\))?$")


def parse_space(text: str, env: Optional[dict] = None) -> Space:
    """Parse a space key such as ``S3``, ``S2vS5``, ``P3(2^r)``, ``L4(m)``."""
    return compile_space(text)(env or {})


@functools.cache
def compile_space(text: str):
    """The space key ``text`` compiled once: a closure ``env -> Space``
    that evaluates only its parameter expressions."""
    text = text.strip()
    if "v" in text and re.fullmatch(r"S\d+(vS\d+)+", text):
        sp = wedge(*[read_int(p[1:]) for p in text.split("v")])
        return lambda env: sp
    m = re.fullmatch(r"S(\d+)", text)
    if m:
        sp = sphere(read_int(m.group(1)))
        return lambda env: sp
    m = _SPACE_RE.match(text)
    if not m:
        raise TermError(f"bad space key: {text!r}")
    name, args = m.group(1), m.group(2)
    params = [compile_int_expr(a.strip()) for a in args.split(",")] if args \
        else []
    m2 = re.fullmatch(r"P(\d+)", name)
    if m2 and params:
        dim = read_int(m2.group(1))
        # every parameter is evaluated, as reading the key did; the first
        # is the order
        return lambda env: moore(dim, [p(env) for p in params][0])
    return lambda env: named(name, *[p(env) for p in params])


# ---------------------------------------------------------------------------
# integer expressions with parameters (used by the fact files and scripts)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z][A-Za-z0-9_]*|[()+\-*^])")


def _tokenize_expr(text: str):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise TermError(f"bad integer expression: {text!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


# the largest exponent evaluated: four times the largest that the shipped
# scripts reach (63, in 2^(r+1) at the parameter cap 62), so that text
# such as 2^99999999 is refused before it is evaluated
MAX_EXPONENT = 256
# the longest integer, in bits, that a power or a product may evaluate
# to: eight times the 125 the shipped scripts reach at the parameter cap
MAX_BITS = 1024


# the most digits a decimal literal may have: those of 2^MAX_BITS
MAX_DIGITS = len(str(2**MAX_BITS))


def _bounded(n: int) -> int:
    if n.bit_length() > MAX_BITS:
        raise TermError(f"integer of {n.bit_length()} bits is over {MAX_BITS}")
    return n


def read_int(text: str) -> int:
    """The decimal literal ``text``, as every text reads one: refused
    before ``int`` reads it if over ``MAX_DIGITS`` digits long, and after
    if over ``MAX_BITS`` bits."""
    if len(text) > MAX_DIGITS:
        raise TermError(f"integer literal of {len(text)} digits is over "
                        f"{MAX_DIGITS}")
    return _bounded(int(text))


def _power(base: int, e: int) -> int:
    if e < 0:
        raise TermError("negative exponent")
    if e > MAX_EXPONENT:
        raise TermError(f"exponent {e} is over {MAX_EXPONENT}")
    return _bounded(base**e)


def _arith(op, a, b):
    """The node ``op(a, b)`` of two integer nodes: a closure that
    evaluates ``a`` before ``b``, as reading left to right does."""
    return lambda env: op(a(env), b(env))


def _negate(a):
    return lambda env: -a(env)


def _const(n: int):
    return lambda env: n


def _variable(name: str, text: str):
    def read(env):
        try:
            return int(env[name])
        except KeyError:
            raise TermError(f"unbound variable {name!r} in {text!r}") from None
    return read


@functools.cache
def compile_int_expr(text: str):
    """The integer expression ``text`` compiled once into a closure
    ``env -> int``; a literal is a closure that returns it.

    Grammar: sums of products of powers ``atom ^ atom``, where an atom
    is a number, a variable, ``-atom`` or a parenthesised sum."""
    toks = _tokenize_expr(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def eat(tok=None):
        nonlocal pos
        t = peek()
        if t is None or (tok is not None and t != tok):
            raise TermError(f"bad integer expression: {text!r}")
        pos += 1
        return t

    def atom():
        t = eat()
        if t == "(":
            v = addsub()
            eat(")")
            return v
        if t == "-":
            return _negate(atom())
        if t.isdigit():
            return _const(read_int(t))
        if not t[0].isalpha():
            # an operator where an atom belongs reads as a name no
            # environment binds, as it always has
            raise TermError(f"unbound variable {t!r} in {text!r}")
        return _variable(t, text)

    def power():
        v = atom()
        if peek() == "^":
            eat("^")
            return _arith(_power, v, atom())
        return v

    def muldiv():
        v = power()
        while peek() == "*":
            eat("*")
            v = _arith(lambda a, b: _bounded(a * b), v, power())
        return v

    def addsub():
        v = muldiv()
        while peek() in ("+", "-"):
            op = operator.add if eat() == "+" else operator.sub
            v = _arith(op, v, muldiv())
        return v

    v = addsub()
    if pos != len(toks):
        raise TermError(f"trailing tokens in integer expression {text!r}")
    return v


def eval_int_expr(text: str, env: dict) -> int:
    """Evaluate an integer expression like ``3*2^(r+1)`` in an environment.

    >>> eval_int_expr("3*2^(r+1)", {"r": 2})
    24
    >>> eval_int_expr("-2^m", {"m": 3})
    -8
    """
    return compile_int_expr(text)(env)


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sym:
    """One generator or structural map, fully instantiated.

    Compared by value; a registry interns the symbols it makes, and
    ``deg_sym`` its degree maps, so equal symbols are usually one object.
    Its key, rendering and hash are computed once."""
    name: str
    params: tuple
    source: Space
    target: Space
    is_susp: bool = False

    def __post_init__(self):
        if self.params:
            r = f"{self.name}({','.join(str(p) for p in self.params)})"
        else:
            r = self.name
        object.__setattr__(self, "_rendered", r)
        object.__setattr__(self, "key", (self.name, self.params))
        object.__setattr__(self, "_hash", hash(self.key))

    def __hash__(self):
        return self._hash

    def render(self) -> str:
        return self._rendered

    def __repr__(self):
        return self._rendered


@functools.cache
def deg_sym(k: int, n: int) -> Sym:
    """The interned degree map; like a space, it belongs to no catalog."""
    return Sym("deg", (int(k), n), sphere(n), sphere(n), is_susp=True)


@dataclass(frozen=True)
class Pair:
    """Co-pairing (f, g): S^n v S^m -> X given by f on the first summand
    and g on the second."""
    f: "Element"
    g: "Element"
    # not a field: a symbol name no declaration can take, so that no fact
    # subject names a co-pairing
    name = "(pair)"
    is_susp = False

    @property
    def source(self) -> Space:
        sf = self.f.source
        sg = self.g.source
        if sf.kind != "sphere" or sg.kind != "sphere":
            raise TermError("pair maps are defined on wedges of spheres")
        return wedge(sf.data[0], sg.data[0])

    @property
    def target(self) -> Space:
        if self.f.target != self.g.target:
            raise TermError("pair components must share a target")
        return self.f.target

    def render(self) -> str:
        return f"pair({self.f.render()}, {self.g.render()})"


# ---------------------------------------------------------------------------
# words and brackets
# ---------------------------------------------------------------------------

class Word:
    """A composable chain of symbols; empty chain = identity of ``space``,
    which is ignored when ``syms`` is not empty."""

    __slots__ = ("syms", "space", "_key", "_render", "_hash")

    def __init__(self, syms: Sequence = (), space: Optional[Space] = None):
        self.syms = tuple(syms)
        if not self.syms:
            if space is None:
                raise TermError("identity word needs its space")
            self.space = space
        else:
            self.space = None
            for a, b in zip(self.syms, self.syms[1:]):
                if b.target != a.source:
                    raise TermError(
                        f"word break: {a.render()} after {b.render()} "
                        f"({b.target.key} != {a.source.key})")
        self._key = None
        self._render = None
        self._hash = None

    @property
    def source(self) -> Space:
        return self.syms[-1].source if self.syms else self.space

    @property
    def target(self) -> Space:
        return self.syms[0].target if self.syms else self.space

    def is_identity(self) -> bool:
        return not self.syms

    def key(self):
        """The rendered identity that normal forms are compared by; it
        ignores the spaces between symbols, which ``==`` does not."""
        if self._key is None:
            if not self.syms:
                self._key = ("id", self.space.key)
            else:
                self._key = tuple(
                    s.render() if not isinstance(s, Pair)
                    else ("pair", s.f.key(), s.g.key())
                    for s in self.syms)
        return self._key

    def render(self) -> str:
        if self._render is None:
            if not self.syms:
                self._render = f"id({self.space.key})"
            else:
                self._render = " . ".join(s.render() for s in self.syms)
        return self._render

    def __eq__(self, other):
        # symbol by symbol, spaces included, as ``Sym`` compares
        return (isinstance(other, Word) and self.syms == other.syms
                and self.space == other.space)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.syms, self.space))
        return self._hash

    def __repr__(self):
        return f"<{self.render()}>"


class Bracket:
    """A Whitehead product node.

    Binary nodes are the single-valued generalized product of two classes
    defined on suspensions.  Nodes of arity >= 3 stand for a chosen
    representative of the corresponding set of higher products.
    """

    __slots__ = ("slots", "_source", "_key", "_render", "_hash")

    def __init__(self, slots: Sequence["Element"]):
        if len(slots) < 2:
            raise TermError("brackets need at least two slots")
        tgt = slots[0].target
        for s in slots:
            if s.target != tgt:
                raise TermError("bracket slots must share a target")
            if not is_suspension_space(s.source):
                raise TermError(
                    f"bracket slot source {s.source.key} is not a suspension")
        self.slots = tuple(slots)
        self._source = self._key = self._render = self._hash = None

    @property
    def arity(self):
        return len(self.slots)

    @staticmethod
    def smash_source(slot_sources) -> Space:
        # Sigma^{n-1}(X_1 ^ ... ^ X_n) for slot sources Sigma X_i; sphere
        # slots give a sphere of dimension (n-1) + sum(d_i - 1), wedge
        # slots distribute over the smash.
        factor_dim_lists = []
        for sp in slot_sources:
            if sp.kind == "sphere":
                factor_dim_lists.append([sp.data[0] - 1])
            elif sp.kind == "wedge":
                factor_dim_lists.append([n - 1 for n in sp.data])
            else:
                raise TermError("bracket source needs sphere or wedge slots")
        n = len(slot_sources)
        combos = [0]
        for dims in factor_dim_lists:
            combos = [c + d for c in combos for d in dims]
        pieces = sorted(n - 1 + c for c in combos)
        if len(pieces) == 1:
            return sphere(pieces[0])
        return wedge(*pieces)

    @property
    def source(self) -> Space:
        if self._source is None:
            self._source = Bracket.smash_source([s.source for s in self.slots])
        return self._source

    @property
    def target(self) -> Space:
        return self.slots[0].target

    def key(self):
        if self._key is None:
            self._key = ("bracket", tuple(s.key() for s in self.slots))
        return self._key

    def render(self) -> str:
        if self._render is None:
            self._render = "[" + ", ".join(s.render()
                                           for s in self.slots) + "]"
        return self._render

    def __eq__(self, other):
        return isinstance(other, Bracket) and self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        return f"<{self.render()}>"


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class Element:
    """Formal integer combination of terms sharing one (source, target).

    ``terms`` is normal: each term once, no zero coefficient, sorted by
    rendering (transcripts show that order)."""

    __slots__ = ("source", "target", "terms", "_key")

    def __init__(self, source: Space, target: Space, terms=()):
        self.source = source
        self.target = target
        merged = {}
        for term, c in terms:
            if c == 0:
                continue
            if term.source != source or term.target != target:
                raise TermError(
                    f"term {term.render()} does not match element spaces "
                    f"{source.key} -> {target.key}")
            merged[term] = merged.get(term, 0) + int(c)
        items = [(t, c) for t, c in merged.items() if c != 0]
        if len(items) > 1:
            items.sort(key=lambda tc: tc[0].render())
        self.terms = tuple(items)
        self._key = None

    @classmethod
    def _normal(cls, source: Space, target: Space, terms: tuple) -> "Element":
        """The element of ``terms`` as they stand.  Trusted: the caller
        guarantees that they are normal and lie in ``source -> target``."""
        el = object.__new__(cls)
        el.source = source
        el.target = target
        el.terms = terms
        el._key = None
        return el

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, source: Space, target: Space) -> "Element":
        return cls._normal(source, target, ())

    @classmethod
    def from_term(cls, term, coeff: int = 1) -> "Element":
        return cls._normal(term.source, term.target,
                           ((term, int(coeff)),) if coeff else ())

    @classmethod
    def identity(cls, sp: Space) -> "Element":
        return cls.from_term(Word((), sp))

    # -- algebra -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, k: int) -> "Element":
        terms = tuple((t, int(k * c)) for t, c in self.terms) if k else ()
        return Element._normal(self.source, self.target, terms)

    def __add__(self, other: "Element") -> "Element":
        if other.source != self.source or other.target != self.target:
            raise TermError("sum of elements with different spaces")
        if not (self.terms and other.terms):
            return Element._normal(self.source, self.target,
                                   self.terms or other.terms)
        return Element(self.source, self.target, self.terms + other.terms)

    def single_word(self):
        """The (word, coeff) pair if this element is one word term."""
        if len(self.terms) == 1 and isinstance(self.terms[0][0], Word):
            return self.terms[0]
        return None

    def key(self):
        if self._key is None:
            self._key = (self.source.key, self.target.key,
                         tuple((t.key(), c) for t, c in self.terms))
        return self._key

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (t, c) in enumerate(self.terms):
            body = t.render()
            if isinstance(t, Word) and t.is_identity() and c not in (1, -1):
                frag = f"{abs(c)}*{body}"
            elif abs(c) == 1:
                frag = body
            else:
                frag = f"{abs(c)}*{body}"
            if i == 0:
                parts.append(frag if c > 0 else f"-{frag}")
            else:
                parts.append(f"+ {frag}" if c > 0 else f"- {frag}")
        return " ".join(parts)

    def __eq__(self, other):
        return (isinstance(other, Element) and self.source == other.source
                and self.target == other.target and self.terms == other.terms)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Element<{self.render()} : {self.source.key} -> {self.target.key}>"


def raw_concat(left: Element, right: Element) -> Element:
    """Textual composition left . right without normalization."""
    lw = left.single_word()
    rw = right.single_word()
    if lw is not None and rw is not None:
        (w1, c1), (w2, c2) = lw, rw
        return Element.from_term(Word(w1.syms + w2.syms, w2.space), c1 * c2)
    if lw is not None and len(right.terms) == 1:
        # a single map written in front of a bracket: binary naturality
        w1, c1 = lw
        term, c2 = right.terms[0]
        if isinstance(term, Bracket) and c1 in (1, -1) and term.arity == 2:
            head = Element.from_term(w1)
            slots = [raw_concat(head, s) for s in term.slots]
            return Element.from_term(Bracket(slots), c1 * c2)
    raise TermError("composition of composite sums must go through compose()")


# ---------------------------------------------------------------------------
# term grammar
# ---------------------------------------------------------------------------

_TERM_TOKEN = re.compile(
    r"\s*(\[|\]|\(|\)|\.|,|\+|-|\*|\^|\d+|[A-Za-z][A-Za-z0-9_~']*(?:\^\d+)?|')")


def _tokenize_term(text: str):
    out, pos = [], 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TERM_TOKEN.match(text, pos)
        if not m:
            raise TermError(f"cannot tokenize {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


@functools.cache
def _term_tokens(text: str) -> tuple:
    return tuple(_tokenize_term(text))


def _is_name(tok: str) -> bool:
    return tok[0].isalpha()


@functools.cache
def term_names(text: str) -> tuple:
    """Every name a parse of the term ``text`` may read from its
    environment: each name token, and the name a ``name^k`` token starts
    with (an integer argument reads it).  Whether the environment binds
    them decides the parse; their values are all it reads."""
    names = {}
    for tok in _term_tokens(text):
        if _is_name(tok):
            names[tok] = names[tok.partition("^")[0]] = None
    return tuple(names)


def compile_term(text: str, env) -> tuple:
    """The term ``text`` compiled for an environment that binds the names
    in ``env`` (a dict or a set): those names are scalars, any other is a
    symbol.  Compiled once per text and set of names into ``(template,
    symbols, variables)``: the template, each symbol it resolves as
    ``(name, argument count)`` and the names its integer arguments read."""
    return _compile_term(text, tuple(n for n in term_names(text) if n in env))


@functools.cache
def _compile_term(text: str, scalars: tuple):
    return _TermCompiler(text, frozenset(scalars)).compile()


class TermParser:
    """Parser for the textual term syntax.

    Grammar (composition written ``.``, applied right to left):

        element  := signed ( ('+'|'-') signed )*
        signed   := product
        product  := primary ( '*' primary )*     -- numeric factors multiply
        primary  := INT | INT '^' intatom | NAME... | '(' element ')' | bracket
        factor   := name [ '(' intargs ')' ] ( '.' factor )*
        bracket  := '[' element ( ',' element )* ']'

    Names resolve through a symbol resolver, ``resolve(name, params)``
    with the integer arguments evaluated (the fact catalog's); ``iota_n``
    is the identity of S^n, ``deg(k, n)`` the degree-k self map of S^n,
    ``eta_k^j`` the j-fold eta composite starting at S^k.  A name the
    environment binds is a scalar.

    ``parse`` instantiates the text's compiled template (``compile_term``)
    under the environment.
    """

    def __init__(self, resolver, env: Optional[dict] = None):
        self.resolver = resolver
        self.env = dict(env or {})

    def parse(self, text: str) -> Element:
        return compile_term(text, self.env)[0](self.resolver, self.env)


class _TermCompiler:
    """Recursive descent over the tokens of one term text, run once per
    text and set of scalar names, into what ``compile_term`` returns.  The
    template, a closure ``(resolver, env) -> Element``, evaluates the
    integer arguments, calls the resolver and builds composites
    (``raw_concat``) and brackets in the order a parse meets them.  Every
    syntax error is raised here."""

    def __init__(self, text: str, scalars: frozenset):
        self.text = text
        self.toks = _term_tokens(text)
        self.pos = 0
        self.scalars = scalars
        self.symbols = []         # (name, argument count)
        self.variables = set()    # names integer arguments read

    def compile(self):
        el = self._element()
        if self.pos != len(self.toks):
            raise TermError(f"trailing tokens in {self.text!r}")
        return el, tuple(self.symbols), frozenset(self.variables)

    # -- plumbing ------------------------------------------------------------

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _eat(self, tok=None):
        t = self._peek()
        if t is None:
            raise TermError(f"unexpected end of input in {self.text!r}")
        if tok is not None and t != tok:
            raise TermError(f"expected {tok!r}, got {t!r}")
        self.pos += 1
        return t

    # -- grammar -------------------------------------------------------------

    def _element(self):
        first = self._product()
        rest = []
        while self._peek() in ("+", "-"):
            op = self._eat()
            rest.append((op == "+", self._product()))
        if not rest:
            return first

        def element(resolve, env):
            el = first(resolve, env)
            for plus, product in rest:
                rhs = product(resolve, env)
                el = el + (rhs if plus else rhs.scale(-1))
            return el
        return element

    def _product(self):
        items = []        # integer nodes and the one class, as written
        factor, sign = None, 1
        while True:
            c, f = self._primary()
            if f is None:
                items.append(c)
            else:
                if factor is not None:
                    raise TermError("two map factors in one product; use '.'")
                factor, sign = f, c
                items.append(f)
            nxt = self._peek()
            if nxt == "*":
                self._eat("*")
                continue
            # implicit product: a scalar directly followed by a class,
            # as in "2^r iota_2"
            if factor is None and nxt is not None and (
                    nxt == "[" or _is_name(nxt)):
                continue
            break
        if factor is None:
            raise TermError("pure scalar where a homotopy class was expected")
        if len(items) == 1 and sign == 1:
            return factor

        def product(resolve, env):
            coeff, el = sign, None
            for i in items:
                if i is factor:
                    el = factor(resolve, env)
                else:
                    coeff = _bounded(coeff * i(env))
            return el.scale(coeff)
        return product

    def _int_atom(self):
        t = self._eat()
        if t == "(":
            # small arithmetic inside parens: an integer expression of the
            # collected tokens
            depth = 1
            collected = []
            while depth:
                tok = self._eat()
                if tok == "(":
                    depth += 1
                elif tok == ")":
                    depth -= 1
                    if not depth:
                        break
                collected.append(tok)
            return self._int_expr(collected)
        if t == "-":
            return _negate(self._int_atom())
        if t.isdigit():
            return _const(read_int(t))
        if t in self.scalars:
            return _variable(t, self.text)
        raise TermError(f"unbound scalar {t!r}")

    def _primary(self):
        """(integer node, None) or (sign, template)."""
        t = self._peek()
        if t is None:
            raise TermError(f"unexpected end of input in {self.text!r}")
        if t == "-":
            self._eat()
            c, f = self._primary()
            return (_negate(c), None) if f is None else (-c, f)
        if t == "(":
            self._eat("(")
            el = self._element()
            self._eat(")")
            return 1, el
        if t == "[":
            return 1, self._bracket()
        if t.isdigit() or t in self.scalars:
            self._eat()
            v = _const(read_int(t)) if t.isdigit() else _variable(t, self.text)
            if self._peek() == "^":
                self._eat("^")
                v = _arith(_power, v, self._int_atom())
            return v, None
        if _is_name(t):
            return 1, self._word()
        raise TermError(f"unexpected token {t!r}")

    def _word(self):
        parts = [self._word_factor()]
        while self._peek() == ".":
            self._eat(".")
            parts.append(self._word_factor())
        if len(parts) == 1:
            return parts[0]

        def word(resolve, env):
            els = [part(resolve, env) for part in parts]
            # compose left-to-right as written: f.g means f after g
            el = els[0]
            for nxt in els[1:]:
                el = raw_concat(el, nxt)
            return el
        return word

    def _word_factor(self):
        if self._peek() == "[":
            return self._bracket()
        return self._atom_map()

    def _atom_map(self):
        name = self._eat()
        if not _is_name(name):
            raise TermError(f"expected a symbol name, got {name!r} in "
                            f"{self.text!r}")
        args = []
        if self._peek() == "(":
            self._eat("(")
            if name == "id":
                collected = []
                while self._peek() != ")":
                    collected.append(self._eat())
                self._eat(")")
                space = compile_space("".join(collected))
                return lambda resolve, env: Element.identity(space(env))
            while True:
                args.append(self._int_arg())
                if self._peek() == ",":
                    self._eat(",")
                    continue
                self._eat(")")
                break
        if name == "id":
            raise TermError("id takes a space key, e.g. id(S2)")
        self.symbols.append((name, len(args)))
        return lambda resolve, env: resolve(
            name, tuple(a(env) for a in args))

    def _int_arg(self):
        # integer expression until ',' or ')'
        collected = []
        depth = 0
        while True:
            t = self._peek()
            if t is None:
                raise TermError("unterminated argument list")
            if depth == 0 and t in (",", ")"):
                break
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
            collected.append(self._eat())
        return self._int_expr(collected)

    def _int_expr(self, toks):
        """The integer node of ``toks``, noting the variables it reads."""
        self.variables.update(t.partition("^")[0] for t in toks if _is_name(t))
        return compile_int_expr(" ".join(toks))

    def _bracket(self):
        self._eat("[")
        slots = [self._element()]
        while self._peek() == ",":
            self._eat(",")
            slots.append(self._element())
        self._eat("]")
        return lambda resolve, env: Element.from_term(
            Bracket([slot(resolve, env) for slot in slots]))
