"""Symbolic homotopy classes: spaces, generator symbols, words, formal sums.

A homotopy class is a formal integer combination of *terms*; a term is
either a composable word of symbols (read right to left: the rightmost
symbol is applied first) or a Whitehead-bracket node whose slots are
again elements.  Degree maps ``deg(k, n)`` (k times the identity of S^n)
are first-class word symbols so that scalars can travel through a
composite exactly where that is justified.

Everything is immutable; the rewrite engine lives in ``rewrite.py``.
"""

from __future__ import annotations

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
    kind: str          # "sphere" | "wedge" | "moore" | "named"
    data: tuple

    @property
    def key(self) -> str:
        if self.kind == "sphere":
            return f"S{self.data[0]}"
        if self.kind == "wedge":
            return "v".join(f"S{n}" for n in self.data)
        if self.kind == "moore":
            return f"P{self.data[0]}({self.data[1]})"
        name, params = self.data
        if params:
            return f"{name}({','.join(str(p) for p in params)})"
        return name

    def __repr__(self):
        return self.key


def sphere(n: int) -> Space:
    if n < 1:
        raise TermError("sphere dimension must be >= 1")
    return Space("sphere", (n,))


def wedge(*dims: int) -> Space:
    return Space("wedge", tuple(dims))


def moore(n: int, q: int) -> Space:
    if n < 3:
        raise TermError("mod-2^r Moore spaces here are simply connected: n >= 3")
    if q < 2 or q & (q - 1):
        raise TermError("Moore space order must be a power of two >= 2")
    return Space("moore", (n, q))


def named(name: str, *params: int) -> Space:
    return Space("named", (name, tuple(params)))


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
    text = text.strip()
    if "v" in text and re.fullmatch(r"S\d+(vS\d+)+", text):
        return wedge(*[int(p[1:]) for p in text.split("v")])
    m = re.fullmatch(r"S(\d+)", text)
    if m:
        return sphere(int(m.group(1)))
    if text == "CP2":
        return named("L4", 0)
    m = _SPACE_RE.match(text)
    if not m:
        raise TermError(f"bad space key: {text!r}")
    name, args = m.group(1), m.group(2)
    params = []
    if args:
        for a in args.split(","):
            params.append(eval_int_expr(a.strip(), env or {}))
    m2 = re.fullmatch(r"P(\d+)", name)
    if m2 and params:
        return moore(int(m2.group(1)), params[0])
    return named(name, *params)


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


def _power(base: int, e: int) -> int:
    if e < 0:
        raise TermError("negative exponent")
    return base**e


def eval_int_expr(text, env: dict) -> int:
    """Evaluate an integer expression like ``3*2^(r+1)`` in an environment.

    >>> eval_int_expr("3*2^(r+1)", {"r": 2})
    24
    >>> eval_int_expr("-2^m", {"m": 3})
    -8
    """
    if isinstance(text, int):
        return text
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
            return -atom()
        if t.isdigit():
            return int(t)
        if t in env:
            return int(env[t])
        raise TermError(f"unbound variable {t!r} in {text!r}")

    def power():
        v = atom()
        if peek() == "^":
            eat("^")
            return _power(v, atom())
        return v

    def muldiv():
        v = power()
        while peek() == "*":
            eat("*")
            v *= power()
        return v

    def addsub():
        v = muldiv()
        while peek() in ("+", "-"):
            if eat() == "+":
                v += muldiv()
            else:
                v -= muldiv()
        return v

    v = addsub()
    if pos != len(toks):
        raise TermError(f"trailing tokens in integer expression {text!r}")
    return v


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sym:
    """One generator or structural map, fully instantiated."""
    name: str
    params: tuple
    source: Space
    target: Space
    order: Optional[int] = None       # None = unknown, 0 = infinite
    is_susp: bool = False
    susp_name: Optional[str] = None   # symbol name of the suspension image
    desusp_name: Optional[str] = None

    def __post_init__(self):
        if self.name == "deg":
            r = f"deg({self.params[0]},{self.params[1]})"
        elif self.params:
            r = f"{self.name}({','.join(str(p) for p in self.params)})"
        else:
            r = self.name
        object.__setattr__(self, "_rendered", r)

    @property
    def key(self):
        return (self.name, self.params)

    def render(self) -> str:
        return self._rendered

    def __repr__(self):
        return self._rendered


def deg_sym(k: int, n: int) -> Sym:
    return Sym("deg", (int(k), n), sphere(n), sphere(n),
               order=None, is_susp=True)


@dataclass(frozen=True)
class Pair:
    """Co-pairing (f, g): S^n v S^m -> X given by f on the first summand
    and g on the second."""
    f: "Element"
    g: "Element"

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

    @property
    def name(self):
        return "pair"

    @property
    def is_susp(self):
        return False

    def render(self) -> str:
        return f"pair({self.f.render()}, {self.g.render()})"


# ---------------------------------------------------------------------------
# words and brackets
# ---------------------------------------------------------------------------

class Word:
    """A composable chain of symbols; empty chain = identity of ``space``."""

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
        return isinstance(other, Word) and self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("word", self.key()))
        return self._hash

    def __repr__(self):
        return f"<{self.render()}>"


class Bracket:
    """A Whitehead product node.

    Binary nodes are the single-valued generalized product of two classes
    defined on suspensions.  Nodes of arity >= 3 stand for a chosen
    representative of the corresponding set of higher products; ``tag``
    records where the representative came from.
    """

    __slots__ = ("slots", "tag")

    def __init__(self, slots: Sequence["Element"], tag: str = ""):
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
        self.tag = tag

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
        return Bracket.smash_source([s.source for s in self.slots])

    @property
    def target(self) -> Space:
        return self.slots[0].target

    def key(self):
        return ("bracket", tuple(s.key() for s in self.slots))

    def render(self) -> str:
        return "[" + ", ".join(s.render() for s in self.slots) + "]"

    def __eq__(self, other):
        return isinstance(other, Bracket) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"<{self.render()}>"


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class Element:
    """Formal integer combination of terms sharing one (source, target)."""

    __slots__ = ("source", "target", "terms", "is_suspension")

    def __init__(self, source: Space, target: Space, terms=(),
                 is_suspension: bool = False):
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
        self.is_suspension = is_suspension

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, source: Space, target: Space) -> "Element":
        return cls(source, target, ())

    @classmethod
    def from_term(cls, term, coeff: int = 1, is_suspension=False) -> "Element":
        return cls(term.source, term.target, ((term, coeff),),
                   is_suspension=is_suspension)

    @classmethod
    def identity(cls, sp: Space) -> "Element":
        return cls.from_term(Word((), sp), 1,
                             is_suspension=is_suspension_space(sp))

    # -- algebra -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, k: int) -> "Element":
        return Element(self.source, self.target,
                       [(t, k * c) for t, c in self.terms],
                       is_suspension=self.is_suspension)

    def __add__(self, other: "Element") -> "Element":
        if self.is_zero():
            src, tgt = other.source, other.target
        else:
            src, tgt = self.source, self.target
            if not other.is_zero() and (other.source != src or other.target != tgt):
                raise TermError("sum of elements with different spaces")
        return Element(src, tgt, list(self.terms) + list(other.terms),
                       is_suspension=self.is_suspension and other.is_suspension)

    def __neg__(self):
        return self.scale(-1)

    def single_word(self):
        """The (word, coeff) pair if this element is one word term."""
        if len(self.terms) == 1 and isinstance(self.terms[0][0], Word):
            return self.terms[0]
        return None

    def key(self):
        return (self.source.key, self.target.key,
                tuple((t.key(), c) for t, c in self.terms))

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


class TermParser:
    """Parser for the textual term syntax.

    Grammar (composition written ``.``, applied right to left):

        element  := signed ( ('+'|'-') signed )*
        signed   := product
        product  := primary ( '*' primary )*     -- numeric factors multiply
        primary  := INT | INT '^' intatom | NAME... | '(' element ')' | bracket
        factor   := name [ '(' intargs ')' ] ( '.' factor )*
        bracket  := '[' element ( ',' element )* ']'

    Names resolve through a symbol resolver (the fact catalog); ``iota_n``
    is the identity of S^n, ``deg(k, n)`` the degree-k self map of S^n,
    ``eta_k^j`` the j-fold eta composite starting at S^k.
    """

    def __init__(self, resolver, env: Optional[dict] = None):
        self.resolver = resolver
        self.env = dict(env or {})

    def parse(self, text: str) -> Element:
        self.toks = _tokenize_term(text)
        self.pos = 0
        el = self._element()
        if self.pos != len(self.toks):
            raise TermError(f"trailing tokens in {text!r}")
        return el

    # -- plumbing ------------------------------------------------------------

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _eat(self, tok=None):
        t = self._peek()
        if t is None or (tok is not None and t != tok):
            raise TermError(f"expected {tok!r}, got {t!r}")
        self.pos += 1
        return t

    # -- grammar -------------------------------------------------------------

    def _element(self) -> Element:
        el = self._product()
        while self._peek() in ("+", "-"):
            op = self._eat()
            rhs = self._product()
            el = el + (rhs if op == "+" else -rhs)
        return el

    def _product(self) -> Element:
        coeff = 1
        factor = None
        while True:
            c, f = self._primary()
            coeff *= c
            if f is not None:
                if factor is not None:
                    raise TermError("two map factors in one product; use '.'")
                factor = f
            nxt = self._peek()
            if nxt == "*":
                self._eat("*")
                continue
            # implicit product: a scalar directly followed by a class,
            # as in "2^r iota_2"
            if factor is None and nxt is not None and (
                    nxt == "[" or re.fullmatch(
                        r"[A-Za-z][A-Za-z0-9_~']*(\^\d+)?", nxt)):
                continue
            break
        if factor is None:
            raise TermError("pure scalar where a homotopy class was expected")
        return factor.scale(coeff)

    def _int_atom(self) -> int:
        t = self._eat()
        if t == "(":
            # small arithmetic inside parens: reuse eval on collected tokens
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
            return eval_int_expr(" ".join(collected), self.env)
        if t == "-":
            return -self._int_atom()
        if t.isdigit():
            return int(t)
        if t in self.env:
            return int(self.env[t])
        raise TermError(f"unbound scalar {t!r}")

    def _primary(self):
        """Returns (coeff, element-or-None)."""
        t = self._peek()
        if t is None:
            raise TermError("unexpected end of input")
        if t == "-":
            self._eat()
            c, f = self._primary()
            return -c, f
        if t == "(":
            self._eat("(")
            el = self._element()
            self._eat(")")
            return 1, el
        if t == "[":
            return 1, self._bracket()
        if t.isdigit():
            self._eat()
            v = int(t)
            if self._peek() == "^":
                self._eat("^")
                v = _power(v, self._int_atom())
            return v, None
        if re.fullmatch(r"[A-Za-z][A-Za-z0-9_~']*(\^\d+)?", t):
            if t in self.env:
                self._eat()
                v = int(self.env[t])
                if self._peek() == "^":
                    self._eat("^")
                    v = _power(v, self._int_atom())
                return v, None
            return 1, self._word()
        raise TermError(f"unexpected token {t!r}")

    def _word(self) -> Element:
        parts = [self._word_factor()]
        while self._peek() == ".":
            self._eat(".")
            parts.append(self._word_factor())
        # compose left-to-right as written: f.g means f after g
        el = parts[0]
        from . import rewrite  # local import to avoid a cycle
        for nxt in parts[1:]:
            el = rewrite.raw_concat(el, nxt)
        return el

    def _word_factor(self) -> Element:
        if self._peek() == "[":
            return self._bracket()
        return self._atom_map()

    def _atom_map(self) -> Element:
        name = self._eat()
        args = []
        if self._peek() == "(":
            self._eat("(")
            if name == "pair":
                f = self._element()
                self._eat(",")
                g = self._element()
                self._eat(")")
                return Element.from_term(Word((Pair(f, g),)))
            if name == "id":
                collected = []
                while self._peek() != ")":
                    collected.append(self._eat())
                self._eat(")")
                return Element.identity(
                    parse_space("".join(collected), self.env))
            while True:
                args.append(self._int_arg())
                if self._peek() == ",":
                    self._eat(",")
                    continue
                self._eat(")")
                break
        if name == "id":
            raise TermError("id takes a space key, e.g. id(S2)")
        return self.resolver(name, tuple(args), self.env)

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
        return eval_int_expr(" ".join(collected), self.env)

    def _bracket(self) -> Element:
        self._eat("[")
        slots = [self._element()]
        while self._peek() == ",":
            self._eat(",")
            slots.append(self._element())
        self._eat("]")
        from . import rewrite
        return rewrite.whitehead_raw(slots)
