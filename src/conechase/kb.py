"""Provenance-tagged catalog of research-level inputs.

The shipped facts file is a line-oriented text format, one declaration or
fact per line, chosen so the provenance of every certified statement is
diff-reviewable:

    symbol <name>[(vars)] : <source> -> <target> [susp] [susp_to=<name>]
    fibration <name>[(vars)] : [<class>] bottom=<word> [skeleton=<word>]
    fact <kind> | <subject> [? <guard>] | <payload> | <trust> | <quote> | <locator>

A fibration line declares the fiber <name>(vars) of the pinch map
C_f -> Sigma X of the cone on f : X -> Y: <class> is f (omitted when a
derivation passes it as ``attach=``), ``bottom`` includes Y and
``skeleton`` a wedge skeleton into the fiber; the base is Sigma X.  Like
a symbol it is a declaration, not a fact: never cited, counted or
removed with facts.  Loading instantiates it with every parameter 1 and
checks that each map parses and ends where it must.

Kinds: group, relation, boundary_value, lift_certificate,
suspension_value, map_identity.  Every fact carries a non-empty citation
quote (<= 200 chars).

Fact variables (r, m, s, ...) are bound by matching, never guessed.  At
load time each subject is compiled into a pattern: its head symbols with
their argument expressions, plus the guard.  A lookup matches the pattern
against the concrete word, space or fibration at hand: a bare variable
binds to the value in its position (consistently where it occurs twice),
``2^v`` binds ``v`` to the exponent of a power of two, and any other
expression, a digit included, must evaluate to the value once its
variables are bound; then the guard must hold.  The payload is parsed
with that binding plus the values that the lookup's rule context (the
one holder of token values) gives the swept tokens it mentions: sign
(+-1), eps (0/1) and the opaque integers x, y (y odd).  Derivations are
swept over those tokens and must not depend on them; a fact records
which of them its payload mentions (``KbFact.tokens``), so a run knows
which tokens it read.

Loading rejects a symbol whose parameters are not distinct names, whose
name the term parser resolves as a built-in (``deg``, ``iota_n``,
``eta_n``, ``eta_k^j``), and a symbol or fibration line that gives a
``key=value`` attribute twice.  ``susp_to=`` declares a suspension pair
once (``SymbolRegistry._check_susp_to``); the registry derives the
inverse, which desuspends a symbol declared ``susp``.

It rejects a fact whose subject or payload names an undeclared symbol or
uses a symbol with the wrong number of parameters, whose degree is not
an integer, or whose subject or guard mentions a variable that matching
cannot bind, and a boundary value or transport on an undeclared
fibration or through an undeclared map.  It compiles each payload term
under the names it will be instantiated with, the fact variables and
the swept tokens it names, so a payload that does not parse is a load
error too; the compiler reports the symbols the term resolves and the
variables its integer arguments read, and those are checked.  Subjects,
guards and payloads are split and compiled through process-wide tables
keyed by their text (syntax only); what they match and build stays with
the catalog and its registry.  The class of a boundary value or lift
certificate is a fixed class of a sphere and takes no variables.

Facts that the rewrite engine can derive on its own must not be stored:
loading refuses a boundary value on a class that ``rewrite.desuspend``,
the test the boundary rule applies, desuspends.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import operator
import re
from dataclasses import dataclass, field
from typing import Optional

from .groups import TwoLocalGroup, canonical_order, strip_odd
from .terms import (
    MAX_EXPONENT,
    Bracket,
    Element,
    Space,
    Sym,
    TermError,
    TermParser,
    Word,
    compile_int_expr,
    compile_space,
    compile_term,
    deg_sym,
    eval_int_expr,
    named,
    parse_space,
    read_int,
    sphere,
    suspend_space,
    term_names,
)
from . import rewrite


class KbError(ValueError):
    pass


class KbMissingFact(KbError):
    """A lookup needed a certified fact that the catalog does not hold."""


# ---------------------------------------------------------------------------
# symbol registry
# ---------------------------------------------------------------------------

@dataclass
class SymbolSpec:
    name: str
    vars: tuple
    source_pat: str
    target_pat: str
    is_susp: bool = False
    susp_to: Optional[str] = None
    line: int = 0

    @property
    def nvars(self):
        return len(self.vars)

    def serialize(self) -> str:
        return " ".join(filter(None, [
            f"symbol {_decl_head(self.name, self.vars)} : {self.source_pat} "
            f"-> {self.target_pat}",
            self.is_susp and "susp",
            self.susp_to and f"susp_to={self.susp_to}"]))


@dataclass(frozen=True)
class FibrationSpec:
    """A ``fibration`` line; ``attach`` is None when a script supplies
    the attaching class."""
    name: str
    vars: tuple
    attach: Optional[str]
    bottom: str
    skeleton: Optional[str]
    line: int

    def serialize(self) -> str:
        return " ".join(filter(None, [
            f"fibration {_decl_head(self.name, self.vars)} :", self.attach,
            f"bottom={self.bottom}",
            self.skeleton and f"skeleton={self.skeleton}"]))


def _decl_head(name: str, vars_: tuple) -> str:
    return f"{name}({','.join(vars_)})" if vars_ else name


_ETA_POW = re.compile(r"^eta_(\d+)\^(\d+)$")
_FACTOR = re.compile(r"([A-Za-z][A-Za-z0-9_~']*(?:\^\d+)?)\s*(?:\((.*)\))?")
_ETA = re.compile(r"^eta_(\d+)$")
_IOTA = re.compile(r"^iota_(\d+)$")
# the names the term parser resolves without a declaration
_BUILTIN = re.compile(r"deg|iota_\d+|eta_\d+(?:\^\d+)?")


@functools.cache
def _word_factors(text: str) -> tuple:
    """(name, argument expressions) of each factor of a word written in a
    fact subject."""
    factors = []
    for factor in split_top(text, "."):
        m = _FACTOR.fullmatch(factor)
        if not m:
            raise KbError(f"bad word {text.strip()!r}")
        name, argtext = m.groups()
        factors.append((name, split_top(argtext, ",") if argtext is not None
                        else ()))
    return tuple(factors)


@functools.cache
def _eta_sym(n: int) -> Sym:
    """The interned Hopf map: built in, so it belongs to no catalog."""
    if n < 2:
        raise KbError("eta_n needs n >= 2")
    return Sym("eta_%d" % n, (), sphere(n + 1), sphere(n), is_susp=n >= 3)


class SymbolRegistry:
    """Instantiates symbols from declarations plus built-in families, and
    holds the fibration declarations.

    A registry is built from the ``symbol`` and ``fibration`` lines of a
    facts file, as (line number, text) pairs, which it declares and
    checks; everything it keeps after is a function of them and of the
    facts compiled under it: the symbols it interns and each fact's
    pattern (``patterns``), keyed by the fact, every field and the line
    included.  So catalogs with the same declarations
    share one registry exactly: ``without_facts`` copies and views do,
    and so do the loads that find it in ``_registry``.

    It is the one owner of the suspension relation: ``susp_to=`` declares
    each pair once, and ``_desusp``, its inverse, is built from the
    checked declarations before any symbol is made, so no symbol depends
    on the order of the lines."""

    def __init__(self, declarations: tuple):
        self.specs = {}
        self.fibrations = {}
        self._symbols = {}        # (name, params) -> the one Sym made
        self._resolved = {}       # (name, params) -> the one Element made
        self.patterns = {}        # KbFact -> its FactPattern
        self._desusp = {}         # susp_to= target -> the symbol naming it
        for lineno, text in declarations:
            if text.startswith("symbol "):
                self._declare_symbol(lineno, text)
            else:
                self._declare_fibration(lineno, text)
        for spec in self.specs.values():
            if spec.susp_to is not None:
                self._check_susp_to(spec)
        for spec in self.fibrations.values():
            self._check_fibration(spec)

    def _declare_symbol(self, lineno: int, text: str):
        m = _SYMBOL_RE.match(text)
        if not m:
            raise KbError(f"line {lineno}: bad symbol declaration")
        name, vars_, src, tgt, extras = m.groups()
        spec = SymbolSpec(name, _varnames(vars_, lineno), src, tgt,
                          line=lineno)
        words = extras.split()
        for tok in words:
            key, eq, value = tok.partition("=")
            if tok == "susp":
                spec.is_susp = True
            elif eq and key == "susp_to":
                spec.susp_to = value
            else:
                raise KbError(f"line {lineno}: bad symbol attribute {tok!r}")
        _keyed_once(words, lineno)
        try:
            if _BUILTIN.fullmatch(name):
                raise KbError(f"{name!r} is a built-in symbol")
            if name in self.specs:
                raise KbError(f"symbol {name!r} declared twice")
            self.specs[name] = spec
            compile_space(src)
            compile_space(tgt)
        except (KbError, TermError) as e:
            raise KbError(f"line {lineno}: {e}") from e

    def _check_susp_to(self, spec: SymbolSpec):
        """The symbol ``spec``'s ``susp_to=`` names must be declared, take
        as many parameters, map between the suspended spaces with every
        parameter 1, and be named by no other ``susp_to=``."""
        image = self.specs.get(spec.susp_to)
        try:
            if image is None:
                raise KbError(f"unknown symbol {spec.susp_to!r}")
            if image.nvars != spec.nvars:
                raise KbError(f"{image.name} takes {image.nvars} "
                              f"parameter(s), not {spec.nvars}")
            ends = [parse_space(pat, dict.fromkeys(s.vars, 1))
                    for s in (spec, image)
                    for pat in (s.source_pat, s.target_pat)]
            want = [suspend_space(end) for end in ends[:2]]
            if want != ends[2:]:
                raise KbError(f"{image.name} maps {ends[2].key} -> "
                              f"{ends[3].key}, not {want[0].key} -> "
                              f"{want[1].key}")
            other = self._desusp.setdefault(image.name, spec.name)
            if other != spec.name:
                raise KbError(f"{image.name} is already the suspension of "
                              f"{other} (line {self.specs[other].line})")
        except (KbError, TermError) as e:
            raise KbError(f"line {spec.line}: susp_to={spec.susp_to}: {e}") \
                from e

    def _declare_fibration(self, lineno: int, text: str):
        m = _FIBRATION_RE.match(text)
        words = m.group(3).split() if m else []
        attrs = dict(w.split("=", 1) for w in words if "=" in w)
        if not m or "bottom" not in attrs or \
                not attrs.keys() <= {"bottom", "skeleton"}:
            raise KbError(f"line {lineno}: bad fibration declaration")
        _keyed_once(words, lineno)
        if m.group(1) in self.fibrations:
            raise KbError(f"line {lineno}: fibration {m.group(1)!r} "
                          "declared twice")
        self.fibrations[m.group(1)] = FibrationSpec(
            m.group(1), _varnames(m.group(2), lineno),
            " ".join(w for w in words if "=" not in w) or None,
            attrs["bottom"], attrs.get("skeleton"), lineno)

    def _check_fibration(self, spec: FibrationSpec):
        """Instantiated with every parameter 1, a declaration's bottom and
        skeleton must map into the fiber and its class to the bottom."""
        params = (1,) * len(spec.vars)
        try:
            f, bottom, skeleton = self.fibration_maps(spec.name, params,
                                                      self.parse)
        except (KbError, TermError) as e:
            raise KbError(f"line {spec.line}: {e}") from e
        fiber = named(spec.name, *params)
        for el, end in ((bottom, fiber), (skeleton, fiber),
                        (f, bottom.source)):
            if el is not None and el.target != end:
                raise KbError(f"line {spec.line}: {el.render()} ends on "
                              f"{el.target.key}, not on {end.key}")

    def fibration_spec(self, name: str, params: tuple) -> FibrationSpec:
        """The declaration of ``name``, checked against ``params``."""
        spec = self.fibrations.get(name)
        if spec is None:
            raise KbError(f"unknown fibration {name!r}")
        if len(params) != len(spec.vars):
            raise KbError(f"{name} expects {len(spec.vars)} parameter(s)")
        return spec

    def fibration_maps(self, name: str, params: tuple, parse):
        """(attaching class or None, bottom inclusion, skeleton inclusion or
        None) of the declared fibration ``name(params)``, each read by
        ``parse(text, env)``."""
        spec = self.fibration_spec(name, params)
        env = dict(zip(spec.vars, params))
        return tuple(text and parse(text, env)
                     for text in (spec.attach, spec.bottom, spec.skeleton))

    def parse(self, text: str, env: dict) -> Element:
        """The element of the stripped text ``text`` under ``env``."""
        if text == "0":
            raise KbError("a bare 0 payload needs spaces from context")
        return TermParser(self.resolve, env).parse(text)

    def make(self, name: str, params: tuple) -> Sym:
        """The symbol ``name(params)``, built once per registry: ``deg``,
        ``eta_n`` or a declared one, called as ``check_symbol`` requires.
        A failed call keeps nothing."""
        params = tuple(params)
        s = self._symbols.get((name, params))
        if s is None:
            self._check_call(name, params)
            s = self._symbols[(name, params)] = self._build(name, params)
        return s

    def _build(self, name: str, params: tuple) -> Sym:
        if name == "deg":
            return deg_sym(*params)
        spec = self.specs.get(name)
        if spec is None:
            return _eta_sym(read_int(_ETA.fullmatch(name).group(1)))
        env = dict(zip(spec.vars, params))
        src = parse_space(spec.source_pat, env)
        tgt = parse_space(spec.target_pat, env)
        return Sym(name, params, src, tgt, is_susp=spec.is_susp)

    def resolve(self, name: str, params: tuple) -> Element:
        """Resolver used by the term parser: the element of ``name(params)``,
        built once per registry, as ``make`` builds its symbol.  A failed
        call keeps nothing."""
        el = self._resolved.get((name, params))
        if el is None:
            el = self._resolved[(name, params)] = self._element(name, params)
        return el

    def _element(self, name: str, params: tuple) -> Element:
        self._check_call(name, params)
        m = _IOTA.fullmatch(name)
        if m:
            return Element.identity(sphere(read_int(m.group(1))))
        m = _ETA_POW.fullmatch(name)
        if m:
            k, j = read_int(m.group(1)), read_int(m.group(2))
            if j > MAX_EXPONENT:
                raise TermError(f"exponent {j} is over {MAX_EXPONENT}")
            # eta_k^j is the composite eta_k . eta_{k+1} . ... (j factors)
            return Element.from_term(
                Word(tuple(_eta_sym(k + i) for i in range(j))))
        return Element.from_term(Word((self.make(name, params),)))

    def word_pattern(self, text: str):
        """(symbol names, argument expressions) of a word written in a
        fact subject, each name resolved as the term parser resolves it:
        a factor without arguments is resolved, and carries the names of
        its word (``rewrite.word_names``).  An identity ``iota_n`` has
        the single name ``id(Sn)``, which a word of identities keeps."""
        names, exprs, ident = [], [], None
        for name, args in _word_factors(text):
            self.check_symbol(name, len(args))
            if args:
                names.append(name)
                exprs.extend(args)
                continue
            word = self.resolve(name, ()).terms[0][0]
            if word.syms:
                names.extend(rewrite.word_names(word))
            else:
                ident = rewrite.word_names(word)
        return tuple(names) or ident, tuple(exprs)

    def _arity(self, name: str) -> Optional[int]:
        """The parameter count of the symbol the term parser resolves
        ``name`` to, or None if it resolves none."""
        if _BUILTIN.fullmatch(name):
            return 2 if name == "deg" else 0
        spec = self.specs.get(name)
        return spec.nvars if spec is not None else None

    def check_symbol(self, name: str, nargs: int) -> None:
        """Raise unless the term parser resolves ``name`` with ``nargs``
        parameters."""
        arity = self._arity(name)
        if arity is None:
            raise KbError(f"unknown symbol {name!r}")
        if nargs != arity:
            raise KbError(f"{name} expects {arity} parameter(s)")

    def _check_call(self, name: str, params: tuple) -> None:
        """``check_symbol`` for a run: there an unknown name is a missing
        fact."""
        if self._arity(name) is None:
            raise KbMissingFact(f"KB fact required: unknown symbol {name!r}")
        self.check_symbol(name, len(params))

    def suspension_image(self, s: Sym) -> Optional[Sym]:
        """Sigma of ``s``: ``deg(k,n+1)``, ``eta_(n+1)`` or the symbol its
        declaration's ``susp_to=`` names; None for any other."""
        if s.name == "deg":
            return deg_sym(s.params[0], s.params[1] + 1)
        spec = self.specs.get(s.name)
        if spec is not None:
            return spec.susp_to and self.make(spec.susp_to, s.params)
        if _ETA.fullmatch(s.name):
            return _eta_sym(s.target.data[0] + 1)
        return None

    def desuspension_image(self, s: Sym) -> Optional[Sym]:
        """The symbol whose suspension is ``s``: ``deg(k,n-1)`` for n > 2,
        and for a ``susp`` symbol ``eta_(n-1)`` or the symbol whose
        ``susp_to=`` names it; None for any other."""
        if s.name == "deg":
            if s.params[1] <= 2:
                return None
            return deg_sym(s.params[0], s.params[1] - 1)
        if not s.is_susp:
            return None
        if s.name in self._desusp:
            return self.make(self._desusp[s.name], s.params)
        if _ETA.fullmatch(s.name):    # no declaration takes such a name
            return _eta_sym(s.target.data[0] - 1)
        return None


# ---------------------------------------------------------------------------
# facts
# ---------------------------------------------------------------------------

VALID_KINDS = ("group", "relation", "boundary_value", "lift_certificate",
               "suspension_value", "map_identity")
VALID_TRUST = ("paper", "classical_table", "derived")
# each swept token and the values the sweep gives it, the canonical first.
# sign is +-1 and eps 0 or 1: the samples are the whole domain.  x is any
# integer: 0, where its term drops out, and -1, of the other sign.  y is
# any odd integer: 1 and -3, odd values of either sign.  For x and y the
# sweep samples an infinite domain, a check and not a proof for every value.
SWEPT_VALUES = {"sign": (1, -1), "eps": (0, 1), "x": (0, -1), "y": (1, -3)}
SWEPT_TOKENS = tuple(SWEPT_VALUES)
_SWEPT_TOKEN = re.compile(r"(?<!\w)(%s)(?!\w)" % "|".join(SWEPT_TOKENS))


@functools.cache
def swept_tokens(text: str) -> frozenset:
    """The swept tokens ``text`` names."""
    return frozenset(_SWEPT_TOKEN.findall(text))


def unbound_names(text: str, variables) -> list:
    """The names the integer expression ``text`` reads outside
    ``variables``, sorted; a malformed ``text`` is a ``TermError``."""
    compile_int_expr(text)
    return sorted(set(_VAR.findall(text)).difference(variables))


@dataclass(frozen=True)
class KbFact:
    kind: str
    subject: str
    guard: str
    payload: str
    trust: str
    quote: str
    locator: str
    line: int
    # the swept tokens the payload mentions, the only ones a run that
    # consumes this fact can depend on through it
    tokens: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "tokens", swept_tokens(self.payload))

    def note(self) -> str:
        return (f"{self.kind} [{self.trust}] {self.subject}: {self.payload}"
                f' :: "{self.quote}" ({self.locator})')

    def serialize(self) -> str:
        subj = self.subject + (f" ? {self.guard}" if self.guard else "")
        return (f"fact {self.kind} | {subj} | {self.payload} | {self.trust}"
                f" | {self.quote} | {self.locator}")


_GUARD_RE = re.compile(
    r"\s*([A-Za-z][A-Za-z0-9_]*)\s*(<=|>=|=|<|>)\s*(-?\d+|[A-Za-z][A-Za-z0-9_]*)\s*")
_COMPARE = {"<=": operator.le, ">=": operator.ge, "=": operator.eq,
            "<": operator.lt, ">": operator.gt}


@functools.cache
def compile_guard(guard: str) -> tuple:
    """The clauses ``(name, comparison, bound)`` of a guard such as
    ``s>=1, s<=r``, parsed once per text; ``bound`` is an integer or a
    name.  The empty guard has no clause."""
    clauses = []
    for clause in guard.split(",") if guard else ():
        m = _GUARD_RE.fullmatch(clause)
        if not m:
            raise KbError(f"bad guard {guard!r}")
        name, op, rhs = m.groups()
        clauses.append((name, _COMPARE[op],
                        rhs if _VAR.fullmatch(rhs) else read_int(rhs)))
    return tuple(clauses)


def guard_holds(guard: str, env: dict) -> bool:
    """Whether every clause holds; a clause on a name ``env`` lacks does
    not."""
    for name, compare, rhs in compile_guard(guard):
        if name not in env:
            return False
        if rhs.__class__ is str:
            if rhs not in env:
                return False
            rhs = int(env[rhs])
        if not compare(int(env[name]), rhs):
            return False
    return True


_VAR = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_POW2_VAR = re.compile(r"2\^([A-Za-z][A-Za-z0-9_]*)")
_HEAD = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\(([^()]*)\))?")
_AT = re.compile(r"(.+?)\s*@\s*(\S+?)(?:\s*:\s*(.+))?")
_ORDER_BOUND = re.compile(r"(\d+)\*(.+)")
_BOUNDARY_OF = re.compile(r"boundary\((.+)\)")
_TRANSPORT = re.compile(r"(.+)\.\s*" + _BOUNDARY_OF.pattern)
_LIFT_TRANSPORT = re.compile(r"transport\s+(\S+)\s+from\s+(\S+)")
_LIFT = re.compile(r"(\S+)\s+order=(\d+)(?:\s+rel=(.+))?")
_SUMMAND = re.compile(r"(Z\(2\)|Z/[0-9^a-z()+\-*\s]+?)\s*(?:\{(.+)\})?")


@dataclass(frozen=True)
class FactPattern:
    """A fact subject compiled at load time.

    ``names`` is what a lookup must present to meet the fact at all: the
    symbol names of a word (one tuple per slot for a product), or a space
    head with its degree, or a fibration head.  ``exprs`` holds one
    argument expression per concrete parameter, in order.
    """
    fact: KbFact
    rule: str        # word, susp, order, product (the rewrite.RuleContext
    #                  kinds), group, lift, boundary or transport
    names: tuple
    exprs: tuple
    element: Optional[Element] = None  # the class of a boundary or lift fact
    order: int = 0   # k in an order bound k*word = 0
    payload: tuple = ()  # pre-split group, lift and transport payloads
    # how matching reads each of ``exprs``: ("pow2", v), ("var", v) or
    # ("expr", compiled expression)
    slots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(map(_slot, self.exprs)))

    def bind(self, values) -> Optional[dict]:
        """The fact variables under which the subject takes exactly these
        parameter values and the guard holds, or None.

        A bare variable binds to its value, consistently where it occurs
        twice; ``2^v`` needs a power of two; any other expression, a digit
        included, is evaluated once its variables are bound and must equal
        the value.
        """
        bound, later = {}, []
        for (how, arg), val in zip(self.slots, values):
            if how == "pow2":
                if val < 2 or val & (val - 1):
                    return None
                how, val = "var", val.bit_length() - 1
            if how == "var":
                if bound.setdefault(arg, val) != val:
                    return None
            else:
                later.append((arg, val))
        try:
            if any(expr(bound) != v for expr, v in later):
                return None
        except TermError:
            return None  # e.g. a negative exponent: no value matches
        return bound if guard_holds(self.fact.guard, bound) else None


@functools.cache
def _slot(expr: str) -> tuple:
    """How ``FactPattern.bind`` matches the subject argument ``expr``."""
    pow2 = _POW2_VAR.fullmatch(expr)
    if pow2:
        return "pow2", pow2.group(1)
    if _VAR.fullmatch(expr):
        return "var", expr
    return "expr", compile_int_expr(expr)


class KbCatalog:
    """Facts compiled into subject patterns; lookups match a concrete
    word, space or fibration against them and fail loudly.

    The facts and their compiled patterns are fixed once ``__init__`` has
    checked them, and the registry adds only what its declarations
    determine.  ``__init__`` compiles only the facts its registry has not
    compiled and keeps each pattern there as soon as it compiles, so a
    ``without_facts`` copy, or a file loaded with the declarations of the
    last registry built, compiles only its new facts.  Two memos grow with
    use: the parses (``_parse_cache``) and the normal forms that every rule
    context shares (``_normal_forms``).  ``view`` copies a catalog with
    both memos empty, so a catalog can be loaded once and each command
    given memos that live as long as its copy.  The rewrite plans
    (``_plans``, see ``rewrite._plan``) depend only on the index of
    patterns and the declarations, so views share them; a catalog built
    here, by a load or ``without_facts``, has a table of its own."""

    def __init__(self, registry: SymbolRegistry, facts, digest: str,
                 version: str = "1"):
        self.registry = registry
        self.facts = list(facts)
        self.digest = digest
        self.version = version
        self._parse_cache = {}
        # normal forms shared by every rule context of this catalog
        self._normal_forms = {}
        self._patterns = {}
        self._plans = {}
        self._orders = {}
        seen = {}
        for f in self.facts:
            key = (f.kind, f.subject, f.guard)
            if key in seen:
                raise KbError(
                    f"duplicate fact for {f.kind} {f.subject!r} "
                    f"(lines {seen[key]} and {f.line})")
            seen[key] = f.line
            pat = registry.patterns.get(f)
            if pat is None:
                pat = registry.patterns[f] = self._compile(f)
            self._patterns.setdefault((pat.rule, pat.names), []).append(pat)
            for order, label in pat.payload if pat.rule == "group" else ():
                if order and not f.tokens:   # it bounds its generators
                    key = ("order", (label.split("(")[0],))
                    self._patterns.setdefault(key, []).append(pat)

    def view(self) -> "KbCatalog":
        """This catalog with its own empty memos: it shares the registry,
        facts, patterns, plans and order bounds, which loading checked or
        which its patterns decide."""
        view = copy.copy(self)
        view._parse_cache = {}
        view._normal_forms = {}
        return view

    # -- parsing helpers ------------------------------------------------------

    def parser(self, env: dict) -> TermParser:
        return TermParser(self.registry.resolve, env)

    def parse_element(self, text: str, env: dict) -> Element:
        text = text.strip()
        # elements are immutable, so parses can be shared across runs that
        # agree on the variables the text actually mentions
        key = (text, tuple((tok, env[tok]) for tok in term_names(text)
                           if tok in env))
        hit = self._parse_cache.get(key)
        if hit is None:
            hit = self._parse_cache[key] = self.registry.parse(text, env)
        return hit

    # -- compilation and validation ---------------------------------------------

    def _compile(self, f: KbFact) -> FactPattern:
        if f.kind not in VALID_KINDS:
            raise KbError(f"line {f.line}: unknown fact kind {f.kind!r}")
        if f.trust not in VALID_TRUST:
            raise KbError(f"line {f.line}: unknown trust {f.trust!r}")
        if not f.quote.strip():
            raise KbError(f"line {f.line}: empty provenance quote")
        if len(f.quote) > 200:
            raise KbError(f"line {f.line}: provenance quote over 200 chars")
        try:
            pat = self._pattern(f)
            bindable = _check_variables(pat)
            clash = sorted(bindable.intersection(SWEPT_TOKENS))
            if clash:
                raise KbError(f"{clash[0]!r} is both a variable and a token")
        except (KbError, TermError) as e:
            raise KbError(f"line {f.line}: {e}") from e
        variables = bindable | set(SWEPT_TOKENS)
        terms, ints, spaces = _payload_texts(pat)
        try:
            # a payload is instantiated under the fact's variables and the
            # swept tokens it names: compile it under those now, so that a
            # syntax error is a load error
            unbound = set()
            for text in terms:
                _, symbols, names = compile_term(text, bindable | f.tokens)
                for name, nargs in symbols:
                    self.registry.check_symbol(name, nargs)
                unbound.update(names)
            for text in ints:
                unbound.update(unbound_names(text, variables))
            unbound.difference_update(variables)
            if unbound:
                raise KbError(f"fact variable(s) {', '.join(sorted(unbound))} "
                              "not bound by the subject")
            for text in spaces:
                compile_space(text)
        except (KbError, TermError) as e:
            raise KbError(f"line {f.line}: payload: {e}") from e
        if pat.rule in ("word", "susp", "product") and not bindable:
            # a subject that binds no variable has one instance: check the
            # spaces of its rewrite now, with every token 1, as a
            # declaration is checked with every parameter 1
            try:
                lhs = (Bracket([self.parse_element(slot, {}) for slot in
                                split_top(f.subject[1:-1], ",")])
                       if pat.rule == "product"
                       else self.parse_element(f.subject, {}).terms[0][0])
            except (KbError, TermError) as e:
                raise KbError(f"line {f.line}: {e}") from e
            self._rhs(pat, lhs, dict.fromkeys(f.tokens, 1))
        return pat

    def _pattern(self, f: KbFact) -> FactPattern:
        subj, payload = f.subject, f.payload.strip()
        if f.kind in ("group", "lift_certificate"):
            m = _AT.fullmatch(subj)
            lift = f.kind == "lift_certificate"
            if not m or lift != (m.group(3) is not None):
                raise KbError(f"{f.kind} subject needs 'space @ k"
                              + (" : class'" if lift else "'"))
            space, degree, cls = m.groups()
            if not degree.isdigit():
                raise KbError(f"degree {degree!r} is not an integer")
            (head,), exprs = _head(space)
            names = (head, read_int(degree))
            if not lift:
                return FactPattern(f, "group", names, exprs,
                                   payload=cyclic_summands(payload))
            return FactPattern(f, "lift", names, exprs,
                               element=self._fixed_class(cls),
                               payload=_lift_payload(payload))
        if f.kind == "boundary_value":
            fib, sep, cls = subj.partition(":")
            if not sep:
                raise KbError("boundary subject needs ':'")
            el = self._fixed_class(cls)
            # a stored value on a class the boundary rule desuspends
            # duplicates what the rule derives; refuse it
            sw = el.single_word()
            if sw is not None and \
                    rewrite.desuspend(sw[0], self.registry) is not None:
                raise KbError(f"boundary value for suspension class "
                              f"{cls.strip()!r} is derivable and must not "
                              "be stored")
            return FactPattern(f, "boundary", *self._fibration_head(fib),
                               element=el)
        if f.kind == "map_identity" and subj.startswith("boundary("):
            m = _BOUNDARY_OF.fullmatch(subj)
            via = _TRANSPORT.fullmatch(payload)
            if not m or not via:
                raise KbError("boundary transport needs 'boundary(F(args))' "
                              "and 'map . boundary(F(args))'")
            self.registry.word_pattern(via.group(1))  # declared symbols
            (base,), base_exprs = self._fibration_head(via.group(2))
            return FactPattern(f, "transport",
                               *self._fibration_head(m.group(1)),
                               payload=(via.group(1).strip(), base,
                                        base_exprs))
        if f.kind == "relation" and subj.startswith("["):
            if not subj.endswith("]"):
                raise KbError(f"bad product subject {subj!r}")
            slots = [self.registry.word_pattern(s)
                     for s in split_top(subj[1:-1], ",")]
            return FactPattern(f, "product", tuple(n for n, _ in slots),
                               tuple(e for _, es in slots for e in es))
        m = _ORDER_BOUND.fullmatch(subj) if f.kind == "relation" else None
        if m:
            if payload != "0":
                raise KbError("an order bound k*word must equal 0")
            return FactPattern(f, "order",
                               *self.registry.word_pattern(m.group(2)),
                               order=read_int(m.group(1)))
        names, exprs = self.registry.word_pattern(subj)
        if names[0].startswith("id("):
            raise KbError(f"{f.kind} subject must be a nonempty word")
        return FactPattern(f, "susp" if f.kind == "suspension_value"
                           else "word", names, exprs)

    def _fibration_head(self, text: str):
        """``_head`` of a fibration named in a fact, which must be declared
        and take that many parameters."""
        (name,), exprs = _head(text)
        self.registry.fibration_spec(name, exprs)
        return (name,), exprs

    def _fixed_class(self, text: str) -> Element:
        """The class a boundary value or lift certificate is about: a fixed
        class of a sphere, so it may not use fact variables."""
        return self.parse_element(text, {})

    # -- lookups ----------------------------------------------------------------

    def _matches(self, rule: str, names: tuple, values: tuple, tokens):
        """(pattern, payload environment) of each fact whose subject
        matches, in file order: its variables plus the values ``tokens``
        gives the swept tokens its payload mentions, so a token the scan
        missed fails to parse instead of being read unrecorded."""
        for pat in self._patterns.get((rule, names), ()):
            bound = pat.bind(values)
            if bound is not None:
                yield pat, dict({t: tokens[t] for t in pat.fact.tokens
                                 if t in tokens}, **bound)

    def group_fact(self, space: Space, k: int, ctx):
        """(TwoLocalGroup with labels, basis elements, fact) for pi_k(space)."""
        head, params = _space_head(space)
        for pat, penv in self._matches("group", (head, k), params, ctx.values):
            return self._build_group(pat, penv)
        raise KbMissingFact(f"KB fact required: pi_{k}({space.key})")

    def _build_group(self, pat: FactPattern, env: dict):
        if not pat.payload:
            return TwoLocalGroup([]), [], pat.fact
        orders, labels, elements = [], [], []
        for order, label in pat.payload:
            orders.append(0 if order is None else eval_int_expr(order, env))
            el = self.parse_element(label, env)
            labels.append(el.render())
            elements.append(el)
        # keep elements aligned with the canonical sort
        elements = [elements[i] for i in canonical_order(orders)]
        return TwoLocalGroup(orders, labels), elements, pat.fact

    def boundary_fact(self, fib_key_head: str, fib_params: tuple,
                      element: Element, ctx):
        """Stored boundary value for a non-suspension class, or None."""
        for pat, penv in self._matches("boundary", (fib_key_head,),
                                       fib_params, ctx.values):
            if pat.element.key() != element.key():
                continue
            if pat.fact.payload.strip() == "0":
                src = sphere(element.source.data[0] - 1)
                value = Element.zero(src, named(fib_key_head, *fib_params))
            else:
                value = self.parse_element(pat.fact.payload, penv)
            return value, pat.fact
        return None

    def fibration_maps(self, name: str, params: tuple):
        """(attaching class or None, bottom inclusion, skeleton inclusion or
        None) of the declared fibration ``name(params)``."""
        return self.registry.fibration_maps(name, params, self.parse_element)

    def lift_certificates(self, space: Space, k: int, ctx):
        """(pattern, payload environment) of each lift certificate for
        pi_k(space), in file order.  ``pattern.element`` is the class
        lifted; ``pattern.payload`` is ("transport", map, base space) or
        ("lift", lift, order, relation or None)."""
        head, params = _space_head(space)
        yield from self._matches("lift", (head, k), params, ctx.values)

    def boundary_transport(self, fib_head: str, fib_params: tuple, ctx):
        """(comparison map element, base fibration head/params) or None."""
        for pat, penv in self._matches("transport", (fib_head,), fib_params,
                                       ctx.values):
            via, base_head, base_exprs = pat.payload
            return (self.parse_element(via, penv), base_head,
                    tuple(eval_int_expr(a, penv) for a in base_exprs),
                    pat.fact)
        return None

    # -- rule context ------------------------------------------------------------

    def rule_context(self, env: dict) -> rewrite.RuleContext:
        """The rule context of the swept-token values in ``env`` (its
        other keys are ignored): the one carrier of token values, read by
        its rewrite rules, matched against the catalog on first use, and
        by every lookup given it.  One context serves every run under its
        assignment.  Every context of the catalog shares its memo of
        normal forms."""
        tokens = {t: env[t] for t in SWEPT_TOKENS if t in env}
        return rewrite.RuleContext(self.registry, self._rule, self._patterns,
                                   self._plans, self._orders, tokens,
                                   self._normal_forms)

    def _rule(self, kind: str, term, tokens: dict):
        """(rhs, fact) of the first fact of a rewrite kind whose subject
        matches ``term`` (a word, or the slots of a product), or None."""
        if kind == "order":
            return self._order_bound(term)
        if kind == "product":
            words = [s.single_word()[0] for s in term]
            names = tuple(rewrite.word_names(w) for w in words)
            lhs = Bracket(term)
        else:
            words, names, lhs = [term], rewrite.word_names(term), term
        values = tuple(p for w in words for s in w.syms for p in s.params)
        for pat, penv in self._matches(kind, names, values, tokens):
            return self._rhs(pat, lhs, penv), pat.fact
        return None

    def _order_bound(self, word: Word):
        """(order, fact) of the first fact in file order that bounds the
        order of ``word``, or None: a relation ``k*word = 0`` with k not 0,
        or a group fact listing the word as a generator of order k; the
        bound is k's 2-part."""
        values = tuple(p for s in word.syms for p in s.params)
        for pat in self._patterns.get(("order", rewrite.word_names(word)),
                                      ()):
            order = (self._generator_order(pat, word) if pat.rule == "group"
                     else pat.bind(values) is not None and pat.order)
            if order:
                return abs(strip_odd(order)), pat.fact
        return None

    def _generator_order(self, pat: FactPattern, word: Word) -> int:
        """The order of the one-symbol ``word`` from S^n as a generator of
        the group fact ``pat`` if that is on pi_n of its target, or 0."""
        (head, params), src = _space_head(word.target), word.source
        bound = (pat.bind(params) if src.kind == "sphere"
                 and pat.names == (head, src.data[0]) else None)
        for order, text in pat.payload if bound is not None else ():
            if order and self.parse_element(text, bound).terms == ((word, 1),):
                return eval_int_expr(order, bound)
        return 0

    def _rhs(self, pat: FactPattern, lhs, env: dict) -> Element:
        """The right side of the rewrite ``pat`` on ``lhs``, a word or a
        product's bracket, under the payload environment ``env``.  It
        must map between the spaces of ``lhs``, or of its suspension for
        a ``susp`` rule."""
        ends = (lhs.source, lhs.target)
        if pat.rule == "susp":
            ends = tuple(map(suspend_space, ends))
        payload = pat.fact.payload.strip()
        rhs = (Element.zero(*ends) if payload == "0"
               else self.parse_element(payload, env))
        if (rhs.source, rhs.target) != ends:
            raise KbError(f"line {pat.fact.line}: {payload} maps "
                          f"{rhs.source.key} -> {rhs.target.key}, not "
                          f"{ends[0].key} -> {ends[1].key}")
        return rhs

    def serialize(self) -> str:
        out = [f"version {self.version}"]
        out.extend(self.registry.specs[name].serialize()
                   for name in sorted(self.registry.specs))
        out.extend(f.serialize() for f in self.facts)
        out.extend(f.serialize() for f in self.registry.fibrations.values())
        return "\n".join(out) + "\n"

    def without_facts(self, predicate) -> "KbCatalog":
        """A catalog with the facts matching ``predicate`` removed
        (negative-control runs)."""
        kept = [f for f in self.facts if not predicate(f)]
        return KbCatalog(self.registry, kept, self.digest + "-filtered",
                         self.version)


@functools.cache
def _head(text: str):
    """((name,), argument expressions) of a space or fibration head."""
    m = _HEAD.fullmatch(text.strip())
    if not m:
        raise KbError(f"bad head {text.strip()!r}")
    args = split_top(m.group(2), ",") if m.group(2) is not None else []
    return (m.group(1),), tuple(args)


def _check_variables(pat: FactPattern) -> set:
    """Every variable of a subject expression or guard must be bound by
    matching: it appears bare or as 2^v somewhere in the subject.  Returns
    the variables matching binds."""
    bindable = {arg for how, arg in pat.slots if how in ("var", "pow2")}
    used = set(_VAR.findall(" ".join(pat.exprs)))
    for name, _, rhs in compile_guard(pat.fact.guard):
        used.add(name)
        if rhs.__class__ is str:
            used.add(rhs)
    unbound = sorted(used - bindable)
    if unbound:
        raise KbError(f"fact variable(s) {', '.join(unbound)} not bound by "
                      "the subject")
    return bindable


def _payload_texts(pat: FactPattern) -> tuple:
    """(term texts, integer expressions, space keys) of a fact's payload.

    The terms are group labels, a lift and its relation, the map of a
    transported lift or of a boundary transport, or a rewrite or boundary
    value; the expressions are group orders and a boundary transport's
    base parameters; the space is the base of a transported lift.  An
    order bound's payload is 0."""
    if pat.rule == "group":
        return ([label for _, label in pat.payload],
                [order for order, _ in pat.payload if order is not None], [])
    if pat.rule == "lift":
        if pat.payload[0] == "transport":
            return [pat.payload[1]], [], [pat.payload[2]]
        return [t for t in (pat.payload[1], pat.payload[3]) if t], [], []
    if pat.rule == "transport":
        return [pat.payload[0]], list(pat.payload[2]), []
    if pat.rule == "order" or pat.fact.payload.strip() == "0":
        return [], [], []
    return [pat.fact.payload.strip()], [], []


@functools.cache
def cyclic_summands(text: str, labelled: bool = True) -> tuple:
    """((order expression or None for Z(2), label), ...) of a direct sum
    of cyclic groups such as ``Z/2^(r+1){eta_3} + Z(2){nu_4}``, split at
    top level; empty for the trivial group ``0``.  Each summand carries a
    label in braces if ``labelled`` and none otherwise (the label is then
    None)."""
    if text == "0":
        return ()
    out = []
    for part in filter(None, split_top(text, "+")):
        m = _SUMMAND.fullmatch(part)
        if not m or (m.group(2) is not None) != labelled:
            raise KbError(f"bad group summand {part!r}")
        head, label = m.groups()
        out.append((None if head == "Z(2)" else head[2:], label))
    if not out:
        raise KbError("empty group payload")
    return tuple(out)


@functools.cache
def _lift_payload(text: str) -> tuple:
    m = _LIFT_TRANSPORT.fullmatch(text)
    if m:
        return ("transport",) + m.groups()
    m = _LIFT.fullmatch(text)
    if not m:
        raise KbError(f"bad lift payload {text!r}")
    rel = m.group(3).strip() if m.group(3) else None
    return ("lift", m.group(1), read_int(m.group(2)), rel)


def _space_head(space: Space):
    if space.kind == "sphere":
        return f"S{space.data[0]}", ()
    if space.kind == "wedge":
        return space.key, ()
    if space.kind == "moore":
        return f"P{space.data[0]}", (space.data[1],)
    name, params = space.data
    return name, tuple(params)


@functools.cache
def split_top(text: str, sep: str) -> tuple:
    """The stripped parts of ``text`` between separators outside
    brackets."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    return tuple(parts)


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------

_SYMBOL_RE = re.compile(
    r"^symbol\s+([A-Za-z][A-Za-z0-9_~'^]*)(?:\(([^()]*)\))?\s*:\s*"
    r"(\S+)\s*->\s*(\S+)\s*(.*)$")
_FIBRATION_RE = re.compile(
    r"^fibration\s+([A-Za-z][A-Za-z0-9_]*)(?:\(([^()]*)\))?\s*:\s*(.*)$")



def _keyed_once(words, lineno: int) -> None:
    """Refuse a declaration that gives a ``key=value`` attribute twice,
    which would otherwise keep the last value silently."""
    keys = [w.partition("=")[0] for w in words if "=" in w]
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise KbError(f"line {lineno}: attribute {key}= given twice")


def _varnames(text: Optional[str], lineno: int) -> tuple:
    """The parameters of a declaration head: distinct identifiers."""
    names = tuple(v.strip() for v in text.split(",")) if text else ()
    if len(set(names)) != len(names) or not all(map(_VAR.fullmatch, names)):
        raise KbError(f"line {lineno}: bad parameter list ({text})")
    return names


def load_catalog(path) -> KbCatalog:
    """Load and validate a facts file.

    Every line is read on every call.  The ``symbol`` and ``fibration``
    lines, with their line numbers, key ``_registry``, which builds and
    checks a registry once while they are those of the last one built.

    Errors name their line and come in this order: the lines read here
    (not UTF-8, a bad ``version``, a fact without five fields, an
    unrecognized line) in file order, then the declarations in file
    order, each ``susp_to=`` in file order, each fibration's maps, and
    the facts in order.

    >>> import tempfile, os
    >>> p = tempfile.NamedTemporaryFile("w", suffix=".facts", delete=False)
    >>> _ = p.write("fact group | S9 @ 10 | Z/2{eta_9} | classical_table"
    ...             " | pi_10(S^9)=Z/2 | stable range\\n")
    >>> p.close()
    >>> cat = load_catalog(p.name)
    >>> len(cat.facts)
    1
    >>> os.unlink(p.name)
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    facts, declarations = [], []
    version = "1"
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        # the line of the first bad byte, numbered as the lines below
        good = raw[:e.start].decode("utf-8")
        raise KbError(f"line {len((good + '.').splitlines())}: not UTF-8 "
                      f"text") from None
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if text.startswith("version"):
            words = text.split()
            if len(words) != 2 or words[0] != "version":
                raise KbError(f"line {lineno}: bad version line")
            version = words[1]
            continue
        if text.startswith(("symbol ", "fibration ")):
            declarations.append((lineno, text))
            continue
        if text.startswith("fact "):
            body = text[5:]
            kind, _, rest = body.partition("|")
            kind = kind.strip()
            parts = [p.strip() for p in rest.split("|")]
            if len(parts) != 5:
                raise KbError(
                    f"line {lineno}: fact needs subject|payload|trust|quote|locator")
            subject, payload, trust, quote, locator = parts
            guard = ""
            if "?" in subject:
                subject, guard = [s.strip() for s in subject.split("?", 1)]
            facts.append(KbFact(kind, subject, guard, payload, trust, quote,
                                locator, lineno))
            continue
        raise KbError(f"line {lineno}: unrecognized line {text!r}")
    return KbCatalog(_registry(tuple(declarations)), facts, digest, version)


# the registry of the last declarations loaded; a raise caches nothing
_registry = functools.lru_cache(maxsize=1)(SymbolRegistry)
