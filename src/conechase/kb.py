"""Provenance-tagged catalog of research-level inputs.

The shipped facts file is a line-oriented text format, one declaration or
fact per line, chosen so the provenance of every certified statement is
diff-reviewable:

    symbol <name>[(vars)] : <source> -> <target> [order=<expr>] [susp]
           [susp_to=<name>] [desusp=<name>]
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
``2^v`` binds ``v`` to the exponent of a power of two, a digit must equal
the value, and any other expression is evaluated once its variables are
bound; then the guard must hold.  The payload is parsed with that binding
plus the run's values of the global tokens it mentions: sign (+-1), eps
(0/1) and the opaque integers x, y (y odd).  Derivations are swept over
those tokens and must not depend on them; a fact records which of them
its payload mentions (``KbFact.tokens``), so a run knows which tokens it
read.

Loading rejects a fact whose subject names an undeclared symbol or uses
a symbol with the wrong number of parameters, whose degree is not an
integer, or whose subject or guard mentions a variable that matching
cannot bind, and a boundary value or transport on an undeclared
fibration or through an undeclared map.  The class of a boundary value
or lift certificate is a fixed class of a sphere and takes no variables.

Facts that the rewrite engine can derive on its own (boundary values of
suspension classes, for instance) must not be stored; a validation check
enforces this.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Optional

from .groups import TwoLocalGroup, strip_odd
from .terms import (
    Bracket,
    Element,
    Space,
    Sym,
    TermError,
    TermParser,
    Word,
    deg_sym,
    eval_int_expr,
    named,
    parse_space,
    sphere,
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
    order_expr: Optional[str] = None
    is_susp: bool = False
    susp_to: Optional[str] = None
    desusp: Optional[str] = None
    defn: Optional[str] = None      # definitional expansion (a word)
    line: int = 0

    @property
    def nvars(self):
        return len(self.vars)

    def serialize(self) -> str:
        return " ".join(filter(None, [
            f"symbol {_decl_head(self.name, self.vars)} : {self.source_pat} "
            f"-> {self.target_pat}",
            self.order_expr is not None and f"order={self.order_expr}",
            self.is_susp and "susp",
            self.susp_to and f"susp_to={self.susp_to}",
            self.desusp and f"desusp={self.desusp}",
            self.defn and f"defn={self.defn}"]))


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


def _eta_sym(n: int) -> Sym:
    if n < 2:
        raise KbError("eta_n needs n >= 2")
    return Sym("eta_%d" % n, (), sphere(n + 1), sphere(n),
               order=0 if n == 2 else 2, is_susp=n >= 3,
               susp_name=f"eta_{n + 1}",
               desusp_name=f"eta_{n - 1}" if n >= 3 else None)


class SymbolRegistry:
    """Instantiates symbols from declarations plus built-in families, and
    holds the fibration declarations."""

    def __init__(self):
        self.specs = {}
        self.fibrations = {}
        self._unfolded = {}

    def declare(self, spec: SymbolSpec):
        if spec.name in self.specs:
            raise KbError(f"symbol {spec.name!r} declared twice")
        self.specs[spec.name] = spec

    def make(self, name: str, params: tuple) -> Sym:
        m = _ETA.match(name)
        if m:
            if params:
                raise KbError(f"{name} takes no parameters")
            return _eta_sym(int(m.group(1)))
        if name == "deg":
            if len(params) != 2:
                raise KbError("deg expects 2 parameter(s)")
            return deg_sym(params[0], params[1])
        spec = self.specs.get(name)
        if spec is None:
            raise KbMissingFact(f"KB fact required: unknown symbol {name!r}")
        if len(params) != spec.nvars:
            raise KbError(f"{name} expects {spec.nvars} parameter(s)")
        env = dict(zip(spec.vars, params))
        src = parse_space(spec.source_pat, env)
        tgt = parse_space(spec.target_pat, env)
        order = (eval_int_expr(spec.order_expr, env)
                 if spec.order_expr is not None else None)
        return Sym(name, tuple(params), src, tgt, order=order,
                   is_susp=spec.is_susp,
                   susp_name=spec.susp_to, desusp_name=spec.desusp)

    def resolve(self, name: str, params: tuple, env: dict) -> Element:
        """Resolver used by the term parser."""
        m = _IOTA.match(name)
        if m:
            return Element.identity(sphere(int(m.group(1))))
        m = _ETA_POW.match(name)
        if m:
            k, j = int(m.group(1)), int(m.group(2))
            # eta_k^j is the composite eta_k . eta_{k+1} . ... (j factors)
            return Element.from_term(
                Word(tuple(_eta_sym(k + i) for i in range(j))))
        return Element.from_term(Word((self.make(name, params),)))

    def word_pattern(self, text: str):
        """(symbol names, argument expressions) of a word written in a
        fact subject, each name resolved as the term parser resolves it.

        An identity ``iota_n`` has the single name ``id(Sn)``.
        """
        names, exprs, ident = [], [], None
        for factor in _split_top(text, "."):
            m = _FACTOR.fullmatch(factor)
            if not m:
                raise KbError(f"bad word {text.strip()!r}")
            name, argtext = m.groups()
            args = _split_top(argtext, ",") if argtext is not None else []
            iota, power = _IOTA.match(name), _ETA_POW.match(name)
            if iota and not args:
                ident = f"id(S{iota.group(1)})"
            elif power and not args:
                k, j = int(power.group(1)), int(power.group(2))
                names.extend(_eta_sym(k + i).name for i in range(j))
            else:
                if name == "deg":
                    arity = 2
                elif _ETA.match(name):
                    arity = 0
                elif name in self.specs:
                    arity = self.specs[name].nvars
                else:
                    raise KbError(f"unknown symbol {name!r}")
                if len(args) != arity:
                    raise KbError(f"{name} expects {arity} parameter(s)")
                names.append(name)
                exprs.extend(args)
        return tuple(names) or (ident,), tuple(exprs)

    def suspension_image(self, s: Sym) -> Optional[Sym]:
        if s.name == "deg":
            return deg_sym(s.params[0], s.params[1] + 1)
        if _IOTA.match(s.name):
            return None
        if s.susp_name:
            return self.make(s.susp_name, s.params)
        m = _ETA.match(s.name)
        if m:
            return _eta_sym(int(m.group(1)) + 1)
        return None

    def desuspension_image(self, s: Sym) -> Optional[Sym]:
        if s.name == "deg":
            if s.params[1] <= 2:
                return None
            return deg_sym(s.params[0], s.params[1] - 1)
        if not getattr(s, "is_susp", False):
            return None
        if s.desusp_name:
            return self.make(s.desusp_name, s.params)
        return None

    def unfold(self, s) -> Optional[Element]:
        """The definitional expansion of a symbol, if declared; memoised,
        since elements are immutable."""
        spec = self.specs.get(getattr(s, "name", None))
        if spec is None or spec.defn is None:
            return None
        key = (spec.name, s.params)
        hit = self._unfolded.get(key)
        if hit is None:
            env = dict(zip(spec.vars, s.params))
            hit = TermParser(self.resolve, env).parse(spec.defn)
            self._unfolded[key] = hit
        return hit

    def unfold_element(self, el: Element) -> Element:
        """Replace defined symbols by their expansions (to a fixpoint)."""
        for _ in range(8):
            changed = False
            terms = []
            for term, c in el.terms:
                if not isinstance(term, Word):
                    terms.append((term, c))
                    continue
                out = None
                for i, s in enumerate(term.syms):
                    exp = self.unfold(s)
                    if exp is not None:
                        pre = (Element.from_term(Word(term.syms[:i]))
                               if term.syms[:i] else Element.identity(exp.target))
                        post = (Element.from_term(Word(term.syms[i + 1:]))
                                if term.syms[i + 1:]
                                else Element.identity(exp.source))
                        out = rewrite.raw_concat(rewrite.raw_concat(pre, exp),
                                                 post).scale(c)
                        changed = True
                        break
                if out is not None:
                    terms.extend(out.terms)
                else:
                    terms.append((term, c))
            el = Element(el.source, el.target, terms)
            if not changed:
                return el
        raise KbError("definitional expansion did not terminate")


# ---------------------------------------------------------------------------
# facts
# ---------------------------------------------------------------------------

VALID_KINDS = ("group", "relation", "boundary_value", "lift_certificate",
               "suspension_value", "map_identity")
VALID_TRUST = ("paper", "classical_table", "derived")
SWEPT_TOKENS = ("sign", "eps", "x", "y")
_SWEPT_TOKEN = re.compile(r"(?<!\w)(%s)(?!\w)" % "|".join(SWEPT_TOKENS))


def swept_tokens(text: str) -> frozenset:
    """The swept tokens ``text`` names."""
    return frozenset(_SWEPT_TOKEN.findall(text))


@dataclass
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
        self.tokens = swept_tokens(self.payload)

    def note(self) -> str:
        return (f"{self.kind} [{self.trust}] {self.subject}: {self.payload}"
                f' :: "{self.quote}" ({self.locator})')

    def serialize(self) -> str:
        subj = self.subject + (f" ? {self.guard}" if self.guard else "")
        return (f"fact {self.kind} | {subj} | {self.payload} | {self.trust}"
                f" | {self.quote} | {self.locator}")


_GUARD_RE = re.compile(
    r"\s*([A-Za-z][A-Za-z0-9_]*)\s*(<=|>=|=|<|>)\s*(-?\d+|[A-Za-z][A-Za-z0-9_]*)\s*")


def guard_holds(guard: str, env: dict) -> bool:
    if not guard:
        return True
    for clause in guard.split(","):
        m = _GUARD_RE.fullmatch(clause)
        if not m:
            raise KbError(f"bad guard {guard!r}")
        name, op, rhs = m.group(1), m.group(2), m.group(3)
        if name not in env:
            return False
        x = int(env[name])
        if re.fullmatch(r"-?\d+", rhs):
            val = int(rhs)
        elif rhs in env:
            val = int(env[rhs])
        else:
            return False
        ok = {"<=": x <= val, ">=": x >= val, "=": x == val,
              "<": x < val, ">": x > val}[op]
        if not ok:
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
_SUMMAND = re.compile(r"(Z\(2\)|Z/[0-9^a-z()+\-*]+)\{(.+)\}")


@dataclass(frozen=True)
class FactPattern:
    """A fact subject compiled at load time.

    ``names`` is what a lookup must present to meet the fact at all: the
    symbol names of a word (one tuple per slot for a product), or a space
    head with its degree, or a fibration head.  ``exprs`` holds one
    argument expression per concrete parameter, in order.
    """
    fact: KbFact
    rule: str        # a rewrite.RULE_KINDS kind, group, lift, boundary
    #                  or transport
    names: tuple
    exprs: tuple
    element: Optional[Element] = None  # the class of a boundary or lift fact
    order: int = 0   # k in an order bound k*word = 0
    payload: tuple = ()  # pre-split group, lift and transport payloads

    def bind(self, values) -> Optional[dict]:
        """The fact variables under which the subject takes exactly these
        parameter values and the guard holds, or None.

        A bare variable binds to its value, consistently where it occurs
        twice; ``2^v`` needs a power of two; a digit must equal the value;
        any other expression is evaluated once its variables are bound.
        """
        bound, later = {}, []
        for expr, val in zip(self.exprs, values):
            pow2 = _POW2_VAR.fullmatch(expr)
            if pow2:
                if val < 2 or val & (val - 1):
                    return None
                expr, val = pow2.group(1), val.bit_length() - 1
            if _VAR.fullmatch(expr):
                if bound.setdefault(expr, val) != val:
                    return None
            elif expr.isdigit():
                if int(expr) != val:
                    return None
            else:
                later.append((expr, val))
        try:
            if any(eval_int_expr(e, bound) != v for e, v in later):
                return None
        except TermError:
            return None  # e.g. a negative exponent: no value matches
        return bound if guard_holds(self.fact.guard, bound) else None


def _payload_env(env: dict, bound: dict, fact: KbFact) -> dict:
    """A fact's own variables plus the run's values of the swept tokens
    its payload mentions: a token the scan missed fails to parse instead
    of being read unrecorded."""
    out = {t: env[t] for t in fact.tokens if t in env}
    out.update(bound)
    return out


class KbCatalog:
    """Facts compiled into subject patterns; lookups match a concrete
    word, space or fibration against them and fail loudly."""

    def __init__(self, registry: SymbolRegistry, facts, digest: str,
                 version: str = "1"):
        self.registry = registry
        self.facts = list(facts)
        self.digest = digest
        self.version = version
        self._parse_cache = {}
        self.by_kind = {}
        self._patterns = {}
        seen = {}
        for f in self.facts:
            key = (f.kind, f.subject, f.guard)
            if key in seen:
                raise KbError(
                    f"duplicate fact for {f.kind} {f.subject!r} "
                    f"(lines {seen[key]} and {f.line})")
            seen[key] = f.line
            self.by_kind.setdefault(f.kind, []).append(f)
            pat = self._compile(f)
            self._patterns.setdefault((pat.rule, pat.names), []).append(pat)
        self.signatures = {
            kind: frozenset(names for rule, names in self._patterns
                            if rule == kind)
            for kind in rewrite.RULE_KINDS}
        for spec in registry.fibrations.values():
            self._check_fibration(spec)

    # -- parsing helpers ------------------------------------------------------

    def parser(self, env: dict) -> TermParser:
        return TermParser(lambda n, a, e: self.registry.resolve(n, a, e), env)

    def parse_element(self, text: str, env: dict) -> Element:
        text = text.strip()
        if text == "0":
            raise KbError("a bare 0 payload needs spaces from context")
        # elements are immutable, so parses can be shared across runs that
        # agree on the variables the text actually mentions
        used = tuple(sorted(
            (tok, env[tok])
            for tok in set(re.findall(r"[A-Za-z][A-Za-z0-9_~'^]*", text))
            if tok in env))
        key = (text, used)
        hit = self._parse_cache.get(key)
        if hit is None:
            hit = self.parser(env).parse(text)
            self._parse_cache[key] = hit
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
        except (KbError, TermError) as e:
            raise KbError(f"line {f.line}: {e}") from e
        _check_variables(pat)
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
            names = (head, int(degree))
            if not lift:
                return FactPattern(f, "group", names, exprs,
                                   payload=_group_summands(payload))
            return FactPattern(f, "lift", names, exprs,
                               element=self._fixed_class(cls),
                               payload=_lift_payload(payload))
        if f.kind == "boundary_value":
            fib, sep, cls = subj.partition(":")
            if not sep:
                raise KbError("boundary subject needs ':'")
            el = self._fixed_class(cls)
            # a stored value on a suspension class duplicates what the
            # boundary rule derives; refuse it
            sw = el.single_word()
            if sw is not None and sw[0].syms and all(
                    self.registry.desuspension_image(s) is not None
                    for s in sw[0].syms):
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
                     for s in _split_top(subj[1:-1], ",")]
            return FactPattern(f, "product", tuple(n for n, _ in slots),
                               tuple(e for _, es in slots for e in es))
        m = _ORDER_BOUND.fullmatch(subj) if f.kind == "relation" else None
        if m:
            if payload != "0":
                raise KbError("an order bound k*word must equal 0")
            return FactPattern(f, "order",
                               *self.registry.word_pattern(m.group(2)),
                               order=int(m.group(1)))
        names, exprs = self.registry.word_pattern(subj)
        if names[0].startswith("id("):
            raise KbError(f"{f.kind} subject must be a nonempty word")
        return FactPattern(f, "susp" if f.kind == "suspension_value"
                           else "word", names, exprs)

    def _check_fibration(self, spec: FibrationSpec):
        """Instantiated with every parameter 1, a declaration's bottom and
        skeleton must map into the fiber and its class to the bottom."""
        params = (1,) * len(spec.vars)
        try:
            f, bottom, skeleton = self.fibration_maps(spec.name, params)
        except (KbError, TermError) as e:
            raise KbError(f"line {spec.line}: {e}") from e
        fiber = named(spec.name, *params)
        for el, end in ((bottom, fiber), (skeleton, fiber),
                        (f, bottom.source)):
            if el is not None and el.target != end:
                raise KbError(f"line {spec.line}: {el.render()} ends on "
                              f"{el.target.key}, not on {end.key}")

    def _fibration_head(self, text: str):
        """``_head`` of a fibration named in a fact, which must be declared
        and take that many parameters."""
        (name,), exprs = _head(text)
        self._fibration_spec(name, exprs)
        return (name,), exprs

    def _fibration_spec(self, name: str, params: tuple) -> FibrationSpec:
        """The declaration of ``name``, checked against ``params``."""
        spec = self.registry.fibrations.get(name)
        if spec is None:
            raise KbError(f"unknown fibration {name!r}")
        if len(params) != len(spec.vars):
            raise KbError(f"{name} expects {len(spec.vars)} parameter(s)")
        return spec

    def _fixed_class(self, text: str) -> Element:
        """The class a boundary value or lift certificate is about: a fixed
        class of a sphere, so it may not use fact variables."""
        return self.parse_element(text, {})

    # -- lookups ----------------------------------------------------------------

    def _matches(self, rule: str, names: tuple, values: tuple):
        """(pattern, binding) of each fact whose subject matches, in file
        order."""
        for pat in self._patterns.get((rule, names), ()):
            bound = pat.bind(values)
            if bound is not None:
                yield pat, bound

    def group_fact(self, space: Space, k: int, env: dict):
        """(TwoLocalGroup with labels, basis elements, fact) for pi_k(space)."""
        head, params = _space_head(space)
        for pat, bound in self._matches("group", (head, k), params):
            return self._build_group(pat, _payload_env(env, bound, pat.fact))
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
        group = TwoLocalGroup(orders, labels)
        # keep elements aligned with the canonical sort
        order_index = sorted(range(len(orders)),
                             key=lambda i: (orders[i] == 0, orders[i], i))
        elements = [elements[i] for i in order_index]
        return group, elements, pat.fact

    def boundary_fact(self, fib_key_head: str, fib_params: tuple,
                      element: Element, env: dict):
        """Stored boundary value for a non-suspension class, or None."""
        for pat, bound in self._matches("boundary", (fib_key_head,),
                                        fib_params):
            if pat.element.key() != element.key():
                continue
            if pat.fact.payload.strip() == "0":
                src = sphere(element.source.data[0] - 1)
                value = Element.zero(src, named(fib_key_head, *fib_params))
            else:
                value = self.parse_element(
                    pat.fact.payload, _payload_env(env, bound, pat.fact))
            return value, pat.fact
        return None

    def fibration_maps(self, name: str, params: tuple):
        """(attaching class or None, bottom inclusion, skeleton inclusion or
        None) of the declared fibration ``name(params)``."""
        spec = self._fibration_spec(name, params)
        env = dict(zip(spec.vars, params))
        return tuple(text and self.parse_element(text, env)
                     for text in (spec.attach, spec.bottom, spec.skeleton))

    def lift_certificates(self, space: Space, k: int, env: dict):
        """(pattern, payload environment) of each lift certificate for
        pi_k(space), in file order.  ``pattern.element`` is the class
        lifted; ``pattern.payload`` is ("transport", map, base space) or
        ("lift", lift, order, relation or None)."""
        head, params = _space_head(space)
        for pat, bound in self._matches("lift", (head, k), params):
            yield pat, _payload_env(env, bound, pat.fact)

    def boundary_transport(self, fib_head: str, fib_params: tuple, env: dict):
        """(comparison map element, base fibration head/params) or None."""
        for pat, bound in self._matches("transport", (fib_head,), fib_params):
            penv = _payload_env(env, bound, pat.fact)
            via, base_head, base_exprs = pat.payload
            return (self.parse_element(via, penv), base_head,
                    tuple(eval_int_expr(a, penv) for a in base_exprs),
                    pat.fact)
        return None

    # -- rule context ------------------------------------------------------------

    def rule_context(self, env: dict, on_rule=None) -> rewrite.RuleContext:
        """Rewrite rules for the swept-token values in ``env``, matched
        against the catalog on first use.  A rule reads nothing else of a
        run's environment, so one context serves every run that agrees
        on the tokens."""
        tokens = {t: env[t] for t in SWEPT_TOKENS if t in env}
        return rewrite.RuleContext(
            self.registry, lambda kind, term: self._rule(kind, term, tokens),
            self.signatures, on_rule)

    def _rule(self, kind: str, term, env: dict):
        """(rhs, fact) of the first fact of a rewrite kind whose subject
        matches ``term`` (a word, or the slots of a product), or None."""
        if kind == "product":
            words = [s.single_word()[0] for s in term]
            names = tuple(rewrite.word_names(w) for w in words)
            lhs = Bracket(term)
        else:
            words, names, lhs = [term], rewrite.word_names(term), term
        values = tuple(p for w in words for s in w.syms for p in s.params)
        for pat, bound in self._matches(kind, names, values):
            if kind == "order":
                return abs(strip_odd(pat.order)), pat.fact
            payload = pat.fact.payload.strip()
            rhs = (Element.zero(lhs.source, lhs.target) if payload == "0"
                   else self.parse_element(
                       payload, _payload_env(env, bound, pat.fact)))
            return rhs, pat.fact
        return None

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
        cat = KbCatalog(self.registry, kept,
                        self.digest + "-filtered", self.version)
        return cat


def _head(text: str):
    """((name,), argument expressions) of a space or fibration head."""
    m = _HEAD.fullmatch(text.strip())
    if not m:
        raise KbError(f"bad head {text.strip()!r}")
    args = _split_top(m.group(2), ",") if m.group(2) is not None else []
    return (m.group(1),), tuple(args)


def _check_variables(pat: FactPattern):
    """Every variable of a subject expression or guard must be bound by
    matching: it appears bare or as 2^v somewhere in the subject."""
    bindable = {e for e in pat.exprs if _VAR.fullmatch(e)}
    bindable |= {e[2:] for e in pat.exprs if _POW2_VAR.fullmatch(e)}
    used = set(_VAR.findall(" ".join(pat.exprs)))
    for clause in pat.fact.guard.split(",") if pat.fact.guard else ():
        m = _GUARD_RE.fullmatch(clause)
        if not m:
            raise KbError(f"line {pat.fact.line}: bad guard "
                          f"{pat.fact.guard!r}")
        used.add(m.group(1))
        if _VAR.fullmatch(m.group(3)):
            used.add(m.group(3))
    unbound = sorted(used - bindable)
    if unbound:
        raise KbError(f"line {pat.fact.line}: fact variable(s) "
                      f"{', '.join(unbound)} not bound by the subject")


def _group_summands(text: str) -> tuple:
    """((order expression or None for Z(2), label), ...) of a group
    payload; empty for the trivial group."""
    if text == "0":
        return ()
    out = []
    for part in filter(None, _split_top(text, "+")):
        m = _SUMMAND.fullmatch(part)
        if not m:
            raise KbError(f"bad group summand {part!r}")
        head, label = m.groups()
        out.append((None if head == "Z(2)" else head[2:], label))
    if not out:
        raise KbError("empty group payload")
    return tuple(out)


def _lift_payload(text: str) -> tuple:
    m = _LIFT_TRANSPORT.fullmatch(text)
    if m:
        return ("transport",) + m.groups()
    m = _LIFT.fullmatch(text)
    if not m:
        raise KbError(f"bad lift payload {text!r}")
    rel = m.group(3).strip() if m.group(3) else None
    return ("lift", m.group(1), int(m.group(2)), rel)


def _space_head(space: Space):
    if space.kind == "sphere":
        return f"S{space.data[0]}", ()
    if space.kind == "wedge":
        return space.key, ()
    if space.kind == "moore":
        return f"P{space.data[0]}", (space.data[1],)
    name, params = space.data
    return name, tuple(params)


def _split_top(text: str, sep: str) -> list:
    """The stripped parts of ``text`` between separators outside brackets."""
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
    return parts


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------

_SYMBOL_RE = re.compile(
    r"^symbol\s+([A-Za-z][A-Za-z0-9_~'^]*)(?:\(([^()]*)\))?\s*:\s*"
    r"(\S+)\s*->\s*(\S+)\s*(.*)$")
_FIBRATION_RE = re.compile(
    r"^fibration\s+([A-Za-z][A-Za-z0-9_]*)(?:\(([^()]*)\))?\s*:\s*(.*)$")


def _varnames(text: Optional[str]) -> tuple:
    return tuple(v.strip() for v in (text or "").split(",") if v.strip())


def load_catalog(path) -> KbCatalog:
    """Load and validate a facts file.

    >>> import io, tempfile, os
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
    registry = SymbolRegistry()
    facts = []
    version = "1"
    for lineno, line in enumerate(raw.decode("utf-8").splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if text.startswith("version"):
            version = text.split(None, 1)[1].strip()
            continue
        if text.startswith("symbol "):
            m = _SYMBOL_RE.match(text)
            if not m:
                raise KbError(f"line {lineno}: bad symbol declaration")
            name, vars_, src, tgt, extras = m.groups()
            spec = SymbolSpec(name, _varnames(vars_), src, tgt, line=lineno)
            for tok in extras.split():
                if tok == "susp":
                    spec.is_susp = True
                elif tok.startswith("order="):
                    spec.order_expr = tok[6:]
                elif tok.startswith("susp_to="):
                    spec.susp_to = tok[8:]
                elif tok.startswith("desusp="):
                    spec.desusp = tok[7:]
                elif tok.startswith("defn="):
                    spec.defn = tok[5:]
                else:
                    raise KbError(f"line {lineno}: bad symbol attribute {tok!r}")
            registry.declare(spec)
            continue
        if text.startswith("fibration "):
            m = _FIBRATION_RE.match(text)
            words = m.group(3).split() if m else []
            attrs = dict(w.split("=", 1) for w in words if "=" in w)
            if not m or "bottom" not in attrs or \
                    not attrs.keys() <= {"bottom", "skeleton"}:
                raise KbError(f"line {lineno}: bad fibration declaration")
            if m.group(1) in registry.fibrations:
                raise KbError(f"line {lineno}: fibration {m.group(1)!r} "
                              "declared twice")
            registry.fibrations[m.group(1)] = FibrationSpec(
                m.group(1), _varnames(m.group(2)),
                " ".join(w for w in words if "=" not in w) or None,
                attrs["bottom"], attrs.get("skeleton"), lineno)
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
    return KbCatalog(registry, facts, digest, version)
