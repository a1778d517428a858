"""Normalization and calculus for homotopy-class elements.

The engine only performs expansions it can justify exactly:

* post-composition is a homomorphism, so sums and integer scalars in the
  *inner* factor of ``f . g`` always distribute;
* sums/scalars in the *outer* factor distribute only across a co-H
  (suspension) inner map -- attempting it otherwise is refused with a
  ``StrictExpansionError``;
* a scalar on a word is the word composed with a degree map of its source
  sphere, and degree maps tunnel rightward through suspension symbols and
  through anything under an H-space sphere (S^3, licensed by the cited
  vanishing of its Whitehead square); other moves, such as Hilton's
  k -> k^2 twist through the S^2 Hopf class, are catalog rules;
* coefficients are reduced modulo the least order a fact bounds a suffix
  of the word by, since the order of an image divides the order of the
  element being pushed.

Unknown composites stay as unexpanded words: silence never fabricates a
vanishing.

Each catalog keeps one memo of normal forms, shared by all its rule
contexts (``RuleContext.memo``).  An entry holds the answer for a word and
coefficient and the facts the rewriting cited, and it serves every token
assignment that agrees on the tokens of those facts, which is exact by
the argument in ``RuleContext``.  A hit cites the facts again, in order,
so transcripts do not depend on the memo's warmth.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

from .terms import (
    Bracket,
    Element,
    Pair,
    Sym,
    TermError,
    Word,
    deg_sym,
    is_suspension_space,
    sphere,
)


class RewriteError(TermError):
    pass


class StrictExpansionError(RewriteError):
    """An expansion was requested that no exactness rule licenses."""


def word_names(w: Word) -> tuple:
    """The symbol names a fact subject must carry to match ``w``; an
    identity word carries the single name ``id(space)``."""
    if w.syms:
        return tuple(s.name for s in w.syms)
    return (f"id({w.space.key})",)


class RuleContext:
    """Rewrite rules for one token assignment, found by matching on first
    use, and the catalog's memo of normal forms.

    ``lookup(kind, term, values)`` returns ``(rhs, fact)`` for the first
    catalog fact of that kind whose subject matches ``term``, or None;
    ``values`` maps each swept token to its value in this assignment, and
    no other object holds a run's token values: the catalog's lookups
    and ``derive.Runner`` read them from the context.  The
    kinds are ``word`` (a rule rewriting exactly these symbols), ``susp``
    (the suspension of a whole word), ``order`` (a bound on the order of a
    word; the rhs is the order) and ``product`` (the value of a Whitehead
    product on these slots).  ``patterns`` is the catalog's index of fact
    patterns by (kind, symbol names); a lookup whose key it lacks can match
    no fact, so most are rejected before any matching.  Answers are
    memoised per context, order bounds in the catalog's table ``orders``
    and rewrite plans (``_plan``) in its ``plans``, which every context and
    view of the catalog share.

    ``registry`` is the catalog's symbol registry: suspension and
    desuspension images (``suspend``, ``desuspend``).

    Citations are the one record of what a computation used.  Every fact
    a computation consumes goes to ``cite``, which hands it to the hook
    ``on_rule`` (None, or the collector ``citing`` installs); ``citing``
    runs a computation and returns the facts it cited.  An answer
    computed on this context serves every assignment of the swept tokens
    that agrees on the tokens of the facts it cited.  That is exact:
    subjects and guards bind only fact variables, so whether a lookup
    hits, and which fact it returns, never depends on a token, and a token
    enters only through the payload of a returned fact, which is cited.
    An order bound, cited where it changes a coefficient, reads no token:
    its relation's payload is 0, and a group fact naming one bounds
    nothing (``kb.KbCatalog``).  The three memos rest on this: cached runs
    (``derive.Runner._serves``, which also asks each subderivation again
    and compares its value), ``let`` steps (``derive.Runner._let``, which
    also compares the bindings a step names) and normal forms (``memo``,
    the catalog's one table, shared by every context it builds).
    """

    def __init__(self, registry, lookup: Callable, patterns, plans: dict,
                 orders: dict, values: dict, memo: dict):
        self.on_rule = None       # callback(fact) when a fact is consumed
        self.registry = registry
        self.values = values      # swept token -> value
        self.memo = memo          # (word, coeff) -> answers
        self._lookup = lookup
        self.patterns = patterns  # (kind, symbol names) -> fact patterns
        self.plans = plans        # symbol names -> _Plan
        self.orders = orders      # symbol keys -> (order, fact) or None
        self.word_rules = {}      # symbol keys -> (rhs, fact) or None
        self.products = {}        # slot keys -> (rhs, fact) or None

    # -- lookups --------------------------------------------------------------

    def word_rule(self, syms):
        """(rhs, fact) of the rule rewriting exactly ``syms``, or None.
        The rewriter asks only for chunks whose names the index holds
        (``_plan``), so this lookup does not test it, and it builds the
        word only on a miss of its memo."""
        key = tuple(s.key for s in syms)
        table = self.word_rules
        if key not in table:
            table[key] = self._lookup("word", Word(syms), self.values)
        return table[key]

    def susp_rule(self, word: Word):
        """(rhs, fact) of a stored suspension of the whole word, or None;
        not memoised, since a memo served none of a reproduce pass's asks."""
        if ("susp", word_names(word)) not in self.patterns:
            return None
        return self._lookup("susp", word, self.values)

    def product_value(self, slots):
        """(rhs, fact) of a stored value of the product on ``slots``, each
        a single unscaled word, or None."""
        names = []
        for s in slots:
            sw = s.single_word()
            if sw is None or sw[1] != 1:
                return None
            names.append(word_names(sw[0]))
        if ("product", tuple(names)) not in self.patterns:
            return None
        key, table = tuple(s.key() for s in slots), self.products
        if key not in table:
            table[key] = self._lookup("product", list(slots), self.values)
        return table[key]

    def s3_hspace(self) -> bool:
        """Whether [iota_3, iota_3] is stored as 0; cited whenever found."""
        hit = self.product_value([Element.identity(sphere(3))] * 2)
        if hit is not None:
            self.cite(hit[1])
        return hit is not None and hit[0].is_zero()

    # -- citations ------------------------------------------------------------

    def cite(self, fact):
        """Record that the running computation consumed ``fact``."""
        if self.on_rule:
            self.on_rule(fact)

    def citing(self, compute: Callable, *args):
        """(``compute(*args)``, the facts it cited, in order).  The facts
        are not passed on to the enclosing hook, which is restored however
        ``compute`` ends."""
        hook, facts = self.on_rule, []
        self.on_rule = facts.append
        try:
            return compute(*args), facts
        finally:
            self.on_rule = hook

    def suffix_bound(self, word: Word) -> Optional[tuple]:
        """(order, fact) of the least stored bound on the order of a
        suffix of ``word`` that the index holds (``_plan``), the longest
        suffix on a tie, or None; each from the catalog's table."""
        syms, table, best = word.syms, self.orders, None
        for j in _plan(tuple([s.name for s in syms]), self).order_starts:
            key = tuple(s.key for s in syms[j:])
            if key not in table:
                table[key] = self._lookup("order", Word(syms[j:]), self.values)
            hit = table[key]
            if hit is not None and (best is None or hit[0] < best[0]):
                best = hit
        return best


# ---------------------------------------------------------------------------
# word normalization
# ---------------------------------------------------------------------------

# adjacent wedge tags (projection, inclusion) that meet: True where the
# pair cancels to the identity, False where the composite is zero
_WEDGE_MEETS = {("q1", "j1"): True, ("q2", "j2"): True,
                ("q1", "j2"): False, ("q2", "j1"): False}


class _Plan(NamedTuple):
    """What the rewriter needs to know of a word that its symbol names
    alone decide."""
    deg: bool             # a degree map is present
    meets: tuple          # (i, cancels) of wedge tags meeting at i, i + 1
    pair: bool            # a co-pairing is present
    rules: tuple          # (i, length) of each chunk the word index holds,
    #                       longest first, then leftmost
    order_starts: tuple   # j of each suffix the order index holds


def _plan(names: tuple, ctx: RuleContext) -> _Plan:
    """The rewrite plan of a word with symbol names ``names``, from the
    catalog's table.  It reads only the index's keys and ``_WEDGE_MEETS``,
    both fixed for a catalog, so the table serves every token assignment
    and command of the catalog exactly; it holds one entry per name
    sequence met."""
    plan = ctx.plans.get(names)
    if plan is None:
        index = ctx.patterns
        n = len(names)
        tags = [name.split("_")[0] for name in names]
        plan = ctx.plans[names] = _Plan(
            "deg" in names,
            tuple((i, _WEDGE_MEETS[tags[i], tags[i + 1]]) for i in range(n - 1)
                  if (tags[i], tags[i + 1]) in _WEDGE_MEETS),
            Pair.name in names,
            tuple((i, length) for length in (3, 2, 1)
                  for i in range(n - length + 1)
                  if ("word", names[i: i + length]) in index),
            tuple(j for j in range(n) if ("order", names[j:]) in index))
    return plan


def _is_susp_word(w: Word) -> bool:
    if w.is_identity():
        return is_suspension_space(w.space)
    return all(s.is_susp for s in w.syms)


def normalize_word(word: Word, coeff: int, ctx: RuleContext) -> Element:
    """Fully normalize coeff * word into an element.

    The answer comes from the catalog's memo when an entry for this word
    and coefficient agrees with ``ctx`` on the tokens of the facts
    it cited; otherwise it is computed and kept.
    Either way its facts are cited through ``ctx`` in order, so
    transcripts do not depend on the memo's warmth.
    """
    entries = ctx.memo.setdefault((word, coeff), [])
    for out, facts, reads in entries:
        if all(ctx.values.get(t) == v for t, v in reads):
            break
    else:
        out, facts = ctx.citing(_rewrite_word, word, coeff, ctx)
        read = frozenset().union(*(f.tokens for f in facts))
        reads = tuple((t, ctx.values.get(t)) for t in sorted(read))
        entries.append((out, tuple(facts), reads))
    for fact in facts:
        ctx.cite(fact)
    return out


def _rewrite_word(word: Word, coeff: int, ctx: RuleContext) -> Element:
    syms = list(word.syms)
    space = word.space
    guard = 0
    while True:
        guard += 1
        if guard > 500:
            raise RewriteError(f"rewriting did not terminate on {word.render()}")
        names = tuple([s.name for s in syms])
        deg, meets, pair, rules, _ = _plan(names, ctx)
        if deg:
            # drop the first unit degree map, unless a zero one comes first
            i = next((i for i, s in enumerate(syms)
                      if names[i] == "deg" and s.params[0] in (0, 1)), None)
            if i is not None:
                if syms[i].params[0] == 0:
                    return Element.zero(word.source, word.target)
                del syms[i]
                continue

            # merge adjacent degree maps
            i = next((i for i in range(len(syms) - 1)
                      if names[i] == names[i + 1] == "deg"), None)
            if i is not None:
                a, b = syms[i], syms[i + 1]
                syms[i: i + 2] = [deg_sym(a.params[0] * b.params[0],
                                          a.params[1])]
                continue

            # a degree map in final position is an inner scalar: exact
            if names[-1] == "deg":
                coeff *= syms[-1].params[0]
                src = syms[-1].source
                syms = syms[:-1]
                if not syms:
                    space = src
                continue

            # tunnel degree maps rightward where that is exact
            changed = False
            for i in range(len(syms) - 1):
                if names[i] != "deg":
                    continue
                k, n = syms[i].params
                nxt = syms[i + 1]
                if all(t.is_susp for t in syms[i + 1:]):
                    # the whole tail is a suspension, so the degree map is
                    # a plain scalar on it
                    del syms[i]
                    coeff *= k
                elif nxt.is_susp and nxt.source.kind == "sphere":
                    syms[i: i + 2] = [nxt, deg_sym(k, nxt.source.data[0])]
                elif (n == 3 and nxt.source.kind == "sphere"
                      and ctx.s3_hspace()):
                    # all Whitehead products of S^3 vanish: degree maps act
                    # linearly on every homotopy group of S^3
                    syms[i: i + 2] = [nxt, deg_sym(k, nxt.source.data[0])]
                else:
                    continue
                changed = True
                break
            if changed:
                continue

        # wedge projection/inclusion annihilation (matching wedge tags)
        changed = False
        for i, cancels in meets:
            if syms[i].source == syms[i + 1].target:
                if not cancels:
                    return Element.zero(word.source, word.target)
                b = syms[i + 1]
                syms[i: i + 2] = []
                if not syms:
                    space = b.source
                changed = True
                break
        if changed:
            continue

        # co-pairing evaluation
        if pair:
            for i, s in enumerate(syms):
                if isinstance(s, Pair) and i + 1 < len(syms):
                    nxt = syms[i + 1]
                    if nxt.name.startswith(("j1", "j2")):
                        comp = s.f if nxt.name.startswith("j1") else s.g
                        pre = Word(syms[:i], s.target)
                        post = Word(syms[i + 2:], nxt.source)
                        el = compose(Element.from_term(pre), comp, ctx)
                        el = compose(el, Element.from_term(post), ctx)
                        return el.scale(coeff)
        # table-driven rewrite rules: longest match first, then leftmost,
        # then the first fact in file order
        for i, length in rules:
            hit = ctx.word_rule(syms[i: i + length])
            if hit:
                break
        else:
            break
        rhs, fact = hit
        ctx.cite(fact)
        sw = rhs.single_word()
        if rhs.is_zero():
            return Element.zero(word.source, word.target)
        if sw is not None:
            w2, c2 = sw
            coeff *= c2
            syms = list(syms[:i]) + list(w2.syms) + list(syms[i + length:])
            if not syms:
                space = rhs.source
            continue
        # multi-term replacement: splice via gated composition
        pre = Word(syms[:i], rhs.target)
        post = Word(syms[i + length:], rhs.source)
        el = compose(Element.from_term(pre), rhs, ctx)
        el = compose(el, Element.from_term(post), ctx)
        return el.scale(coeff)

    w = Word(syms, space or word.source)
    bound = ctx.suffix_bound(w)
    if bound is not None and coeff % bound[0] != coeff:
        ctx.cite(bound[1])
        coeff %= bound[0]
    if coeff == 0:
        return Element.zero(word.source, word.target)
    return Element.from_term(w, coeff)


# ---------------------------------------------------------------------------
# element normalization / composition
# ---------------------------------------------------------------------------

def normalize(e: Element, ctx: RuleContext) -> Element:
    parts = [normalize_word(term, c, ctx) if isinstance(term, Word)
             else _normalize_bracket(term, c, ctx) for term, c in e.terms]
    return _sum(parts, e.source, e.target)


def _sum(parts, source, target) -> Element:
    """The sum of ``parts`` in ``source -> target``: a lone part as it
    stands, since its spaces are those of the term it came from."""
    if len(parts) == 1:
        return parts[0]
    out = Element.zero(source, target)
    for part in parts:
        out = out + part
    return out


def _normalize_bracket(b: Bracket, coeff: int, ctx: RuleContext) -> Element:
    slots = [normalize(s, ctx) for s in b.slots]
    if any(s.is_zero() for s in slots):
        return Element.zero(b.source, b.target)
    if b.arity == 2:
        # the binary generalized product is bilinear over suspension slots
        out = Element.zero(b.source, b.target)
        for w1, c1 in slots[0].terms:
            for w2, c2 in slots[1].terms:
                e1 = Element.from_term(w1)
                e2 = Element.from_term(w2)
                rule = ctx.product_value([e1, e2])
                if rule is not None:
                    rhs, fact = rule
                    ctx.cite(fact)
                    out = out + normalize(rhs, ctx).scale(coeff * c1 * c2)
                else:
                    out = out + Element.from_term(Bracket([e1, e2]),
                                                  coeff * c1 * c2)
        return out
    # higher products: keep slots intact (set-valued semantics)
    return Element.from_term(Bracket(slots), coeff)


def compose(f: Element, g: Element, ctx: RuleContext) -> Element:
    """Normalized composite f . g (g applied first)."""
    if f.is_zero() or g.is_zero():
        return Element.zero(g.source, f.target)
    if g.target != f.source:
        raise TermError(
            f"space mismatch: {g.target.key} composed into {f.source.key}")
    parts = [_compose_inner(f, gterm, ctx).scale(d) for gterm, d in g.terms]
    return normalize(_sum(parts, g.source, f.target), ctx)


def _compose_inner(f: Element, gterm, ctx: RuleContext) -> Element:
    if isinstance(gterm, Bracket):
        return _compose_into_bracket(f, gterm, ctx)
    gword: Word = gterm
    if len(f.terms) == 1:
        term, c = f.terms[0]
        if isinstance(term, Bracket):
            if gword.is_identity():
                return Element.from_term(term, c)
            # bracket composed with a degree map is an inner scalar
            if (len(gword.syms) == 1 and isinstance(gword.syms[0], Sym)
                    and gword.syms[0].name == "deg"):
                return Element.from_term(term, c * gword.syms[0].params[0])
            raise StrictExpansionError(
                "composing a bracket with a general map needs an explicit "
                "slot-restriction step")
        word: Word = term
        if c == 1 or _is_susp_word(gword):
            return normalize_word(Word(word.syms + gword.syms, gword.space),
                                  c, ctx)
        if word.source.kind == "sphere":
            # c * w == w . deg(c): exact, the scalar tunnels if it can
            n = word.source.data[0]
            merged = Word(word.syms + (deg_sym(c, n),) + gword.syms)
            return normalize_word(merged, 1, ctx)
        raise StrictExpansionError(
            f"cannot move scalar {c} across {gword.render()}: inner map "
            "is not a suspension and the interface is not a sphere")
    # multi-term outer factor
    if _is_susp_word(gword):
        return _sum([_compose_inner(Element.from_term(term, c), gword, ctx)
                     for term, c in f.terms], gword.source, f.target)
    if gword.is_identity():
        return f
    raise StrictExpansionError(
        f"cannot distribute a sum across {gword.render()}: inner map is "
        "not a suspension")


def _compose_into_bracket(f: Element, b: Bracket, ctx: RuleContext) -> Element:
    """f . [h1, ..., hn] pushes into the slots (naturality)."""
    sw = f.single_word()
    if sw is None:
        raise StrictExpansionError("only a single map pushes into a bracket")
    w, c = sw
    if c != 1:
        raise StrictExpansionError(
            "scale a bracket through its slots, not through the outer map")
    slots = [compose(Element.from_term(w), s, ctx) for s in b.slots]
    return _normalize_bracket(Bracket(slots), 1, ctx)


# ---------------------------------------------------------------------------
# the public calculus
# ---------------------------------------------------------------------------

def whitehead(f: Element, g: Element, ctx: RuleContext) -> Element:
    """Generalized Whitehead product of two classes on suspensions."""
    for s in (f, g):
        if not is_suspension_space(s.source):
            raise TermError(
                f"Whitehead product needs suspension sources, got {s.source.key}")
    if f.target != g.target:
        raise TermError("Whitehead product slots must share a target")
    if f.is_zero() or g.is_zero():
        # bilinearity: a zero slot kills the product
        src = Bracket.smash_source([f.source, g.source])
        return Element.zero(src, f.target)
    return _normalize_bracket(Bracket([f, g]), 1, ctx)


def higher_bracket(slots: Sequence[Element], ctx: RuleContext) -> Element:
    return _normalize_bracket(Bracket(list(slots)), 1, ctx)


def naturality_push(g: Element, bracket_el: Element, ctx: RuleContext) -> Element:
    """g . [h1,...,hn] -> [g h1, ..., g hn] (a member, for arity >= 3)."""
    if len(bracket_el.terms) != 1 or not isinstance(bracket_el.terms[0][0], Bracket):
        raise TermError("naturality_push expects a single bracket term")
    b, c = bracket_el.terms[0]
    pushed = _compose_into_bracket(g, b, ctx)
    return pushed.scale(c)


def bracket_restrict(bracket_el: Element, restrictions: Sequence[Element],
                     ctx: RuleContext) -> Element:
    """Compose each slot with a suspension map: [h1,h2] . Sigma(f1 ^ f2)
    equals [h1 f1', h2 f2'] for the evident slot restrictions."""
    if len(bracket_el.terms) != 1 or not isinstance(bracket_el.terms[0][0], Bracket):
        raise TermError("bracket_restrict expects a single bracket term")
    b, c = bracket_el.terms[0]
    if len(restrictions) != b.arity:
        raise TermError("one restriction per slot is required")
    for r in restrictions:
        sw = r.single_word()
        if sw is None or not _is_susp_word(sw[0]):
            raise StrictExpansionError("slot restrictions must be suspensions")
    slots = [compose(s, r, ctx) for s, r in zip(b.slots, restrictions)]
    return _normalize_bracket(Bracket(slots), c, ctx)


def suspend(e: Element, ctx: RuleContext) -> Element:
    """Suspension homomorphism on elements.

    Whitehead bracket terms of any arity suspend to zero.  Words consult
    whole-word suspension facts first, then suspend symbol by symbol; a
    symbol with no registered suspension image is an error.
    """
    from .terms import suspend_space
    src = suspend_space(e.source)
    tgt = suspend_space(e.target)
    out = Element.zero(src, tgt)
    for term, c in e.terms:
        if isinstance(term, Bracket):
            continue  # Sigma kills every Whitehead product
        word: Word = term
        hit = ctx.susp_rule(word)
        if hit is not None:
            rhs, fact = hit
            ctx.cite(fact)
            out = out + normalize(rhs, ctx).scale(c)
            continue
        syms = []
        for s in word.syms:
            img = (None if isinstance(s, Pair)
                   else ctx.registry.suspension_image(s))
            if img is None:
                raise RewriteError(
                    f"no suspension image for {word.render()}; add a "
                    "suspension fact")
            syms.append(img)
        out = out + normalize_word(Word(syms, src), c, ctx)
    return out


def desuspend(word: Word, registry) -> Optional[Word]:
    """The word whose suspension is ``word`` (symbol by symbol through
    ``registry.desuspension_image``; id(S^n) to id(S^(n-1)) for n >= 3),
    or None.  The one test of which classes the boundary rule desuspends,
    and so of which boundary values loading refuses to store."""
    if not word.syms:
        sp = word.space
        if sp.kind == "sphere" and sp.data[0] >= 3:
            return Word((), sphere(sp.data[0] - 1))
        return None
    syms = []
    for s in word.syms:
        img = registry.desuspension_image(s)
        if img is None:
            return None
        syms.append(img)
    return Word(syms)


def resolve_triple(bracket_el: Element, ambient, ctx: RuleContext) -> Element:
    """Pin down a triple product: scalars leave the slots, the base value
    comes from a stored singleton fact, and the indeterminacy must vanish:
    it lies in ``ambient``, the one group the script names for the three
    mixed-smash mapping groups, and a nontrivial one is out of scope."""
    from .kb import KbMissingFact
    if len(bracket_el.terms) != 1 or not isinstance(bracket_el.terms[0][0], Bracket):
        raise TermError("resolve_triple expects a single bracket term")
    b, c = bracket_el.terms[0]
    if b.arity != 3:
        raise TermError("resolve_triple handles arity 3")
    if not ambient.is_trivial():
        raise KbMissingFact(
            "KB fact required: indeterminacy with nontrivial ambient groups "
            f"is not mechanized ({bracket_el.render()})")
    k = c
    base_slots = []
    for s in b.slots:
        sw = s.single_word()
        if sw is None:
            raise RewriteError("slots must be single words to resolve")
        w, cs = sw
        syms = list(w.syms)
        # strip trailing degree maps out of the slot: k [.., h, ..] is a
        # member of [.., k h, ..] when the slot source is a suspension
        while syms and isinstance(syms[-1], Sym) and syms[-1].name == "deg":
            cs *= syms[-1].params[0]
            syms = syms[:-1]
        k *= cs
        base_slots.append(Element.from_term(Word(syms, w.source)))
    hit = ctx.product_value(base_slots)
    if hit is None:
        raise KbMissingFact(
            "KB fact required: no stored value for the base product "
            + Bracket(base_slots).render())
    rhs, fact = hit
    ctx.cite(fact)
    return normalize(rhs, ctx).scale(k)
