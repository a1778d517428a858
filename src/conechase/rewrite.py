"""Normalization and calculus for homotopy-class elements.

The engine only performs expansions it can justify exactly:

* post-composition is a homomorphism, so sums and integer scalars in the
  *inner* factor of ``f . g`` always distribute;
* sums/scalars in the *outer* factor distribute only across a co-H
  (suspension) inner map -- attempting it otherwise is refused with a
  ``StrictExpansionError``;
* a scalar on a word is the word composed with a degree map of its source
  sphere, and degree maps tunnel rightward through suspension symbols,
  through anything under an H-space sphere (S^3, licensed by the vanishing
  of its Whitehead square), and through the S^2 Hopf class with the
  classical k -> k^2 twist;
* coefficients are reduced modulo any known order of a suffix of the
  word, since the order of an image divides the order of the element
  being pushed.

Unknown composites stay as unexpanded words: silence never fabricates a
vanishing.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

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


RULE_KINDS = ("word", "susp", "order", "product")


def word_names(w: Word) -> tuple:
    """The symbol names a fact subject must carry to match ``w``; an
    identity word carries the single name ``id(space)``."""
    if w.syms:
        return tuple(s.name for s in w.syms)
    return (f"id({w.space.key})",)


class RuleContext:
    """Rewrite rules for one token assignment, found by matching on first
    use.

    ``lookup(kind, term)`` returns ``(rhs, fact)`` for the first catalog
    fact of that kind whose subject matches ``term``, or None.  The kinds
    are ``word`` (a rule rewriting exactly these symbols), ``susp`` (the
    suspension of a whole word), ``order`` (an order bound on a word; the
    rhs is the order) and ``product`` (the value of a Whitehead product on
    these slots).  ``signatures`` maps each kind to the symbol-name
    signatures that can match at all, so most lookups are rejected before
    any matching.  Answers are memoised in dicts that every view of the
    context shares.  ``on_rule`` receives each fact a rewrite consumes.

    ``registry`` is the catalog's symbol registry: suspension and
    desuspension images, and definitional unfolding of stuck words.

    Building the context reads the product ``[iota_3, iota_3]`` without
    citing it; ``tokens`` holds that fact's swept tokens, which every run
    on the context therefore depends on.
    """

    def __init__(self, registry, lookup: Callable, signatures: dict,
                 on_rule: Optional[Callable] = None):
        self.on_rule = on_rule    # callback(fact) when a fact is consumed
        self.registry = registry
        self._lookup = lookup
        self._signatures = {k: signatures.get(k, frozenset())
                            for k in RULE_KINDS}
        self.word_rules = {}      # symbol keys -> (rhs, fact) or None
        self.susp_words = {}      # word key -> (rhs, fact) or None
        self.order_bounds = {}    # symbol keys -> order or None
        self.products = {}        # slot keys -> (rhs, fact) or None
        self._stuck_cache = {}
        # all Whitehead products of S^3 vanish once [iota_3, iota_3] does
        s3 = Element.identity(sphere(3))
        hit = self.product_value([s3, s3])
        self.s3_hspace = hit is not None and hit[0].is_zero()
        self.tokens = hit[1].tokens if hit is not None else frozenset()

    # -- lookups --------------------------------------------------------------

    def word_rule(self, syms):
        """(rhs, fact) of the rule rewriting exactly ``syms``, or None."""
        if tuple(s.name for s in syms) not in self._signatures["word"]:
            return None
        key = tuple(s.key for s in syms)
        if key not in self.word_rules:
            self.word_rules[key] = self._lookup("word", Word(syms))
        return self.word_rules[key]

    def susp_rule(self, word: Word):
        """(rhs, fact) of a stored suspension of the whole word, or None."""
        if word_names(word) not in self._signatures["susp"]:
            return None
        key = word.key()
        if key not in self.susp_words:
            self.susp_words[key] = self._lookup("susp", word)
        return self.susp_words[key]

    def order_bound(self, syms) -> Optional[int]:
        """A stored bound on the order of the word ``syms``, or None."""
        if tuple(s.name for s in syms) not in self._signatures["order"]:
            return None
        key = tuple(s.key for s in syms)
        if key not in self.order_bounds:
            hit = self._lookup("order", Word(syms))
            self.order_bounds[key] = hit and hit[0]
        return self.order_bounds[key]

    def product_value(self, slots):
        """(rhs, fact) of a stored value of the product on ``slots``, each
        a single unscaled word, or None."""
        names = []
        for s in slots:
            sw = s.single_word()
            if sw is None or sw[1] != 1:
                return None
            names.append(word_names(sw[0]))
        if tuple(names) not in self._signatures["product"]:
            return None
        key = tuple(s.key() for s in slots)
        if key not in self.products:
            self.products[key] = self._lookup("product", list(slots))
        return self.products[key]

    def _consumed(self, fact):
        if self.on_rule:
            self.on_rule(fact)

    def suffix_bound(self, word: Word) -> Optional[int]:
        syms = word.syms
        best = None
        for j in range(len(syms)):
            b = self.order_bound(syms[j:])
            if b is not None and (best is None or b < best):
                best = b
            if j == len(syms) - 1 and isinstance(syms[j], Sym):
                o = syms[j].order
                if o:
                    if best is None or o < best:
                        best = o
        return best


# ---------------------------------------------------------------------------
# raw construction helpers (used by the parser; no rules applied)
# ---------------------------------------------------------------------------

def raw_concat(left: Element, right: Element) -> Element:
    """Textual composition left . right without normalization."""
    lw = left.single_word()
    rw = right.single_word()
    if lw is not None and rw is not None:
        (w1, c1), (w2, c2) = lw, rw
        syms = list(w1.syms) + list(w2.syms)
        word = Word(syms) if syms else Word((), w2.space)
        return Element.from_term(word, c1 * c2)
    if lw is not None and len(right.terms) == 1:
        # a single map written in front of a bracket: binary naturality
        w1, c1 = lw
        term, c2 = right.terms[0]
        if isinstance(term, Bracket) and c1 in (1, -1) and term.arity == 2:
            head = (Element.from_term(Word(w1.syms)) if w1.syms
                    else Element.identity(w1.space))
            slots = [raw_concat(head, s) for s in term.slots]
            return Element.from_term(Bracket(slots, term.tag), c1 * c2)
    raise TermError("composition of composite sums must go through compose()")


def whitehead_raw(slots: Sequence[Element]) -> Element:
    return Element.from_term(Bracket(slots))


# ---------------------------------------------------------------------------
# word normalization
# ---------------------------------------------------------------------------

def _is_susp_word(w: Word) -> bool:
    if w.is_identity():
        return is_suspension_space(w.space)
    return all(getattr(s, "is_susp", False) for s in w.syms)


def _splice(pre, rhs_syms, post):
    return list(pre) + list(rhs_syms) + list(post)


def normalize_word(word: Word, coeff: int, ctx: RuleContext,
                   _depth: int = 0) -> Element:
    """Fully normalize coeff * word into an element."""
    syms = list(word.syms)
    space = word.space
    guard = 0
    while True:
        guard += 1
        if guard > 500:
            raise RewriteError(f"rewriting did not terminate on {word.render()}")
        changed = False

        # drop unit degree maps, absorb zero ones
        for i, s in enumerate(syms):
            if isinstance(s, Sym) and s.name == "deg":
                k = s.params[0]
                if k == 1:
                    del syms[i]
                    changed = True
                    break
                if k == 0:
                    return Element.zero(word.source, word.target)
        if changed:
            continue

        # merge adjacent degree maps
        for i in range(len(syms) - 1):
            a, b = syms[i], syms[i + 1]
            if (isinstance(a, Sym) and a.name == "deg"
                    and isinstance(b, Sym) and b.name == "deg"):
                syms[i: i + 2] = [deg_sym(a.params[0] * b.params[0], a.params[1])]
                changed = True
                break
        if changed:
            continue

        # a degree map in final position is an inner scalar: exact
        if syms and isinstance(syms[-1], Sym) and syms[-1].name == "deg":
            coeff *= syms[-1].params[0]
            src = syms[-1].source
            syms = syms[:-1]
            if not syms:
                space = src
            continue

        # tunnel degree maps rightward where that is exact
        for i in range(len(syms) - 1):
            s = syms[i]
            if not (isinstance(s, Sym) and s.name == "deg"):
                continue
            k, n = s.params
            nxt = syms[i + 1]
            moved = False
            if all(getattr(t, "is_susp", False) for t in syms[i + 1:]):
                # the whole tail is a suspension, so the degree map is a
                # plain scalar on it
                del syms[i]
                coeff *= k
                moved = True
            elif isinstance(nxt, Sym) and nxt.name == "eta_2":
                # degree k on S^2 multiplies the Hopf class by k^2
                syms[i: i + 2] = [nxt, deg_sym(k * k, 3)]
                moved = True
            elif getattr(nxt, "is_susp", False) and nxt.source.kind == "sphere":
                syms[i: i + 2] = [nxt, deg_sym(k, nxt.source.data[0])]
                moved = True
            elif n == 3 and ctx.s3_hspace and nxt.source.kind == "sphere":
                # all Whitehead products of S^3 vanish: degree maps act
                # linearly on every homotopy group of S^3
                syms[i: i + 2] = [nxt, deg_sym(k, nxt.source.data[0])]
                moved = True
            if moved:
                changed = True
                break
        if changed:
            continue

        # wedge projection/inclusion annihilation (matching wedge tags)
        for i in range(len(syms) - 1):
            a, b = syms[i], syms[i + 1]
            if not (isinstance(a, Sym) and isinstance(b, Sym)):
                continue
            names = (a.name.split("_")[0], b.name.split("_")[0])
            if names in (("q1", "j1"), ("q2", "j2")) and a.source == b.target:
                syms[i: i + 2] = []
                if not syms:
                    space = b.source
                changed = True
                break
            if names in (("q1", "j2"), ("q2", "j1")) and a.source == b.target:
                return Element.zero(word.source, word.target)
        if changed:
            continue

        # co-pairing evaluation
        for i, s in enumerate(syms):
            if isinstance(s, Pair) and i + 1 < len(syms):
                nxt = syms[i + 1]
                if isinstance(nxt, Sym) and nxt.name.startswith(("j1", "j2")):
                    comp = s.f if nxt.name.startswith("j1") else s.g
                    pre = Word(syms[:i]) if syms[:i] else Word((), s.target)
                    post = (Word(syms[i + 2:]) if syms[i + 2:]
                            else Word((), nxt.source))
                    el = compose(_word_el(pre, 1), comp, ctx)
                    el = compose(el, _word_el(post, 1), ctx)
                    return el.scale(coeff)
        # table-driven rewrite rules, longest match first, leftmost position
        applied = None
        for length in (3, 2, 1):
            if applied:
                break
            for i in range(len(syms) - length + 1):
                chunk = syms[i: i + length]
                if not all(isinstance(s, Sym) for s in chunk):
                    continue
                hit = ctx.word_rule(chunk)
                if hit:
                    applied = (i, length) + hit
                    break
        if applied:
            i, length, rhs, fact = applied
            ctx._consumed(fact)
            sw = rhs.single_word()
            if rhs.is_zero():
                return Element.zero(word.source, word.target)
            if sw is not None:
                w2, c2 = sw
                coeff *= c2
                syms = _splice(syms[:i], w2.syms, syms[i + length:])
                if not syms:
                    space = rhs.source
                continue
            # multi-term replacement: splice via gated composition
            pre = Word(syms[:i]) if syms[:i] else Word((), rhs.target)
            post = (Word(syms[i + length:]) if syms[i + length:]
                    else Word((), rhs.source))
            el = compose(_word_el(pre, 1), rhs, ctx)
            el = compose(el, _word_el(post, 1), ctx)
            return el.scale(coeff)
        break

    if not syms:
        w = Word((), space if space is not None else word.source)
    else:
        w = Word(syms)
    bound = ctx.suffix_bound(w)
    if bound:
        coeff %= bound
    if coeff == 0:
        return Element.zero(word.source, word.target)
    stuck = Element.from_term(w, coeff)
    # A stuck word may only be blocked by a defined abbreviation hiding a
    # redex (a comparison map meeting a collapsed inclusion, say): unfold
    # once and keep that route only if it refolds to something new.  Every
    # abbreviation has a collapse rule, so a fruitless unfold folds back
    # to the same word and is dropped here.
    if _depth == 0 and len(w.syms) > 1 and _has_defn(w, ctx.registry):
        cache_key = (w.key(), coeff)
        hit = ctx._stuck_cache.get(cache_key)
        if hit is not None:
            out, fired = hit
            # replay the citations the unfold consumed, so transcripts do
            # not depend on cache warmth
            for fact in fired:
                ctx._consumed(fact)
            return out
        captured = []
        orig_hook = ctx.on_rule
        ctx.on_rule = captured.append
        try:
            unfolded = ctx.registry.unfold_element(stuck)
            redone = Element.zero(stuck.source, stuck.target)
            for t, c in unfolded.terms:
                if isinstance(t, Word):
                    redone = redone + normalize_word(t, c, ctx, _depth=1)
                else:
                    redone = redone + _normalize_bracket(t, c, ctx)
        finally:
            ctx.on_rule = orig_hook
        out = redone if redone.key() != stuck.key() else stuck
        ctx._stuck_cache[cache_key] = (out, tuple(captured))
        for fact in captured:
            ctx._consumed(fact)
        return out
    return stuck


def _has_defn(w: Word, registry) -> bool:
    for s in w.syms:
        spec = registry.specs.get(getattr(s, "name", ""))
        if spec is not None and spec.defn is not None:
            return True
    return False


def _word_el(w: Word, c: int) -> Element:
    return Element.from_term(w, c)


# ---------------------------------------------------------------------------
# element normalization / composition
# ---------------------------------------------------------------------------

def normalize(e: Element, ctx: RuleContext) -> Element:
    out = Element.zero(e.source, e.target)
    for term, c in e.terms:
        if isinstance(term, Word):
            out = out + normalize_word(term, c, ctx)
        else:
            out = out + _normalize_bracket(term, c, ctx)
    return Element(e.source, e.target, out.terms, is_suspension=e.is_suspension)


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
                    ctx._consumed(fact)
                    out = out + normalize(rhs, ctx).scale(coeff * c1 * c2)
                else:
                    out = out + Element.from_term(Bracket([e1, e2], b.tag),
                                                  coeff * c1 * c2)
        return out
    # higher products: keep slots intact (set-valued semantics)
    return Element.from_term(Bracket(slots, b.tag), coeff)


def compose(f: Element, g: Element, ctx: RuleContext) -> Element:
    """Normalized composite f . g (g applied first)."""
    if f.is_zero() or g.is_zero():
        return Element.zero(g.source, f.target)
    if g.target != f.source:
        raise TermError(
            f"space mismatch: {g.target.key} composed into {f.source.key}")
    out = Element.zero(g.source, f.target)
    for gterm, d in g.terms:
        out = out + _compose_inner(f, gterm, ctx).scale(d)
    return normalize(out, ctx)


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
            merged = _concat_words(word, gword)
            return normalize_word(merged, c, ctx)
        if word.source.kind == "sphere":
            # c * w == w . deg(c): exact, the scalar tunnels if it can
            n = word.source.data[0]
            merged = _concat_words(Word(tuple(word.syms) + (deg_sym(c, n),))
                                   if word.syms else Word((deg_sym(c, n),)),
                                   gword)
            return normalize_word(merged, 1, ctx)
        raise StrictExpansionError(
            f"cannot move scalar {c} across {gword.render()}: inner map "
            "is not a suspension and the interface is not a sphere")
    # multi-term outer factor
    if _is_susp_word(gword):
        out = Element.zero(gword.source, f.target)
        for term, c in f.terms:
            out = out + _compose_inner(Element.from_term(term, c), gword, ctx)
        return out
    if gword.is_identity():
        return f
    raise StrictExpansionError(
        f"cannot distribute a sum across {gword.render()}: inner map is "
        "not a suspension")


def _concat_words(a: Word, b: Word) -> Word:
    syms = tuple(a.syms) + tuple(b.syms)
    if not syms:
        return Word((), b.space)
    return Word(syms)


def _compose_into_bracket(f: Element, b: Bracket, ctx: RuleContext) -> Element:
    """f . [h1, ..., hn] pushes into the slots (naturality)."""
    sw = f.single_word()
    if sw is None:
        raise StrictExpansionError("only a single map pushes into a bracket")
    w, c = sw
    if c != 1:
        raise StrictExpansionError(
            "scale a bracket through its slots, not through the outer map")
    slots = [compose(Element.from_term(w) if w.syms else Element.identity(w.space),
                     s, ctx) for s in b.slots]
    tag = b.tag or ("member" if b.arity >= 3 else "")
    return _normalize_bracket(Bracket(slots, tag), 1, ctx)


# ---------------------------------------------------------------------------
# the public calculus
# ---------------------------------------------------------------------------

def scale(e: Element, k: int, ctx: RuleContext) -> Element:
    return normalize(e.scale(k), ctx)


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


def higher_bracket(slots: Sequence[Element], tag: str, ctx: RuleContext) -> Element:
    return _normalize_bracket(Bracket(list(slots), tag), 1, ctx)


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
        if not _element_is_susp(r):
            raise StrictExpansionError("slot restrictions must be suspensions")
    slots = [compose(s, r, ctx) for s, r in zip(b.slots, restrictions)]
    return _normalize_bracket(Bracket(slots, b.tag), c, ctx)


def _element_is_susp(e: Element) -> bool:
    if e.is_suspension:
        return True
    sw = e.single_word()
    return sw is not None and _is_susp_word(sw[0])


def bracket_factor_head(bracket_el: Element, head: Element,
                        ctx: RuleContext) -> Element:
    """Rewrite [g a, g b] as g . [a, b] (binary naturality, reversed).

    Returns the inner bracket [a, b]; the caller re-applies ``head``.
    """
    if len(bracket_el.terms) != 1 or not isinstance(bracket_el.terms[0][0], Bracket):
        raise TermError("bracket_factor_head expects a single bracket term")
    b, c = bracket_el.terms[0]
    if b.arity != 2:
        raise TermError("head factoring is only available for binary products")
    hw = head.single_word()
    if hw is None or hw[1] != 1:
        raise TermError("head must be a single unsigned word")
    hsyms = hw[0].syms
    inner = []
    for s in b.slots:
        sw = s.single_word()
        if sw is None:
            raise TermError("slots must be single words to factor a head")
        w, cs = sw
        if tuple(w.syms[:len(hsyms)]) != tuple(hsyms):
            raise TermError(
                f"slot {w.render()} does not start with {hw[0].render()}")
        rest = w.syms[len(hsyms):]
        inner.append(Element.from_term(
            Word(rest) if rest else Word((), hw[0].source), cs))
    return _normalize_bracket(Bracket(inner, b.tag), c, ctx)


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
            ctx._consumed(fact)
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
        w2 = Word(syms) if syms else Word((), src)
        out = out + normalize_word(w2, c, ctx)
    return Element(src, tgt, out.terms, is_suspension=True)


def triple_indeterminacy(ambients, label: str = ""):
    """Indeterminacy subgroup of a triple product from its ambient groups.

    The subgroup is generated by brackets against the three mixed-smash
    mapping groups; when all three vanish the product is a singleton.
    Nontrivial ambient groups are out of scope for the shipped rules.
    """
    from .groups import TwoLocalGroup
    for a in ambients:
        if a is None:
            raise RewriteError("KB fact required: ambient group missing")
    if all(a.is_trivial() for a in ambients):
        return TwoLocalGroup([])
    raise RewriteError(
        "KB fact required: indeterminacy with nontrivial ambient groups "
        f"is not mechanized ({label})")


def resolve_triple(bracket_el: Element, ambients, ctx: RuleContext) -> Element:
    """Pin down a triple product: scalars leave the slots, the base value
    comes from a stored singleton fact, and the indeterminacy must vanish."""
    if len(bracket_el.terms) != 1 or not isinstance(bracket_el.terms[0][0], Bracket):
        raise TermError("resolve_triple expects a single bracket term")
    b, c = bracket_el.terms[0]
    if b.arity != 3:
        raise TermError("resolve_triple handles arity 3")
    triple_indeterminacy(ambients, label=bracket_el.render())
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
        base_slots.append(Element.from_term(
            Word(syms) if syms else Word((), w.source)))
    hit = ctx.product_value(base_slots)
    if hit is None:
        raise RewriteError(
            "KB fact required: no stored value for the base product "
            + Bracket(base_slots).render())
    rhs, fact = hit
    ctx._consumed(fact)
    return normalize(rhs, ctx).scale(k)
