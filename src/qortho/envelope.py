"""Regular functionals on the embedded orthogonal quantum group and the
enveloping algebra of its inhomogeneous quotient.

The dual algebra is generated by the counit eps and two matrices of
functionals L+, L- whose values on the matrix generators are fixed by the
R matrix of the embedded geometry:

    L+^A_B (T^C_D) = R^{CA}_{DB}      L-^A_B (T^C_D) = (R^{-1})^{AC}_{BD}
    L+-^A_B (I)    = delta^A_B

extended to longer words through L^A_B(ab) = L^A_G(a) L^G_B(b) and to the
whole dual by the convolution product (fg)(a) = (f x g)(Delta a).  Since
Delta(L) = L x L (Faddeev, Reshetikhin and Takhtajan 1990), the value of
a word L^{A1}_{B1} ... L^{Am}_{Bm} on the free word T^{C1}_{D1} ...
T^{Ck}_{Dk} is the entry [A][B] of a product Theta^{C1}_{D1} ...
Theta^{Ck}_{Dk} of transfer matrices acting on m-tuples of generator
indices, one family per sign pattern of the word (_Pattern), built from
the R matrix.  Functionals are evaluated by a depth-first walk of the
trie of T-words (_walk): a fixed combination of words enters as start
rows with its coefficients folded in (_as_side), each node multiplies
its parent's rows by the transfer matrices of every letter at once, and
only the rows along the current word are held; the words of the last
length are read from their parent's rows through a lookahead.  The
coefficients are first brought to Laurent polynomials, so the walk
carries bare Laurent numerators in its rows, transfer matrices and read
coefficients, never looks inside them, and forms every product with
scalars.tagged_mul_acc, the one in-place kernel: a step adds each
product of a row value and a transfer entry into the sum of its state, a
key dropped when that sum cancels.  A step keeps only the states that
may still reach a read state in the letters left (_Pattern.viable), read
off the nonzero pattern of the same block transfer matrices it
multiplies through (_preimages).  The reads of a stream state are one
tagged numerator, each part tagged by the key it feeds (by (letter, key)
in the lookahead), so a word's values, and at the last length every
letter's values at once, are one sum per node with one kernel call per
row state, split by key and letter only when it is not zero; a value
becomes a Scalar once, when it is read, before any map of its side.
Every bracket <f, a> comes from one call, _brackets(fs, words): the
elements come as T-words from _t_words, the one translation of their
letters, so that elements read against several batches are translated
once, and the call returns one row {key of a: value} per key of fs,
zeros left out.  It is the same walk restricted to the prefixes of
those T-words, one walk per batch: it steps every letter at each prefix
it visits, keeps the letters that extend a T-word, and reads the last
length through the same lookahead, dropping the other letters when the
sum is split.  The transfer matrices of the one- and two-letter
patterns and their preimages are derived data, built on first use and
kept by functools.cache per bundle and sign pattern; nothing keyed by a
word or a word length is kept.

The side family {key: side} is the one unit of the engine: _compile,
_walk and _convolve take one family, and yield per word one dict of its
nonzero values by key.  Every relation of the envelope suite (exchange,
metric orthogonality, the counit, bullet-row reduction and twist
identities) is a family of equalities lhs = rhs between functionals,
one per index key, checked on every free word of length k <= D in one
walk (an intertwiner family, below, on those of length k <= min(D, 1),
which decides every word); the exchange relations (_exchange_relations)
are keyed by their indices (A, B; C, D) like the others.
functional_equal states the
order in which the first disagreement is reported.  Every relation is
walked as the one side lhs - rhs (_difference), and holds when the walk
gives it no value, so a passing family wraps no value in a Scalar; a
failing relation has its two sides read again on its first failing word
alone, as the keys (key, 0) and (key, 1) of one family (_witnesses).
The exchange and metric-orthogonality families are intertwiner
families (_Intertwiner): each reads P Phi(w) = Theta'(w) Q on every
T-word w, Phi and Theta' tensor products of L matrices, each maybe
restricted to a generator mask (for orthogonality Theta' is the counit,
a character, and P, Q the metric vector).  Since Delta(L) = L x L, a
restricted L matrix whose mask passes the support-closure certificate
(_multiplicative: m(F, Y) == m(F, G) and m(G, Y) for all (F, G), (G, Y)
in the reflexive-transitive closure S* of the support of the one-letter
transfer matrices, _reach) is multiplicative, and then so are Phi and
Theta'.  The letters then decide the family (Woronowicz, Comm. Math.
Phys. 122 (1989), for intertwiners of multiplicative matrices): the
empty word gives P = Q, each letter a gives P Phi(a) = Theta'(a) P, and
induction on the word gives every word.  So the relation suite walks
such a family to length min(D, 1), and its verdict covers every free
word; a failing family fails first on a word of length <= 1, so the
walk to D would report the same first failure.
The uniparametric collapse is such a family too, over the bundle of R
at g_ab = r (RMatrixBundle.uniparametric).  A side may also carry the
image of every value under the r = 1 limit (_mapped), which is how the
r = 1 calculus reads its functionals.  A mapped side is only ever set
against zero, and walked alone, so the limit sees its own values; set
against a nonzero side it is refused, since the limit of the difference
would hide a pole of either side.  A bracket with a mapped side is the
limit of the unmapped bracket, so terms cancel across words before the
limit is taken.
A side may also be a combination of convolution products of functionals
kept factored (_Factored), as the q-Lie relations of the calculus are:
its walk side has one term per product, whose source is the tuple of
factors, and _convolve reads such sides in place of _walk.  A factor may
be a mapped side, which is how the r = 1 q-Lie rows are built: over the
limited tangent vectors, with limited coefficients, so that the rows
are differences with no map.  Both walks read their streams, column
coefficients and maps through _compile and form every product with
the one kernel of scalars.  _convolve walks the distinct factors once, keeps
their values as Laurent numerators for that one check, and forms each
product on a T-word from them by the coproduct
Delta(T^C_D) = sum_G T^C_G x T^G_D, so no product is multiplied out
into longer functional words.
The Hopf pairing axioms are ordered families of (key, lhs, rhs) cases
that report their first failure through report.first_failure, their
left sides reading brackets from batched restricted walks and their
right sides contracted from the nonzero brackets alone; the cone-ideal
scan of iu_annihilates reports the first nonzero value in the order
stated in _cone_witness.

L+ is upper triangular and L- lower triangular.  The functionals that
annihilate the cone ideal (generated by T^a_o, T^*_b, T^*_o) are exactly
eps, the whole of L-, the inner block L+^a_b and the two cone diagonals
L+^o_o, L+^*_*; they pair with the quotient algebra through the fixed
linear section u -> T^o_o, v -> T^*_*, x^a -> T^a_*, T^a_b -> T^a_b of the
projection.  As a right module over the inner-block subalgebra this dual
is spanned by the ordered monomials eta^i = (L-^o_o)^{i_o} (L-^1_o)^{i_1}
... (L-^N_o)^{i_N} with i_o in Z, negative dilatation powers written with
L-^*_* = (L-^o_o)^{-1}.
"""

from __future__ import annotations

import functools
import operator
import re
from collections import defaultdict
from fractions import Fraction
from itertools import product as iproduct
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from .itensor import (IndexGeometry, SparseTensor4, _by_upper, tensor_equal,
                      triple_compose)
from .presentations import (AlgebraElement, build_presentation, costructure,
                            project, section, t_letter, unit_element,
                            word_element)
from .report import Report, first_failure
from .rmatrix import RMatrixBundle, build_bundle, inner_lift
from .scalars import (LinearCombination, ParamSpace, Scalar, SchemaError,
                      _acc, _schema_items, _terms_from_json, canonical_q,
                      common_denominator, laurent_numerator, laurent_scalar,
                      rational_rank,
                      render_scalar, scalar_invert, scalar_to_json,
                      specialize, tag_fold, tag_split, tagged_mul_acc,
                      word_key)

Gen = Tuple[int, int, int]            # (sign, A, B); sign +1 for L+, -1 for L-
FunctionalWord = Tuple[Gen, ...]
EPS_WORD: FunctionalWord = ()

__all__ = [
    "FunctionalElement", "FunctionalWord", "Gen", "EPS_WORD",
    "EqualityResult", "AnnihilationResult",
    "eps_functional", "l_functional", "word_functional",
    "gen_tag", "tag_gen", "tag_word", "show_functional_word",
    "eval_functional", "antipode_L", "coproduct_functional",
    "counit_functional", "functional_equal", "verify_envelope_suite",
    "verify_parameter_collapse", "verify_pairing_axioms",
    "iu_annihilates", "iu_generators", "pairing", "independence_rank",
    "eta_monomials", "script_r_matrix",
    "functional_to_json", "functional_from_json",
]


def gen_tag(g: Optional[Gen]) -> str:
    if g is None:
        return "eps"
    sign, A, B = g
    return "L%s[%d,%d]" % ("+" if sign > 0 else "-", A, B)


def tag_gen(tag: str) -> Optional[Gen]:
    if tag == "eps":
        return None
    m = (re.fullmatch(r"L([+-])\[([0-9]{1,9}),([0-9]{1,9})\]", tag)
         if isinstance(tag, str) else None)
    if m is None:
        raise SchemaError("", "unknown functional generator tag %r" % (tag,))
    return (1 if m[1] == "+" else -1, int(m[2]), int(m[3]))


def tag_word(M: int, tags) -> FunctionalWord:
    """The functional word a list of generator tags spells, every index in
    1..M.  eps is the unit, so it is absorbed wherever it stands."""
    def gen(tag):
        g = tag_gen(tag)
        if g is not None and not (1 <= g[1] <= M and 1 <= g[2] <= M):
            raise SchemaError("", "indices of %r outside 1..%d" % (tag, M))
        return g

    return tuple(g for g in _schema_items(tags, gen) if g is not None)


def show_functional_word(w: FunctionalWord) -> str:
    if not w:
        return "eps"
    return " ".join(gen_tag(g) for g in w)


class FunctionalElement(LinearCombination):
    """Finite scalar combination of words of L+/L- generators.

    The counit is the empty word; tag_word absorbs the eps tags of a
    parsed word, so words never store unit factors.
    """

    __slots__ = ("bundle",)

    def __init__(self, bundle: RMatrixBundle,
                 terms: Dict[FunctionalWord, Scalar]):
        self.bundle = bundle
        super().__init__(terms)

    def _context(self):
        return (self.bundle,)

    def _mismatch(self, other) -> str:
        if self.bundle is other.bundle:
            return ""
        return "functionals over different R matrix bundles"

    def __repr__(self):
        if not self.terms:
            return "FunctionalElement(0)"
        bits = ["(%s)*%s" % (render_scalar(c), show_functional_word(w))
                for w, c in sorted(self.terms.items(),
                                   key=lambda t: word_key(t[0]))]
        shown = bits[:6]
        if len(bits) > 6:
            shown.append("... %d terms" % len(bits))
        return "FunctionalElement(%s)" % " + ".join(shown)


def eps_functional(bundle: RMatrixBundle) -> FunctionalElement:
    return FunctionalElement(bundle, {EPS_WORD: bundle.geometry.params.one})


def l_functional(bundle: RMatrixBundle, sign: int, A: int,
                 B: int) -> FunctionalElement:
    M = bundle.geometry.dim
    if sign not in (1, -1) or not (1 <= A <= M and 1 <= B <= M):
        raise ValueError("bad functional generator (%r, %r, %r)"
                         % (sign, A, B))
    return FunctionalElement(bundle,
                             {((sign, A, B),): bundle.geometry.params.one})


def word_functional(bundle: RMatrixBundle, w: FunctionalWord,
                    coeff: Optional[Scalar] = None) -> FunctionalElement:
    return FunctionalElement(
        bundle, {tuple(w): coeff if coeff is not None
                 else bundle.geometry.params.one})


# ---------------------------------------------------------------------------
# evaluation engine

State = Tuple[int, ...]          # one generator index per letter of a word
Row = Dict[State, object]        # values: Laurent numerators (laurent_numerator)
Letter = Tuple[int, int]         # the T letter T^C_D as (C, D)


@functools.cache
def _transfer(bundle: RMatrixBundle, signs: Tuple[int, ...]):
    """The transfer matrices of a sign pattern of one or two letters, a
    block of step, indexed by the state they act on: trans[a] lists the
    (C, D, b, v) with Theta^C_D[a][b] = v nonzero, v its Laurent
    numerator (see _Pattern); for one letter Theta^C_D[(E,)][(F,)] =
    L^E_F(T^C_D) = R+-^{EC}_{FD}, and two letters sum the products of
    one-letter entries over the inner index, one tagged_mul_acc call per
    product, leaving out a sum that cancels."""
    ps = bundle.geometry.params
    if len(signs) == 1:
        tensor = bundle.Rplus if signs[0] > 0 else bundle.Rminus
        out: Dict[State, List[Tuple[int, int, State, object]]] = {}
        for (E, C, F, D), v in tensor.items():
            out.setdefault((E,), []).append(
                (C, D, (F,), laurent_numerator(ps, v)))
        return out
    # Theta^C_D[a1 a2][b1 b2] = sum_G tau^C_G[a1][b1] tau^G_D[a2][b2]
    second: Dict[int, Dict[State, List]] = {}
    for a2, hits in _transfer(bundle, signs[1:]).items():
        for G, D, b2, t in hits:
            second.setdefault(G, {}).setdefault(a2, []).append((D, b2, t))
    acc: Dict[State, Row] = {}
    for a1, hits in _transfer(bundle, signs[:1]).items():
        for C, G, b1, v in hits:
            for a2, tail in second.get(G, {}).items():
                row = acc.setdefault(a1 + a2, {})
                for D, b2, t in tail:
                    tagged_mul_acc(ps, row.setdefault((C, D, b1 + b2), {}),
                                   v, t)
    return {a: [k + (v,) for k, v in row.items() if v]
            for a, row in acc.items()}


@functools.cache
def _preimages(bundle: RMatrixBundle,
               signs: Tuple[int, ...]) -> Dict[State, set]:
    """pre[b]: the states a of a sign pattern of one or two letters with
    Theta^C_D[a][b] nonzero for some letter (C, D), read off _transfer."""
    pre: Dict[State, set] = {}
    for a, hits in _transfer(bundle, signs).items():
        for _, _, b, _ in hits:
            pre.setdefault(b, set()).add(a)
    return pre


@functools.cache
def _reach(bundle: RMatrixBundle, sign: int) -> Dict[int, set]:
    """reach[F]: the indices Y with (F, Y) in S*, the reflexive-transitive
    closure of the support {(E, F): L^E_F(T^C_D) nonzero for some letter}
    of the one-letter transfer matrices of L^sign (_transfer), the same
    entries step multiplies through.  L^F_Y vanishes on every T-word
    unless (F, Y) is in S*."""
    succ = {E: {F for _, _, (F,), _ in hits}
            for (E,), hits in _transfer(bundle, (sign,)).items()}
    reach = {F: {F} for F in bundle.geometry.indices()}
    for _ in reach:                 # a shortest path repeats no index
        reach = {F: ys.union(*(succ.get(Y, ()) for Y in ys))
                 for F, ys in reach.items()}
    return reach


def _multiplicative(bundle: RMatrixBundle, sign: int, mask) -> bool:
    """The certificate that the L^sign matrix restricted to mask (L^A_B
    kept where mask(A, B)) is multiplicative, its value on a word the
    product of its values on the letters: mask(F, Y) == mask(F, G) and
    mask(G, Y) for all (F, G), (G, Y) in S* (_reach).  A term L^F_G(a)
    L^G_Y(b) of L^F_Y(ab) is zero unless both pairs are in S*, and every
    entry outside S* vanishes, so the restriction then keeps a term of
    the product exactly when it keeps the product's entry."""
    reach = _reach(bundle, sign)
    return all(mask(F, Y) == (mask(F, G) and mask(G, Y))
               for F in reach for G in reach[F] for Y in reach[G])


class _Pattern:
    """The source of the words with one sign pattern (s1, ..., sm).  A
    state is a tuple (E1, ..., Em) of generator indices, and the T letter
    (C, D) acts on states by the transfer matrix
    Theta^C_D = sum_G tau_{s1}^C_{G1} x tau_{s2}^{G1}_{G2} x ... x
    tau_{sm}^{G_{m-1}}_D, tau_s^C_D[E][F] = L_s^E_F(T^C_D), so that the
    word L^{A1}_{B1} ... L^{Am}_{Bm} takes the value
    (Theta^{C1}_{D1} ... Theta^{Ck}_{Dk})[A][B] on T^{C1}_{D1} ...
    T^{Ck}_{Dk}; the empty pattern is the counit.  Equal patterns over
    one bundle are one source, so their streams are shared."""

    __slots__ = ("bundle", "signs")

    def __init__(self, bundle: RMatrixBundle, signs: Tuple[int, ...]):
        self.bundle = bundle
        self.signs = signs

    def __eq__(self, other) -> bool:
        return (type(other) is _Pattern and self.bundle is other.bundle
                and self.signs == other.signs)

    def __hash__(self):
        return hash(self.signs)

    def viable(self, ends, r: int):
        """A filter for step: per block of one or two letters, the blocks
        step multiplies through, the block states from which that block
        of some state of ends is reached within r more letters over the
        nonzero entries of the block's transfer matrices (_preimages).
        A state that reaches ends reaches it block by block, so a state
        this drops reaches no state of ends and no value read there
        changes; for a pattern of one or two letters, one block, it
        keeps exactly the states that reach ends."""
        sets = []
        for p in range(0, len(self.signs), 2):
            ok = {e[p:p + 2] for e in ends}
            pre = _preimages(self.bundle, self.signs[p:p + 2])
            for _ in range(r):
                grown = ok.union(*(pre.get(b, ()) for b in ok))
                if len(grown) == len(ok):
                    break           # no longer growing
                ok = grown
            sets.append(ok)
        return tuple(sets)

    def step(self, row: Row, keep=None) -> Dict[Letter, Row]:
        """The nonzero products row Theta^C_D for every letter (C, D),
        without the states a filter of viable drops; rows hold Laurent
        numerators.  The pattern is applied one block of at most two
        letters at a time (the transfer matrices of longer patterns are
        not stored), each partial product keyed by (C, G, state) with G
        the running index of the sum over the chain, and each product of
        a value and a transfer entry goes into the sum of its key with
        one scalars.tagged_mul_acc call; the first block is read off the
        transfer matrices of the state for every C at once."""
        signs, ps = self.signs, self.bundle.geometry.params
        if not signs:                                       # the counit
            return {(C, C): row for C in self.bundle.geometry.indices()}
        cur: Row = {}
        for p in range(0, len(signs), 2):
            trans = _transfer(self.bundle, signs[p:p + 2])
            q = min(p + 2, len(signs))
            ok = None if keep is None else keep[p // 2]
            nxt: Row = {}
            if p == 0:                  # every letter's C starts a chain
                for a, v in row.items():
                    for C, H, b, t in trans.get(a[:q], ()):
                        if ok is None or b in ok:
                            tagged_mul_acc(ps, nxt.setdefault(
                                (C, H) + b + a[q:], {}), v, t)
            for key, v in cur.items():
                C, G, head, tail = key[0], key[1], key[2:2 + p], key[2 + q:]
                for E, H, b, t in trans.get(key[2 + p:2 + q], ()):
                    if E == G and (ok is None or b in ok):
                        tagged_mul_acc(ps, nxt.setdefault(
                            (C, H) + head + b + tail, {}), v, t)
            cur = nxt
        out: Dict[Letter, Row] = {}
        for key, v in cur.items():
            if v:                       # a sum that cancelled is dropped
                out.setdefault(key[:2], {})[key[2:]] = v
        return out


class _Diagonal:
    """A one-state source that lives on the diagonal words
    T^{C1}_{C1} ... T^{Ck}_{Ck} only, scaling by factors[C] per letter
    (Laurent polynomials, kept as their numerators).  A letter whose
    factor is zero is left out, so no product is zero."""

    __slots__ = ("ps", "factors")

    def __init__(self, factors: Dict[int, Scalar]):
        self.ps = next(iter(factors.values())).ps
        self.factors = {C: laurent_numerator(self.ps, f)
                        for C, f in factors.items() if f}

    def viable(self, ends, r: int):
        return None

    def step(self, row: Row, keep=None) -> Dict[Letter, Row]:
        out: Dict[Letter, Row] = {}
        for C, f in self.factors.items():
            out[C, C] = got = {a: {} for a in row}
            for a, v in row.items():
                tagged_mul_acc(self.ps, got[a], f, v)
        return out


class _Side:
    """A relation side as the walk evaluates it.  On a T-word its value
    is fn(v, scale), v the sum, over the terms (source, row, column), of
    the start row carried along the word by the source and dotted with
    the column (a column entry None stands for 1); fn None is the
    identity, with scale None.  fn is a named scalar function that
    returns the image of v * scale (scale None standing for 1) without
    having to form that product: operator.mul, or the r = 1 limit
    limit_r_to_1 (_mapped).  A walk maps the value on each word;
    _brackets maps each entry of the side's row, the sum over the words
    of an element, so the bracket of a mapped side is the map of the
    bracket.

    The start rows {state: Scalar} and the column entries must be Laurent
    polynomials.  The walk carries their numerators (laurent_numerator):
    a source carries sparse rows {state: numerator} one T letter at a
    time, multiplying only through scalars.tagged_mul_acc, and a value
    becomes a Scalar again only when it is read.  source.step(row,
    keep=None) gives the nonzero rows after every next letter, by
    letter, and is all a walk asks of a source to step, in full and
    bracket walks alike; source.viable(ends, r) gives a filter for keep,
    or None, that drops only states from which no state of ends is
    reached within r letters.  A source may instead be a tuple of
    factors, the start row {(): 1}: its value on a word is the
    convolution product of the factors' values there, which _convolve
    reads in place of _walk."""

    __slots__ = ("terms", "fn", "scale")

    def __init__(self, terms: Tuple[Tuple[object, Dict[State, Scalar],
                                          Dict], ...],
                 fn: Optional[Callable[[Scalar, Optional[Scalar]],
                                       Scalar]] = None,
                 scale: Optional[Scalar] = None):
        self.terms = terms
        self.fn = fn
        self.scale = scale


def _as_side(side) -> _Side:
    """A FunctionalElement or a _Factored as a walk side.  Coefficients
    with a denominator are first brought to Laurent polynomials by a
    common factor; its inverse is the side's scale, which operator.mul
    takes back out once per value (once per row entry of _brackets).  A
    _Factored gives one term (factors, {(): 1}, {(): coefficient}) per
    product, its source the tuple of factors, which _convolve reads.  The
    words of one sign pattern are grouped by start state (a unit row per
    start, the coefficients in the column) or, when that gives fewer
    rows, by end state (the coefficients folded into one start row per
    end)."""
    if isinstance(side, _Side):
        return side
    ps = side.bundle.geometry.params
    common, scale = common_denominator(ps, side.terms.values())
    coeffs = side.terms if common is ps.one else {
        t: c * common for t, c in side.terms.items()}
    if isinstance(side, _Factored):
        terms = [(factors, {(): ps.one}, {(): None if c == ps.one else c})
                 for factors, c in coeffs.items()]
    else:
        groups: Dict[Tuple, Tuple[Dict, Dict]] = {}
        for w, c in coeffs.items():
            signs, a, b = zip(*w) if w else ((), (), ())
            by_start, by_end = groups.setdefault(signs, ({}, {}))
            by_start.setdefault(a, {})[b] = c
            by_end.setdefault(b, {})[a] = c
        terms = []
        for signs in sorted(groups):
            src = _Pattern(side.bundle, signs)
            starts, ends = groups[signs]
            if len(starts) <= len(ends):
                terms += [(src, {a: ps.one}, {b: None if c == ps.one else c
                                              for b, c in col.items()})
                          for a, col in sorted(starts.items())]
            else:
                terms += [(src, row, {b: None})
                          for b, row in sorted(ends.items())]
    if common is ps.one:
        return _Side(tuple(terms))
    return _Side(tuple(terms), operator.mul, scale)


def _mapped(side, fn) -> _Side:
    """A relation side whose values are the images under fn of the values
    of side, zeros dropped.  fn is the r = 1 view of the calculus
    (limit_r_to_1, passed by calculus._view alone), called as fn(v, scale)
    on the Laurent sum v and the common-denominator scale of _as_side
    (None when there is none), so that it may take its image of v * scale
    without forming the product.  side must not be mapped already.  A
    mapped side is walked alone, as a factor of a _Factored or against
    zero (_difference), or read in brackets.  The g_ab = r collapse is
    no side map: it is a bundle of its own."""
    s = _as_side(side)
    if s.fn not in (None, operator.mul):
        raise ValueError("side is mapped by %s already" % s.fn.__name__)
    return _Side(s.terms, fn, s.scale)


class _Factored(LinearCombination):
    """A finite scalar combination of convolution products f1 f2 ... fm
    of FunctionalElements or mapped sides, each product kept as the
    tuple (f1, ..., fm) of its factors instead of being multiplied out
    into words; +, -, scale and * (which joins the factor tuples) work as
    for FunctionalElement.  _convolve evaluates it from the values of its
    factors alone, which must be Laurent polynomials (DenominatorClass
    otherwise): the factors of _factored have Laurent coefficients, and a
    factor mapped to r = 1 has Laurent limits.  Mapped factors are told
    apart by identity: a functional mapped twice is two factors, walked
    twice."""

    __slots__ = ("bundle",)

    def __init__(self, bundle: RMatrixBundle,
                 terms: Dict[Tuple[FunctionalElement, ...], Scalar]):
        self.bundle = bundle
        super().__init__(terms)

    def _context(self):
        return (self.bundle,)

    def _mismatch(self, other) -> str:
        if self.bundle is other.bundle:
            return ""
        return "products over different R matrix bundles"


def _factored(f: FunctionalElement) -> _Factored:
    """f as a product of one factor.  The factor is f times the common
    factor of its coefficients (see _as_side), whose inverse becomes the
    product's coefficient, so every product of such factors carries the
    scales of its factors in its own coefficient, each found once."""
    ps = f.bundle.geometry.params
    common, scale = common_denominator(ps, f.terms.values())
    return _Factored(f.bundle, {
        (f if common is ps.one else f.scale(common),): scale})


def _compile(family: Dict):
    """The distinct streams (source, start row) of a side family {key:
    side}, where each stream is read, the keys by id, and the ParamSpace
    ps of the start rows (None when there is no stream): reads[i][b] is
    the tagged numerator (scalars.tag_fold) of the column entries for end
    state b, tagged by key id, keys[id] the key; fns[key] holds the (map,
    scale) of a mapped side.  Start rows and column entries are Laurent
    numerators over ps, a column entry None standing for one and the
    entries of one key at one end state summed."""
    index: Dict[Tuple, int] = {}
    streams: List[Tuple[object, Row]] = []
    cols: List[Dict[State, Dict[int, Scalar]]] = []
    fns: Dict = {}
    ps = None
    for kid, (key, side) in enumerate(family.items()):
        s = _as_side(side)
        if s.fn is not None:
            fns[key] = (s.fn, s.scale)
        for src, row, col in s.terms:
            if not row:
                continue        # a zero start row reads zero everywhere
            ident = (type(src), src, frozenset(row.items()))
            i = index.get(ident)
            if i is None:
                if ps is None:
                    ps = next(iter(row.values())).ps
                i = index[ident] = len(streams)
                streams.append((src, {a: laurent_numerator(ps, v)
                                      for a, v in row.items()}))
                cols.append({})
            for b, c in col.items():
                _acc(cols[i].setdefault(b, {}), kid,
                     ps.one if c is None else c)
    reads = [{b: tag_fold(ps, {kid: laurent_numerator(ps, c)
                               for kid, c in by_key.items()})
              for b, by_key in col.items() if by_key} for col in cols]
    return streams, reads, list(family), fns, ps


def _finish(vals: Dict, fns: Dict) -> Dict:
    """Apply the maps of mapped sides to the values {key: value}, each as
    fn(value, scale), dropping the zeros they give."""
    for key in [key for key in vals if key in fns] if fns else ():
        fn, scale = fns[key]
        v = fn(vals[key], scale)
        if v:
            vals[key] = v
        else:
            del vals[key]
    return vals


def _values(acc: Dict, keys: List, fns: Dict, ps: ParamSpace) -> Dict:
    """Values by key of the Laurent sums of one word, tagged by key id in
    one numerator acc, one Scalar per nonzero sum, through _finish."""
    return _finish({keys[kid]: laurent_scalar(ps, v) for kid, v in (
        tag_split(ps, acc).items() if acc else ())}, fns)


def _read(live: Dict[int, Row], reads, keys, fns, ps: ParamSpace) -> Dict:
    """Values by key of the live stream rows at one word, every read
    state's row value multiplied into one tagged sum."""
    acc: Dict = {}
    for i, row in live.items():
        at = reads[i]
        for b, v in row.items():
            y = at.get(b)
            if y is not None:
                tagged_mul_acc(ps, acc, v, y)
    return _values(acc, keys, fns, ps)


def _through(src, a: State, at: Dict, keep, ps: ParamSpace,
             letters: Dict[Letter, int], n: int) -> Dict:
    """The reads of a stream from state a through one more letter, as one
    tagged numerator: the part tagged letters[letter] * n + key id sums
    Theta^letter[a][b] times the column entry over the read states b, n
    the number of keys and a new letter getting the next number; keep is
    the stream's viable filter with no letter left."""
    parts: Dict[int, Dict] = {}
    for letter, r in src.step({a: laurent_numerator(ps, ps.one)},
                              keep).items():
        acc: Dict = {}
        for b, t in r.items():
            y = at.get(b)
            if y is not None:
                tagged_mul_acc(ps, acc, t, y)
        parts[letters.setdefault(letter, len(letters)) * n] = acc
    return tag_fold(ps, parts)


def _walk(family: Dict, D: int, words=None):
    """Depth-first walk of the free T-words of length <= D in the order
    of their coordinate tuples ((C1, D1), ..., (Ck, Dk)) for one side
    family {key: side}: yields (coords, values), values the nonzero
    values by key; given a set of words, only those are read and only
    the prefixes of those words are visited.  A visited word steps every
    stream through every letter at once, keeping the letters that extend
    a wanted word (all of them when no words are given).  Only the stream
    rows of the current word and of its parents' unvisited siblings are
    held, without the states from which no read state is reachable in
    the letters left (each stream's viable filter is computed once per
    number of letters left, and the start rows are filtered with D
    letters left, which keeps every state read on the empty word, before
    the first step or lookahead); a word on which every stream vanishes is
    skipped with all its extensions, because every side is zero there.
    The words of length D are read straight from their parent's rows
    through a lookahead: what one more letter does to the reads of a
    stream state is worked out once per walk, as one tagged numerator
    over the (letter, key) pairs it reaches (_through), and the last
    level multiplies each live state's value into that numerator with one
    scalars.tagged_mul_acc call, all into one sum per node.  That sum is
    split by letter once the node is done, and the letters that extend
    no wanted word are dropped there, so a node where every relation
    holds cancels to an empty sum and is never split.  Rows, transfer
    entries and read coefficients are Laurent numerators over the start
    rows' ParamSpace, and all of one stream state's products at a node
    go through one kernel call; a start row or column entry with a
    denominator raises DenominatorClass."""
    streams, reads, keys, fns, ps = _compile(family)
    del family                          # the walk reads what _compile kept
    nexts: Dict[Tuple, set] = {}
    for w in words or ():
        for k in range(len(w)):
            nexts.setdefault(w[:k], set()).add(w[k])
    ahead: List[Dict[State, Dict]] = [{} for _ in streams]
    letters: Dict[Letter, int] = {}
    keeps: Dict[Tuple[int, int], object] = {}
    start: Dict[int, Row] = {}
    for i, (src, row) in enumerate(streams):
        ok = keeps[i, D] = src.viable(reads[i], D)
        if ok is not None:
            row = {a: v for a, v in row.items()
                   if all(a[2 * p:2 * p + 2] in s for p, s in enumerate(ok))}
        if row:
            start[i] = row
    stack = [((), start)]
    while stack:
        coords, live = stack.pop()
        if words is None or coords in words:
            yield coords, _read(live, reads, keys, fns, ps)
        want = nexts.get(coords)
        if len(coords) == D or (want is None and words is not None):
            continue
        r = D - len(coords) - 1
        for i in live:
            if (i, r) not in keeps:
                keeps[i, r] = streams[i][0].viable(reads[i], r)
        if r == 0:
            acc: Dict = {}
            for i, row in live.items():
                known = ahead[i]
                for a, v in row.items():
                    y = known.get(a)
                    if y is None:
                        y = known[a] = _through(streams[i][0], a, reads[i],
                                                keeps[i, 0], ps, letters,
                                                len(keys))
                    tagged_mul_acc(ps, acc, v, y)
            leaves: Dict[Letter, Dict] = {}
            if acc:                     # split only a node that has values
                order = list(letters)
                for tag, v in tag_split(ps, acc).items():
                    code, kid = divmod(tag, len(keys))
                    if want is None or order[code] in want:
                        leaves.setdefault(order[code], {})[keys[kid]] = \
                            laurent_scalar(ps, v)
            for letter in sorted(leaves):
                yield coords + (letter,), _finish(leaves[letter], fns)
        else:
            kids: Dict[Letter, Dict[int, Row]] = {}
            for i, row in live.items():
                for letter, got in streams[i][0].step(row,
                                                      keeps[i, r]).items():
                    if want is None or letter in want:
                        kids.setdefault(letter, {})[i] = got
            stack += [(coords + (letter,), kids[letter])
                      for letter in sorted(kids, reverse=True)]


def _convolve(family: Dict, D: int):
    """_walk for a family of product sides (_Factored): yields (coords,
    values) for the free T-words of length <= D with a nonzero value, by
    length, then by row (C1, ..., Ck), then by column (D1, ..., Dk).  The
    streams, reads and maps come from _compile, one stream per distinct
    tuple of factors.  The distinct factors are walked once, each through
    its own map if it is a mapped side (a pole of a factor value raises
    there), and their nonzero values kept by word, as Laurent
    numerators, for this call only.  The value of a
    product f g on T^{C1}_{D1} ... T^{Ck}_{Dk} is the convolution
    (f x g) Delta, Delta(T^C_D) = sum_G T^C_G x T^G_D: sum over G of
    f(T^{C1}_{G1} ... T^{Ck}_{Gk}) g(T^{G1}_{D1} ... T^{Gk}_{Dk}), formed
    for one row (C1, ..., Ck) at a time with the products grouped by
    their first factor.  Every product of two factor values, and every
    coefficient by key, goes through one scalars.tagged_mul_acc call;
    a row entry whose sum cancels is dropped."""
    streams, reads, keys, fns, ps = _compile(family)
    del family                          # the walk reads what _compile kept
    index: Dict[object, int] = {}
    by_first: Dict[int, List[Tuple[Tuple[int, ...], List]]] = {}
    for (src, _), at in zip(streams, reads):
        if type(src) is not tuple:
            raise TypeError("_convolve reads product sides only")
        ids = tuple(index.setdefault(f, len(index)) for f in src)
        by_first.setdefault(ids[0], []).append((ids[1:], at[()]))
    # tables[i][(C1, ..., Ck)][(D1, ..., Dk)]: the numerator of the
    # value of factor i on T^{C1}_{D1} ... T^{Ck}_{Dk}
    tables: List[Dict[Tuple, Row]] = [{} for _ in index]
    for coords, vals in _walk({i: f for f, i in index.items()}, D):
        C, G = tuple(zip(*coords)) or ((), ())
        for i, v in vals.items():
            tables[i].setdefault(C, {})[G] = laurent_numerator(ps, v)
    for C in sorted({C for i in by_first for C in tables[i]},
                    key=lambda C: (len(C), C)):
        at: Dict[Tuple, Dict] = {}
        for first, products in by_first.items():
            start = tables[first].get(C)
            for rest, hits in products if start else ():
                row = start
                for i in rest:
                    nxt: Row = {}
                    for G, v in row.items():
                        for Dd, t in tables[i].get(G, {}).items():
                            tagged_mul_acc(ps, nxt.setdefault(Dd, {}), v, t)
                    row = nxt
                for Dd, v in row.items():
                    if v:               # a sum that cancelled is dropped
                        tagged_mul_acc(ps, at.setdefault(Dd, {}), v, hits)
        for Dd in sorted(at):
            yield tuple(zip(C, Dd)), _values(at[Dd], keys, fns, ps)


@functools.cache
def _letter_pairs(bundle: RMatrixBundle, alphabet) -> List[Tuple[int, int]]:
    """letter id -> (A, B) of its T^A_B, for the free matrix-entry
    alphabet of the bundle's geometry, and for no other."""
    geom = bundle.geometry
    M = geom.dim
    own = build_presentation("so", M, geom.embedded).alphabet.symbols
    if alphabet.symbols != own:
        raise ValueError("functionals on %r evaluate on the alphabet "
                         "%s ... %s; got %s ... %s" % (
                             geom, own[0], own[-1], alphabet.symbols[0],
                             alphabet.symbols[-1]))
    pairs = {t_letter(M, A, B): (A, B)
             for A in geom.indices() for B in geom.indices()}
    return [pairs[g] for g in range(len(own))]


def _t_words(bundle: RMatrixBundle, elems: Iterable) -> Dict[Tuple, List]:
    """The elements (key, a) of the free matrix-entry algebra by T-word,
    as _brackets takes them: each word of their terms as its letters
    (A, B), with the (key of a, coefficient) of every element a that has
    it, so a key given twice brackets the sum of its elements.  This is
    the one translation of letters to index pairs, and elements read
    against several batches of functionals are translated once."""
    out: Dict[Tuple, List] = {}
    for ekey, a in elems:
        pairs = _letter_pairs(bundle, a.alphabet)
        for w, c in a.terms.items():
            out.setdefault(tuple(map(pairs.__getitem__, w)), []).append(
                (ekey, c))
    return out


def _brackets(fs: Dict, words: Dict[Tuple, List]) -> Dict[object, Dict]:
    """The brackets <f, a> of every functional or walk side f of fs with
    every element a given by T-word (_t_words), as one row {key of a:
    value} for every key of fs, in the order of fs, zeros left out (a
    row may be empty), from one walk restricted to the elements'
    T-words.  Every side is walked without its map: the sum v of c *
    value over the words of a is formed first, and the side's map is
    applied to it once, as fn(v, scale).  So the bracket of a mapped side
    is the map of the bracket, and terms that cancel in the sum (paired
    poles at r = 1) cancel before the map sees them."""
    sides = {fkey: _as_side(f) for fkey, f in fs.items()}
    rows: Dict[object, Dict] = {fkey: {} for fkey in fs}
    for w, vals in _walk({fkey: _Side(s.terms) for fkey, s in sides.items()},
                         max(map(len, words), default=0), words):
        for ekey, c in words[w]:
            for fkey, v in vals.items():
                _acc(rows[fkey], ekey, c * v)
    for fkey, s in sides.items():
        if s.fn:
            _finish(rows[fkey], dict.fromkeys(rows[fkey], (s.fn, s.scale)))
    return rows


def eval_functional(f: FunctionalElement, a: AlgebraElement) -> Scalar:
    """Value of a functional on an element of the free matrix-entry
    algebra of the same embedded geometry."""
    return _brackets({(): f}, _t_words(f.bundle, [((), a)]))[()].get(
        (), f.bundle.geometry.params.zero)


# ---------------------------------------------------------------------------
# costructures of the dual

def antipode_L(e: FunctionalElement) -> FunctionalElement:
    """Antimultiplicative antipode: on a generator the metric conjugation
    C^{DA} L^C_D C_{BC} collapses to the single term
    c(A') c(B) L^{B'}_{A'}."""
    bundle = e.bundle
    metric = bundle.C
    pr = bundle.geometry.prime
    out: Dict[FunctionalWord, Scalar] = {}
    for w, c in e.terms.items():
        coeff = c
        gens = []
        for sign, A, B in reversed(w):
            coeff = coeff * metric.c(pr(A)) * metric.c(B)
            gens.append((sign, pr(B), pr(A)))
        _acc(out, tuple(gens), coeff)
    return FunctionalElement(bundle, out)


def coproduct_functional(e: FunctionalElement):
    """Terms of Delta'(e) as (coefficient, left word, right word); on a
    generator Delta'(L^A_B) = L^A_G x L^G_B summed over G."""
    idx = list(e.bundle.geometry.indices())
    out: List[Tuple[Scalar, FunctionalWord, FunctionalWord]] = []
    for w, c in e.terms.items():
        if not w:
            out.append((c, EPS_WORD, EPS_WORD))
            continue
        for mids in iproduct(idx, repeat=len(w)):
            left = tuple((s, A, G) for (s, A, _), G in zip(w, mids))
            right = tuple((s, G, B) for (s, _, B), G in zip(w, mids))
            out.append((c, left, right))
    return out


def counit_functional(e: FunctionalElement) -> Scalar:
    ps = e.bundle.geometry.params
    total = ps.zero
    for w, c in e.terms.items():
        if all(A == B for _, A, B in w):
            total = total + c
    return total


# ---------------------------------------------------------------------------
# equality on free words

class EqualityResult(NamedTuple):
    equal: bool
    witness: Optional[Tuple[Tuple[Tuple[int, int], ...],
                            Optional[Scalar], Optional[Scalar]]]


def show_t_word(geometry: IndexGeometry,
                coords: Tuple[Tuple[int, int], ...]) -> str:
    if not coords:
        return "I"
    return " ".join("T[%s,%s]" % (geometry.label(c), geometry.label(d))
                    for c, d in coords)


def show_witness(geometry: IndexGeometry, coords, lv: Optional[Scalar],
                 rv: Optional[Scalar]) -> str:
    """A disagreeing word and the two values on it, a zero shown as 0."""
    return "%s: %s vs %s" % (show_t_word(geometry, coords),
                             "0" if lv is None else render_scalar(lv),
                             "0" if rv is None else render_scalar(rv))


def _difference(lhs, rhs):
    """lhs - rhs as one walk side.  Two FunctionalElements or two
    _Factored are subtracted, so that terms common to both sides cancel
    before the walk; two unscaled walk sides are joined, the start rows
    of rhs negated.  A rhs with no terms gives lhs itself, mapped or
    not: a side on its own has no other side to cancel a pole with, so
    its map sees its own values.  A mapped or scaled side set against a
    nonzero side raises ValueError naming the map, since a map sees the
    value of one side (the r = 1 calculus limits its factors and
    coefficients, not its sides)."""
    if type(lhs) is type(rhs) is not _Side:     # FunctionalElement, _Factored
        return lhs - rhs
    a, b = _as_side(lhs), _as_side(rhs)
    if not b.terms:
        return a
    if a.fn or b.fn:
        raise ValueError("a side mapped by %s has no difference with a "
                         "nonzero side" % (a.fn or b.fn).__name__)
    return _Side(a.terms + tuple((src, {s: -v for s, v in row.items()}, col)
                                 for src, row, col in b.terms))


def _witnesses(pairs: Dict[Tuple, Tuple], D: int) -> Dict[Tuple, Tuple]:
    """The first disagreement of each relation lhs = rhs of a family, one
    per index key, on the free words of length <= D, in one walk:
    {key: (coords, lhs value, rhs value)} with None for a zero value,
    keys whose relation holds left out.  A side is a FunctionalElement, a
    _Factored or a walk side (_as_side, _mapped), and every relation is
    walked as the one side lhs - rhs (_difference): it holds when the
    walk gives it no value, so no value of a passing relation is made.
    The kind of the sources decides the walk: _convolve reads a family
    of products, _walk one of words.  A key's first word is its
    shortest, then the smallest by coordinate tuple.  The walk is handed
    the differences alone and frees them once it has compiled them.  A
    failing relation has its two sides read again on its first word
    alone, as the keys (key, 0) and (key, 1) of one family (a walk
    restricted to the failing words; _convolve has no restriction and
    stops at their length)."""
    sides = {key: _difference(lhs, rhs) for key, (lhs, rhs) in pairs.items()}
    src = next((src for s in map(_as_side, sides.values())
                for src, _, _ in s.terms), None)
    walk = _convolve if type(src) is tuple else _walk
    values = walk(sides, D)
    sides = None                # the walk frees them once compiled
    first: Dict[Tuple, Tuple] = {}
    for coords, vals in values:
        for key in vals:
            if key not in first or (len(first[key]), first[key]) > (
                    len(coords), coords):
                first[key] = coords
    found: Dict[Tuple, Tuple] = {}
    if first:
        keys: Dict[Tuple, List] = {}
        for key, coords in first.items():
            keys.setdefault(coords, []).append(key)
        both = {(k, n): pairs[k][n] for n in (0, 1) for k in first}
        depth = max(map(len, keys))
        for coords, vals in (_walk(both, depth, keys) if walk is _walk
                             else walk(both, depth)):
            for key in keys.get(coords, ()):
                found[key] = (coords, vals.get((key, 0)), vals.get((key, 1)))
    return found


def _first(found: Dict[Tuple, Tuple]):
    """The first disagreement among the witnesses of _witnesses, as (key,
    coords, lhs value, rhs value), or None when every relation holds:
    the shortest word, then the smallest key (the order stated in
    functional_equal)."""
    if not found:
        return None
    key = min(found, key=lambda k: (len(found[k][0]), k))
    return (key,) + found[key]


def _first_difference(pairs: Dict[Tuple, Tuple], D: int):
    """_first of one _witnesses walk over a family of relations: the
    difference of the sides, their values on the first failing word read
    again from the two sides."""
    return _first(_witnesses(pairs, D))


def functional_equal(f: FunctionalElement, g: FunctionalElement,
                     D: int) -> EqualityResult:
    """Equality of evaluations on every free word of length <= D,
    including the empty word; the witness is the first disagreeing word
    with both values.

    Every relation family compared through _first_difference (this
    function and the envelope suite), and each q-Lie relation through
    _first of the rows' one walk, reports its first failure in one
    order: the smallest word length k, then the smallest index key of
    the family, then the smallest word, comparing the words
    T^{C1}_{D1} ... T^{Ck}_{Dk} by their coordinate tuples
    ((C1, D1), ..., (Ck, Dk)).  The order does not depend on how a
    relation is walked: f - g is walked as one side, and f and g are read
    again on the first word where it has a value."""
    if f.bundle is not g.bundle:
        raise ValueError("functionals live over different geometries")
    w = _first_difference({(): (f, g)}, D)
    return EqualityResult(w is None, None if w is None else w[1:])


def _detail(geometry: IndexGeometry, w) -> str:
    """Report detail of a relation family: empty when it holds."""
    if w is None:
        return ""
    key, coords, lv, rv = w
    text = show_witness(geometry, coords, lv, rv)
    if not key:
        return text
    return "indices (%s) on %s" % (",".join(map(str, key)), text)


# ---------------------------------------------------------------------------
# relation families

def _any_generator(A: int, B: int) -> bool:
    return True


class _Intertwiner(dict):
    """A relation family {key: (lhs, rhs)} that reads P Phi(w) = Theta'(w)
    Q on every T-word w, Phi and Theta' tensor products of the (sign,
    mask) L matrices in matrices (the L^sign matrix restricted to mask),
    P and Q fixed.  When each of them is multiplicative (_multiplicative),
    the words of length <= 1 decide the family (see the module
    docstring)."""

    __slots__ = ("matrices",)

    def __init__(self, pairs: Dict, matrices: Tuple[Tuple[int, object], ...]):
        super().__init__(pairs)
        self.matrices = matrices


def _exchange_relations(bundle: RMatrixBundle, Rt: SparseTensor4, s2: int,
                        s1: int, mask2=_any_generator, mask1=_any_generator):
    """Relations {(A, B, C, D): (lhs, rhs)} of Rt_12 L^{s2}_2 L^{s1}_1 =
    L^{s1}_1 L^{s2}_2 Rt_12.  Entry (A, B; C, D) reads
    sum Rt^{AB}_{EF} L^{s2 F}_D L^{s1 E}_C = sum L^{s1 A}_E L^{s2 B}_F
    Rt^{EF}_{CD}; the masks mask2(A, B) and mask1(A, B) restrict the
    L^{s2} and the L^{s1} matrix to a generator support.  An intertwiner
    family of the two restricted matrices, Phi = L^{s2} x L^{s1} and
    Theta' = L^{s1} x L^{s2}."""
    idx = list(bundle.geometry.indices())
    lhs: Dict[Tuple, Dict[FunctionalWord, Scalar]] = {}
    rhs: Dict[Tuple, Dict[FunctionalWord, Scalar]] = {}
    for (A, B, E, F), v in Rt.items():
        for X in idx:
            for Y in idx:
                # Rt^{AB}_{EF} L^{s2 F}_Y L^{s1 E}_X, left of (A, B; X, Y)
                if mask2(F, Y) and mask1(E, X):
                    _acc(lhs.setdefault((A, B, X, Y), {}),
                         ((s2, F, Y), (s1, E, X)), v)
                # L^{s1 X}_A L^{s2 Y}_B Rt^{AB}_{EF}, right of (X, Y; E, F)
                if mask1(X, A) and mask2(Y, B):
                    _acc(rhs.setdefault((X, Y, E, F), {}),
                         ((s1, X, A), (s2, Y, B)), v)
    return _Intertwiner({key: (FunctionalElement(bundle, lhs.get(key, {})),
                               FunctionalElement(bundle, rhs.get(key, {})))
                         for key in set(lhs) | set(rhs)},
                        ((s2, mask2), (s1, mask1)))


def _exchange_detail(geometry: IndexGeometry, w) -> str:
    """Report detail of an exchange family (_exchange_relations), its
    key (A, B, C, D) shown by index labels: empty when it holds."""
    if w is None:
        return ""
    key, coords, lv, rv = w
    return "indices (%s,%s;%s,%s) on %s" % (
        *map(geometry.label, key), show_witness(geometry, coords, lv, rv))


def _metric_orthogonality(bundle: RMatrixBundle, sign: int, variant: str,
                          mask=_any_generator):
    """Relations {(C, D): (lhs, rhs)} of C^{AB} L^C_B L^D_A = C^{DC} eps
    (variant "upper") or C_{AB} L^B_C L^A_D = C_{DC} eps ("lower"), each
    factor of a summand restricted to the mask.  An intertwiner family of
    the restricted matrix: Phi(w) = L x L read against the metric vector
    equals Theta'(w) = eps(w), a character, times the same vector."""
    geom = bundle.geometry
    metric = bundle.C
    pr = geom.prime
    eps = eps_functional(bundle)
    pairs = {}
    for C in geom.indices():
        for Dd in geom.indices():
            terms: Dict[FunctionalWord, Scalar] = {}
            for A in geom.indices():
                if variant == "upper":
                    # summed pair: L^C_{A'} convolved with L^D_A
                    g1, g2, coeff = (C, pr(A)), (Dd, A), metric.c(A)
                else:
                    # summed pair: L^{A}_C L^{A'}_D
                    g1, g2, coeff = (A, C), (pr(A), Dd), metric.c(pr(A))
                if mask(*g1) and mask(*g2):
                    _acc(terms, ((sign,) + g1, (sign,) + g2), coeff)
            pairs[(C, Dd)] = (FunctionalElement(bundle, terms),
                              eps.scale(metric.lower(Dd, C)))
    return _Intertwiner(pairs, ((sign, mask),))


# ---------------------------------------------------------------------------
# the script R matrix and the twist

def script_r_matrix(N: int) -> SparseTensor4:
    """Values of the block-diagonal plus matrix on the quotient generator
    matrix, lifted back through the section: entries (A, B, C, D) hold
    the pairing of L+^B_D against the image of T^A_C."""
    p = build_presentation("iso", N)
    big = build_presentation("so", N + 2, embedded=True)
    bundle = build_bundle(big.geometry)
    geom = bundle.geometry
    M = geom.dim
    inner = set(geom.inner())
    lifted = _t_words(bundle, (((A, C), section(project(word_element(
        big.alphabet, geom.params, (t_letter(M, A, C),)), p), p))
        for A in geom.indices() for C in geom.indices()))
    plus = {(B, Dd): l_functional(bundle, 1, B, Dd)
            for B in geom.indices() for Dd in geom.indices()
            if B == Dd or (B in inner and Dd in inner)}
    return SparseTensor4(geom, {(A, B, C, Dd): v for (B, Dd), row in
                                _brackets(plus, lifted).items()
                                for (A, C), v in row.items()})


def _script_r_expected(bundle: RMatrixBundle) -> SparseTensor4:
    geom = bundle.geometry
    inner = set(geom.inner())
    entries = {}
    for (A, B, C, D), v in bundle.R.items():
        if (A in inner and B in inner and C in inner and D in inner) \
                or (A, B) == (C, D):
            entries[(A, B, C, D)] = v
    return SparseTensor4(geom, entries)


# ---------------------------------------------------------------------------
# relation suite

def _degree(N: int, D: Optional[int]) -> int:
    """The word-length bound of the relation suite and the collapse
    check: D when given, else 3 at N = 3 and 2 above."""
    return (3 if N == 3 else 2) if D is None else D


def verify_envelope_suite(N: int, D: Optional[int] = None) -> Report:
    """Exchange, orthogonality, reduction and twist identities of the
    functional matrices, checked on all free words of length <= D.

    Twelve families are intertwiner families of certified multiplicative
    L matrices (_Intertwiner, _multiplicative) and are walked to length
    min(D, 1) only, which decides them on every free word: the exchange
    relations for two plus rows, for two minus rows and between plus
    and minus rows, of the block-diagonal plus matrix, and of the block
    and the mixed block with the script R matrix; and the upper and
    lower metric orthogonality of the plus, the minus and the block
    matrix.  Their report is the one the walk to D gives, failure
    detail included.  Every other family is walked to D."""
    D = _degree(N, D)
    big = build_presentation("so", N + 2, embedded=True)
    bundle = build_bundle(big.geometry)
    geom = bundle.geometry
    ps = geom.params
    metric = bundle.C
    pr = geom.prime
    M = geom.dim
    inner = list(geom.inner())
    inner_set = set(inner)
    circ, bullet = geom.circ, geom.bullet
    rep = Report("functional relation suite for iso(%d) at degree %d"
                 % (N, D))

    def check(name, pairs, detail=_detail):
        # one relation family, reported by its first failure; an intertwiner
        # family of multiplicative L matrices is decided by its letters
        letters = isinstance(pairs, _Intertwiner) and all(
            _multiplicative(bundle, sign, mask)
            for sign, mask in pairs.matrices)
        w = _first_difference(pairs, min(D, 1) if letters else D)
        rep.add(name, w is None, detail(geom, w))
        return w

    # triangularity: no value below (above) the L+ (L-) diagonal
    zero = FunctionalElement(bundle, {})
    check("triangularity of the functional matrices",
          {(sign, A, B): (l_functional(bundle, sign, A, B), zero)
           for sign in (1, -1) for A in geom.indices()
           for B in geom.indices() if sign * (A - B) > 0})

    # exchange relations
    for name, s2, s1 in [
            ("exchange relations for two plus rows", 1, 1),
            ("exchange relations for two minus rows", -1, -1),
            ("mixed exchange relations between plus and minus rows", 1, -1)]:
        check(name, _exchange_relations(bundle, bundle.R, s2, s1),
              _exchange_detail)

    # metric orthogonality
    for sign, sname in [(1, "plus"), (-1, "minus")]:
        for variant in ("upper", "lower"):
            check("%s metric orthogonality of the %s matrix"
                  % (variant, sname),
                  _metric_orthogonality(bundle, sign, variant))

    # ordered diagonal product equals the counit
    eps = eps_functional(bundle)
    for sign, sname in [(1, "plus"), (-1, "minus")]:
        word = tuple((sign, A, A) for A in geom.indices())
        check("ordered diagonal product of the %s matrix equals the counit"
              % sname, {(): (word_functional(bundle, word), eps)})
    if M % 2 == 1:
        mid = (M + 1) // 2
        for sign, sname in [(1, "plus"), (-1, "minus")]:
            check("middle diagonal %s functional equals the counit" % sname,
                  {(): (l_functional(bundle, sign, mid, mid), eps)})

    # antisymmetrizer annihilates the translation column: for every (a, b)
    # sum P_A^{ab}_{cd} L-^{d}_o L-^{c}_o = 0 (both the projector form and
    # its inverse-parameter plane reading are this contraction)
    small = build_bundle(IndexGeometry(N))
    lift = inner_lift(geom)
    w = check("antisymmetrizer annihilates the translation column",
              {key: (FunctionalElement(bundle, {
                  ((-1, d + 1, circ), (-1, c + 1, circ)): lift(v)
                  for (c, d), v in row}), zero)
               for key, row in _by_upper(small.P_A).items()})
    rep.add("translation column satisfies the inverse-parameter plane "
            "relations", w is None,
            "same contraction as the antisymmetrizer check")

    # bullet-row reductions: L-^*_c = coeff sum_a c(a) L-^{a'}_c L-^a_o L-^*_*
    def bullet_reduction(c, coeff):
        rhs: Dict[FunctionalWord, Scalar] = {}
        for a in inner:
            _acc(rhs, ((-1, pr(a), c), (-1, a, circ), (-1, bullet, bullet)),
                 coeff * metric.c(a))
        return (l_functional(bundle, -1, bullet, c),
                FunctionalElement(bundle, rhs))

    c_ob = metric.lower(circ, bullet)
    c_bo = metric.lower(bullet, circ)
    coeff1 = -scalar_invert(c_ob)
    check("bullet-row functionals reduce to metric combinations",
          {(c,): bullet_reduction(c, coeff1) for c in inner})
    coeff2 = -scalar_invert(ps.s_pow(-4) * c_bo + c_ob)
    check("bullet-corner functional reduces to a metric combination",
          {(): bullet_reduction(circ, coeff2)})

    def word2(g1, g2, coeff=None):
        return word_functional(bundle, (g1, g2), coeff)

    # dilatation versus the translation column
    check("dilatation exchanges with the translation column",
          {(a,): (word2((-1, circ, circ), (-1, a, circ)),
                  word2((-1, a, circ), (-1, circ, circ),
                        scalar_invert(canonical_q(ps, circ, a))))
           for a in inner})

    # dilatation versus the rotation block; the printed relation has
    # mismatched free indices, so the form checked here is the one the
    # exchange relations force at indices (circ circ, b d)
    check("dilatation exchanges with the rotation block",
          {(sign, b, d): (word2((-1, circ, circ), (sign, b, d)),
                          word2((sign, b, d), (-1, circ, circ),
                                canonical_q(ps, b, circ) * scalar_invert(
                                    canonical_q(ps, d, circ))))
           for sign in (1, -1) for b in inner for d in inner},
          lambda g, w: "derived exchange form" if w is None
          else _detail(g, w))

    # translation column versus the rotation block through R, for both
    # signs: L-^a_o L+-^b_d = r/q_{d o} R+-^{ba}_{ef} L+-^e_d L-^f_o
    rfor = {1: bundle.Rplus, -1: bundle.Rminus}
    pairs = {}
    for sign in (1, -1):
        for a in inner:
            for b in inner:
                for d in inner:
                    coeff0 = ps.r * scalar_invert(canonical_q(ps, d, circ))
                    rhs: Dict[FunctionalWord, Scalar] = {}
                    for e in inner:
                        for f in inner:
                            rv = rfor[sign].get((b, a, e, f))
                            if rv:
                                _acc(rhs, ((sign, e, d), (-1, f, circ)),
                                     coeff0 * rv)
                    pairs[(sign, a, b, d)] = (
                        word2((-1, a, circ), (sign, b, d)),
                        FunctionalElement(bundle, rhs))
    check("translation column exchanges with the rotation block through R",
          pairs)

    # block-diagonal plus matrix
    def block_mask(A, B):
        return A == B or (A in inner_set and B in inner_set)

    check("block-diagonal plus matrix satisfies the exchange relations",
          _exchange_relations(bundle, bundle.R, 1, 1, block_mask, block_mask),
          _exchange_detail)

    script = script_r_matrix(N)
    ok, tw = tensor_equal(script, _script_r_expected(bundle))
    rep.add("script R matrix reproduces the block table", ok,
            "" if ok else "%r" % (tw,))
    lhs6 = triple_compose([(script, 12), (script, 13), (script, 23)])
    rhs6 = triple_compose([(script, 23), (script, 13), (script, 12)])
    ok, yw = tensor_equal(lhs6, rhs6)
    rep.add("script R matrix satisfies the Yang-Baxter equation", ok,
            "" if ok else "%r" % (yw,))

    check("block exchange relations hold with the script R matrix",
          _exchange_relations(bundle, script, 1, 1, block_mask, block_mask),
          _exchange_detail)
    # script_12 Lc+_2 L-_1 = L-_1 Lc+_2 script_12, block mask on the plus slot
    check("mixed block exchange relations hold with the script R matrix",
          _exchange_relations(bundle, script, 1, -1, mask2=block_mask),
          _exchange_detail)

    for variant in ("upper", "lower"):
        check("%s metric orthogonality of the block matrix" % variant,
              _metric_orthogonality(bundle, 1, variant, block_mask))

    # matching diagonal products give the fourth twist power: on the
    # diagonal word T^{C1}_{C1} ... T^{Ck}_{Ck} the value prod f4(A, Ci),
    # zero on every other word
    def twist_power(A):
        # f4(A, C) = (q_AC / r)^2, one on the diagonal because q_AA = r
        roots = {C: canonical_q(ps, A, C) * ps.s_pow(-2)
                 for C in geom.indices()}
        src = _Diagonal({C: x * x for C, x in roots.items()})
        return _Side(((src, {(): ps.one}, {(): None}),))

    check("matching diagonal products equal the fourth twist power",
          {(A,): (word2((1, A, A), (-1, A, A)), twist_power(A))
           for A in geom.indices()})
    return rep


# ---------------------------------------------------------------------------
# the uniparametric collapse

def verify_parameter_collapse(N: int, D: Optional[int] = None) -> Report:
    """Matching diagonal plus/minus products versus the counit: the
    multiparametric functionals detect the deformation mismatch, and the
    identification g_ab = s^2 restores the counit identity.  The second
    check is an ordinary relation family over the uniparametric bundle
    (RMatrixBundle.uniparametric), whose R is the generic R at g_ab = r:
    its functionals take the uniparametric values on every word, so no
    side is mapped."""
    D = _degree(N, D)
    big = build_presentation("so", N + 2, embedded=True)
    bundle = build_bundle(big.geometry)
    geom = bundle.geometry
    ps = geom.params
    rep = Report("uniparametric collapse of matching diagonal products "
                 "for iso(%d)" % N)
    probe = word_functional(bundle, ((1, 1, 1), (-1, 1, 1)))
    res = functional_equal(probe, eps_functional(bundle), 1)
    detail = ""
    if not res.equal:
        coords, lv, rv = res.witness
        qv = canonical_q(ps, 1, coords[0][0])
        detail = ("witness %s: value %s vs %s, with q_{o,%s} = %s"
                  % (show_t_word(geom, coords),
                     "0" if lv is None else render_scalar(lv),
                     "0" if rv is None else render_scalar(rv),
                     geom.label(coords[0][0]), render_scalar(qv)))
    rep.add("a mismatched deformation parameter breaks the counit identity",
            not res.equal, detail)
    uni = bundle.uniparametric
    w = _first_difference(
        {(A,): (word_functional(uni, ((1, A, A), (-1, A, A))),
                eps_functional(uni))
         for A in geom.indices()}, D)
    rep.add("every matching diagonal product collapses to the counit at "
            "the uniparametric point", w is None, _detail(geom, w))
    return rep


# ---------------------------------------------------------------------------
# the annihilator subalgebra, the pairing and bounded freeness

class AnnihilationResult(NamedTuple):
    ok: bool
    witness: Optional[Tuple[Tuple[Tuple[int, int], ...], Scalar]]


def _cone_witness(side, geometry: IndexGeometry, D: int):
    """The first nonzero value of a relation side on the free words of
    length 1..D with a factor from the cone ideal, as (coords, value), or
    None; words come by length, then row (C1, ..., Ck), then column
    (D1, ..., Dk)."""
    hset = set(geometry.cone_ideal())
    best = None
    for coords, vals in _walk({(): side}, D):
        v = vals.get(())
        if v is not None and any(p in hset for p in coords):
            order = (len(coords), tuple(zip(*coords)))
            if best is None or order < best[0]:
                best = (order, coords, v)
    return None if best is None else best[1:]


def iu_annihilates(f: FunctionalElement, N: int,
                   D: int = 2) -> AnnihilationResult:
    """Does f kill every free word of length <= D containing a factor
    from the cone ideal T^a_o, T^*_b, T^*_o?"""
    geom = f.bundle.geometry
    if not (geom.embedded and geom.dim == N + 2):
        raise ValueError("functional is not over the embedded geometry "
                         "of iso(%d)" % N)
    w = _cone_witness(f, geom, D)
    return AnnihilationResult(w is None, w)


def iu_generators(bundle: RMatrixBundle) -> List[FunctionalElement]:
    """The generators of the annihilator subalgebra: all of L-, the inner
    block of L+, both cone diagonals of L+, and the counit."""
    geom = bundle.geometry
    out = []
    for A in geom.indices():
        for B in geom.indices():
            out.append(l_functional(bundle, -1, A, B))
    for a in geom.inner():
        for b in geom.inner():
            out.append(l_functional(bundle, 1, a, b))
    out.append(l_functional(bundle, 1, geom.circ, geom.circ))
    out.append(l_functional(bundle, 1, geom.bullet, geom.bullet))
    out.append(eps_functional(bundle))
    return out


def pairing(f: FunctionalElement, pa: AlgebraElement) -> Scalar:
    """The duality bracket: lift the quotient element through the fixed
    section and evaluate.  It is the pairing of U_{q,r}(iso(N)) with the
    quotient only for an f that annihilates the cone ideal, which
    iu_annihilates checks.  section refuses an element that is not over
    the iso(N) alphabet."""
    p = build_presentation("iso", f.bundle.geometry.dim - 2)
    row = _brackets({(): f}, _t_words(f.bundle, [((), section(pa, p))]))[()]
    return row.get((), f.bundle.geometry.params.zero)


def eta_monomials(N: int, max_degree: int) -> List[FunctionalWord]:
    """Ordered dilatation-translation monomials of total degree up to the
    bound; negative dilatation powers use the inverse diagonal entry."""
    M = N + 2
    out: List[FunctionalWord] = []

    def vectors(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in vectors(total - head, parts - 1):
                yield (head,) + rest

    for total in range(max_degree + 1):
        for i0 in range(-total, total + 1):
            rem = total - abs(i0)
            head: FunctionalWord = tuple(
                [(-1, 1, 1)] * i0 if i0 >= 0 else [(-1, M, M)] * (-i0))
            for vec in vectors(rem, N):
                w = head
                for a, p in enumerate(vec, start=1):
                    w = w + ((-1, a + 1, 1),) * p
                out.append(w)
    return out


_GENERIC_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def _generic_point(ps: ParamSpace) -> Dict[str, Fraction]:
    out = {"s": Fraction(2)}
    for i, name in enumerate(ps.vars[1:]):
        out[name] = Fraction(_GENERIC_PRIMES[i % len(_GENERIC_PRIMES)])
    return out


def independence_rank(ws: Sequence[FunctionalWord], N: int, D: int) -> int:
    """Rank of the evaluation matrix of the given words against all free
    words of length <= D, by exact elimination at a generic rational
    point.  The evaluation entries are Laurent polynomials, so the
    specialization has no poles."""
    bundle = build_bundle(IndexGeometry(N + 2, embedded=True))
    point = _generic_point(bundle.geometry.params)
    rows: List[Dict] = [{} for _ in ws]
    words = {i: word_functional(bundle, w) for i, w in enumerate(ws)}
    for coords, vals in _walk(words, D):
        for i, v in vals.items():
            rows[i][coords] = specialize(v, point)
    return rational_rank(rows)


# ---------------------------------------------------------------------------
# Hopf pairing axioms

def _pairing_axiom_cases(N: int) -> List[Tuple[str, Iterator[tuple]]]:
    """The duality bracket axioms for iso(N) as named, ordered, lazily
    generated families of cases (key, lhs, rhs), each key a detail
    template and its arguments; see verify_pairing_axioms."""
    p = build_presentation("iso", N)
    big = build_presentation("so", N + 2, embedded=True)
    bundle = build_bundle(big.geometry)
    ps = p.params
    sym = p.alphabet.symbols
    fgens = dict(enumerate(iu_generators(bundle)))
    agens = {x: p.element({(x,): ps.one}) for x in range(len(sym))}

    def lift(elems: Iterable) -> Dict:
        # the sections of quotient elements by T-word, for _brackets
        return _t_words(bundle, ((k, section(a, p)) for k, a in elems))

    letters = lift(agens.items())

    def product_cases():
        cops = {x: costructure("coproduct", a, p).terms.items()
                for x, a in agens.items()}
        words = {w for cop in cops.values() for pair, _ in cop for w in pair}
        val = _brackets(fgens, lift((w, word_element(p.alphabet, ps, w))
                                    for w in words))
        by_word: Dict = defaultdict(dict)
        for j, got in val.items():
            for w, v in got.items():
                by_word[w][j] = v
        for i, f in fgens.items():
            # one walk per left factor: one walk over every product
            # would hold len(fgens)^2 functionals and their values at once
            fg = _brackets({j: f * g for j, g in fgens.items()}, letters)
            left = val[i]
            rhs: Dict = {}
            for x, cop in cops.items():
                row: Dict = {}
                for (w1, w2), c in cop:
                    if w1 in left:
                        _acc(row, w2, c * left[w1])
                for w, v in row.items():
                    for j, u in by_word[w].items():
                        _acc(rhs, (j, x), v * u)
            for j, g in fgens.items():
                fgj = fg[j]
                for x in agens:
                    yield (("products vs coproduct at %r, %r on %s",
                            (f, g, sym[x])), fgj.get(x, ps.zero),
                           rhs.get((j, x), ps.zero))

    def coproduct_cases():
        cops = {i: coproduct_functional(f) for i, f in fgens.items()}
        val = _brackets({w: word_functional(bundle, w)
                         for cop in cops.values() for _, wl, wr in cop
                         for w in (wl, wr)}, letters)
        # a walk over every functional would hold all their values on
        # the len(agens)^2 products at once
        products = lift(((x, y), a * b) for x, a in agens.items()
                        for y, b in agens.items())
        for i, f in fgens.items():
            fab = _brackets({i: f}, products)[i]
            table: Dict = {}
            for c, wl, wr in cops[i]:
                right = val[wr]
                for x, v in val[wl].items():
                    cv = c * v
                    for y, u in right.items():
                        _acc(table, (x, y), cv * u)
            for x in agens:
                for y in agens:
                    yield (("functional coproduct vs product at %r on %s, %s",
                            (f, sym[x], sym[y])), fab.get((x, y), ps.zero),
                           table.get((x, y), ps.zero))

    def antipode_cases():
        kf = _brackets({i: antipode_L(f) for i, f in fgens.items()}, letters)
        fk = _brackets(fgens, lift((x, costructure("antipode", a, p))
                                   for x, a in agens.items()))
        for i, f in fgens.items():
            for x in agens:
                yield (("antipodes disagree at %r on %s", (f, sym[x])),
                       kf[i].get(x, ps.zero), fk[i].get(x, ps.zero))

    def unit_cases():
        eps = _brackets({(): eps_functional(bundle)}, letters)
        unit = _brackets(fgens, lift([((), unit_element(p.alphabet, ps))]))
        for x, a in agens.items():
            yield (("counit mismatch on %s", (sym[x],)),
                   eps[()].get(x, ps.zero),
                   costructure("counit", a, p).terms.get((), ps.zero))
        for i, f in fgens.items():
            yield (("unit mismatch at %r", (f,)), unit[i].get((), ps.zero),
                   counit_functional(f))

    return [("product pairing follows the quotient coproduct",
             product_cases()),
            ("functional coproduct follows the quotient product",
             coproduct_cases()),
            ("antipodes are adjoint under the bracket", antipode_cases()),
            ("units pair with counits", unit_cases())]


def verify_pairing_axioms(N: int) -> Report:
    """Compatibility of the duality bracket with products, coproducts,
    antipodes and units on every generator pair of iso(N), each axiom
    reported by its first failing case (_pairing_axiom_cases).

    The right sides of the product and coproduct axioms are contracted
    from the nonzero brackets alone, one table per left factor or
    functional that the cases read in order, a missing key reading zero.
    For the product axiom, with Delta(x) = sum c w1 (x) w2 the quotient
    coproduct of a letter x,
        <f g, x> = sum_w2 (sum_w1 c <f, w1>) <g, w2>:
    the inner sum is one row over the right words w2 per left factor f
    and letter x, dotted with the nonzero brackets of every g at once
    through those brackets indexed by word.  For the coproduct axiom,
    with Delta'(f) = sum c wl (x) wr,
        <f, x y> = sum c <wl, x> <wr, y>
    is folded into one table over the letter pairs (x, y) per functional
    f.  Skipping a zero bracket is exact: every term that reads it is
    zero, and the sums are exact in Q(s, g_ab), so leaving out zero terms
    and regrouping the rest cannot change a sum.

    The left sides are walks: <f g, x> walks the functionals f g on the
    section of x, once per left factor f, and <f, x y> walks f on the
    sections of the products x y, sectioned once and walked once per
    functional, so that only one functional's values on them are held.
    The walk of f g splits over the coproduct of SO(N+2) on the section,
    which also sums over the letters that the quotient sends to zero,
    while the right side uses the coproduct of the quotient ISO(N); the
    two agree only because every generator annihilates the cone ideal,
    so the product axiom is an identity and not a tautology."""
    rep = Report("duality bracket axioms for iso(%d)" % N)
    for name, cases in _pairing_axiom_cases(N):
        w = first_failure(cases)
        rep.add(name, w is None, "" if w is None else w[0][0] % w[0][1])
    return rep


# ---------------------------------------------------------------------------
# serialization

def functional_to_json(e: FunctionalElement) -> list:
    out = []
    for w in sorted(e.terms, key=word_key):
        tags = [gen_tag(g) for g in w] if w else ["eps"]
        out.append({"word": tags, "coeff": scalar_to_json(e.terms[w])})
    return out


def functional_from_json(bundle: RMatrixBundle, payload) -> FunctionalElement:
    M = bundle.geometry.dim
    return FunctionalElement(bundle, _terms_from_json(
        bundle.geometry.params, payload, lambda tags: tag_word(M, tags)))
