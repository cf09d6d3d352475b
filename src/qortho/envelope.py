"""Regular functionals on the embedded orthogonal quantum group and the
enveloping algebra of its inhomogeneous quotient.

The dual algebra is generated by the counit eps and two matrices of
functionals L+, L- whose values on the matrix generators are fixed by the
R matrix of the embedded geometry:

    L+^A_B (T^C_D) = R^{CA}_{DB}      L-^A_B (T^C_D) = (R^{-1})^{AC}_{BD}
    L+-^A_B (I)    = delta^A_B

extended to longer words through L^A_B(ab) = L^A_G(a) L^G_B(b) and to the
whole dual by the convolution product (fg)(a) = (f x g)(Delta a).  On a
free word T^{C1}_{D1} ... T^{Ck}_{Dk} a single generator evaluates as a
chain of R contractions and a word of m generators as an m-row grid of
them, so every operation below reduces to sparse transfer-matrix algebra
over the exact scalar field: per-generator evaluation matrices are cached
per word length, products of functionals become matrix chains, and whole
families of exchange relations are checked at once on two-row grid
tensors.

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

from fractions import Fraction
from itertools import product as iproduct
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .itensor import (IndexGeometry, SparseTensor4, rank6_equal,
                      tensor_equal, triple_compose)
from .presentations import (AlgebraElement, build_presentation, costructure,
                            project, section, unit_element, word_element)
from .report import Report
from .rmatrix import RMatrixBundle, build_bundle, inner_lift
from .scalars import (LinearCombination, ParamSpace, Scalar, _acc,
                      canonical_q, merge_deformations, rational_rank,
                      render_scalar, scalar_from_json, scalar_invert,
                      scalar_to_json, specialize, word_key)

Gen = Tuple[int, int, int]            # (sign, A, B); sign +1 for L+, -1 for L-
FunctionalWord = Tuple[Gen, ...]
EPS_WORD: FunctionalWord = ()

__all__ = [
    "FunctionalElement", "FunctionalWord", "Gen", "EPS_WORD", "NotInIU",
    "EqualityResult", "AnnihilationResult", "TwistMatrix",
    "eps_functional", "l_functional", "word_functional",
    "gen_tag", "tag_gen", "show_functional_word",
    "eval_functional", "antipode_L", "coproduct_functional",
    "counit_functional", "functional_equal", "verify_envelope_suite",
    "verify_parameter_collapse", "verify_pairing_axioms",
    "iu_annihilates", "iu_generators", "pairing", "independence_rank",
    "eta_monomials", "script_r_matrix", "twist_matrix",
    "functional_to_json", "functional_from_json",
]


class NotInIU(Exception):
    """A pairing was requested for a functional that fails to annihilate
    the cone ideal at the configured degree bound."""


def gen_tag(g: Optional[Gen]) -> str:
    if g is None:
        return "eps"
    sign, A, B = g
    return "L%s[%d,%d]" % ("+" if sign > 0 else "-", A, B)


def tag_gen(tag: str) -> Optional[Gen]:
    if tag == "eps":
        return None
    if tag.startswith("L+[") or tag.startswith("L-["):
        a, b = tag[3:-1].split(",")
        return (1 if tag[1] == "+" else -1, int(a), int(b))
    raise ValueError("unknown functional generator tag %r" % (tag,))


def show_functional_word(w: FunctionalWord) -> str:
    if not w:
        return "eps"
    return " ".join(gen_tag(g) for g in w)


class FunctionalElement(LinearCombination):
    """Finite scalar combination of words of L+/L- generators.

    The counit is the empty word; eps letters fed in through JSON are
    absorbed on construction, so words never store unit factors.
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


class TwistMatrix:
    """Diagonal values of the fourth power of the twisting element:
    f4(A, C) = (q_AC / r)^2, a Laurent monomial, equal to one on the
    diagonal because q_AA = r."""

    def __init__(self, bundle: RMatrixBundle):
        self.bundle = bundle
        ps = bundle.geometry.params
        rinv = ps.s_pow(-2)
        self.values: Dict[Tuple[int, int], Scalar] = {}
        for A in bundle.geometry.indices():
            for C in bundle.geometry.indices():
                root = canonical_q(ps, A, C) * rinv
                self.values[(A, C)] = root * root

    def f4(self, A: int, C: int) -> Scalar:
        return self.values[(A, C)]


def twist_matrix(bundle: RMatrixBundle) -> TwistMatrix:
    cache = _cache(bundle)
    got = cache.get("twist")
    if got is None:
        got = TwistMatrix(bundle)
        cache["twist"] = got
    return got


# ---------------------------------------------------------------------------
# evaluation engine

def _cache(bundle: RMatrixBundle) -> dict:
    got = getattr(bundle, "_functional_cache", None)
    if got is None:
        got = {}
        bundle._functional_cache = got
    return got


def _transfer(bundle: RMatrixBundle, sign: int):
    """Per T-letter transfer: trans[(C, D)][E][F] = R+-^{EC}_{FD}."""
    cache = _cache(bundle)
    key = ("transfer", sign)
    got = cache.get(key)
    if got is not None:
        return got
    tensor = bundle.Rplus if sign > 0 else bundle.Rminus
    out: Dict[Tuple[int, int], Dict[int, Dict[int, Scalar]]] = {}
    for (E, C, F, D), v in tensor.items():
        out.setdefault((C, D), {}).setdefault(E, {})[F] = v
    cache[key] = out
    return out


def _gen_family(bundle: RMatrixBundle, sign: int, k: int):
    """Evaluation matrices at word length k for every generator of one
    sign: fam[(A, B)][Cvec][Dvec] = L^A_B(T^{C1}_{D1}...T^{Ck}_{Dk})."""
    cache = _cache(bundle)
    key = ("fam", sign, k)
    got = cache.get(key)
    if got is not None:
        return got
    out: Dict[Tuple[int, int], Dict[Tuple, Dict[Tuple, Scalar]]] = {}
    if k == 0:
        for A in bundle.geometry.indices():
            out[(A, A)] = {(): {(): bundle.geometry.params.one}}
    elif k == 1:
        for (C, D), m in _transfer(bundle, sign).items():
            for E, row in m.items():
                for F, v in row.items():
                    out.setdefault((E, F), {}).setdefault((C,), {})[(D,)] = v
    else:
        prev = _gen_family(bundle, sign, k - 1)
        base = _gen_family(bundle, sign, 1)
        by_first: Dict[int, List] = {}
        for (E, B), mat in base.items():
            by_first.setdefault(E, []).append((B, mat))
        for (A, E), mat in prev.items():
            hits = by_first.get(E)
            if hits is None:
                continue
            for B, tail in hits:
                dst = out.setdefault((A, B), {})
                for Cvec, row in mat.items():
                    for Dvec, v1 in row.items():
                        for (c,), tr in tail.items():
                            drow = dst.setdefault(Cvec + (c,), {})
                            for (d,), v2 in tr.items():
                                _acc(drow, Dvec + (d,), v1 * v2)
        for pair in list(out):
            mat = out[pair]
            for r in list(mat):
                if not mat[r]:
                    del mat[r]
            if not mat:
                del out[pair]
    cache[key] = out
    return out


def _mat_mul(m1, m2):
    out = {}
    for r, row in m1.items():
        acc = {}
        for mid, v in row.items():
            hit = m2.get(mid)
            if hit is None:
                continue
            for c, w in hit.items():
                _acc(acc, c, v * w)
        if acc:
            out[r] = acc
    return out


def _identity_matrix(bundle: RMatrixBundle, k: int):
    cache = _cache(bundle)
    key = ("idmat", k)
    got = cache.get(key)
    if got is None:
        one = bundle.geometry.params.one
        got = {vec: {vec: one}
               for vec in iproduct(bundle.geometry.indices(), repeat=k)}
        cache[key] = got
    return got


def _word_matrix(bundle: RMatrixBundle, w: FunctionalWord, k: int):
    """Evaluation matrix of a product word at T-word length k."""
    cache = _cache(bundle)
    key = ("wmat", w, k)
    got = cache.get(key)
    if got is not None:
        return got
    if not w:
        got = _identity_matrix(bundle, k)
    else:
        sign, A, B = w[0]
        got = _gen_family(bundle, sign, k).get((A, B), {})
        for sign, A, B in w[1:]:
            got = _mat_mul(got, _gen_family(bundle, sign, k).get((A, B), {}))
    cache[key] = got
    return got


def _element_matrix(e: FunctionalElement, k: int):
    out: Dict[Tuple, Dict[Tuple, Scalar]] = {}
    for w, c in e.terms.items():
        for r, row in _word_matrix(e.bundle, w, k).items():
            dst = out.setdefault(r, {})
            for col, v in row.items():
                _acc(dst, col, c * v)
    for r in list(out):
        if not out[r]:
            del out[r]
    return out


def _letter_pairs(bundle: RMatrixBundle, alphabet) -> List[Tuple[int, int]]:
    cache = _cache(bundle)
    key = ("letters", id(alphabet))
    got = cache.get(key)
    if got is not None:
        return got[1]
    geom = bundle.geometry
    labmap = {geom.label(A): A for A in geom.indices()}
    pairs: List[Tuple[int, int]] = []
    for sym in alphabet.symbols:
        if not (sym.startswith("T[") and sym.endswith("]")):
            raise ValueError("functionals evaluate on the free matrix-entry "
                             "alphabet; got symbol %r" % (sym,))
        a, b = sym[2:-1].split(",")
        pairs.append((labmap[a], labmap[b]))
    cache[key] = (alphabet, pairs)
    return pairs


def _word_value(bundle: RMatrixBundle, fw: FunctionalWord,
                Cvec: Tuple, Dvec: Tuple) -> Optional[Scalar]:
    k = len(Cvec)
    if not fw:
        return bundle.geometry.params.one if Cvec == Dvec else None
    sign, A, B = fw[0]
    row = _gen_family(bundle, sign, k).get((A, B), {}).get(Cvec)
    if not row:
        return None
    for sign, A, B in fw[1:]:
        row = _mat_mul({Cvec: row},
                       _gen_family(bundle, sign, k).get((A, B), {})).get(Cvec)
        if not row:
            return None
    return row.get(Dvec)


def eval_functional(f: FunctionalElement, a: AlgebraElement) -> Scalar:
    """Value of a functional on an element of the free matrix-entry
    algebra of the same embedded geometry."""
    bundle = f.bundle
    ps = bundle.geometry.params
    pairs = _letter_pairs(bundle, a.alphabet)
    total = ps.zero
    for xw, xc in a.terms.items():
        coords = [pairs[g] for g in xw]
        Cvec = tuple(c for c, _ in coords)
        Dvec = tuple(d for _, d in coords)
        for fw, fc in f.terms.items():
            v = _word_value(bundle, fw, Cvec, Dvec)
            if v is not None and v:
                total = total + fc * xc * v
    return total


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


def functional_equal(f: FunctionalElement, g: FunctionalElement,
                     D: int) -> EqualityResult:
    """Equality of evaluations on every free word of length <= D,
    including the empty word; the witness is the first disagreeing word
    in (length, index) order with both values."""
    if f.bundle is not g.bundle:
        raise ValueError("functionals live over different geometries")
    for k in range(D + 1):
        mf = _element_matrix(f, k)
        mg = _element_matrix(g, k)
        for r in sorted(set(mf) | set(mg)):
            rf = mf.get(r, {})
            rg = mg.get(r, {})
            for col in sorted(set(rf) | set(rg)):
                vf = rf.get(col)
                vg = rg.get(col)
                if (vf or vg) and vf != vg:
                    coords = tuple(zip(r, col))
                    return EqualityResult(False, (coords, vf, vg))
    return EqualityResult(True, None)


# ---------------------------------------------------------------------------
# two-row grid tensors and the relation suite

def _pair_family(bundle: RMatrixBundle, s1: int, s2: int, k: int):
    """Joint evaluation of all convolution pairs at word length k:

        H[(A1, A2)][(B1, B2)][coords] = (L^{s1 A1}_{B1} L^{s2 A2}_{B2})(x)

    with coords = ((C1, D1), ..., (Ck, Dk)) naming the test word x; built
    by appending one grid column at a time."""
    cache = _cache(bundle)
    key = ("pair", s1, s2, k)
    got = cache.get(key)
    if got is not None:
        return got
    out: Dict[Tuple[int, int], Dict[Tuple[int, int], Dict[Tuple, Scalar]]] = {}
    if k == 0:
        one = bundle.geometry.params.one
        for A1 in bundle.geometry.indices():
            for A2 in bundle.geometry.indices():
                out[(A1, A2)] = {(A1, A2): {(): one}}
    elif k == 1:
        t1 = _transfer(bundle, s1)
        t2 = _transfer(bundle, s2)
        t2_by_first: Dict[int, List] = {}
        for (F, d), m in t2.items():
            t2_by_first.setdefault(F, []).append((d, m))
        for (c, f), m1 in t1.items():
            hits = t2_by_first.get(f)
            if hits is None:
                continue
            for d, m2 in hits:
                x = ((c, d),)
                for E1, r1 in m1.items():
                    for F1, v1 in r1.items():
                        for E2, r2 in m2.items():
                            dst = out.setdefault((E1, E2), {})
                            for F2, v2 in r2.items():
                                _acc(dst.setdefault((F1, F2), {}), x, v1 * v2)
    else:
        prev = _pair_family(bundle, s1, s2, k - 1)
        base = _pair_family(bundle, s1, s2, 1)
        for Apair, mids in prev.items():
            dst_all = out.setdefault(Apair, {})
            for Epair, xmap in mids.items():
                tails = base.get(Epair)
                if not tails:
                    continue
                for Bpair, colmap in tails.items():
                    cell = dst_all.setdefault(Bpair, {})
                    for x1, v1 in xmap.items():
                        for x2, v2 in colmap.items():
                            _acc(cell, x1 + x2, v1 * v2)
    for Apair in list(out):
        mids = out[Apair]
        for Bpair in list(mids):
            if not mids[Bpair]:
                del mids[Bpair]
        if not mids:
            del out[Apair]
    cache[key] = out
    return out


def _tensor_by_upper(Rt: SparseTensor4):
    out: Dict[Tuple[int, int], List] = {}
    for (A, B, C, D), v in Rt.items():
        out.setdefault((A, B), []).append((C, D, v))
    return out


def _any_generator(A: int, B: int) -> bool:
    return True


def _exchange_residual(bundle: RMatrixBundle, Rt: SparseTensor4, s2: int,
                       s1: int, D: int, mask2=_any_generator,
                       mask1=_any_generator):
    """First witness of Rt_12 L^{s2}_2 L^{s1}_1 != L^{s1}_1 L^{s2}_2 Rt_12
    on free words of length <= D, or None.  The masks mask2(A, B) and
    mask1(A, B) restrict the L^{s2} and the L^{s1} matrix to a generator
    support."""
    by_upper = _tensor_by_upper(Rt)
    for k in range(D + 1):
        H21 = _pair_family(bundle, s2, s1, k)
        H12 = _pair_family(bundle, s1, s2, k)
        lhs: Dict[Tuple, Scalar] = {}
        rhs: Dict[Tuple, Scalar] = {}
        for (A, B), lows in by_upper.items():
            for E, F, v in lows:
                mids = H21.get((F, E))
                if not mids:
                    continue
                for (Dd, Cc), xmap in mids.items():
                    if not (mask2(F, Dd) and mask1(E, Cc)):
                        continue
                    for x, hv in xmap.items():
                        _acc(lhs, (A, B, Cc, Dd, x), v * hv)
        for (A, B), mids in H12.items():
            for (E, F), xmap in mids.items():
                if not (mask1(A, E) and mask2(B, F)):
                    continue
                lows = by_upper.get((E, F))
                if not lows:
                    continue
                for Cc, Dd, v in lows:
                    for x, hv in xmap.items():
                        _acc(rhs, (A, B, Cc, Dd, x), hv * v)
        for kk in sorted(set(lhs) | set(rhs)):
            lv = lhs.get(kk)
            rv = rhs.get(kk)
            if lv != rv:
                return (kk, lv, rv)
    return None


def _render_exchange_witness(geometry: IndexGeometry, w) -> str:
    (A, B, C, D, x), lv, rv = w
    lab = geometry.label
    return ("indices (%s,%s;%s,%s) on %s: %s vs %s"
            % (lab(A), lab(B), lab(C), lab(D), show_t_word(geometry, x),
               "0" if lv is None else render_scalar(lv),
               "0" if rv is None else render_scalar(rv)))


def _xmap_scaled_equal(xa: Dict[Tuple, Scalar], xb: Dict[Tuple, Scalar],
                       coeff: Scalar):
    for x in sorted(set(xa) | set(xb)):
        va = xa.get(x)
        vb = xb.get(x)
        vb = None if vb is None else coeff * vb
        if va != vb:
            return (x, va, vb)
    return None


def _metric_orthogonality_residual(bundle: RMatrixBundle, sign: int,
                                   variant: str, D: int, mask=None):
    """C^{AB} L^C_B L^D_A = C^{DC} eps (variant "upper") or
    C_{AB} L^B_C L^A_D = C_{DC} eps (variant "lower")."""
    geom = bundle.geometry
    metric = bundle.C
    pr = geom.prime
    idx = list(geom.indices())
    for k in range(D + 1):
        H = _pair_family(bundle, sign, sign, k)
        for C in idx:
            for Dd in idx:
                acc: Dict[Tuple, Scalar] = {}
                for A in idx:
                    if variant == "upper":
                        # summed pair: L^C_{A'} convolved with L^D_A
                        row1, row2 = (C, pr(A)), (Dd, A)
                        coeff = metric.c(A)
                    else:
                        # summed pair: L^{B}_C L^{B'}_D with B = A
                        row1, row2 = (A, C), (pr(A), Dd)
                        coeff = metric.c(pr(A))
                    if mask is not None and not (mask(*row1) and mask(*row2)):
                        continue
                    xmap = H.get((row1[0], row2[0]), {}).get(
                        (row1[1], row2[1]))
                    if not xmap:
                        continue
                    for x, v in xmap.items():
                        _acc(acc, x, coeff * v)
                expected = metric.lower(Dd, C)
                for x in sorted(set(acc)
                                | ({tuple(zip(v, v))
                                    for v in iproduct(idx, repeat=k)}
                                   if expected else set())):
                    want = (expected if all(c == d for c, d in x) and expected
                            else None)
                    got = acc.get(x)
                    if got != want:
                        return ((C, Dd, x), got, want)
    return None


def _matrix_equal_diag(bundle: RMatrixBundle, mat, diag, k: int):
    """Compare an evaluation matrix against the diagonal matrix whose
    (vec, vec) entry is diag(vec); diag returns None for zero."""
    idx = list(bundle.geometry.indices())
    rows = set(mat) | set(iproduct(idx, repeat=k))
    for r in sorted(rows):
        row = mat.get(r, {})
        for col in sorted(set(row) | {r}):
            want = diag(r) if col == r else None
            got = row.get(col)
            if not got:
                got = None
            if got != want:
                return ((r, col), got, want)
    return None


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
    entries: Dict[Tuple[int, int, int, int], Scalar] = {}
    for A in geom.indices():
        for C in geom.indices():
            t_entry = project(
                word_element(big.alphabet, geom.params,
                             ((A - 1) * M + (C - 1),)), p)
            if not t_entry:
                continue
            lifted = section(t_entry, p)
            for B in geom.indices():
                for Dd in geom.indices():
                    if B != Dd and not (B in inner and Dd in inner):
                        continue
                    val = eval_functional(l_functional(bundle, 1, B, Dd),
                                          lifted)
                    if val:
                        entries[(A, B, C, Dd)] = val
    return SparseTensor4(geom, entries)


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

def verify_envelope_suite(N: int, D: Optional[int] = None) -> Report:
    """Exchange, orthogonality, reduction and twist identities of the
    functional matrices, checked on all free words of length <= D."""
    if D is None:
        D = 3 if N == 3 else 2
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

    def lgen(sign, A, B):
        return ((sign, A, B),)

    # triangularity: no evaluation matrix below (above) the L+ (L-) diagonal
    bad = []
    for k in range(1, D + 1):
        famp = _gen_family(bundle, 1, k)
        famm = _gen_family(bundle, -1, k)
        for A in geom.indices():
            for B in geom.indices():
                if A > B and famp.get((A, B)):
                    bad.append(("L+", A, B, k))
                if A < B and famm.get((A, B)):
                    bad.append(("L-", A, B, k))
    rep.add("triangularity of the functional matrices", not bad,
            "" if not bad else "nonzero at %r" % (bad[:3],))

    # exchange relations
    for name, s2, s1 in [
            ("exchange relations for two plus rows", 1, 1),
            ("exchange relations for two minus rows", -1, -1),
            ("mixed exchange relations between plus and minus rows", 1, -1)]:
        w = _exchange_residual(bundle, bundle.R, s2, s1, D)
        rep.add(name, w is None,
                "" if w is None else _render_exchange_witness(geom, w))

    # metric orthogonality
    for sign, sname in [(1, "plus"), (-1, "minus")]:
        for variant in ("upper", "lower"):
            w = _metric_orthogonality_residual(bundle, sign, variant, D)
            rep.add("%s metric orthogonality of the %s matrix"
                    % (variant, sname), w is None,
                    "" if w is None else "%r" % (w,))

    # ordered diagonal product equals the counit
    diag_word = tuple((1, A, A) for A in geom.indices())
    for sign, sname in [(1, "plus"), (-1, "minus")]:
        word = tuple((sign, A, B) for _, A, B in diag_word)
        w = None
        for k in range(D + 1):
            w = _matrix_equal_diag(bundle, _word_matrix(bundle, word, k),
                                   lambda r: ps.one, k)
            if w is not None:
                break
        rep.add("ordered diagonal product of the %s matrix equals the counit"
                % sname, w is None, "" if w is None else "%r" % (w,))
    if M % 2 == 1:
        mid = (M + 1) // 2
        for sign, sname in [(1, "plus"), (-1, "minus")]:
            w = None
            for k in range(D + 1):
                w = _matrix_equal_diag(
                    bundle, _word_matrix(bundle, lgen(sign, mid, mid), k),
                    lambda r: ps.one, k)
                if w is not None:
                    break
            rep.add("middle diagonal %s functional equals the counit"
                    % sname, w is None, "" if w is None else "%r" % (w,))

    # antisymmetrizer annihilates the translation column (both the
    # projector form and its inverse-parameter plane reading are the same
    # contraction)
    small = build_bundle(IndexGeometry(N))
    lift = inner_lift(geom)
    pa_witness = None
    for k in range(D + 1):
        H = _pair_family(bundle, -1, -1, k)
        for a in range(1, N + 1):
            for b in range(1, N + 1):
                acc: Dict[Tuple, Scalar] = {}
                for (aa, bb, cc, dd), v in small.P_A.items():
                    if (aa, bb) != (a, b):
                        continue
                    xmap = H.get((dd + 1, cc + 1), {}).get((circ, circ))
                    if not xmap:
                        continue
                    cv = lift(v)
                    for x, hv in xmap.items():
                        _acc(acc, x, cv * hv)
                if acc and pa_witness is None:
                    x = sorted(acc)[0]
                    pa_witness = ((a, b, x), acc[x])
    rep.add("antisymmetrizer annihilates the translation column",
            pa_witness is None,
            "" if pa_witness is None else "%r" % (pa_witness,))
    rep.add("translation column satisfies the inverse-parameter plane "
            "relations", pa_witness is None,
            "same contraction as the antisymmetrizer check")

    # bullet-row reductions
    c_ob = metric.lower(circ, bullet)
    c_bo = metric.lower(bullet, circ)
    coeff1 = -scalar_invert(c_ob)
    ok_all = True
    detail = ""
    for c in inner:
        lhs = word_functional(bundle, lgen(-1, bullet, c))
        rhs = FunctionalElement(bundle, {})
        for a in inner:
            w = ((-1, pr(a), c), (-1, a, circ), (-1, bullet, bullet))
            rhs = rhs + word_functional(bundle, w, coeff1 * metric.c(a))
        res = functional_equal(lhs, rhs, D)
        if not res.equal:
            ok_all = False
            detail = "column %d: %s" % (c, show_t_word(geom, res.witness[0]))
            break
    rep.add("bullet-row functionals reduce to metric combinations",
            ok_all, detail)
    coeff2 = -scalar_invert(ps.s_pow(-4) * c_bo + c_ob)
    lhs = word_functional(bundle, lgen(-1, bullet, circ))
    rhs = FunctionalElement(bundle, {})
    for a in inner:
        w = ((-1, pr(a), circ), (-1, a, circ), (-1, bullet, bullet))
        rhs = rhs + word_functional(bundle, w, coeff2 * metric.c(a))
    res = functional_equal(lhs, rhs, D)
    rep.add("bullet-corner functional reduces to a metric combination",
            res.equal,
            "" if res.equal else show_t_word(geom, res.witness[0]))

    # dilatation versus the translation column
    w1 = None
    for k in range(D + 1):
        H = _pair_family(bundle, -1, -1, k)
        for a in inner:
            coeff = scalar_invert(canonical_q(ps, circ, a))
            xa = H.get((circ, a), {}).get((circ, circ), {})
            xb = H.get((a, circ), {}).get((circ, circ), {})
            w1 = _xmap_scaled_equal(xa, xb, coeff)
            if w1 is not None:
                w1 = (a,) + w1
                break
        if w1 is not None:
            break
    rep.add("dilatation exchanges with the translation column",
            w1 is None, "" if w1 is None else "%r" % (w1,))

    # dilatation versus the rotation block; the printed relation has
    # mismatched free indices, so the form checked here is the one the
    # exchange relations force at indices (circ circ, b d)
    w2 = None
    for k in range(D + 1):
        for sign in (1, -1):
            Hms = _pair_family(bundle, -1, sign, k)
            Hsm = _pair_family(bundle, sign, -1, k)
            for b in inner:
                for d in inner:
                    coeff = canonical_q(ps, b, circ) * scalar_invert(
                        canonical_q(ps, d, circ))
                    xa = Hms.get((circ, b), {}).get((circ, d), {})
                    xb = Hsm.get((b, circ), {}).get((d, circ), {})
                    w2 = _xmap_scaled_equal(xa, xb, coeff)
                    if w2 is not None:
                        w2 = (sign, b, d) + w2
                        break
                if w2 is not None:
                    break
            if w2 is not None:
                break
        if w2 is not None:
            break
    rep.add("dilatation exchanges with the rotation block",
            w2 is None, "derived exchange form"
            if w2 is None else "%r" % (w2,))

    # translation column versus the rotation block through R
    w3 = None
    rfor = {1: bundle.Rplus, -1: bundle.Rminus}
    for k in range(D + 1):
        for sign in (1, -1):
            Hms = _pair_family(bundle, -1, sign, k)
            Hsm = _pair_family(bundle, sign, -1, k)
            Rpm = rfor[sign]
            for a in inner:
                for b in inner:
                    for d in inner:
                        coeff0 = ps.r * scalar_invert(
                            canonical_q(ps, d, circ))
                        lhsx = Hms.get((a, b), {}).get((circ, d), {})
                        acc: Dict[Tuple, Scalar] = {}
                        for e in inner:
                            for ff in inner:
                                rv = Rpm.get((b, a, e, ff))
                                if not rv:
                                    continue
                                xmap = Hsm.get((e, ff), {}).get((d, circ))
                                if not xmap:
                                    continue
                                cv = coeff0 * rv
                                for x, hv in xmap.items():
                                    _acc(acc, x, cv * hv)
                        w3 = _xmap_scaled_equal(lhsx, acc, ps.one)
                        if w3 is not None:
                            w3 = (sign, a, b, d) + w3
                            break
                    if w3 is not None:
                        break
                if w3 is not None:
                    break
            if w3 is not None:
                break
        if w3 is not None:
            break
    rep.add("translation column exchanges with the rotation block through R",
            w3 is None, "" if w3 is None else "%r" % (w3,))

    # block-diagonal plus matrix
    def block_mask(A, B):
        return A == B or (A in inner_set and B in inner_set)

    w = _exchange_residual(bundle, bundle.R, 1, 1, D, block_mask, block_mask)
    rep.add("block-diagonal plus matrix satisfies the exchange relations",
            w is None, "" if w is None else _render_exchange_witness(geom, w))

    script = script_r_matrix(N)
    ok, tw = tensor_equal(script, _script_r_expected(bundle))
    rep.add("script R matrix reproduces the block table", ok,
            "" if ok else "%r" % (tw,))
    lhs6 = triple_compose([(script, 12), (script, 13), (script, 23)])
    rhs6 = triple_compose([(script, 23), (script, 13), (script, 12)])
    ok, yw = rank6_equal(lhs6, rhs6)
    rep.add("script R matrix satisfies the Yang-Baxter equation", ok,
            "" if ok else "%r" % (yw,))

    w = _exchange_residual(bundle, script, 1, 1, D, block_mask, block_mask)
    rep.add("block exchange relations hold with the script R matrix",
            w is None, "" if w is None else _render_exchange_witness(geom, w))
    # script_12 Lc+_2 L-_1 = L-_1 Lc+_2 script_12, block mask on the plus slot
    w = _exchange_residual(bundle, script, 1, -1, D, mask2=block_mask)
    rep.add("mixed block exchange relations hold with the script R matrix",
            w is None, "" if w is None else _render_exchange_witness(geom, w))

    for variant in ("upper", "lower"):
        w = _metric_orthogonality_residual(bundle, 1, variant, D,
                                           mask=block_mask)
        rep.add("%s metric orthogonality of the block matrix" % variant,
                w is None, "" if w is None else "%r" % (w,))

    # matching diagonal products give the fourth twist power
    twist = twist_matrix(bundle)
    w4 = None
    for A in geom.indices():
        word = ((1, A, A), (-1, A, A))
        for k in range(D + 1):
            mat = _word_matrix(bundle, word, k)

            def f4diag(vec, A=A):
                out = ps.one
                for C in vec:
                    out = out * twist.f4(A, C)
                return out

            w4 = _matrix_equal_diag(bundle, mat, f4diag, k)
            if w4 is not None:
                w4 = (A,) + w4
                break
        if w4 is not None:
            break
    rep.add("matching diagonal products equal the fourth twist power",
            w4 is None, "" if w4 is None else "%r" % (w4,))
    return rep


# ---------------------------------------------------------------------------
# the uniparametric collapse

def verify_parameter_collapse(N: int, D: Optional[int] = None) -> Report:
    """Matching diagonal plus/minus products versus the counit: the
    multiparametric functionals detect the deformation mismatch, and the
    identification g_ab = s^2 restores the counit identity."""
    if D is None:
        D = 3 if N == 3 else 2
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
    bad = None
    for A in geom.indices():
        diff = (word_functional(bundle, ((1, A, A), (-1, A, A)))
                - eps_functional(bundle))
        for k in range(D + 1):
            for r, row in _element_matrix(diff, k).items():
                for col, v in row.items():
                    if merge_deformations(v):
                        bad = (A, tuple(zip(r, col)), v)
                        break
                if bad:
                    break
            if bad:
                break
        if bad:
            break
    rep.add("every matching diagonal product collapses to the counit at "
            "the uniparametric point", bad is None,
            "" if bad is None else "%r" % (bad,))
    return rep


# ---------------------------------------------------------------------------
# the annihilator subalgebra, the pairing and bounded freeness

class AnnihilationResult(NamedTuple):
    ok: bool
    witness: Optional[Tuple[Tuple[Tuple[int, int], ...], Scalar]]


def _h_letters(geometry: IndexGeometry):
    inner = list(geometry.inner())
    hs = {(a, geometry.circ) for a in inner}
    hs |= {(geometry.bullet, b) for b in inner}
    hs.add((geometry.bullet, geometry.circ))
    return hs


def iu_annihilates(f: FunctionalElement, N: int,
                   D: int = 2) -> AnnihilationResult:
    """Does f kill every free word of length <= D containing a factor
    from the cone ideal T^a_o, T^*_b, T^*_o?"""
    geom = f.bundle.geometry
    if not (geom.embedded and geom.dim == N + 2):
        raise ValueError("functional is not over the embedded geometry "
                         "of iso(%d)" % N)
    hset = _h_letters(geom)
    for k in range(1, D + 1):
        mat = _element_matrix(f, k)
        for r in sorted(mat):
            row = mat[r]
            for col in sorted(row):
                coords = tuple(zip(r, col))
                if any(p in hset for p in coords):
                    return AnnihilationResult(False, (coords, row[col]))
    return AnnihilationResult(True, None)


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


def pairing(f: FunctionalElement, pa: AlgebraElement, *,
            check: bool = False, bound: int = 2) -> Scalar:
    """The duality bracket: lift the quotient element through the fixed
    section and evaluate.  With check=True the functional must first
    annihilate the cone ideal at the given bound."""
    geom = f.bundle.geometry
    N = geom.dim - 2
    p = build_presentation("iso", N)
    if not (pa.alphabet is p.alphabet
            or pa.alphabet.symbols == p.alphabet.symbols):
        raise ValueError("pairing argument is not over the iso(%d) alphabet"
                         % N)
    if check:
        res = iu_annihilates(f, N, bound)
        if not res.ok:
            coords, val = res.witness
            raise NotInIU("functional fails on %s with value %s"
                          % (show_t_word(geom, coords), render_scalar(val)))
    return eval_functional(f, section(pa, p))


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
    rows = []
    for w in ws:
        row = {}
        for k in range(D + 1):
            for r, cols in _word_matrix(bundle, w, k).items():
                for col, v in cols.items():
                    row[(k, r, col)] = specialize(v, point)
        rows.append(row)
    return rational_rank(rows)


# ---------------------------------------------------------------------------
# Hopf pairing axioms

def verify_pairing_axioms(N: int) -> Report:
    """Compatibility of the duality bracket with products, coproducts,
    antipodes and units on every generator pair."""
    p = build_presentation("iso", N)
    big = build_presentation("so", N + 2, embedded=True)
    bundle = build_bundle(big.geometry)
    ps = p.params
    rep = Report("duality bracket axioms for iso(%d)" % N)
    fgens = iu_generators(bundle)
    agens = [p.element({(i,): ps.one}) for i in range(len(p.alphabet))]

    ok = True
    detail = ""
    for f in fgens:
        for g in fgens:
            fg = f * g
            for i, a in enumerate(agens):
                lhs = pairing(fg, a)
                cop = costructure("coproduct", a, p)
                rhs = ps.zero
                for (w1, w2), c in cop.terms.items():
                    v1 = pairing(f, word_element(p.alphabet, ps, w1))
                    if not v1:
                        continue
                    v2 = pairing(g, word_element(p.alphabet, ps, w2))
                    if not v2:
                        continue
                    rhs = rhs + c * v1 * v2
                if lhs != rhs:
                    ok = False
                    detail = ("products vs coproduct at %r, %r on %s"
                              % (f, g, p.alphabet.symbols[i]))
                    break
            if not ok:
                break
        if not ok:
            break
    rep.add("product pairing follows the quotient coproduct", ok, detail)

    ok = True
    detail = ""
    for f in fgens:
        cop = coproduct_functional(f)
        for i, a in enumerate(agens):
            for j, b in enumerate(agens):
                ab = a * b
                lhs = pairing(f, ab)
                rhs = ps.zero
                for c, wl, wr in cop:
                    v1 = pairing(word_functional(bundle, wl, c), a)
                    if not v1:
                        continue
                    v2 = pairing(word_functional(bundle, wr), b)
                    if not v2:
                        continue
                    rhs = rhs + v1 * v2
                if lhs != rhs:
                    ok = False
                    detail = ("functional coproduct vs product at %r on "
                              "%s, %s" % (f, p.alphabet.symbols[i],
                                          p.alphabet.symbols[j]))
                    break
            if not ok:
                break
        if not ok:
            break
    rep.add("functional coproduct follows the quotient product", ok, detail)

    ok = True
    detail = ""
    for f in fgens:
        kf = antipode_L(f)
        for i, a in enumerate(agens):
            lhs = pairing(kf, a)
            rhs = pairing(f, costructure("antipode", a, p))
            if lhs != rhs:
                ok = False
                detail = ("antipodes disagree at %r on %s"
                          % (f, p.alphabet.symbols[i]))
                break
        if not ok:
            break
    rep.add("antipodes are adjoint under the bracket", ok, detail)

    ok = True
    detail = ""
    for i, a in enumerate(agens):
        lhs = pairing(eps_functional(bundle), a)
        cou = costructure("counit", a, p)
        rhs = cou.terms.get((), ps.zero)
        if lhs != rhs:
            ok = False
            detail = "counit mismatch on %s" % p.alphabet.symbols[i]
            break
    if ok:
        unit = unit_element(p.alphabet, ps)
        for f in fgens:
            if pairing(f, unit) != counit_functional(f):
                ok = False
                detail = "unit mismatch at %r" % (f,)
                break
    rep.add("units pair with counits", ok, detail)
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
    ps = bundle.geometry.params
    terms: Dict[FunctionalWord, Scalar] = {}
    for rec in payload:
        w = tuple(g for g in (tag_gen(t) for t in rec["word"])
                  if g is not None)
        _acc(terms, w, scalar_from_json(ps, rec["coeff"]))
    return FunctionalElement(bundle, terms)
