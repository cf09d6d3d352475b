"""Exact coefficient field for the multiparametric deformation.

Every coefficient the engine produces lives in Q(s, g_1, ..., g_k): Laurent
polynomials in a distinguished variable s and the independent deformation
parameters g_ab, divided by denominators of the restricted shape

    (Laurent monomial in the g's) x (polynomial in s).

The main deformation parameter is r = s^2; working with its square root
makes every half-integer power r^{rho_a} an integer power of s, so all
exponents stay integral.

The g_ab are the independent entries of the parameter matrix q_AB, one per
index pair a < b <= floor(M/2).  Every other q_AB reduces to a Laurent
monomial in {s, g_ab} through the reflection relations

    q_aa = r,    q_ba = r^2 / q_ab,
    q_ab = r^2 / q_ab' = r^2 / q_a'b = q_a'b'      (a' = M+1-a),

which force q_aa' = r and, for odd M (choosing the positive root of
q^2 = r^2), q_{a,n2} = r at the self-conjugate middle index n2.

Denominators stay inside the restricted class under every operation the
verification suites perform; a result that would leave the class raises
DenominatorClass instead of silently enlarging the field.  Coefficients are
exact rationals throughout (plain ints where possible, Fraction otherwise).

Inside this module a monomial is one packed int (Monagan and Pearce, "POLY:
a new polynomial data structure for Maple 17", 2013): variable i owns the
bit field [i*W, (i+1)*W) with W = _EXP_BITS + 2, s the lowest, and stores
its exponent e in [-B, B-1] (B = 2^(_EXP_BITS-1)) as e + B in the low
_EXP_BITS bits, leaving the two guard bits above clear.  Multiplying two
monomials is one int add with a one-mask overflow test (poly_mul), and
splitting off the g-part of a monomial is a shift.  An exponent outside
the field raises ExponentOverflow; nothing ever wraps.  The encoding stays
inside this module: ParamSpace.mono, monomial, unit_mono, the JSON form,
render_scalar and specialize speak exponent tuples, ordered as tuples
(packed order differs once exponents are negative), and the other layers
change variables through substitute and occurring_vars.

Common factors of a numerator and its denominator are found without a
gcd on the engine's traffic.  Its coefficients are ratios of q-numbers
[n]_r = (r^n - r^-n)/(r - r^-1), so every denominator is a product of
cyclotomic polynomials Phi_m(s), because s^n - 1 is the product of Phi_d
over d | n (Jantzen, "Lectures on Quantum Groups", 1996, ch. 0).  Each
distinct denominator is factored once into Phi_m powers and a leftover
(_den_factors), and _canon divides the numerator by each Phi_m exactly,
as often as it divides.  Phi_m is monic with integer coefficients, so
integer numerators stay integers.  Only a leftover of positive degree,
which no suite produces, goes through Euclid's algorithm over Q
(_uni_gcd).

The same few denominators recur in every contraction, so each is one
shared object (hash-consing: Filliatre and Conchon, "Type-safe modular
hash-consing", 2006).  Every Scalar's den is the dict that _den builds
once per ParamSpace and dense s-coefficient tuple, kept as its `key`;
ps._one_den is _den(ps, (1,)).  Equal denominators therefore meet by
identity in + and in the groups of sum_products, the unreduced product
of two denominators is formed once per pair (_den_product), and the
cyclotomic factors and the pole order at s = 1 are looked up by key.

The sparse combinations every layer builds over this field share one core
here: the accumulate rule `_acc`, the deglex `word_key`, the staircase
elimination `stair_insert`, and the base `LinearCombination` of the four
combination classes (free-algebra and tensor-product elements,
functionals, and index tensors).  `sum_products` sums keyed products over
a shared denominator, for the index tensor contractions; with it, no
other module needs to see num, den or the polynomial kernels.

The functional walks multiply Laurent polynomials only, about a million
times a run, so they skip the Scalar wrapper: laurent_numerator hands out
the numerator of a Laurent Scalar (DenominatorClass for any other),
tagged_mul_acc adds x * y into a dict the caller owns, forming each
product's terms directly in the sum (in-place accumulation, as in POLY),
and laurent_scalar wraps a sum back.  It is the one in-place multiply
kernel: poly_mul's general loop is one call of it into a fresh dict.
Many keyed sums can also share one dict: tag_fold packs {tag: numerator}
into one tagged numerator, the tag in the bits above the exponent fields
(where a product adds the tags of its factors, a plain numerator being
tag 0), and tag_split parts it again by tag.  The caller only passes
numerators and tags on; their encoding stays in this module.
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

Mono = Tuple[int, ...]
Coeff = Union[int, Fraction]
Poly = Dict[int, Coeff]

# value bits of one packed exponent field; two guard bits sit above them
_EXP_BITS = 13


class ScalarError(ArithmeticError):
    pass


class ZeroInverse(ScalarError):
    pass


class DenominatorClass(ScalarError):
    pass


class PoleAtPoint(ScalarError):
    pass


class PoleAtOne(ScalarError):
    pass


class ExponentOverflow(ScalarError):
    pass


def _norm_coeff(c: Coeff) -> Coeff:
    # keep dict values as plain ints whenever exact; int arithmetic is much
    # cheaper and int/Fraction hash and compare consistently
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


# --- packed monomial kernels -------------------------------------------------

def _overflow(ps: "ParamSpace", what: str, *monos: int) -> ExponentOverflow:
    return ExponentOverflow(
        "exponent outside [%d, %d] in the %s of %s"
        % (-ps._half, ps._half - 1, what,
           " and ".join(str(ps._unpack(m)) for m in monos)))


def mono_inv(ps: "ParamSpace", m: int) -> int:
    # each field becomes 2B - (e + B) = -e + B, in [1, 2B]; only e = -B
    # reaches 2B, which sets the low guard bit
    x = ps._hi - m
    if x & ps._guard:
        raise _overflow(ps, "inverse", m)
    return x


def poly_add(p1: Poly, p2: Poly) -> Poly:
    out = dict(p1)
    for m, c in p2.items():
        v = out.get(m, 0) + c
        if v:
            out[m] = v
        elif m in out:
            del out[m]
    return out


def poly_neg(p: Poly) -> Poly:
    return {m: -c for m, c in p.items()}


def poly_mul(ps: "ParamSpace", p1: Poly, p2: Poly) -> Poly:
    # With K = _bias (B in every field), x = m1 + K + m2 holds e1 + e2 + 3B
    # in each field, in [B, 5B - 2] < 2^W for in-range operands, so no
    # field carries into the next.  e1 + e2 is in range exactly when the
    # field lies in [2B, 4B - 1], i.e. when its guard bits read 01: the
    # monomial product is valid iff x & _guard == _hi, and it is x ^ _hi.
    if len(p1) > len(p2):
        p1, p2 = p2, p1
    if len(p1) == 1:
        # distinct monomials times one monomial stay distinct and nonzero
        (m1, c1), = p1.items()
        m1k, guard, hi = m1 + ps._bias, ps._guard, ps._hi
        out: Poly = {}
        for m2, c2 in p2.items():
            x = m1k + m2
            if x & guard != hi:
                raise _overflow(ps, "product", m1, m2)
            out[x ^ hi] = c1 * c2
        return out
    out = {}
    tagged_mul_acc(ps, out, p1, p2)
    return out


# --- univariate helpers over Q[s], represented as {degree: coeff} ---------

def _uni_degree(p: Dict[int, Coeff]) -> int:
    return max(p)

def _uni_divmod(num: Dict[int, Coeff], den: Dict[int, Coeff]):
    num = dict(num)
    dd = _uni_degree(den)
    lc = den[dd]
    quot: Dict[int, Coeff] = {}
    while num and _uni_degree(num) >= dd:
        nd = _uni_degree(num)
        q = _norm_coeff(Fraction(num[nd], 1) / lc)
        quot[nd - dd] = q
        for e, c in den.items():
            k = nd - dd + e
            v = _norm_coeff(num.get(k, 0) - q * c)
            if v:
                num[k] = v
            elif k in num:
                del num[k]
    return quot, num

def _uni_gcd(p1: Dict[int, Coeff], p2: Dict[int, Coeff]) -> Dict[int, Coeff]:
    a, b = dict(p1), dict(p2)
    while b:
        _, rem = _uni_divmod(a, b)
        a, b = b, rem
    # monic normalization so the gcd is canonical
    lc = a[_uni_degree(a)]
    if lc != 1:
        a = {e: _norm_coeff(Fraction(c, 1) / lc) for e, c in a.items()}
    return a


# --- cyclotomic factors, over dense coefficient lists (index = degree) ------

def _dense(p: Dict[int, Coeff], base: int) -> List[Coeff]:
    out: List[Coeff] = [0] * (max(p) - base + 1)
    for e, c in p.items():
        out[e - base] = c
    return out


def _sparse(p: Sequence[Coeff]) -> Dict[int, Coeff]:
    return {e: c for e, c in enumerate(p) if c}


def _dense_mul(p: Sequence[Coeff], q: Sequence[Coeff]) -> List[Coeff]:
    out: List[Coeff] = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _div_monic(p: Sequence[Coeff], d: Sequence[Coeff]) -> Optional[List[Coeff]]:
    """p / d when d divides p exactly, else None.  d is taken to be monic:
    its leading coefficient is never read, so an int p gives an int
    quotient."""
    k = len(d) - 1
    top = len(p) - 1 - k
    if top < 0:
        return None
    low = [(j, c) for j, c in enumerate(d[:k]) if c]
    r = list(p)
    for i in range(top, -1, -1):
        c = r[i + k]
        if c:
            for j, dj in low:
                r[i + j] -= c * dj
    if any(r[:k]):
        return None
    # r[i + k] is final once step i has read it: it is the quotient's
    # coefficient of s^i
    return r[k:]


@functools.cache
def _cyclotomic(m: int) -> Tuple[int, ...]:
    """Phi_m(s): s^m - 1 divided exactly by Phi_d for every proper divisor
    d of m (s^m - 1 is the product of Phi_d over all d | m)."""
    p: Optional[List[Coeff]] = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            p = _div_monic(p, _cyclotomic(d))
    return tuple(p)


@functools.cache
def _cyclotomic_orders(n: int) -> Tuple[Tuple[int, int], ...]:
    """(m, phi(m)) for every m with phi(m) <= n, m ascending.  Since
    phi(m) >= sqrt(m/2), every such m is at most 2 n^2."""
    top = 2 * n * n
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:
            for k in range(p, top + 1, p):
                phi[k] -= phi[k] // p
    return tuple((m, phi[m]) for m in range(1, top + 1) if phi[m] <= n)


@functools.cache
def _cyclotomic_product(factors: Tuple[Tuple[int, int], ...]
                        ) -> Tuple[int, ...]:
    out: Sequence[Coeff] = (1,)
    for m, e in factors:
        for _ in range(e):
            out = _dense_mul(out, _cyclotomic(m))
    return tuple(out)


@functools.cache
def _den_factors(dser: Tuple[Coeff, ...]):
    """Split a polynomial in s with nonzero constant term, given as dense
    coefficients, into ((m, e_m), ...) with m ascending and a leftover
    with no cyclotomic factor: dser = leftover * prod Phi_m^e_m.  Each
    Phi_m with phi(m) <= the remaining degree is tried, as often as it
    divides."""
    rest: List[Coeff] = list(dser)
    factors = []
    for m, phi in _cyclotomic_orders(len(rest) - 1):
        if phi >= len(rest):
            continue
        e = 0
        while True:
            q = _div_monic(rest, _cyclotomic(m))
            if q is None:
                break
            rest, e = q, e + 1
        if e:
            factors.append((m, e))
        if len(rest) == 1:
            break
    factors = tuple(factors)
    if tuple(_dense_mul(_cyclotomic_product(factors), rest)) != dser:
        raise ScalarError("cyclotomic factors %r times %r do not give %r"
                          % (factors, rest, dser))
    return factors, tuple(rest)


class _Den(dict):
    """A shared denominator: a monic polynomial in s with nonzero
    constant term, as a packed dict, whose `key` holds its dense
    s-coefficients from degree 0 up.  Canonical Scalars hold them, and
    so do the unreduced products of _den_product.  Only _den builds one,
    so that equal denominators over one ParamSpace are one object."""

    __slots__ = ("key",)


@functools.cache
def _den(ps: "ParamSpace", key: Tuple[Coeff, ...]) -> _Den:
    """The shared denominator of ps with dense s-coefficients key."""
    gzero = ps._bias - ps._half
    den = _Den({gzero | ps._field(e): c for e, c in enumerate(key) if c})
    den.key = key
    return den


@functools.cache
def _den_product(ps: "ParamSpace", k1: Tuple[Coeff, ...],
                 k2: Tuple[Coeff, ...]) -> _Den:
    """The shared unreduced product of the denominators _den(ps, k1) and
    _den(ps, k2), multiplied by poly_mul with its overflow check once per
    pair."""
    smask, half = ps._smask, ps._half
    p = poly_mul(ps, _den(ps, k1), _den(ps, k2))
    return _den(ps, tuple(_dense({(m & smask) - half: c
                                  for m, c in p.items()}, 0)))


class ParamSpace:
    """Variable layout for dimension M.

    Variables are ordered as [s, g_ab...] with the independent pairs
    a < b <= M//2 in lexicographic order; monomials are integer exponent
    tuples over that ordering at the interface and packed ints inside
    this module (see the module docstring).

    Each layout is built once per (dim, field width): ParamSpace(M) is
    ParamSpace(M), so scalars over the same variables share one instance
    and the operators compare spaces by identity.
    """

    def __new__(cls, dim: int):
        # interned in the constructor itself, so ParamSpace(d) is ParamSpace(d)
        key = (dim, _EXP_BITS)
        got = _SPACES.get(key)
        if got is None:
            got = super().__new__(cls)
            got._build(dim)
            _SPACES[key] = got
        return got

    def _build(self, dim: int):
        if dim < 3:
            raise ValueError("parameter space needs dim >= 3")
        self.dim = dim
        self.series = "B" if dim % 2 == 1 else "D"
        half = dim // 2
        self.pairs: List[Tuple[int, int]] = [
            (a, b) for a in range(1, half + 1) for b in range(a + 1, half + 1)
        ]
        self.vars: List[str] = ["s"] + ["g%d%d" % p for p in self.pairs]
        self.nvars = len(self.vars)
        self.unit_mono: Mono = (0,) * self.nvars
        self._pair_slot = {p: 1 + i for i, p in enumerate(self.pairs)}
        # packed layout: field width, exponent bias B, and per-field
        # patterns of B (the unit monomial), of the low guard bit and of
        # both guard bits
        self._width = _EXP_BITS + 2
        self._half = 1 << (_EXP_BITS - 1)
        self._smask = (1 << self._width) - 1
        self._bias = sum(self._half << (i * self._width)
                         for i in range(self.nvars))
        self._hi = 2 * self._bias
        self._guard = 6 * self._bias
        # a tagged monomial carries its tag in the bits above every field
        self._tag_at = self.nvars * self._width
        self._one_den = _den(self, (1,))
        self.zero = Scalar(self, {}, self._one_den)
        self.one = self.monomial(1, self.unit_mono)
        self.s = self.s_pow(1)
        self.r = self.s_pow(2)
        self.lam = self.s_pow(2) - self.s_pow(-2)

    def mono(self, s: int = 0, g: Mapping[Tuple[int, int], int] = ()) -> Mono:
        exps = [0] * self.nvars
        exps[0] = s
        for pair, e in dict(g).items():
            exps[self._pair_slot[pair]] = e
        return tuple(exps)

    def monomial(self, coeff: Coeff, mono: Mono) -> "Scalar":
        coeff = _norm_coeff(coeff)
        if not coeff:
            return self.zero
        return Scalar(self, {self._pack(mono): coeff}, self._one_den)

    def from_rational(self, x) -> "Scalar":
        return self.monomial(_norm_coeff(Fraction(x)), self.unit_mono)

    def s_pow(self, k: int) -> "Scalar":
        return self.monomial(1, self.mono(s=k))

    def g_pow(self, pair: Tuple[int, int], k: int) -> "Scalar":
        return self.monomial(1, self.mono(g={pair: k}))

    # -- packed monomials ----------------------------------------------------

    def _field(self, e: int, i: int = 0) -> int:
        # exponent e of variable i, biased and bound-checked, at bit 0
        if not -self._half <= e < self._half:
            raise ExponentOverflow(
                "exponent %d of %s outside [%d, %d]"
                % (e, self.vars[i], -self._half, self._half - 1))
        return e + self._half

    def _pack(self, mono: Mono) -> int:
        m = 0
        for i, e in enumerate(mono):
            m |= self._field(e, i) << (i * self._width)
        return m

    def _unpack(self, m: int) -> Mono:
        width, mask, half = self._width, self._smask, self._half
        return tuple(((m >> (i * width)) & mask) - half
                     for i in range(self.nvars))

    def __repr__(self):
        return "ParamSpace(dim=%d, series=%s)" % (self.dim, self.series)


_SPACES: Dict[Tuple[int, int], ParamSpace] = {}


class Scalar:
    """A canonical fraction num/den over the deformation variables.

    Canonical form: den is a polynomial in s only, with nonzero constant
    coefficient, leading coefficient 1, and no nonconstant s-factor in
    common with the s-content of num (the gcd of the per-g-monomial rows
    of num, each shifted to honest polynomials).  _canon reaches that form
    by stripping the cyclotomic factors of den first and running Euclid
    only on what is left (see the module docstring).  Equality of Scalars
    is therefore structural equality of the two dicts.  Every den is the
    one shared dict of its value over the ParamSpace (_den): a Laurent
    polynomial (den = 1) holds ps._one_den, so the operators recognize one
    by identity, two operands with equal denominators hold the same dict,
    and the unreduced product of two denominators is formed once per pair
    (_den_product).  Both operands of + and * must live over the same
    ParamSpace; ValueError otherwise.
    """

    __slots__ = ("ps", "num", "den")

    def __init__(self, ps: ParamSpace, num: Poly, den: Poly):
        # trusted constructor: inputs must already be canonical; go through
        # the ParamSpace factories or arithmetic otherwise
        self.ps = ps
        self.num = num
        self.den = den

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_laurent(self) -> bool:
        return self.den is self.ps._one_den

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        ps = self.ps
        one_den = ps._one_den
        if self.den is one_den and other.den is one_den:
            num = poly_add(self.num, other.num)
            return Scalar(ps, num, self.den) if num else ps.zero
        _same_space(ps, other)
        if self.den is other.den:
            return _canon(ps, poly_add(self.num, other.num), self.den)
        num = poly_add(poly_mul(ps, self.num, other.den),
                       poly_mul(ps, other.num, self.den))
        return _canon(ps, num, _den_product(ps, self.den.key, other.den.key))

    def __neg__(self) -> "Scalar":
        if not self.num:
            return self
        return Scalar(self.ps, poly_neg(self.num), self.den)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self.__add__(other.__neg__())

    def __mul__(self, other: "Scalar") -> "Scalar":
        ps = self.ps
        if not self.num or not other.num:
            _same_space(ps, other)
            return ps.zero
        one_den = ps._one_den
        if self.den is one_den and other.den is one_den:
            return Scalar(ps, poly_mul(ps, self.num, other.num), self.den)
        _same_space(ps, other)
        # a Laurent monomial is a unit of the Laurent ring: it shifts and
        # scales the numerator rows of a canonical fraction, which leaves
        # their s-content and the monic denominator as they were
        if self.den is one_den and len(self.num) == 1:
            return Scalar(ps, poly_mul(ps, self.num, other.num), other.den)
        if other.den is one_den and len(other.num) == 1:
            return Scalar(ps, poly_mul(ps, self.num, other.num), self.den)
        return _canon(ps, poly_mul(ps, self.num, other.num),
                      _den_product(ps, self.den.key, other.den.key))

    def __rtruediv__(self, other) -> "Scalar":
        # x / a for a rational x, so that 1 / a inverts a Scalar as it
        # inverts a Fraction
        inv = scalar_invert(self)
        return inv if other == 1 else self.ps.from_rational(other) * inv

    def __repr__(self) -> str:
        return render_scalar(self)


def _same_space(ps: ParamSpace, other: Scalar) -> None:
    if other.ps is not ps:
        raise ValueError("scalars over different parameter spaces: %r and %r"
                         % (ps, other.ps))


def _poly_rows(ps: ParamSpace, num: Poly) -> Dict[int, Dict[int, Coeff]]:
    # split a Laurent polynomial into univariate-in-s rows keyed by the
    # packed g-part (the monomial shifted past the s field)
    width, smask, half = ps._width, ps._smask, ps._half
    rows: Dict[int, Dict[int, Coeff]] = {}
    for m, c in num.items():
        rows.setdefault(m >> width, {})[(m & smask) - half] = c
    return rows


def _div_rows(rows, phi):
    # every (shift, dense row) with its row divided by phi, or None when
    # phi does not divide some row
    out = {}
    for g, (base, row) in rows.items():
        q = _div_monic(row, phi)
        if q is None:
            return None
        out[g] = (base, q)
    return out


def _canon(ps: ParamSpace, num: Poly, den: Poly) -> Scalar:
    if not den:
        raise ZeroDivisionError("denominator polynomial is zero")
    if not num:
        return ps.zero
    if len(den) == 1:
        # denominator is a single monomial: fold it into the numerator
        (dm, dc), = den.items()
        if dm != ps._bias:
            num = poly_mul(ps, num, {mono_inv(ps, dm): 1})
        if dc != 1:
            num = {m: _norm_coeff(Fraction(c, 1) / dc) for m, c in num.items()}
        return Scalar(ps, num, ps._one_den)
    width, smask, half = ps._width, ps._smask, ps._half
    if isinstance(den, _Den):
        # a shared denominator is an s-polynomial from degree 0 already
        key, sshift = den.key, 0
    else:
        gparts = {m >> width for m in den}
        if len(gparts) != 1:
            raise DenominatorClass(
                "denominator is not (g-monomial) x (s-polynomial): %s"
                % _poly_str(ps, den))
        gpart = gparts.pop()
        if gpart != ps._bias >> width:
            num = poly_mul(ps, num, {mono_inv(ps, gpart << width | half): 1})
        dser = {(m & smask) - half: c for m, c in den.items()}
        sshift = min(dser)
        key = tuple(_dense(dser, sshift))
    factors, rest = _den_factors(key)
    # each numerator row, shifted to an honest polynomial: (shift, dense)
    rows = {}
    for g, row in _poly_rows(ps, num).items():
        base = min(row)
        rows[g] = (base, _dense(row, base))
    # cancel Phi_m from every row while all rows divide, at most e times
    kept = []
    for m, e in factors:
        phi = _cyclotomic(m)
        while e:
            divided = _div_rows(rows, phi)
            if divided is None:
                break
            rows, e = divided, e - 1
        if e:
            kept.append((m, e))
    if len(rest) > 1:
        # a non-cyclotomic leftover: Euclid over Q finds what it shares
        h = rest = _sparse(rest)
        for base, row in rows.values():
            h = _uni_gcd(h, _sparse(row))
            if _uni_degree(h) == 0:
                break
        if _uni_degree(h) > 0:
            rest, rem = _uni_divmod(rest, h)
            if rem:
                raise ScalarError("gcd %r does not divide the denominator"
                                  % (h,))
            newrows = {}
            for g, (base, row) in rows.items():
                q, rem = _uni_divmod(_sparse(row), h)
                if rem:
                    raise ScalarError("gcd %r does not divide a numerator row"
                                      % (h,))
                newrows[g] = (base, _dense(q, 0))
            rows = newrows
        rest = _dense(rest, 0)
    dser = _dense_mul(_cyclotomic_product(tuple(kept)), rest)
    lc = dser[-1]
    if lc != 1:
        dser = [_norm_coeff(Fraction(c, 1) / lc) for c in dser]
    num2: Poly = {}
    for g, (base, row) in rows.items():
        gbits = g << width
        for e, c in enumerate(row):
            if c:
                if lc != 1:
                    c = Fraction(c, 1) / lc
                num2[gbits | ps._field(base + e - sshift)] = _norm_coeff(c)
    return Scalar(ps, num2, _den(ps, tuple(dser)))


def sum_products(cases: Iterable[Tuple[object, Scalar, Scalar]]
                 ) -> Dict[object, Scalar]:
    """{key: sum of x * y over the cases (key, x, y)}, without zero values.

    Shared-denominator rule: the products of one key are grouped by their
    unreduced denominator x.den * y.den, each group's numerators are
    added as polynomials, and _canon runs once per group, not once per
    product and partial sum.  That denominator is the shared product of
    _den_product, so it is formed once per pair of denominators and a
    group is found by its identity.  Groups of one key are then added as
    Scalars.  Every product is formed exactly, with the overflow checks
    of Scalar.__mul__; a factor x that is the unit ps.one contributes y
    itself, and a key whose only term is such a y keeps it as it is.
    All operands must live over one ParamSpace; ValueError otherwise.
    """
    ps = one_den = None
    # (key, id of the unreduced denominator) -> [numerator sum,
    # denominator, value], where value is the one unit-product term y while
    # the group holds it
    groups: Dict[Tuple[object, int], list] = {}
    for key, x, y in cases:
        if ps is None:
            ps, one_den = x.ps, x.ps._one_den
        _same_space(ps, x)
        _same_space(ps, y)
        if not x.num or not y.num:
            continue
        if x is ps.one:
            num, den, value = y.num, y.den, y
        else:
            num, value = poly_mul(ps, x.num, y.num), None
            if x.den is one_den:
                den = y.den
            elif y.den is one_den:
                den = x.den
            else:
                den = _den_product(ps, x.den.key, y.den.key)
        gkey = (key, id(den))
        got = groups.get(gkey)
        if got is None:
            groups[gkey] = [num, den, value]
        else:
            got[0] = poly_add(got[0], num)
            got[2] = None
    out: Dict[object, Scalar] = {}
    for (key, _), (num, den, value) in groups.items():
        if value is None:
            value = (Scalar(ps, num, ps._one_den) if den is one_den
                     else _canon(ps, num, den))
        _acc(out, key, value)
    return out


# --- Laurent numerators -----------------------------------------------------

def laurent_numerator(ps: ParamSpace, a: Scalar) -> Poly:
    """The numerator of a over ps, for tagged_mul_acc; a must be a
    Laurent polynomial (DenominatorClass names it otherwise).  The
    numerator is a's own, so it must never be written to."""
    _same_space(ps, a)
    if a.den is not ps._one_den:
        raise DenominatorClass("%r is not a Laurent polynomial" % (a,))
    return a.num


def laurent_scalar(ps: ParamSpace, num: Poly) -> Scalar:
    """The Laurent polynomial over ps with numerator num, which must not
    be written to from then on."""
    return Scalar(ps, num, ps._one_den) if num else ps.zero


def tag_fold(ps: ParamSpace, parts: Mapping[int, Poly]) -> Poly:
    """The tagged numerator of {tag: numerator}: one dict in which every
    monomial of parts[tag] carries the tag, a non-negative int, in the
    bits above its exponent fields, added to the tag it carried already
    (0 for a plain numerator), so a part may be tagged itself.  No two
    parts may give one monomial the same tag."""
    out: Poly = {}
    for tag, p in parts.items():
        if tag < 0:
            raise ValueError("tag %d is negative" % tag)
        tag <<= ps._tag_at
        for m, c in p.items():
            out[m + tag] = c
    return out


def tagged_mul_acc(ps: ParamSpace, acc: Poly, x: Poly, y: Poly) -> None:
    """acc += x * y in place, over Laurent numerators (laurent_numerator)
    or tagged ones (tag_fold), into a dict acc that the caller owns: the
    one in-place multiply kernel.  Each term of the product is added into
    acc as it is formed, so no product dict is made, and the tag of a
    product is the sum of its factors' tags (a plain numerator is tag 0).
    A sum that cancels leaves no entry, and x and y are never written
    to.  A caller that keeps many sums, one kernel call per (key,
    operand) into acc.setdefault(key, {}), drops a key whose sum is left
    empty.

    The overflow test is poly_mul's.  A tag sits above the guard bits, so
    a product adds the tags under it, and an overflow is reported on the
    untagged monomials as Scalar.__mul__ reports it.  x is the outer
    loop, as the shorter operand of poly_mul is."""
    bias, guard, hi = ps._bias, ps._guard, ps._hi
    for m1, c1 in x.items():
        m1k = m1 + bias
        for m2, c2 in y.items():
            m = m1k + m2
            if m & guard != hi:
                mask = (1 << ps._tag_at) - 1
                raise _overflow(ps, "product", m1 & mask, m2 & mask)
            m ^= hi
            v = acc.get(m, 0) + c1 * c2
            if v:
                acc[m] = v
            else:
                del acc[m]


def tag_split(ps: ParamSpace, tagged: Poly) -> Dict[int, Poly]:
    """{tag: numerator} of a tagged numerator, each numerator a new dict
    in the order of first appearance of its tag."""
    at = ps._tag_at
    mask = (1 << at) - 1
    out: Dict[int, Poly] = {}
    for m, c in tagged.items():
        tag = m >> at
        p = out.get(tag)
        if p is None:
            p = out[tag] = {}
        p[m & mask] = c
    return out


def scalar_invert(a: Scalar) -> Scalar:
    if not a.num:
        raise ZeroInverse("cannot invert 0")
    ps = a.ps
    rows = _poly_rows(ps, a.num)
    if len(rows) != 1:
        raise DenominatorClass(
            "numerator is not (g-monomial) x (s-polynomial): %r" % (a,))
    (gpart, row), = rows.items()
    base = min(row)
    # 1/a = den * g^{-gpart} * s^{-base} / (row shifted to a polynomial)
    shift = mono_inv(ps, gpart << ps._width | ps._field(base))
    num = poly_mul(ps, a.den, {shift: 1})
    gzero = ps._bias - ps._half
    den = {gzero | ps._field(e - base): c for e, c in row.items()}
    return _canon(ps, num, den)


def denominator(a: Scalar) -> Scalar:
    """The denominator of a as a Laurent polynomial, so that a times it
    is a Laurent polynomial."""
    return Scalar(a.ps, a.den, a.ps._one_den)


def common_denominator(ps: ParamSpace, coeffs: Iterable[Scalar]
                       ) -> Tuple[Scalar, Scalar]:
    """A Laurent polynomial whose product with every scalar of coeffs is
    a Laurent polynomial, and its inverse: one, times the denominators
    that are missing.  Whether a is covered depends on its denominator
    alone, and equal denominators are one shared dict, so each is looked
    at once.  The inverse of a missing denominator is one over it, in
    canonical form as it stands, so no inverse is solved for."""
    common = inverse = ps.one
    for a in {id(a.den): a for a in coeffs if not a.is_laurent()}.values():
        x = a * common
        if not x.is_laurent():
            common = common * denominator(x)
            inverse = inverse * Scalar(ps, ps.one.num, x.den)
    return common, inverse


def occurring_vars(a: Scalar) -> List[str]:
    """The variables with a nonzero exponent somewhere in a, in the
    ParamSpace order."""
    ps = a.ps
    seen = 0
    for p in (a.num, a.den):
        for m in p:
            seen |= m ^ ps._bias
    return [v for i, v in enumerate(ps.vars)
            if (seen >> (i * ps._width)) & ps._smask]


def substitute(a: Scalar, images: Sequence[Mono],
               target: Optional[ParamSpace] = None) -> Scalar:
    """The image of a under the monomial map that sends the i-th variable
    of a.ps to the Laurent monomial with exponent tuple images[i] over
    `target` (a.ps by default).  Such a map is a field morphism, so the
    result is canonicalized again."""
    ps = a.ps
    target = ps if target is None else target

    def image(p: Poly) -> Poly:
        out: Poly = {}
        for m, c in p.items():
            exps = [0] * target.nvars
            for e, img in zip(ps._unpack(m), images):
                if e:
                    for j, x in enumerate(img):
                        exps[j] += e * x
            _acc(out, target._pack(exps), c)
        return out

    return _canon(target, image(a.num), image(a.den))


def specialize(a: Scalar, assignment: Mapping[str, Coeff]) -> Fraction:
    ps = a.ps
    occurring = set(occurring_vars(a))
    missing = occurring - set(assignment)
    if missing:
        raise ValueError("assignment misses variables %s" % sorted(missing))
    point = {v: Fraction(assignment[v]) for v in occurring}
    if any(x == 0 for x in point.values()):
        raise ValueError("assignment must map to nonzero rationals")

    def ev(p: Poly) -> Fraction:
        total = Fraction(0)
        for m, c in p.items():
            v = Fraction(c)
            for name, e in zip(ps.vars, ps._unpack(m)):
                if e:
                    v *= point[name] ** e
            total += v
        return total

    dval = ev(a.den)
    if dval == 0:
        raise PoleAtPoint("denominator vanishes at %r" % (dict(assignment),))
    return ev(a.num) / dval


# --- sparse combinations ----------------------------------------------------

def word_key(w) -> Tuple:
    """The deglex order on words and word-like keys: length, then lex."""
    return (len(w), w)


def _acc(d: dict, k, v) -> None:
    """d[k] += v, keeping no zero values in d."""
    w = d.get(k)
    v = v if w is None else w + v
    if v:
        d[k] = v
    elif k in d:
        del d[k]


def stair_insert(stair: dict, row: dict, combo: Optional[dict] = None) -> None:
    """Insert a sparse row into a staircase of normalized pivot rows.

    stair maps the deglex-leading key (word_key) of each pivot row to the
    pair (row, combo).  The row's leading key is eliminated against the
    pivot stored for it until no pivot matches; what is left is scaled to
    leading coefficient one and stored.  combo, when given, is the row's
    provenance and gets the same row operations.  row and combo are
    consumed."""
    while row:
        lw = max(row, key=word_key)
        hit = stair.get(lw)
        if hit is None:
            inv = 1 / row[lw]
            if combo is not None:
                combo = {k: c * inv for k, c in combo.items()}
            stair[lw] = ({w: c * inv for w, c in row.items()}, combo)
            return
        prow, pcombo = hit
        m = -row.pop(lw)
        for w, v in prow.items():
            if w != lw:
                _acc(row, w, m * v)
        if combo is not None:
            for k, v in pcombo.items():
                _acc(combo, k, m * v)


def stair_reduce(stair: dict, row: Mapping) -> Tuple[dict, dict]:
    """Reduce a sparse row by a staircase of stair_insert: while some key
    of the row leads a pivot row, eliminate the largest such key (word_key
    order).  Returns the residue and the combination of pivot combos that
    was taken away, so row = residue + sum of combo[k] times the inserted
    row of provenance k; pivots stored without a combo add nothing."""
    res = dict(row)
    combo: dict = {}
    while True:
        cut = max((w for w in res if w in stair), key=word_key, default=None)
        if cut is None:
            return res, combo
        prow, pcombo = stair[cut]
        c = res.pop(cut)
        for w, v in prow.items():
            if w != cut:
                _acc(res, w, -c * v)
        for k, v in (pcombo or {}).items():
            _acc(combo, k, c * v)


class LinearCombination:
    """A finite Scalar combination of keys, stored without zeros.

    A subclass supplies its context: the constructor arguments before
    `terms` (`_context`) and the message for an operand from another
    context (`_mismatch`, empty when the contexts agree).  It may change
    how two keys join in a product (`_join`, concatenation by default).
    `terms` is never written after construction, so the hash is taken
    once, on first use, and kept.
    """

    __slots__ = ("terms", "_hash")

    _join = staticmethod(operator.add)

    def __init__(self, terms: Mapping):
        self.terms = {k: c for k, c in terms.items() if c}
        self._hash = None

    def _context(self) -> tuple:
        raise NotImplementedError

    def _mismatch(self, other) -> str:
        raise NotImplementedError

    def _like(self, terms: Mapping):
        return type(self)(*self._context(), terms)

    def _check(self, other) -> None:
        msg = self._mismatch(other)
        if msg:
            raise ValueError(msg)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and not self._mismatch(other)
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, c)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: "Scalar"):
        if not c:
            return self._like({})
        return self._like({k: c * v for k, v in self.terms.items()})

    def degree(self) -> int:
        return max((len(k) for k in self.terms), default=0)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        join = self._join
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                _acc(out, join(k1, k2), c1 * c2)
        return self._like(out)


def rational_rank(rows: Iterable[Mapping[object, Fraction]]) -> int:
    """Rank of a matrix given as sparse rows of exact rationals (column
    keys must be ordered by word_key), by staircase elimination."""
    stair: dict = {}
    for row in rows:
        stair_insert(stair, {c: Fraction(v) for c, v in row.items() if v})
    return len(stair)


def merge_deformations(a: Scalar) -> Scalar:
    """Substitute every deformation variable g_ab by r = s^2, the
    uniparametric point, in a: a ring morphism, which
    RMatrixBundle.uniparametric applies to the entries of R."""
    ps = a.ps
    return substitute(a, [ps.mono(s=1)] + [ps.mono(s=2)] * len(ps.pairs))


@functools.cache
def _pole_order_at_one(key: Tuple[Coeff, ...]) -> Tuple[int, Coeff]:
    """(k, E(1)) for the canonical denominator den = (s - 1)^k E(s) with
    E(1) != 0 and dense s-coefficients key (den.key), read from its cached
    cyclotomic factors: Phi_1 = s - 1, Phi_m(1) is the sum of its
    coefficients, and the leftover has no root at 1 because it has no
    cyclotomic factor."""
    factors, rest = _den_factors(key)
    k, value = 0, sum(rest)
    for m, e in factors:
        if m == 1:
            k = e
        else:
            value *= sum(_cyclotomic(m)) ** e
    return k, value


def _taylor_at_one(ps: ParamSpace, p: Poly, k: int) -> List[Poly]:
    """The Taylor coefficients T_0, ..., T_k of p at s = 1, polynomials in
    the g's (s field at exponent zero): s^e = sum_j binom(e, j) (s - 1)^j,
    binom the generalized binomial coefficient, an integer for negative e
    too."""
    smask, half = ps._smask, ps._half
    out: List[Poly] = [{} for _ in range(k + 1)]
    for m, c in p.items():
        se = m & smask
        e, g = se - half, m - se + half
        b = 1
        for j, t in enumerate(out):
            t[g] = t.get(g, 0) + c * b
            b = b * (e - j) // (j + 1)
    return [{g: c for g, c in t.items() if c} for t in out]


def limit_r_to_1(a: Scalar, scale: Optional[Scalar] = None) -> Scalar:
    """The limit s -> 1 (so r -> 1) of a times scale, without forming the
    product a * scale.

    Write den(a) den(scale) = (s - 1)^k E(s) with E(1) != 0; k is the
    exponent of Phi_1 among the denominators' cyclotomic factors.  The
    numerator product num(a) num(scale), a Laurent polynomial that is
    never canonicalized, is sum_j T_j (s - 1)^j, each T_j a polynomial
    in the g's: its j-th Taylor coefficient at s = 1.  The limit exists
    exactly when T_0 = ... = T_{k-1} = 0, and then it is T_k / E(1);
    otherwise PoleAtOne is raised, naming the canonical product.
    Without scale this is the limit of a alone."""
    ps = a.ps
    k, value = _pole_order_at_one(a.den.key)
    if scale is not None:
        _same_space(ps, scale)
        k2, value2 = _pole_order_at_one(scale.den.key)
        k, value = k + k2, value * value2
    coeffs = _taylor_at_one(ps, a.num if scale is None
                            else poly_mul(ps, a.num, scale.num), k)
    if any(coeffs[:k]):
        raise PoleAtOne("pole at r=1: %r"
                        % (a if scale is None else a * scale,))
    if not coeffs[k]:
        return ps.zero
    return Scalar(ps, {m: _norm_coeff(Fraction(c, 1) / value)
                       for m, c in coeffs[k].items()}, ps._one_den)


def canonical_q(ps: ParamSpace, A: int, B: int) -> Scalar:
    """The parameter q_AB, resolved to a Laurent monomial in {s, g_ab}."""
    if not (1 <= A <= ps.dim and 1 <= B <= ps.dim):
        raise ValueError("index out of range: q_%d,%d" % (A, B))
    return _canonical_q(ps, A, B)


@functools.cache
def _canonical_q(ps: ParamSpace, A: int, B: int) -> Scalar:
    M = ps.dim
    half = M // 2
    n2 = (M + 1) // 2 if ps.series == "B" else None

    def resolve(a: int, b: int) -> Tuple[int, Tuple[Tuple[int, int], int]]:
        # returns (power of s, (pair, exponent)) with pair None for pure r^k
        if a == b or b == M + 1 - a or a == n2 or b == n2:
            return (2, None)
        if a > half:
            se, g = resolve(M + 1 - a, b)
        elif b > half:
            se, g = resolve(a, M + 1 - b)
        elif a > b:
            se, g = resolve(b, a)
        else:
            return (0, ((a, b), 1))
        # each step above inverts through q = r^2 / q_inner
        return (4 - se, None if g is None else (g[0], -g[1]))

    se, g = resolve(A, B)
    return ps.monomial(1, ps.mono(s=se, g={} if g is None else {g[0]: g[1]}))


# --- serialization ---------------------------------------------------------

class SchemaError(ValueError):
    """A JSON payload broke its schema; `pointer` is the JSON pointer of
    the offending node within the payload given to the parser."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        self.message = message
        super().__init__("%s at %r" % (message, pointer or "/"))


def _schema_at(pointer: str, parse: Callable, value):
    """parse(value), with any SchemaError it raises moved below pointer."""
    try:
        return parse(value)
    except SchemaError as exc:
        raise SchemaError(pointer + exc.pointer, exc.message) from None


def _schema_items(seq, parse: Callable) -> list:
    """parse applied to each item of a JSON list."""
    if not isinstance(seq, list):
        raise SchemaError("", "expected a list, got %s" % type(seq).__name__)
    return [_schema_at("/%d" % i, parse, x) for i, x in enumerate(seq)]


def _schema_field(doc, key: str, kind: type, parse: Optional[Callable] = None):
    """doc[key], which must be a `kind` (a bool is no int), passed through
    parse if given."""
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError("", "missing key %r" % (key,))
    val = doc[key]
    if not isinstance(val, kind) or isinstance(val, bool) and kind is not bool:
        raise SchemaError("/" + key, "expected %s, got %s"
                          % (kind.__name__, type(val).__name__))
    return val if parse is None else _schema_at("/" + key, parse, val)


def _terms_from_json(ps: "ParamSpace", payload, word: Callable) -> dict:
    """{word: coefficient}, summed over a JSON list of {"word": [...],
    "coeff": scalar} records, with `word` parsing one word list."""
    terms: dict = {}
    for w, c in _schema_items(payload, lambda rec: (
            _schema_field(rec, "word", list, word),
            _schema_field(rec, "coeff", dict,
                          lambda x: scalar_from_json(ps, x)))):
        _acc(terms, w, c)
    return terms


def _decoded(ps: ParamSpace, p: Poly) -> Dict[Mono, Coeff]:
    return {ps._unpack(m): c for m, c in p.items()}


def _poly_to_json(ps: ParamSpace, p: Poly) -> list:
    # ordered by exponent tuple, never by packed key
    d = _decoded(ps, p)
    return [{"coeff": str(Fraction(d[m])), "exponents": list(m)}
            for m in sorted(d)]


# the form str(Fraction) writes; Fraction itself would also read decimal
# exponents, and "1e999999999" would take it minutes
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _coeff_from_json(text: str) -> Coeff:
    if _RATIONAL.fullmatch(text):
        try:
            return _norm_coeff(Fraction(text))
        except (ValueError, ZeroDivisionError):
            pass  # a zero denominator, or more digits than int() reads
    raise SchemaError("", "%.60r is not a rational with a nonzero "
                          "denominator" % (text,))


def _mono_from_json(ps: ParamSpace, exps: list) -> int:
    if len(exps) != ps.nvars:
        raise SchemaError("", "expected %d exponents, got %d"
                          % (ps.nvars, len(exps)))
    for i, e in enumerate(exps):
        if type(e) is not int or not -ps._half <= e < ps._half:
            raise SchemaError("/%d" % i, "exponent %r is not an integer in "
                              "[%d, %d]" % (e, -ps._half, ps._half - 1))
    return ps._pack(exps)


def _poly_from_json(ps: ParamSpace, records) -> Poly:
    out: Poly = {}
    for m, c in _schema_items(records, lambda rec: (
            _schema_field(rec, "exponents", list,
                          lambda exps: _mono_from_json(ps, exps)),
            _schema_field(rec, "coeff", str, _coeff_from_json))):
        _acc(out, m, c)
    return out


def scalar_to_json(a: Scalar) -> dict:
    return {"num": _poly_to_json(a.ps, a.num),
            "den": _poly_to_json(a.ps, a.den)}


# the largest s-degree (top minus bottom s-exponent) of a parsed
# denominator; _den_factors sieves up to twice the square of the degree,
# which at degree 1000 takes seconds and about 90 MB
_MAX_DEN_DEGREE = 128


def scalar_from_json(ps: ParamSpace, payload: Mapping) -> Scalar:
    """The canonical Scalar of a {"num": ..., "den": ...} payload.  The
    denominator's s-degree is capped at _MAX_DEN_DEGREE = 128, well above
    what the engine forms: every denominator the pinned command-line
    invocations write has s-degree 0, and the largest that _canon
    factors in any of them is 68 (unreduced products in verify --suite
    rmatrix --n 10)."""
    num, den = (_schema_field(payload, key, list,
                              lambda recs: _poly_from_json(ps, recs))
                for key in ("num", "den"))
    if not den:
        raise SchemaError("/den", "zero denominator")
    sexps = [m & ps._smask for m in den]
    degree = max(sexps) - min(sexps)
    if degree > _MAX_DEN_DEGREE:
        raise SchemaError("/den", "denominator of s-degree %d, above the "
                          "bound %d" % (degree, _MAX_DEN_DEGREE))
    try:
        return _canon(ps, num, den)
    except ScalarError as exc:
        raise SchemaError("", str(exc)) from None


def _poly_str(ps: ParamSpace, p: Poly) -> str:
    def mono_str(m: Mono, c: Coeff) -> str:
        parts = []
        for name, e in zip(ps.vars, m):
            if e == 1:
                parts.append(name)
            elif e:
                parts.append("%s^%d" % (name, e))
        if not parts:
            return str(c)
        body = "*".join(parts)
        if c == 1:
            return body
        if c == -1:
            return "-" + body
        return "%s*%s" % (c, body)

    if not p:
        return "0"
    d = _decoded(ps, p)
    return " + ".join(mono_str(m, d[m]) for m in sorted(d, reverse=True)
                      ).replace("+ -", "- ")


def render_scalar(a: Scalar) -> str:
    """Human-readable form, for reports and failure witnesses."""
    if a.is_laurent():
        return _poly_str(a.ps, a.num)
    return "(%s)/(%s)" % (_poly_str(a.ps, a.num), _poly_str(a.ps, a.den))
