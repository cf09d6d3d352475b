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

The sparse combinations every layer builds over this field share one core
here: the accumulate rule `_acc`, the deglex `word_key`, the staircase
elimination `stair_insert`, and the element base `LinearCombination`.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

Mono = Tuple[int, ...]
Coeff = Union[int, Fraction]
Poly = Dict[Mono, Coeff]


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


def _norm_coeff(c: Coeff) -> Coeff:
    # keep dict values as plain ints whenever exact; int arithmetic is much
    # cheaper and int/Fraction hash and compare consistently
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def mono_mul(m1: Mono, m2: Mono) -> Mono:
    return tuple(x + y for x, y in zip(m1, m2))


def mono_inv(m: Mono) -> Mono:
    return tuple(-x for x in m)


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


def poly_mul(p1: Poly, p2: Poly) -> Poly:
    if len(p1) > len(p2):
        p1, p2 = p2, p1
    out: Poly = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = mono_mul(m1, m2)
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            elif m in out:
                del out[m]
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

def _uni_eval(p: Dict[int, Coeff], x: Fraction) -> Fraction:
    return sum((Fraction(c) * x ** e for e, c in p.items()), Fraction(0))


class ParamSpace:
    """Variable layout for dimension M.

    Variables are ordered as [s, g_ab...] with the independent pairs
    a < b <= M//2 in lexicographic order; monomials are plain integer
    exponent tuples over that ordering.
    """

    def __init__(self, dim: int):
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
        self._one_den: Poly = {self.unit_mono: 1}
        self.zero = Scalar(self, {}, self._one_den)
        self.one = self.monomial(1, self.unit_mono)
        self.s = self.s_pow(1)
        self.r = self.s_pow(2)
        self.lam = self.s_pow(2) - self.s_pow(-2)
        self._q_cache: Dict[Tuple[int, int], Scalar] = {}

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
        return Scalar(self, {mono: coeff}, self._one_den)

    def from_rational(self, x) -> "Scalar":
        return self.monomial(_norm_coeff(Fraction(x)), self.unit_mono)

    def s_pow(self, k: int) -> "Scalar":
        return self.monomial(1, self.mono(s=k))

    def r_pow(self, k: int) -> "Scalar":
        return self.s_pow(2 * k)

    def g_pow(self, pair: Tuple[int, int], k: int) -> "Scalar":
        return self.monomial(1, self.mono(g={pair: k}))

    def __repr__(self):
        return "ParamSpace(dim=%d, series=%s)" % (self.dim, self.series)

    def __eq__(self, other):
        return isinstance(other, ParamSpace) and other.dim == self.dim

    def __hash__(self):
        return hash(("ParamSpace", self.dim))


class Scalar:
    """A canonical fraction num/den over the deformation variables.

    Canonical form: den is a polynomial in s only, with nonzero constant
    coefficient, leading coefficient 1, and no nonconstant s-factor in
    common with the s-content of num (the gcd of the per-g-monomial rows
    of num, each shifted to honest polynomials).  Equality of Scalars is
    therefore structural equality of the two dicts.
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
        return self.den == self.ps._one_den

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        one_den = self.ps._one_den
        if self.den == one_den and other.den == one_den:
            num = poly_add(self.num, other.num)
            return Scalar(self.ps, num, one_den) if num else self.ps.zero
        if self.den == other.den:
            return _canon(self.ps, poly_add(self.num, other.num), self.den)
        num = poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den))
        return _canon(self.ps, num, poly_mul(self.den, other.den))

    def __neg__(self) -> "Scalar":
        if not self.num:
            return self
        return Scalar(self.ps, poly_neg(self.num), self.den)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self.__add__(other.__neg__())

    def __mul__(self, other: "Scalar") -> "Scalar":
        if not self.num or not other.num:
            return self.ps.zero
        one_den = self.ps._one_den
        if self.den == one_den and other.den == one_den:
            num = poly_mul(self.num, other.num)
            return Scalar(self.ps, num, one_den) if num else self.ps.zero
        return _canon(self.ps, poly_mul(self.num, other.num),
                      poly_mul(self.den, other.den))

    def inv(self) -> "Scalar":
        return scalar_invert(self)

    def __rtruediv__(self, other) -> "Scalar":
        # x / a for a rational x, so that 1 / a inverts a Scalar as it
        # inverts a Fraction
        inv = scalar_invert(self)
        return inv if other == 1 else self.ps.from_rational(other) * inv

    def __repr__(self) -> str:
        return render_scalar(self)


def _poly_rows(num: Poly) -> Dict[Tuple[int, ...], Dict[int, Coeff]]:
    # split a Laurent polynomial into univariate-in-s rows per g-monomial
    rows: Dict[Tuple[int, ...], Dict[int, Coeff]] = {}
    for m, c in num.items():
        rows.setdefault(m[1:], {})[m[0]] = c
    return rows


def _canon(ps: ParamSpace, num: Poly, den: Poly) -> Scalar:
    if not den:
        raise ZeroDivisionError("denominator polynomial is zero")
    if not num:
        return ps.zero
    sshift = 0
    if len(den) == 1:
        # denominator is a single monomial: fold it into the numerator
        (dm, dc), = den.items()
        if dm != ps.unit_mono or dc != 1:
            inv = mono_inv(dm)
            num = {mono_mul(m, inv): _norm_coeff(Fraction(c, 1) / dc)
                   for m, c in num.items()}
        return Scalar(ps, num, ps._one_den)
    gparts = {m[1:] for m in den}
    if len(gparts) != 1:
        raise DenominatorClass(
            "denominator is not (g-monomial) x (s-polynomial): %r" % (den,))
    gpart = gparts.pop()
    if any(gpart):
        shift = (0,) + tuple(-e for e in gpart)
        num = {mono_mul(m, shift): c for m, c in num.items()}
    dser = {m[0]: c for m, c in den.items()}
    sshift = min(dser)
    if sshift:
        dser = {e - sshift: c for e, c in dser.items()}
    rows = _poly_rows(num)
    shifts = {g: min(row) for g, row in rows.items()}
    h = dser
    for g, row in rows.items():
        base = shifts[g]
        h = _uni_gcd(h, {e - base: c for e, c in row.items()})
        if _uni_degree(h) == 0:
            break
    if _uni_degree(h) > 0:
        dser, rem = _uni_divmod(dser, h)
        if rem:
            raise ScalarError("gcd %r does not divide the denominator" % (h,))
        newrows = {}
        for g, row in rows.items():
            base = shifts[g]
            q, rem = _uni_divmod({e - base: c for e, c in row.items()}, h)
            if rem:
                raise ScalarError("gcd %r does not divide a numerator row"
                                  % (h,))
            newrows[g] = (base, q)
        rows = newrows
    else:
        rows = {g: (0, row) for g, row in rows.items()}
    lc = dser[_uni_degree(dser)]
    if lc != 1:
        dser = {e: _norm_coeff(Fraction(c, 1) / lc) for e, c in dser.items()}
    num2: Poly = {}
    for g, (base, row) in rows.items():
        for e, c in row.items():
            if lc != 1:
                c = _norm_coeff(Fraction(c, 1) / lc)
            num2[(base + e - sshift,) + g] = c
    if dser == {0: 1}:
        return Scalar(ps, num2, ps._one_den)
    den2 = {(e,) + ps.unit_mono[1:]: c for e, c in dser.items()}
    return Scalar(ps, num2, den2)


def scalar_invert(a: Scalar) -> Scalar:
    if not a.num:
        raise ZeroInverse("cannot invert 0")
    rows = _poly_rows(a.num)
    if len(rows) != 1:
        raise DenominatorClass(
            "numerator is not (g-monomial) x (s-polynomial): %r" % (a,))
    (gpart, row), = rows.items()
    base = min(row)
    # 1/a = den * g^{-gpart} * s^{-base} / (row shifted to a polynomial)
    shift = (-base,) + tuple(-e for e in gpart)
    num = {mono_mul(m, shift): c for m, c in a.den.items()}
    den = {(e - base,) + a.ps.unit_mono[1:]: c for e, c in row.items()}
    return _canon(a.ps, num, den)


def specialize(a: Scalar, assignment: Mapping[str, Coeff]) -> Fraction:
    ps = a.ps
    occurring = set()
    for m in list(a.num) + list(a.den):
        for i, e in enumerate(m):
            if e:
                occurring.add(ps.vars[i])
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
            for i, e in enumerate(m):
                if e:
                    v *= point[ps.vars[i]] ** e
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


class LinearCombination:
    """A finite Scalar combination of keys, stored without zeros.

    A subclass supplies its context: the constructor arguments before
    `terms` (`_context`) and the message for an operand from another
    context (`_mismatch`, empty when the contexts agree).  It may change
    how two keys join in a product (`_join`, concatenation by default).
    """

    __slots__ = ("terms",)

    _join = staticmethod(operator.add)

    def __init__(self, terms: Mapping):
        self.terms = {k: c for k, c in terms.items() if c}

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
        return hash(frozenset(self.terms.items()))

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
    uniparametric point.  Canonical denominators carry no g variables, so
    only the numerator changes."""
    ps = a.ps
    num: Poly = {}
    for m, c in a.num.items():
        _acc(num, (m[0] + 2 * sum(m[1:]),) + ps.unit_mono[1:], c)
    return _canon(ps, num, a.den)


def limit_r_to_1(a: Scalar) -> Scalar:
    ps = a.ps
    dval = _uni_eval({m[0]: c for m, c in a.den.items()}, Fraction(1))
    if dval == 0:
        raise PoleAtOne("pole at r=1: %r" % (a,))
    num: Poly = {}
    for m, c in a.num.items():
        key = (0,) + m[1:]
        v = num.get(key, 0) + Fraction(c, 1) / dval
        v = _norm_coeff(v)
        if v:
            num[key] = v
        elif key in num:
            del num[key]
    if not num:
        return ps.zero
    return Scalar(ps, num, ps._one_den)


def canonical_q(ps: ParamSpace, A: int, B: int) -> Scalar:
    """The parameter q_AB, resolved to a Laurent monomial in {s, g_ab}."""
    if not (1 <= A <= ps.dim and 1 <= B <= ps.dim):
        raise ValueError("index out of range: q_%d,%d" % (A, B))
    cached = ps._q_cache.get((A, B))
    if cached is not None:
        return cached
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
    out = ps.monomial(1, ps.mono(s=se, g={} if g is None else {g[0]: g[1]}))
    ps._q_cache[(A, B)] = out
    return out


# --- serialization ---------------------------------------------------------

def paramspace_header(ps: ParamSpace) -> dict:
    return {"dim": ps.dim, "series": ps.series, "vars": list(ps.vars)}


def paramspace_from_header(header: Mapping) -> ParamSpace:
    ps = ParamSpace(int(header["dim"]))
    if header.get("series") != ps.series:
        raise ValueError("series %r inconsistent with dim %r"
                         % (header.get("series"), header.get("dim")))
    if list(header.get("vars", ps.vars)) != ps.vars:
        raise ValueError("variable ordering %r does not match %r"
                         % (header.get("vars"), ps.vars))
    return ps


def _poly_to_json(p: Poly) -> list:
    return [{"coeff": str(Fraction(p[m])), "exponents": list(m)}
            for m in sorted(p)]


def _poly_from_json(ps: ParamSpace, records) -> Poly:
    out: Poly = {}
    for rec in records:
        m = tuple(int(e) for e in rec["exponents"])
        if len(m) != ps.nvars:
            raise ValueError("exponent vector %r has wrong length" % (rec,))
        _acc(out, m, _norm_coeff(Fraction(rec["coeff"])))
    return out


def scalar_to_json(a: Scalar) -> dict:
    return {"num": _poly_to_json(a.num), "den": _poly_to_json(a.den)}


def scalar_from_json(ps: ParamSpace, payload: Mapping) -> Scalar:
    num = _poly_from_json(ps, payload["num"])
    den = _poly_from_json(ps, payload["den"])
    return _canon(ps, num, den)


def render_scalar(a: Scalar) -> str:
    """Human-readable form, for reports and failure witnesses."""
    def mono_str(m: Mono, c: Coeff) -> str:
        parts = []
        for name, e in zip(a.ps.vars, m):
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

    def poly_str(p: Poly) -> str:
        if not p:
            return "0"
        return " + ".join(mono_str(m, p[m]) for m in sorted(p, reverse=True)
                          ).replace("+ -", "- ")

    if a.is_laurent():
        return poly_str(a.num)
    return "(%s)/(%s)" % (poly_str(a.num), poly_str(a.den))
