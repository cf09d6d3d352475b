"""The multiparametric orthogonal R matrix and its identity suites.

build_R produces the sparse matrix with the following nonzero components
(no sums over repeated indices; lambda = r - r^{-1}; primes a' = M+1-a; n2
is the self-conjugate middle index, present only in odd dimension):

    R^{aa}_{aa}     = r                               a != n2
    R^{aa'}_{aa'}   = r^{-1}                          a != n2
    R^{n2n2}_{n2n2} = 1
    R^{ab}_{ab}     = r / q_ab                        a != b, a' != b
    R^{ab}_{ba}     = lambda                          a > b,  a' != b
    R^{aa'}_{a'a}   = lambda (1 - r^{rho_a - rho_a'}) a > a'
    R^{aa'}_{bb'}   = -lambda r^{rho_a - rho_b}       a > b,  a' != b

The sixth family sits at the cell where the generic swap and the seventh
family's b = a' case would coincide, and equals their sum.  The matrix is
upper triangular (R^{ab}_{cd} = 0 when a < c, or a = c with b < d) and its
inverse is obtained by inverting every deformation variable.

The middle index n2 does carry r/q and metric-pair entries (q_{n2,b} = r
resolves them to 1 and -lambda r^{-rho_b}); only the n2-diagonal value
itself is special.
"""

from __future__ import annotations

import functools
from typing import Dict, Mapping, Tuple

from .itensor import (IndexGeometry, Key4, MetricVec, SparseTensor4,
                      _by_upper, identity_tensor, map_params, tensor_compose,
                      tensor_equal, triple_compose)
from .report import Report, first_failure
from .scalars import (ParamSpace, Scalar, canonical_q,
                      merge_deformations, rational_rank, scalar_invert,
                      specialize, substitute)

__all__ = [
    "RMatrixBundle", "build_R", "build_projectors",
    "build_bundle", "verify_rmatrix_suite", "decompose_embedding",
    "inner_lift", "specialized_rank",
]


def build_R(geometry: IndexGeometry) -> SparseTensor4:
    ps = geometry.params
    M = geometry.dim
    pr = geometry.prime
    rho2 = geometry.rho2
    r = ps.r
    rinv = ps.s_pow(-2)
    lam = ps.lam
    ent: Dict[Key4, Scalar] = {}
    for a in range(1, M + 1):
        ap = pr(a)
        if a == ap:
            ent[(a, a, a, a)] = ps.one
            continue
        ent[(a, a, a, a)] = r
        ent[(a, ap, a, ap)] = rinv
        if a > ap:
            ent[(a, ap, ap, a)] = lam * (ps.one - ps.s_pow(2 * rho2[a]))
    for a in range(1, M + 1):
        for b in range(1, M + 1):
            if a == b or pr(a) == b:
                continue
            ent[(a, b, a, b)] = r * scalar_invert(canonical_q(ps, a, b))
            if a > b:
                ent[(a, b, b, a)] = lam
                ent[(a, pr(a), b, pr(b))] = \
                    ps.monomial(-1, ps.mono(s=rho2[a] - rho2[b])) * lam
    return SparseTensor4(geometry, ent)


def build_projectors(bundle) -> Tuple[SparseTensor4, SparseTensor4, SparseTensor4]:
    """The symmetric / antisymmetric / trace projectors decomposing Rhat:

        P_S = (r+r^{-1})^{-1} [ Rhat + r^{-1} I - (r^{-1}+r^{1-N}) P_0 ]
        P_A = (r+r^{-1})^{-1} [ -Rhat + r I - (r-r^{1-N}) P_0 ]
        P_0 = (C_ab C^ab)^{-1} K,   K^{ab}_{cd} = C^{ab} C_{cd}.
    """
    geom = bundle.geometry
    ps = geom.params
    I = identity_tensor(geom)
    r = ps.r
    rinv = ps.s_pow(-2)
    r1N = ps.s_pow(2 * (1 - geom.dim))
    P0 = bundle.K.scale(scalar_invert(bundle.C.trace_norm()))
    coef = scalar_invert(r + rinv)
    PS = (bundle.Rhat + I.scale(rinv) + P0.scale(-(rinv + r1N))).scale(coef)
    PA = (I.scale(r) - bundle.Rhat + P0.scale(-(r - r1N))).scale(coef)
    return PS, PA, P0


class RMatrixBundle:
    """R and everything derived from it for one index geometry; R is
    build_R(geometry) unless given.

    Rinv is built by inverting every deformation variable; Rhat^{ab}_{cd} =
    R^{ba}_{cd}; the functional-representation kernels are R+^{AC}_{BD} =
    R^{CA}_{DB} and R-^{AC}_{BD} = (R^{-1})^{AC}_{BD}.  The constructor
    certifies upper triangularity and Rinv, since every consumer reads
    L- = R^{-1}.  It forms R Rinv alone: a one-sided inverse of a square
    matrix over the field Q(s, g_ab) is two-sided, so R Rinv = I implies
    Rinv R = I.  The projectors P_S, P_A, P_0 are built on the first read
    of any of them, and their completeness, orthogonality and idempotence
    are certified at that moment; idempotence follows from the other two
    (see _projected), so the squares are formed only when one of those
    fails, to name the first bad product.  A failed certificate raises
    ArithmeticError naming it.  The uniparametric bundle is built on
    first read, from R at g_ab = r.
    """

    def __init__(self, geometry: IndexGeometry, R=None):
        self.geometry = geometry
        self.R = build_R(geometry) if R is None else R
        self.C = MetricVec(geometry)
        self.Rhat = SparseTensor4(
            geometry, {(b, a, c, d): v for (a, b, c, d), v in self.R.items()})
        self.Rinv = map_params(self.R)
        # Rhat^{-1} = R^{-1} with the lower pair swapped (hat conjugates by
        # the flip, and the flip squares to the identity)
        self.Rhatinv = SparseTensor4(
            geometry, {(a, b, d, c): v for (a, b, c, d), v in self.Rinv.items()})
        self.Rplus = SparseTensor4(
            geometry, {(b, a, d, c): v for (a, b, c, d), v in self.R.items()})
        self.Rminus = self.Rinv
        pr = geometry.prime
        self.K = SparseTensor4(
            geometry,
            {(a, pr(a), c, pr(c)): self.C.c(a) * self.C.c(c)
             for a in geometry.indices() for c in geometry.indices()})
        self._inverse_certificates = _required(self._certify_inverse())

    P_S = property(lambda self: self._projected[0][0])
    P_A = property(lambda self: self._projected[0][1])
    P_0 = property(lambda self: self._projected[0][2])

    @property
    def certificates(self) -> Dict[str, Tuple[bool, str]]:
        """The invariants every consumer of the bundle trusts, as check
        name -> (ok, detail) for verify_rmatrix_suite."""
        return {**self._inverse_certificates, **self._projected[1]}

    def _certify_inverse(self) -> Dict[str, Tuple[bool, str]]:
        low = first_failure(_stray(self.R, lambda k: k[:2] < k[2:]))
        ok, w = tensor_equal(tensor_compose(self.R, self.Rinv),
                             identity_tensor(self.geometry))
        return {
            "upper triangularity": (low is None, _witness(low)),
            "inverse by inverting all parameters": (ok, _witness(w)),
        }

    @functools.cached_property
    def uniparametric(self) -> "RMatrixBundle":
        """The bundle, over the same geometry, of R with every deformation
        parameter g_ab set to r = s^2 (merge_deformations, a ring
        morphism); its inverse is certified like any bundle's."""
        return RMatrixBundle(self.geometry, self.R._like(
            {k: merge_deformations(v) for k, v in self.R.items()}))

    @functools.cached_property
    def _projected(self):
        """(P_S, P_A, P_0) and their two certificates.

        Complete projectors whose six products Pi Pj (i != j) vanish are
        idempotent, Pi = Pi (P_S + P_A + P_0) = Pi Pi, so the three
        squares are formed only when completeness or an off-diagonal
        product fails; the scan of all nine products in order then names
        the first bad one."""
        geom = self.geometry
        projs = P_S, P_A, P_0 = build_projectors(self)
        ok, w = tensor_equal(P_S + P_A + P_0, identity_tensor(geom))
        names = ("P_S", "P_A", "P_0")
        zero = SparseTensor4(geom, {})

        def mismatch(i, j):
            """The first mismatch of Pi Pj against its target."""
            return tensor_equal(tensor_compose(projs[i], projs[j]),
                                projs[i] if i == j else zero)[1]

        pairs = [(i, j) for i in range(3) for j in range(3)]
        pw = None
        if not (ok and all(mismatch(i, j) is None
                           for i, j in pairs if i != j)):
            # case ((Pi, Pj), mismatch of Pi Pj, None)
            pw = first_failure(((names[i], names[j]), mismatch(i, j), None)
                               for i, j in pairs)
        return projs, _required({
            "projector completeness: P_S + P_A + P_0 = I": (ok, _witness(w)),
            "projector orthogonality and idempotence": (
                pw is None,
                "" if pw is None else "%s %s %s" % (*pw[0], _witness(pw[1]))),
        })


def _required(certificates: Dict[str, Tuple[bool, str]]):
    for name, (ok, detail) in certificates.items():
        if not ok:
            raise ArithmeticError("R matrix bundle failed its certificate "
                                  "%r: %s" % (name, detail))
    return certificates


def build_bundle(geometry: IndexGeometry) -> RMatrixBundle:
    return _bundle(geometry.dim, geometry.embedded)


@functools.cache
def _bundle(dim: int, embedded: bool) -> RMatrixBundle:
    return RMatrixBundle(IndexGeometry(dim, embedded=embedded))


def _stray(X: SparseTensor4, where):
    """The entries of X at the keys where(key) says must be empty, in key
    order, as cases (key, value, 0)."""
    zero = X.geometry.params.zero
    return ((k, v, zero) for k, v in sorted(X.items()) if where(k))


def _witness(w) -> str:
    if w is None:
        return ""
    k, x, y = w
    return "at %r: %r vs %r" % (k, x, y)


def verify_rmatrix_suite(geometry: IndexGeometry) -> Report:
    bundle = build_bundle(geometry)
    geom = geometry
    ps = geom.params
    pr = geom.prime
    R, C = bundle.R, bundle.C
    rep = Report("R matrix identities, dim=%d series=%s" % (geom.dim, geom.series))

    lhs = triple_compose([(R, 12), (R, 13), (R, 23)])
    rhs = triple_compose([(R, 23), (R, 13), (R, 12)])
    ok, w = tensor_equal(lhs, rhs)
    rep.add("yang-baxter: R12 R13 R23 = R23 R13 R12", ok, _witness(w))

    certified = bundle.certificates
    for name in ("upper triangularity", "inverse by inverting all parameters"):
        rep.add(name, *certified[name])

    # transposing both index pairs of R equals transposing the parameter
    # matrix (p_ab = q_ba), realized by the substitution g -> s^4 g^{-1}
    flipped = SparseTensor4(
        geom, {(d, c, b, a): _transpose_params(v) for (a, b, c, d), v in R.items()})
    ok, w = tensor_equal(R, flipped)
    rep.add("pair transpose = parameter transpose", ok, _witness(w))

    reflected = SparseTensor4(
        geom, {(pr(c), pr(d), pr(a), pr(b)): v for (a, b, c, d), v in R.items()})
    ok, w = tensor_equal(R, reflected)
    rep.info("index reflection R^{ab}_{cd} = R^{c'd'}_{a'b'} "
             "(candidate reading of a corrupted source identity): %s"
             % ("holds" if ok else "fails " + _witness(w)))

    for name, X, Y in (("Rhat", bundle.Rhat, bundle.Rhatinv),
                       ("Rhat-inverse", bundle.Rhatinv, bundle.Rhat)):
        ok, w = tensor_equal(
            SparseTensor4(geom, {(pr(b), c, d, e): C.c(pr(b)) * v
                                 for (b, c, d, e), v in X.items()}),
            SparseTensor4(geom, {(a, c, d, pr(f)): v * C.c(f)
                                 for (c, f, a, d), v in Y.items()}))
        rep.add("metric conjugation (left) turns %s into its inverse" % name,
                ok, _witness(w))
        ok, w = tensor_equal(
            SparseTensor4(geom, {(b, c, d, pr(e)): v * C.c(e)
                                 for (b, c, d, e), v in X.items()}),
            SparseTensor4(geom, {(pr(f), c, d, a): C.c(pr(f)) * v
                                 for (c, a, f, d), v in Y.items()}))
        rep.add("metric conjugation (right) turns %s into its inverse" % name,
                ok, _witness(w))

    # with K^{ef}_{ab} = C^{ef} C_{ab}, (K Rhat)^{ef}_{cd} = C^{ef} C_ab
    # Rhat^{ab}_{cd}, and every row of C has a nonzero entry: the
    # contractions hold exactly when these compositions do
    r1N = ps.s_pow(2 * (1 - geom.dim))
    K = bundle.K
    ok, w = tensor_equal(tensor_compose(K, bundle.Rhat), K.scale(r1N))
    rep.add("metric row contraction: C_ab Rhat^{ab}_{cd} = r^{1-N} C_cd",
            ok, _witness(w))
    ok, w = tensor_equal(tensor_compose(bundle.Rhat, K), K.scale(r1N))
    rep.add("metric column contraction: Rhat^{ab}_{cd} C^{cd} = r^{1-N} C^ab",
            ok, _witness(w))

    # strictly below the diagonal, rows against a metric column pair (and
    # columns against a metric row pair) only load the conjugate position:
    # R^{ab}_{cc'} = 0 unless b = a', and R^{aa'}_{cd} = 0 unless d = c'
    w = first_failure(_stray(R, lambda k: k[0] > k[2] and k[3] == pr(k[2])
                             and k[1] != pr(k[0])))
    rep.add("below-diagonal entries on metric columns sit at b = a'",
            w is None, _witness(w))
    w = first_failure(_stray(R, lambda k: k[0] > k[2] and k[1] == pr(k[0])
                             and k[3] != pr(k[2])))
    rep.add("below-diagonal entries on metric rows sit at d = c'",
            w is None, _witness(w))

    for name in ("projector completeness: P_S + P_A + P_0 = I",
                 "projector orthogonality and idempotence"):
        rep.add(name, *certified[name])
    spectral = (bundle.P_S.scale(ps.r) - bundle.P_A.scale(ps.s_pow(-2))
                + bundle.P_0.scale(r1N))
    ok, w = tensor_equal(spectral, bundle.Rhat)
    rep.add("spectral form: Rhat = r P_S - r^{-1} P_A + r^{1-N} P_0",
            ok, _witness(w))
    return rep


def _transpose_params(v: Scalar) -> Scalar:
    # g_ab -> s^4 / g_ab on every variable, leaving s alone; this realizes
    # q_AB -> q_BA on all resolved parameter monomials
    ps = v.ps
    return substitute(v, [ps.mono(s=1)] + [ps.mono(s=4, g={p: -1})
                                           for p in ps.pairs])


def specialized_rank(X: SparseTensor4, assignment: Mapping[str, object]) -> int:
    """Rank of the M^2 x M^2 matrix of X at a rational parameter point,
    by exact fraction Gaussian elimination."""
    return rational_rank({cd: specialize(v, assignment) for cd, v in row}
                         for row in _by_upper(X).values())


def inner_lift(big_geometry: IndexGeometry):
    """Return the renaming map from dimension-(M-2) scalars into the
    parameter space of the embedded dimension-M geometry.

    The inner small index a sits at big index a+1, so the independent
    deformation parameters match up as g_ab -> g_{a+1,b+1}; s is shared.
    The map is a pure variable renaming and therefore a field morphism.
    """
    if not big_geometry.embedded:
        raise ValueError("inner_lift needs an embedded geometry")
    bps = big_geometry.params
    sps = ParamSpace(big_geometry.dim - 2)
    images = [bps.mono(s=1)] + [bps.mono(g={(a + 1, b + 1): 1})
                                for a, b in sps.pairs]

    def lift(x: Scalar) -> Scalar:
        if x.ps is not sps:
            raise ValueError("scalar is not over the inner parameter space")
        return substitute(x, images, bps)

    return lift


def decompose_embedding(N: int) -> Report:
    """Check that the dimension-(N+2) matrix splits into the documented
    block pattern over the cone coordinates: the inner block is the
    dimension-N matrix, the mixed blocks are r/q diagonals and lambda
    swaps, and the two off-corners are metric multiples of lambda r^{-rho}
    with rho = N/2.

    The pattern is one table of expected entries in named blocks.  A
    block check compares R with its table in key order, over the table's
    keys and R's keys in the block's region, a missing entry read as
    zero; the parameter restriction and the metric components are case
    lists keyed (a, b) and c.  Each check reports its first failing case
    through _witness."""
    if N < 3:
        raise ValueError("embedding needs N >= 3")
    big_geom = IndexGeometry(N + 2, embedded=True)
    small_geom = IndexGeometry(N)
    big = build_R(big_geom)
    small = build_R(small_geom)
    small_C = MetricVec(small_geom)
    bps, sps = big_geom.params, small_geom.params
    M = big_geom.dim
    prb = big_geom.prime
    lift = inner_lift(big_geom)
    lam = bps.lam
    r = bps.r
    rinv = bps.s_pow(-2)
    corner = bps.monomial(-1, bps.mono(s=-N)) * lam  # -lambda r^{-rho}
    inner = range(2, M)

    def in_inner(k):
        return all(i in inner for i in k)

    template = set()  # the keys of every block's table

    def block(table, region=None):
        """The cases of one block check; adds the table's keys to
        template."""
        template.update(table)
        keys = table.keys() | {k for k in big.terms if region and region(k)}
        return ((k, big.get(k), table.get(k, bps.zero)) for k in sorted(keys))

    big_C = MetricVec(big_geom)
    metric = {1: bps.s_pow(-N), M: bps.s_pow(N),
              **{c: lift(small_C.c(c - 1)) for c in inner}}
    checks = [
        ("inner block equals the dimension-%d matrix" % N, block(
            {(a + 1, b + 1, c + 1, d + 1): lift(v)
             for (a, b, c, d), v in small.items()}, in_inner)),
        ("inner deformation parameters restrict", (
            ((a, b), canonical_q(bps, a + 1, b + 1),
             lift(canonical_q(sps, a, b)))
            for a in range(1, N + 1) for b in range(1, N + 1))),
        ("apex cell carries f(r) = lambda (1 - r^{-2 rho})",
         block({(M, 1, 1, M): lam * (bps.one - bps.s_pow(-2 * N))})),
        ("corner row equals -C_cd lambda r^{-rho}", block(
            {(M, 1, c, prb(c)): corner * lift(small_C.c(c - 1))
             for c in inner},
            lambda k: k[:2] == (M, 1) and in_inner(k[2:]))),
        ("corner column equals -C^{ba} lambda r^{-rho}", block(
            {(a, prb(a), 1, M): corner * lift(small_C.c(prb(a) - 1))
             for a in inner},
            lambda k: k[2:] == (1, M) and in_inner(k[:2]))),
        ("mixed diagonal blocks are r/q entries", block(
            {k: r * scalar_invert(canonical_q(bps, *k[:2])) for b in inner
             for k in ((1, b, 1, b), (b, 1, b, 1), (M, b, M, b),
                       (b, M, b, M))})),
        ("mixed swap blocks are lambda delta entries", block(
            {k: lam for b in inner for k in ((b, 1, 1, b), (M, b, b, M))})),
        ("cone diagonal carries r and r^{-1}", block(
            {(1, 1, 1, 1): r, (M, M, M, M): r, (1, M, 1, M): rinv,
             (M, 1, M, 1): rinv})),
        ("no entries outside the block template", _stray(
            big, lambda k: k not in template and not in_inner(k))),
        ("cone metric components are r^{+-rho}, inner ones restrict",
         ((c, big_C.c(c), metric[c]) for c in big_geom.indices())),
    ]
    rep = Report("embedding of dim %d inside dim %d" % (N, M))
    for name, cases in checks:
        w = first_failure(cases)
        rep.add(name, w is None, _witness(w))
    return rep
