"""Index geometry and sparse rank-4 tensors over the exact scalar field.

Indices run 1..M externally, following the convention that primes the index
as a' = M+1-a and puts the rho weight vector at

    rho = (M/2 - 1, ..., 1/2, 0, -1/2, ..., -M/2 + 1)      (M odd)
    rho = (M/2 - 1, ..., 1, 0, 0, -1, ..., -M/2 + 1)       (M even)

stored as integer doubles so that r^{rho_a} = s^{rho2_a} needs no square
roots.  An embedded geometry of dimension N+2 labels its extremes as the
cone coordinates (circ, bullet): index 1 prints as "o", index N+2 prints
as "*", and the inner block 2..N+1 prints as 1..N, matching the split of
an index A into (o, a, *).

A tensor X^{ab}_{cd} is a SparseTensor4: a scalars.LinearCombination of
index tuples (a, b, c, d) over one geometry, so it adds, subtracts and
scales like every other sparse combination of the engine and refuses an
operand from another geometry.  Composition contracts the lower pair of
the left factor against the upper pair of the right factor.  Rank-6
products (for the Yang-Baxter check) are SparseTensor4s keyed by 6-tuples,
never densified: triple_compose builds them by applying sparse factors to
the rank-6 identity.  tensor_equal compares two tensors of either rank
through report.first_failure.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Tuple

from .report import first_failure
from .scalars import (LinearCombination, ParamSpace, Scalar, SchemaError,
                      _schema_field, _schema_items, scalar_from_json,
                      scalar_to_json, substitute, sum_products)

Key4 = Tuple[int, int, int, int]


class IndexGeometry:
    def __init__(self, dim: int, embedded: bool = False):
        if dim < 3:
            raise ValueError("index geometry needs dim >= 3")
        self.dim = dim
        self.embedded = embedded
        self.params = ParamSpace(dim)
        self.series = self.params.series
        self.n2 = (dim + 1) // 2 if self.series == "B" else None
        self.rho2 = [0] * (dim + 1)  # 1-based; rho2[a] = 2*rho_a
        for a in range(1, dim + 1):
            if 2 * a < dim:
                self.rho2[a] = dim - 2 * a
            elif 2 * a == dim or 2 * a == dim + 1 or 2 * a == dim + 2:
                self.rho2[a] = 0
            else:
                self.rho2[a] = dim + 2 - 2 * a
        if embedded:
            inner = [str(k) for k in range(1, dim - 1)]
            self.labels = ["∘"] + inner + ["•"]  # o ... *
            self.circ = 1
            self.bullet = dim
        else:
            self.labels = [str(k) for k in range(1, dim + 1)]
            self.circ = None
            self.bullet = None

    @classmethod
    def embedded_from_inner(cls, N: int) -> "IndexGeometry":
        return cls(N + 2, embedded=True)

    def prime(self, a: int) -> int:
        return self.dim + 1 - a

    def label(self, a: int) -> str:
        return self.labels[a - 1]

    def indices(self) -> range:
        return range(1, self.dim + 1)

    def inner(self) -> range:
        """The inner block of an embedded geometry, as 1-based indices."""
        if not self.embedded:
            raise ValueError("not an embedded geometry")
        return range(2, self.dim)

    def cone_ideal(self) -> List[Tuple[int, int]]:
        """The index pairs (A, B) of the entries T^A_B that generate the
        cone ideal H of an embedded geometry, 2N+1 of them at dimension
        N+2: T^a_∘, then T^•_b for inner a and b, then T^•_∘."""
        inner = self.inner()
        return ([(a, self.circ) for a in inner]
                + [(self.bullet, b) for b in inner]
                + [(self.bullet, self.circ)])

    def same(self, other: "IndexGeometry") -> bool:
        return self.dim == other.dim and self.embedded == other.embedded

    def __repr__(self):
        kind = "embedded " if self.embedded else ""
        return "IndexGeometry(%sdim=%d, series=%s)" % (kind, self.dim, self.series)


class SparseTensor4(LinearCombination):
    """Scalar entries over one index geometry, keyed by index tuples:
    (a, b, c, d) for X^{ab}_{cd}, six indices for a triple product."""

    __slots__ = ("geometry",)

    def __init__(self, geometry: IndexGeometry, entries: Dict[Key4, Scalar]):
        self.geometry = geometry
        super().__init__(entries)

    def _context(self):
        return (self.geometry,)

    def _mismatch(self, other) -> str:
        if self.geometry.same(other.geometry):
            return ""
        return "%r vs %r" % (self.geometry, other.geometry)

    @property
    def entries(self) -> Dict[Key4, Scalar]:
        return self.terms

    def get(self, key: Key4) -> Scalar:
        return self.terms.get(key, self.geometry.params.zero)

    def __len__(self):
        return len(self.terms)

    def items(self):
        return self.terms.items()

    def __repr__(self):
        return "SparseTensor4(dim=%d, nnz=%d)" % (self.geometry.dim,
                                                  len(self.terms))


def identity_tensor(geometry: IndexGeometry) -> SparseTensor4:
    one = geometry.params.one
    ent = {(a, b, a, b): one
           for a in geometry.indices() for b in geometry.indices()}
    return SparseTensor4(geometry, ent)


def _by_upper(X: SparseTensor4) -> Dict[Tuple[int, int], List]:
    """The entries X^{AB}_{CD} of a four-index tensor as
    {(A, B): [((C, D), value), ...]}, in the tensor's own order."""
    out: Dict[Tuple[int, int], List] = {}
    for (A, B, C, D), val in X.items():
        out.setdefault((A, B), []).append(((C, D), val))
    return out


def tensor_compose(X: SparseTensor4, Y: SparseTensor4) -> SparseTensor4:
    """(X.Y)^{ab}_{cd} = sum_ef X^{ab}_{ef} Y^{ef}_{cd}.

    Each entry is summed over a shared denominator (scalars.sum_products):
    the products X^{ab}_{ef} Y^{ef}_{cd} with the same unreduced
    denominator are added as numerators and canonicalized once."""
    X._check(Y)
    by_upper = _by_upper(Y)
    return X._like(sum_products(
        ((a, b, c, d), xv, yv)
        for (a, b, e, f), xv in X.items()
        for (c, d), yv in by_upper.get((e, f), ())))


def _lift_positions(pos: int) -> Tuple[int, int]:
    # which two of the three tensor slots the factor acts on
    try:
        return {12: (0, 1), 23: (1, 2), 13: (0, 2)}[pos]
    except KeyError:
        raise ValueError("position must be one of 12, 23, 13; got %r" % (pos,))


def triple_compose(factors: Iterable[Tuple[SparseTensor4, int]]) -> SparseTensor4:
    """Product of operators lifted to V x V x V, as a rank-6 SparseTensor4
    keyed by (a,b,c,d,e,f) for the entry X^{abc}_{def}.

    Starting from the identity on V x V x V, each factor (X, pos) acts on
    the lower slots named by pos, identity on the third; position 13 is
    realized by the same chaining as 12 and 23, skipping the middle slot
    in the index bookkeeping.  Each step sums its entries through
    scalars.sum_products, where a product with the unit entries of the
    identity start is the factor's entry itself.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    first = factors[0][0]
    one = first.geometry.params.one
    cur = {k + k: one
           for k in itertools.product(first.geometry.indices(), repeat=3)}

    def step(cur, by_upper, i, j):
        for key, v in cur.items():
            lo = key[3:]
            for (c, d), xv in by_upper.get((lo[i], lo[j]), ()):
                newlo = list(lo)
                newlo[i], newlo[j] = c, d
                yield key[:3] + tuple(newlo), v, xv

    for X, pos in factors:
        first._check(X)
        cur = sum_products(step(cur, _by_upper(X), *_lift_positions(pos)))
    return first._like(cur)


def map_params(X: SparseTensor4) -> SparseTensor4:
    """Entrywise substitution v -> v^{-1} for every variable (so q -> q^{-1},
    r -> r^{-1}), the only transform the identities need."""
    ps = X.geometry.params
    images = [ps.mono(s=-1)] + [ps.mono(g={p: -1}) for p in ps.pairs]
    return X._like({k: substitute(v, images) for k, v in X.items()})


def tensor_equal(X: SparseTensor4, Y: SparseTensor4):
    """Entrywise equality of two tensors of the same rank; returns (ok,
    witness) where witness is None or (index tuple, X value, Y value) at
    the first mismatch in index order, a missing entry read as zero."""
    X._check(Y)
    w = first_failure((k, X.get(k), Y.get(k))
                      for k in sorted(X.terms.keys() | Y.terms.keys()))
    return w is None, w


class MetricVec:
    """The antidiagonal metric C_ab = C_a delta_{a,b'} with C_a = r^{-rho_a};
    the inverse metric has the same components."""

    def __init__(self, geometry: IndexGeometry):
        self.geometry = geometry
        ps = geometry.params
        self.values = [None] + [ps.s_pow(-geometry.rho2[a])
                                for a in geometry.indices()]

    def c(self, a: int) -> Scalar:
        return self.values[a]

    def lower(self, a: int, b: int) -> Scalar:
        if b != self.geometry.prime(a):
            return self.geometry.params.zero
        return self.values[a]

    upper = lower  # C^{ab} = C_{ab} entrywise

    def trace_norm(self) -> Scalar:
        """C_{ab} C^{ab} = sum_a r^{-2 rho_a}."""
        ps = self.geometry.params
        total = ps.zero
        for a in self.geometry.indices():
            total = total + self.values[a] * self.values[a]
        return total


# --- serialization ---------------------------------------------------------

def tensor_to_json(X: SparseTensor4) -> dict:
    geom = X.geometry
    return {
        "dim": geom.dim,
        "series": geom.series,
        "vars": list(geom.params.vars),
        "embedded": geom.embedded,
        "entries": [
            {"idx": list(k), "value": scalar_to_json(X.terms[k])}
            for k in sorted(X.terms)
        ],
    }


# far past what the suites reach; it bounds the parameter space a payload
# can make the loader build
_MAX_DIM = 64


def _key4(dim: int, idx: list) -> Key4:
    if len(idx) != 4:
        raise SchemaError("", "expected four indices, got %d" % len(idx))
    for j, a in enumerate(idx):
        if type(a) is not int or not 1 <= a <= dim:
            raise SchemaError("/%d" % j, "index %r is not an integer in "
                              "1..%d" % (a, dim))
    return tuple(idx)


def tensor_from_json(payload: dict) -> SparseTensor4:
    dim = _schema_field(payload, "dim", int)
    if not 3 <= dim <= _MAX_DIM:
        raise SchemaError("/dim", "dimension %d outside 3..%d"
                          % (dim, _MAX_DIM))
    embedded = ("embedded" in payload
                and _schema_field(payload, "embedded", bool))
    geom = IndexGeometry(dim, embedded=embedded)
    for key, want in (("series", geom.series), ("vars", geom.params.vars)):
        if payload.get(key, want) != want:
            raise SchemaError("/" + key, "%s %r does not match dim %d"
                              % (key, payload[key], dim))

    def entry(rec):
        return (_schema_field(rec, "idx", list, lambda i: _key4(dim, i)),
                _schema_field(rec, "value", dict,
                              lambda v: scalar_from_json(geom.params, v)))

    entries: Dict[Key4, Scalar] = {}
    records = _schema_field(payload, "entries", list,
                            lambda recs: _schema_items(recs, entry))
    for i, (k, v) in enumerate(records):
        if k in entries:
            raise SchemaError("/entries/%d/idx" % i,
                              "duplicate index tuple %r" % (k,))
        entries[k] = v
    return SparseTensor4(geom, entries)
