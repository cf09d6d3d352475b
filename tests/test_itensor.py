"""Index geometry, sparse four-index tensors, and the antidiagonal
metric C_ab = C_a delta_{a,b'} with C_a = r^{-rho_a}.

rho is stored doubled so that half-integer weights of the odd series
stay integral; primes reflect indices through the antidiagonal.
"""

import pytest
from hypothesis import given, settings, strategies as st

from qortho.itensor import (IndexGeometry, MetricVec, SparseTensor4,
                            identity_tensor, map_params, tensor_compose,
                            tensor_equal, tensor_from_json, tensor_to_json,
                            triple_compose)
from qortho.scalars import scalar_invert


def test_geometry_series_and_rho():
    g3 = IndexGeometry(3)
    assert g3.series == "B" and g3.rho2[1:] == [1, 0, -1]
    g4 = IndexGeometry(4)
    assert g4.series == "D" and g4.rho2[1:] == [2, 0, 0, -2]
    g5 = IndexGeometry(5)
    assert g5.rho2[1:] == [3, 1, 0, -1, -3]
    g6 = IndexGeometry(6)
    assert g6.rho2[1:] == [4, 2, 0, 0, -2, -4]


def test_geometry_rejects_tiny_dim():
    with pytest.raises(ValueError):
        IndexGeometry(2)


def test_primes_reflect():
    g = IndexGeometry(5)
    assert [g.prime(a) for a in g.indices()] == [5, 4, 3, 2, 1]
    assert all(g.prime(g.prime(a)) == a for a in g.indices())


def test_embedded_labels_and_inner():
    g = IndexGeometry.embedded_from_inner(3)
    assert g.dim == 5 and g.embedded
    assert g.circ == 1 and g.bullet == 5
    assert [g.label(a) for a in g.indices()] == ["∘", "1", "2", "3", "•"]
    assert list(g.inner()) == [2, 3, 4]
    assert g.prime(g.circ) == g.bullet


def test_inner_requires_embedding():
    with pytest.raises(ValueError):
        IndexGeometry(5).inner()


def test_metric_components():
    g = IndexGeometry(3)
    m = MetricVec(g)
    ps = g.params
    assert m.c(1) == ps.s_pow(-1) and m.c(2) == ps.one and m.c(3) == ps.s_pow(1)
    assert m.lower(1, 3) == ps.s_pow(-1)
    assert m.lower(1, 2) == ps.zero
    assert m.upper(1, 3) == m.lower(1, 3)
    assert m.trace_norm() == ps.r + ps.one + scalar_invert(ps.r)


def test_metric_cone_components():
    g = IndexGeometry(5, embedded=True)
    ps = g.params
    m = MetricVec(g)
    assert m.c(g.bullet) == ps.s_pow(3)
    assert m.lower(g.bullet, g.circ) == ps.s_pow(3)
    assert m.lower(g.circ, g.bullet) == ps.s_pow(-3)


def _basis_tensor(g, entries):
    ps = g.params
    return SparseTensor4(g, {k: ps.s_pow(e) for k, e in entries.items()})


def test_compose_with_identity():
    g = IndexGeometry(3)
    X = _basis_tensor(g, {(1, 2, 2, 1): 1, (3, 3, 3, 3): -2})
    I = identity_tensor(g)
    ok, _ = tensor_equal(tensor_compose(I, X), X)
    assert ok
    ok, _ = tensor_equal(tensor_compose(X, I), X)
    assert ok


def test_map_params_inverts_entries():
    g = IndexGeometry(3)
    X = _basis_tensor(g, {(1, 2, 2, 1): 2})
    Y = map_params(X)
    assert Y.get((1, 2, 2, 1)) == g.params.s_pow(-2)


def test_tensor_equal_witness():
    g = IndexGeometry(3)
    X = _basis_tensor(g, {(1, 2, 2, 1): 1})
    Y = _basis_tensor(g, {(1, 2, 2, 1): 2})
    ok, witness = tensor_equal(X, Y)
    assert not ok and witness[0] == (1, 2, 2, 1)
    # a rank-6 entry missing on one side reads as the zero Scalar
    left = triple_compose([(X, 12)])
    key = (1, 2, 1, 2, 1, 1)
    right = SparseTensor4(g, {k: v for k, v in left.items() if k != key})
    assert tensor_equal(left, right) == (
        False, (key, g.params.s_pow(1), g.params.zero))
    assert tensor_equal(left, left) == (True, None)


def test_mixing_geometries_raises():
    g3, g3e = IndexGeometry(3), IndexGeometry(3, embedded=True)
    X = _basis_tensor(g3, {(1, 2, 2, 1): 1})
    Y = _basis_tensor(g3e, {(1, 2, 2, 1): 1})
    for mixed in (lambda: X + Y, lambda: X - Y,
                  lambda: tensor_compose(X, Y),
                  lambda: triple_compose([(X, 12), (Y, 23)]),
                  lambda: tensor_equal(X, Y)):
        with pytest.raises(ValueError, match="IndexGeometry"):
            mixed()


def test_triple_compose_slots():
    g = IndexGeometry(3)
    I = identity_tensor(g)
    left = triple_compose([(I, 12), (I, 13), (I, 23)])
    right = triple_compose([(I, 23), (I, 13), (I, 12)])
    ok, _ = tensor_equal(left, right)
    assert ok


def test_json_round_trip():
    g = IndexGeometry(4)
    X = _basis_tensor(g, {(1, 2, 2, 1): 3, (4, 4, 4, 4): 0})
    Y = tensor_from_json(tensor_to_json(X))
    ok, _ = tensor_equal(X, Y)
    assert ok


def test_json_rejects_bad_index():
    g = IndexGeometry(3)
    payload = tensor_to_json(_basis_tensor(g, {(1, 2, 2, 1): 1}))
    payload["entries"][0]["idx"] = [1, 2, 2]
    with pytest.raises(ValueError):
        tensor_from_json(payload)


# --- property tests ---------------------------------------------------------

GEOM = IndexGeometry(3)


def small_tensors():
    idx = st.tuples(*(st.integers(1, 3),) * 4)
    entry = st.tuples(idx, st.integers(-3, 3))

    def build(pairs):
        ps = GEOM.params
        acc = {}
        for k, e in pairs:
            acc[k] = acc.get(k, ps.zero) + ps.s_pow(e)
        return SparseTensor4(GEOM, {k: v for k, v in acc.items() if v})

    return st.lists(entry, max_size=6).map(build)


@settings(max_examples=40, deadline=None)
@given(small_tensors(), small_tensors())
def test_add_commutes(X, Y):
    ok, _ = tensor_equal(X + Y, Y + X)
    assert ok


@settings(max_examples=40, deadline=None)
@given(small_tensors(), small_tensors())
def test_sub_inverts_add(X, Y):
    ok, _ = tensor_equal(X + Y - Y, X)
    assert ok


@settings(max_examples=40, deadline=None)
@given(small_tensors())
def test_scale_commutes_with_compose(X):
    lam = GEOM.params.s_pow(2)
    ok, _ = tensor_equal(tensor_compose(X.scale(lam), X),
                         tensor_compose(X, X).scale(lam))
    assert ok


@settings(max_examples=40, deadline=None)
@given(small_tensors())
def test_json_round_trip_random(X):
    ok, _ = tensor_equal(tensor_from_json(tensor_to_json(X)), X)
    assert ok
