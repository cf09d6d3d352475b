"""The sparse linear-combination core behind free-algebra elements, their
tensor powers and L+/L- functionals: no stored zeros, products join keys
(slot by slot for tensors), equal elements hash equal, and operands from
different contexts are refused.
"""

import pytest

import qortho.scalars as scalar_module
from qortho.envelope import FunctionalElement, _Factored
from qortho.itensor import IndexGeometry, SparseTensor4
from qortho.presentations import AlgebraElement, Alphabet, TensorElement
from qortho.rmatrix import build_bundle

BUNDLE = build_bundle(IndexGeometry(3))
PS = BUNDLE.geometry.params
AB = Alphabet(["a", "b"])
G1, G2 = (1, 1, 1), (-1, 2, 1)

# kind -> (make an element, make one over another context,
#          key 1, key 2, key 1 joined with key 2, key 2 joined with itself)
KINDS = {
    "algebra": (lambda t: AlgebraElement(AB, PS, t),
                lambda t: AlgebraElement(Alphabet(["c", "d"]), PS, t),
                (0,), (1, 0), (0, 1, 0), (1, 0, 1, 0)),
    "tensor": (lambda t: TensorElement(AB, PS, 2, t),
               lambda t: TensorElement(AB, PS, 3, t),
               ((0,), ()), ((1,), (0,)), ((0, 1), (0,)), ((1, 1), (0, 0))),
    "functional": (lambda t: FunctionalElement(BUNDLE, t),
                   lambda t: FunctionalElement(
                       build_bundle(IndexGeometry(4)), t),
                   (G1,), (G2, G1), (G1, G2, G1), (G2, G1, G2, G1)),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_element_base_arithmetic(kind):
    make, other, k1, k2, k12, k22 = KINDS[kind]
    two = PS.from_rational(2)
    x = make({k1: two, k2: PS.s})
    y = make({k2: PS.one})

    diff = x - x
    assert not diff and diff.terms == {} and type(diff) is type(x)
    assert not make({k1: PS.zero}).terms

    assert (x * y).terms == {k12: two, k22: PS.s}
    assert x * two == x.scale(two) == x + x

    swapped = make({k2: PS.s, k1: two})
    assert swapped == x and hash(swapped) == hash(x)
    assert x + y == y + x and hash(x + y) == hash(y + x)

    stranger = other({k1: PS.one})
    with pytest.raises(ValueError):
        x + stranger
    with pytest.raises(ValueError):
        x * stranger
    assert x != other(dict(x.terms))


def test_a_kept_hash_still_agrees_with_equality(monkeypatch):
    """An element's hash is taken once and kept: hashing it again builds
    no frozenset, and an equal element built another way (other key
    order, a dropped zero, a sum) hashes equal, whichever was hashed
    first; so do index tensors and factored products."""
    built = []

    def counted(items):
        built.append(1)
        return frozenset(items)

    monkeypatch.setattr(scalar_module, "frozenset", counted, raising=False)
    f, g = FunctionalElement(BUNDLE, {(G1,): PS.s}), FunctionalElement(
        BUNDLE, {(G2, G1): PS.one})
    geom = BUNDLE.geometry
    for x, y in [
            (f + g, FunctionalElement(BUNDLE, {(G2, G1): PS.one,
                                               (G1,): PS.s, (G2,): PS.zero})),
            (SparseTensor4(geom, {(1, 2, 2, 1): PS.s, (1, 1, 1, 1): PS.one}),
             SparseTensor4(geom, {(1, 1, 1, 1): PS.one, (1, 2, 2, 1): PS.s})),
            (_Factored(BUNDLE, {(f, g): PS.one, (g,): PS.r}),
             _Factored(BUNDLE, {(g,): PS.r}) + _Factored(BUNDLE,
                                                         {(f, g): PS.one}))]:
        h = hash(x)
        built.clear()
        assert hash(x) == h and not built
        assert x == y and hash(y) == h
        assert {x: 1}[y] == 1
