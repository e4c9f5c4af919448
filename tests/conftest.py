"""Shared fixtures."""

import pytest

from chowlab.algebra import AlgebraPresentation, Element


class IndexedBases:
    """The presentations whose degree bases were asked for, in first-asked order."""

    def __init__(self):
        self.algebras: dict[AlgebraPresentation, None] = {}

    @staticmethod
    def degrees(algebra: AlgebraPresentation) -> list[int]:
        """The degrees of ``algebra`` that hold a basis index, ascending."""
        return sorted(algebra._bases)

    @property
    def monomials(self) -> int:
        """Basis monomials indexed, summed over every degree of every presentation."""
        return sum(len(index) for A in self.algebras for index in A._bases.values())


@pytest.fixture
def indexed_bases(monkeypatch) -> IndexedBases:
    """Record each presentation whose ``_basis_index`` is called during the test."""
    seen = IndexedBases()
    basis_index = AlgebraPresentation._basis_index

    def recorded(self, d):
        seen.algebras[self] = None
        return basis_index(self, d)

    monkeypatch.setattr(AlgebraPresentation, "_basis_index", recorded)
    return seen


@pytest.fixture
def ring_products(monkeypatch) -> list:
    """Count the ``Element.__mul__`` calls made during the test in ``ring_products[0]``."""
    products = [0]
    mul = Element.__mul__

    def counted(self, other):
        products[0] += 1
        return mul(self, other)

    monkeypatch.setattr(Element, "__mul__", counted)
    return products
