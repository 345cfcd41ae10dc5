"""Independent oracles for the maps of the equivalence: the earlier forms of
the two maps that `equivalence.FiberMap` now represents, and of the
subdirect embedding that `equivalence.star_algebra` builds as iota.

`ChainStarMap` extends a chain morphism by re-reading the morphism and both
chains on every call; `UpsilonMap` evaluates a star fiber through `evaluate`
with the lifts read straight off the segment's quotients, in class order.
Tests compare the package's `FiberMap` values against them point by point,
and mutants are injected into both.  `evaluate` is looked up on this module
at call time, so a test can patch it.  `canonical_embedding` is the map into
the product table of the prime quotients, one mixed-radix index per element.
`segment_generation_check` walks a product window of the star ambient and
tests each element for membership in the subgroup a_circle generates; the
package reads the same verdict off `iota_roundtrip(star).onto_segment`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from mvgamma.equivalence import LGroupMap, StarAlgebra, generated_membership, star_algebra
from mvgamma.lgroup import ChangChainGroup, GroupElement, ProductLuGroup, gamma_segment
from mvgamma.mv_core import FiniteMVAlgebra, MVMorphism, make_product_many
from mvgamma.spectrum import class_values, quotient, spectrum


@dataclass(frozen=True)
class ChainStarMap:
    """Extension of a morphism h between chains of heights n and n' to their
    groups: t -> (t // n)·n' + rank'(h(by_rank(t mod n))), the carry pair
    (m, a) going to (m, h(a))."""

    hom: MVMorphism
    dom: ChangChainGroup
    cod: ChangChainGroup

    def __call__(self, t: int) -> int:
        m, r = divmod(t, self.dom.height)
        return m * self.cod.height + self.cod.rank[self.hom.map[self.dom.by_rank[r]]]


def evaluate(sf: ChangChainGroup, up: int, lift: tuple[int, ...], s: int) -> int:
    """The evaluation on one fiber: s = m·h + rank(c) in star fiber sf of
    height h, the pair (m, c), goes to m·u_t + lift[c]."""
    m, r = divmod(s, sf.height)
    return m * up + lift[sf.by_rank[r]]


class UpsilonMap:
    """The evaluation map from the star ambient of a segment back to the
    group, star fiber t into group fiber t; `lifts[t][c]` is the common t-th
    coordinate of the members of class c (None if it is not constant)."""

    def __init__(self, group: ProductLuGroup):
        self.group = group
        self.segment = gamma_segment(group)
        self.star = star_algebra(self.segment.algebra)
        self.lifts = tuple(
            class_values(q, [x[j] for x in self.segment.elements])
            for j, q in enumerate(self.star.quotients)
        )
        self.evaluation = LGroupMap(
            dom=self.star.ambient,
            cod=group,
            source_fiber=tuple(range(group.k)),
            fiber_maps=tuple(functools.partial(self.fiber_value, t) for t in range(group.k)),
        )

    def fiber_value(self, t: int, s: int) -> int:
        """Evaluate star fiber t at s, landing in group fiber t."""
        return evaluate(self.star.ambient.fibers[t], self.group.u[t], self.lifts[t], s)


def canonical_embedding(algebra: FiniteMVAlgebra) -> MVMorphism:
    """The map into the product of all prime quotients, components in
    spectrum order: the class indices of an element, read as the digits of
    one row-major index of the `make_product_many` table (first prime
    slowest).  Injectivity is a property to check, not a construction
    guarantee."""
    quots = [quotient(algebra, p) for p in spectrum(algebra).primes]
    cod = make_product_many([q.quotient for q in quots])
    combined = [0] * algebra.size
    for q in quots:
        combined = [v * q.quotient.size + c for v, c in zip(combined, q.class_of)]
    return MVMorphism(algebra, cod, tuple(combined))


@dataclass(frozen=True)
class GenerationReport:
    ok: bool
    checked: int
    failure: GroupElement | None = None


def segment_generation_check(star: StarAlgebra, bound: int = 4) -> GenerationReport:
    """Every ambient element within bound·u is generated by a_circle.

    Exhaustive over the ambient window, one membership test per element, so
    its cost grows as a power of the fiber count.
    """
    for checked, x in enumerate(star.ambient.window(bound), 1):
        if not generated_membership(star.ambient, star.circle_index, x).member:
            return GenerationReport(ok=False, checked=checked, failure=x)
    return GenerationReport(ok=True, checked=checked)
