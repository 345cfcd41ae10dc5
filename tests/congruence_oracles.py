"""The congruence route to the star maps and the segment primes, kept as
oracles for the closed forms the package uses.

`extension` is the earlier `FiberMap.extension`: it extends a morphism
between two chains, read through both chains' ranks, to their groups.  The
package writes each star fiber as `chain_scaling(n, m)`, since the morphism
Łn -> Łm is unique when it exists; the tests compare the two on the
morphisms `restrict_morphism` induces on quotients.  `prime_alignment` is
the earlier spectrum check of `_segment_lifts` and `coordinate_ideal_checks`,
which now read the segment's chain decomposition and compare two sets.
"""

from __future__ import annotations

from typing import Sequence

from mvgamma.equivalence import FiberMap
from mvgamma.lgroup import ChangChainGroup
from mvgamma.mv_core import FiniteMVAlgebra, MVMorphism
from mvgamma.spectrum import spectrum


def extension(hom: MVMorphism, dom: ChangChainGroup, cod: ChangChainGroup) -> FiberMap:
    """Extend a morphism h between the chains of dom and cod, of heights n
    and n', to their groups: the carry pair (m, a) goes to (m, h(a)),
    t -> (t // n)·n' + rank'(h(by_rank(t mod n))).  Chain morphisms have
    kernel {0}, so h(a) = top forces a = top; below the top the image stays
    below the top and the copy index passes through untouched."""
    table = tuple(cod.rank[hom.map[a]] for a in dom.by_rank[: dom.height])
    return FiberMap(dom.height, cod.height, table)


def prime_alignment(
    algebra: FiniteMVAlgebra, zero_sets: Sequence[frozenset[int]]
) -> tuple[int, ...] | None:
    """For each prime of the algebra, in spectrum order, the index of the zero
    set equal to it; None unless primes and zero sets match one to one."""
    primes = [p.members for p in spectrum(algebra).primes]
    if len(set(zero_sets)) != len(zero_sets) or set(zero_sets) != set(primes):
        return None
    return tuple(zero_sets.index(p) for p in primes)
