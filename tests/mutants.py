"""The mutant ledger: named changes to one name of the package each, with
the probe that must catch them.

A mutant is applied by `monkeypatch` to one module binding and changes a
value the package computes, never a check's verdict directly.  Its probe
is a test oracle run over a family of algebras and returns counts of what
went wrong, so that `test_mutants.py` can require the probe to find
nothing on the package as it is and the pinned counts under each mutant.
The package's memos must be empty before a probe runs under a mutant
(`conftest.fresh_memos`), or a value cached on the clean run would hide it.

The first two entries misread the permutation of a chain decomposition.
Every algebra the sweep generates is its own product of chains, so its
decomposition is the identity and no suite can see them; the probe runs
the iota squares over the generated algebras of at most 12 elements and a
copy of each with the labels 1..s-1 reversed, whose decompositions are no
identity.
"""

from __future__ import annotations

import itertools
import sys
from typing import Callable, NamedTuple

from mvgamma import equivalence as eq
from mvgamma import mv_core
from mvgamma.errors import InternalInvariantError
from mvgamma.sweeps import generated_algebras
from test_mv_core import with_reversed_copies

# the module, not the function `mvgamma.spectrum` the package re-exports
SPECTRUM = sys.modules["mvgamma.spectrum"]


def naturality_probe() -> tuple[int, int]:
    """(iota squares that fail, (dom, cod) pairs that raise) over every pair
    of the generated algebras of at most 12 elements and their reversed
    copies, the morphisms listed by `mv_core.find_morphisms` at call time."""
    failed = raised = 0
    for dom, cod in itertools.product(with_reversed_copies(generated_algebras(12)), repeat=2):
        try:
            failed += sum(not eq.iota_naturality(h).ok for h in mv_core.find_morphisms(dom, cod))
        except (ValueError, KeyError, InternalInvariantError):
            raised += 1
    return failed, raised


def decomposition_read_forwards(monkeypatch) -> None:
    """`prime_quotients` reads the decomposition f where it should read its
    inverse: it is handed f's inverse, which it inverts back to f."""
    decompose = SPECTRUM.chain_decomposition

    def inverted(algebra):
        f, heights = decompose(algebra)
        return tuple(sorted(range(len(f)), key=f.__getitem__)), heights

    monkeypatch.setattr(SPECTRUM, "chain_decomposition", inverted)


def domain_listed_unsorted(monkeypatch) -> None:
    """`find_morphisms` lists the domain's elements in product order, not
    sorted into carrier order: position k of each map holds the image of
    the element f(k)."""
    find = mv_core.find_morphisms

    def unsorted(dom, cod):
        f, _ = mv_core.chain_decomposition(dom)
        return tuple(h._replace(map=tuple(h.map[x] for x in f)) for h in find(dom, cod))

    monkeypatch.setattr(mv_core, "find_morphisms", unsorted)


class Mutant(NamedTuple):
    apply: Callable
    probe: Callable[[], tuple]
    caught: tuple  # the probe's counts under the mutant


LEDGER = {
    "prime_quotients reads f, not its inverse": Mutant(
        decomposition_read_forwards, naturality_probe, (10, 205)
    ),
    "find_morphisms lists the domain unsorted": Mutant(
        domain_listed_unsorted, naturality_probe, (26, 169)
    ),
}
