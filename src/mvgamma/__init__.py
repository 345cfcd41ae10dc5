"""Finite MV-algebras, unital lattice-ordered groups, and the maps between them.

The package has three layers:

* table algebra — ``mv_core`` (finite MV-algebras as Cayley tables of ints,
  morphisms in closed form, products), ``spectrum`` (ideals, primes, quotients and the
  maps they induce);
* group side — ``lgroup`` (chain groups, computed on integers and certified
  against Chang's carry pairs; finite products with a strong unit; unit
  segments), ``snf`` (integer Smith reduction used by the
  presentation experiment);
* the bridge — ``equivalence`` (enveloping groups, with the subdirect
  embedding built once as iota; good sequences, round trips), with
  ``serialize``, ``script``, ``interp``, ``cli``, and ``sweeps`` on top.

Everything is exact integer arithmetic on Python ints, held once in tuples:
no floating point anywhere, and nothing outside the standard library.
A product group carries its strong unit as ``ProductLuGroup.u``.  The unit
segment reads nothing else of a group, so segment-side work (the segment, its
coordinate ideals, good-sequence entries) takes the unit tuple and is shared.
An algebra is its tables: constructing a ``FiniteMVAlgebra`` returns the live
algebra with equal tables if there is one, so equal tables are one object and
algebras compare and hash by identity.  Ideals and product groups compare and
hash by value over them.  The pure builders (``check_mv_axioms``,
``find_morphisms``, ``spectrum``, ``quotient``, ``lgroup.unit_segment``,
``star_algebra``, ``star_morphism``, ``coordinate_ideal_checks``, and the
evaluation maps of a unit as ``equivalence.FiberMap`` values) are memoized
with ``functools.cache``, so equal inputs share one result, and
``cache_info()`` counts the hits.
"""

from .equivalence import (
    GoodSequence,
    StarAlgebra,
    canonical_entries,
    canonical_good_sequence,
    coordinate_ideal_checks,
    free_quotient_experiment,
    gamma_restriction,
    generated_membership,
    good_sequence_sum,
    iota_naturality,
    iota_roundtrip,
    is_good_sequence,
    segment_generation_check,
    star_algebra,
    star_functoriality,
    star_membership,
    star_morphism,
    upsilon,
    upsilon_naturality,
)
from .errors import InternalInvariantError
from .lgroup import (
    ChangChainGroup,
    ChangPair,
    GammaSegment,
    ProductLuGroup,
    abs_decompose,
    gamma_segment,
    make_product_group,
)
from .mv_core import (
    AxiomReport,
    FiniteMVAlgebra,
    MVMorphism,
    check_morphism,
    check_mv_axioms,
    compose,
    find_morphisms,
    make_chain,
    make_product,
    make_product_many,
)
from .serialize import SchemaError, dumps, export_json, loads, to_jsonable
from .snf import invariant_factors, smith_diagonal
from .spectrum import (
    Ideal,
    Spectrum,
    enumerate_ideals,
    is_prime_ideal,
    quotient,
    spectrum,
)
from .sweeps import SweepContext, run_all_checks

__all__ = [
    "AxiomReport",
    "ChangChainGroup",
    "ChangPair",
    "FiniteMVAlgebra",
    "GammaSegment",
    "GoodSequence",
    "Ideal",
    "InternalInvariantError",
    "MVMorphism",
    "ProductLuGroup",
    "SchemaError",
    "Spectrum",
    "StarAlgebra",
    "SweepContext",
    "abs_decompose",
    "canonical_entries",
    "canonical_good_sequence",
    "check_morphism",
    "check_mv_axioms",
    "compose",
    "coordinate_ideal_checks",
    "dumps",
    "enumerate_ideals",
    "export_json",
    "find_morphisms",
    "free_quotient_experiment",
    "gamma_restriction",
    "gamma_segment",
    "generated_membership",
    "good_sequence_sum",
    "invariant_factors",
    "iota_naturality",
    "iota_roundtrip",
    "is_good_sequence",
    "is_prime_ideal",
    "loads",
    "make_chain",
    "make_product",
    "make_product_group",
    "make_product_many",
    "quotient",
    "run_all_checks",
    "segment_generation_check",
    "smith_diagonal",
    "spectrum",
    "star_algebra",
    "star_functoriality",
    "star_membership",
    "star_morphism",
    "to_jsonable",
    "upsilon",
    "upsilon_naturality",
]

__version__ = "0.1.0"
