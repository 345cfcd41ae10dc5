"""Finite MV-algebras, unital lattice-ordered groups, and the maps between them.

The package has three layers:

* table algebra — ``mv_core`` (finite MV-algebras as Cayley tables of ints,
  morphisms in closed form, products), ``spectrum`` (ideals, primes, quotients and the
  maps they induce);
* group side — ``lgroup`` (chain groups, computed on integers and certified
  against Chang's carry pairs; finite products with a strong unit; unit
  segments), ``snf`` (integer Smith reduction: the rank of the
  enveloping group in the presentation experiment);
* the bridge — ``equivalence`` (enveloping groups, with the subdirect
  embedding built once as iota; good sequences, round trips), with
  ``serialize``, ``script``, ``interp``, ``cli``, and ``sweeps`` on top.

The package exports ``InternalInvariantError`` and each module's ``__all__``,
the one statement of the public API, except the script front end (``script``,
``interp``, ``cli``), which loads only when used.

Everything is exact integer arithmetic on Python ints, held once in tuples:
no floating point anywhere, and nothing outside the standard library.
A product group carries its strong unit as ``ProductLuGroup.u``.  The unit
segment reads nothing else of a group, so segment-side work (the segment, its
coordinate ideals, good-sequence entries and sums, and ``upsilon``) takes the
unit tuple and is shared.
An algebra is its tables: constructing a ``FiniteMVAlgebra`` returns the live
algebra with equal tables if there is one, so equal tables are one object and
algebras compare and hash by identity.  Ideals and product groups compare and
hash by value over them.  The pure builders (``check_mv_axioms``,
``find_morphisms``, ``spectrum``, ``quotient``, ``lgroup.unit_segment``,
``star_algebra``, ``star_morphism``, ``coordinate_ideal_checks``,
``upsilon``, ``good_sequence_sums_hold``, the evaluation maps of a unit
as ``equivalence.FiberMap`` values, and their composites) are memoized with
``functools.cache``, so equal inputs share one result, and ``cache_info()``
counts the hits.  A builder of several parameters takes them
positional-only, one call form.
"""

from sys import modules as _modules

from .errors import InternalInvariantError
from .mv_core import *
from .spectrum import *
from .lgroup import *
from .snf import *
from .equivalence import *
from .serialize import *
from .sweeps import *

_LIBRARY = ("mv_core", "spectrum", "lgroup", "snf", "equivalence", "serialize", "sweeps")
__all__ = ["InternalInvariantError"]
__all__ += [name for module in _LIBRARY for name in _modules[f"{__name__}.{module}"].__all__]

__version__ = "0.1.0"
