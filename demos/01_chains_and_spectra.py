"""First contact: finite algebras as integer tables, and their prime ideals.

Run:  python3 demos/01_chains_and_spectra.py
"""

from mvgamma import (
    check_mv_axioms,
    dumps,
    enumerate_ideals,
    loads,
    make_chain,
    make_product,
    quotient,
    spectrum,
    star_algebra,
)

# ---------------------------------------------------------------------------
# A chain of height 3: carrier {0,1,2,3}, x (+) y = min(3, x+y), neg x = 3-x
# ---------------------------------------------------------------------------

L3 = make_chain(3)
print("chain of height 3, carrier size", L3.size)
print("oplus table:")
for row in L3.oplus:
    print("   ", list(row))
print("neg:", list(L3.neg))
print("axioms:", "ok" if check_mv_axioms(L3).ok else "BROKEN")
print()

# ---------------------------------------------------------------------------
# Products.  Ł2 x Ł3 is the smallest interesting non-chain: 12 elements,
# componentwise operations, and exactly two prime ideals (one per factor).
# ---------------------------------------------------------------------------

A = make_product(make_chain(2), make_chain(3))
print("product algebra size:", A.size)

sp = spectrum(A)
print("ideals:", len(enumerate_ideals(A)), " primes:", len(sp.primes))
for p in sp.primes:
    q = quotient(A, p)
    print("  prime", sorted(p.members), "-> quotient is a chain of size", q.quotient.size)

# The map into the product of the prime quotients.  Each quotient is a chain,
# and iota sends a to the tuple of the ranks of its classes, one per prime:
# a point of the product of the chain groups over the quotients.  For any
# finite algebra it is injective; that is what makes the subdirect picture work.
star = star_algebra(A)
print("embedding injective:", star.injective)
print("fiber heights:", [f.height for f in star.ambient.fibers], "(one chain per prime)")
for a in [0, 1, 5, A.size - 1]:
    print(f"  a={a:2d}  image={star.a_circle[a]}")
print()

# Every value has a canonical JSON form (what a script's `export` writes), and
# `loads` reads it back as the same value.
text = dumps(A)
print("canonical JSON of the product:", len(text), "bytes; reads back equal:", loads(text) == A)
