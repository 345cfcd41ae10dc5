"""First contact: finite algebras as integer tables, and their prime ideals.

Run:  python3 demos/01_chains_and_spectra.py
"""

from mvgamma import (
    canonical_embedding,
    check_mv_axioms,
    dumps,
    enumerate_ideals,
    loads,
    make_chain,
    make_product,
    quotient,
    spectrum,
)

# ---------------------------------------------------------------------------
# A chain of height 3: carrier {0,1,2,3}, x (+) y = min(3, x+y), neg x = 3-x
# ---------------------------------------------------------------------------

L3 = make_chain(3)
print("chain of height 3, carrier size", L3.size)
print("oplus table:")
for row in L3.oplus_rows:
    print("   ", row)
print("neg:", L3.neg_list)
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

# The canonical map into the product of prime quotients.  For any finite
# algebra it is injective; that is what makes the subdirect picture work.
emb = canonical_embedding(A)
print("canonical embedding injective:", emb.is_injective())
print("codomain size:", emb.cod.size, "(= product of the quotient chains)")
print()

# A picture of the embedding on a few elements.  Indices in the product
# codomain are row-major; we decode them by hand here just to look at them.
sizes = [quotient(A, p).quotient.size for p in sp.primes]


def decode(idx):
    out = []
    for s in reversed(sizes):
        out.append(idx % s)
        idx //= s
    return tuple(reversed(out))


for a in [0, 1, 5, A.size - 1]:
    print(f"  a={a:2d}  image={decode(emb.map[a])}")
print()

# Every value has a canonical JSON form (what a script's `export` writes), and
# `loads` reads it back as the same value.
text = dumps(A)
print("canonical JSON of the product:", len(text), "bytes; reads back equal:", loads(text) == A)
