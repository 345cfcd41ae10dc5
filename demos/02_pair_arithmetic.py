"""Carry arithmetic: the totally ordered group built on pairs (m, a).

The group attached to a chain C has carrier Z x {0..top-1}: think of m as a
whole number of units and a as a fractional part measured in C.  Addition
carries exactly when the fractional parts overflow the top.  The pair (m, a)
is the integer phi(m, a) = m·height + rank(a), and the rest of the package
computes on those integers; the carry rule is the definition they are
checked against.

Run:  python3 demos/02_pair_arithmetic.py
"""

from mvgamma import ChangChainGroup, abs_decompose, gamma_segment, make_chain, make_product_group

C = make_chain(2)          # carrier {0,1,2}
G = ChangChainGroup(C)
print("fiber over a height-2 chain; height =", G.height)

half = G.pair_of_phi(1)    # "half" of the unit, roughly
u = G.pair_of_phi(G.height)  # one whole copy of the chain

print("u        =", u)
print("x        =", half)
print("x+x      =", G.add(half, half), "  <- two halves make exactly one unit")
print("x+x+x    =", G.add(G.add(half, half), half), "  <- carry: 3 halves = 1u + half")
print("-x       =", G.neg(half))
print("3x       =", G.mul(3, half), "  <- the same sum, by doubling")
print("phi      : x ->", G.phi(half), " u ->", G.phi(u), " 3x ->", G.phi(G.mul(3, half)))
print()

# Total order is lexicographic: whole part first, then the fractional part;
# phi lists it as the integers -height..height.
print("interval [-u, u] in order:")
print("  ", [G.pair_of_phi(t) for t in range(-G.height, G.height + 1)])
print()

# Products of fibers give the general finite case.  Units may sit at
# different heights in different coordinates; the segment [0, u] of the
# product is an algebra whose primes match the coordinates.  Product
# elements are integer tuples, read from and written back to pairs.
H = make_product_group(
    [ChangChainGroup(make_chain(1)), ChangChainGroup(make_chain(2))],
    [(1, 0), (2, 1)],
)
print("two fibers, unit =", H.u, "=", H.to_pairs(H.u))
seg = gamma_segment(H)
print("segment [0,u] size:", seg.algebra.size)

x = H.from_pairs([(0, 0), (1, 1)])
y = H.from_pairs([(1, 0), (0, 1)])
print("x =", x, " y =", y)
print("x ∧ y =", H.meet(x, y))
print("x ∨ y =", H.join(x, y), "   (both componentwise)")

# Every element splits into a positive and a negative part that never
# overlap: x = x⁺ − x⁻ with x⁺ ∧ x⁻ = 0 and |x| = x⁺ + x⁻.
z = H.sub(x, y)
pos, neg, absolute = abs_decompose(H, z)
print("z =", z, "=", H.to_pairs(z))
print("z⁺ =", pos, " z⁻ =", neg, " |z| =", absolute)
assert H.meet(pos, neg) == H.zero and H.sub(pos, neg) == z
print("split checks out.")
