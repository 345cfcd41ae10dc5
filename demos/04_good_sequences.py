"""Good sequences: writing a positive group element in unit-segment digits.

A nonnegative x decomposes as a sum of segment elements a_1 >= a_2 >= ...
obtained by repeatedly peeling off u ∧ (what is left).  The sequence
satisfies a_k (+) a_{k+1} = a_k and is the unique normalized one with
that property summing to x — a positional number system whose digits
live in the algebra.

Run:  python3 demos/04_good_sequences.py
"""

from mvgamma import (
    ChangChainGroup,
    canonical_good_sequence,
    gamma_segment,
    generated_membership,
    good_sequence_sum,
    make_chain,
    make_product_group,
)

G = make_product_group(
    [ChangChainGroup(make_chain(1)), ChangChainGroup(make_chain(2))],
    [(1, 0), (1, 1)],
)
seg = gamma_segment(G)
print("unit u =", G.u, "; segment has", seg.algebra.size, "digits")
print()

x = G.from_pairs([(2, 0), (3, 1)])
print("x =", G.to_pairs(x), "=", x)
gs = canonical_good_sequence(seg, x)
for k, idx in enumerate(gs.entries, start=1):
    print(f"   digit {k}: segment #{idx} = {seg.elements[idx]}")
assert good_sequence_sum(seg, gs.runs) == x
print("digits sum back to x exactly.")
print()

# The same peeling answers membership questions: is x in the subgroup
# generated by a chosen subset of the segment?  Here we only allow the
# pure-coordinate elements, so anything mixing coordinates at fractional
# level should fail.
allowed = {e for e in seg.elements if e[0] == 0 or e[1] == 0}
print("allowed generators:", len(allowed), "of", len(seg.elements))

inside = G.from_pairs([(1, 0), (0, 0)])
w = generated_membership(G, allowed, inside)
print("pure element member:", w.member)

mixed = G.from_pairs([(1, 0), (0, 1)])
w2 = generated_membership(G, allowed, mixed)
print("mixed element member:", w2.member, "  first missing digit:", w2.missing)
