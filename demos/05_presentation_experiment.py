"""Does the enveloping group have a free presentation of spectrum rank?

Take the free abelian group on the carrier of A and divide by the relations

    e_a + e_b = e_{a(+)b} + e_{a(.)b}        (one row per pair a, b)

plus e_0 = 0.  Each relation lies in the kernel of the map sending e_x to
the chain coordinates of x (a + b = (a (+) b) + (a (.) b) in every chain),
and the relations span it, so the quotient is free of rank |primes of A|;
one pass over the pairs checks every relation.  The enveloping group's own
rank is measured apart, by Smith reduction of the iota images, and the two
are compared.

Run:  python3 demos/05_presentation_experiment.py
"""

from mvgamma import free_quotient_experiment, make_chain, make_product

cases = [
    ("chain 1", make_chain(1)),
    ("chain 2", make_chain(2)),
    ("chain 5", make_chain(5)),
    ("2 x 2", make_product(make_chain(1), make_chain(1))),
    ("2 x 3", make_product(make_chain(1), make_chain(2))),
    ("3 x 3", make_product(make_chain(2), make_chain(2))),
    ("2 x 2 x 2", make_product(make_chain(1), make_product(make_chain(1), make_chain(1)))),
]

print(f"{'algebra':>10} {'carrier':>8} {'rows':>6} {'primes':>7}  factors        verdict")
for label, a in cases:
    r = free_quotient_experiment(a, identify_zero=True)
    verdict = "matches" if r.isomorphic else "DIFFERS"
    print(
        f"{label:>10} {r.size:>8} {r.relation_rows:>6} {r.spectrum_size:>7}"
        f"  {str(list(r.free_factors)):<14} {verdict}"
    )

print()
print("Without the e_0 = 0 row the count is off by one free generator:")
r = free_quotient_experiment(make_chain(1), identify_zero=False)
print(
    "  chain 1, zero kept:",
    list(r.free_factors),
    "vs group rank",
    len(r.star_factors),
    "->",
    "isomorphic" if r.isomorphic else "not isomorphic",
)
