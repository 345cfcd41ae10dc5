"""The two round trips.

Algebra side: A embeds into the unit segment of its enveloping group, and
the image is exactly the segment (finite algebras are that rigid).

Group side: rebuilding the enveloping group from the segment algebra gives
back the group itself, checked on the whole group: each fiber of the
evaluation map gains one unit coordinate per period, so one period decides.

Run:  python3 demos/03_round_trips.py
"""

from mvgamma import (
    ChangChainGroup,
    iota_roundtrip,
    make_chain,
    make_product,
    make_product_group,
    star_algebra,
    upsilon,
)


def show_algebra_side(a, label):
    star = star_algebra(a)
    heights = [f.height for f in star.ambient.fibers]
    report = iota_roundtrip(star)
    print(f"{label}: size {a.size}, ambient fiber heights {heights}")
    print(f"   embedding injective:    {report.injective}")
    print(f"   image = whole segment:  {report.onto_segment}")
    print(f"   operations preserved:   {report.is_morphism}")
    print(f"   image = member set:     {report.members_match}")
    assert report.holds


show_algebra_side(make_chain(4), "chain of height 4")
show_algebra_side(make_product(make_chain(2), make_chain(3)), "product 3x4")
show_algebra_side(
    make_product(make_chain(1), make_product(make_chain(1), make_chain(2))),
    "triple product",
)
print()

# Group side.  Take a two-fiber group with an off-center unit, form the
# segment, envelope it again, and compare against the original everywhere.
G = make_product_group(
    [ChangChainGroup(make_chain(2)), ChangChainGroup(make_chain(3))],
    [(1, 1), (1, 0)],
)
result = upsilon(G.u)
print("group with unit", G.u)
print("   additive:               ", result.additive)
print("   order preserved both ways:", result.order_embedding)
print("   unit to unit:           ", result.preserves_unit)
print("   fixes the segment:      ", result.segment_identity)
print("   reaches every x:        ", result.surjective)
print("   segment == member box:  ", result.box_is_circle)
print("   checked on:              the whole group, one period per fiber")
assert result.holds
print()
print("both directions round-trip.")
