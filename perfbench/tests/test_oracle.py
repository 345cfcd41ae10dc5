"""The expected answers against cases worked by hand."""

import oracle


def test_phi_and_pairs():
    # Over a chain of height 3 the pair (2, 1) is two whole copies plus one step.
    assert oracle.phi(2, 1, 3) == 7
    assert oracle.pair(7, 3) == {"m": 2, "a": 1}
    # Negative values keep the offset in 0..h-1: -5 = -2*3 + 1.
    assert oracle.pair(-5, 3) == {"m": -2, "a": 1}
    assert oracle.pair(3, 3) == {"m": 1, "a": 0}


def test_digits_closed_form():
    # x = 7, u = 3: ((7 - 0) v 0) ^ 3, ((7 - 3) v 0) ^ 3, ((7 - 6) v 0) ^ 3.
    assert oracle.digits(7, 3) == [3, 3, 1]
    assert oracle.digits(6, 3) == [3, 3]
    assert oracle.digits(0, 3) == []
    # The longer fiber sets the length; the shorter one pads with zeros.
    assert oracle.product_digits([7, 2], [3, 2]) == [(3, 2), (3, 0), (1, 0)]


def test_segment_index_is_row_major():
    # Units (3, 2): fiber values 0..3 and 0..2, so the index is 3*t0 + t1.
    assert oracle.segment_index((0, 0), [3, 2]) == 0
    assert oracle.segment_index((1, 2), [3, 2]) == 5
    assert oracle.segment_index((3, 2), [3, 2]) == 11
    assert oracle.gamma_detail([3, 2]) == {"size": 12, "zero_index": 0, "unit_index": 11}


def test_goodseq_and_member_details():
    # One fiber of height 2, unit (1, 0) = 2, element (2, 1) = 5: digits 2, 2, 1.
    detail = oracle.goodseq_detail([5], [2], [2])
    assert detail["entries"] == [2, 2, 1]
    assert detail["elements"] == [
        {"coords": [{"a": 0, "m": 1}]},
        {"coords": [{"a": 0, "m": 1}]},
        {"coords": [{"a": 1, "m": 0}]},
    ]
    assert detail["length"] == 3
    member = oracle.member_detail([-3], [2], [2])
    assert member["positive"] == []
    assert member["negative"] == [
        {"coords": [{"a": 0, "m": 1}]},
        {"coords": [{"a": 1, "m": 0}]},
    ]


def test_chain_products():
    # chain 1 * chain 1: elements (0,0) (0,1) (1,0) (1,1).
    table = oracle.chain_product_table([1, 1])
    assert table["oplus"][1][2] == 3
    assert table["neg"] == [3, 2, 1, 0]
    # Primes {x : x0 = 0} = {0, 1} (mask 3) and {x : x1 = 0} = {0, 2} (mask 5).
    assert oracle.spec_detail([1, 1])["primes"] == [[0, 1], [0, 2]]
    # chain 2 * chain 1: {x0 = 0} = {0, 1} comes first and zeroes the height-2 factor.
    assert oracle.star_detail([2, 1])["heights"] == [2, 1]
    # Over a two-element chain the only pair whose relation is nonzero is
    # (1, 1): 1 + 1 -> (1, 1) has (+) = 1, (.) = 1, so every row vanishes.
    assert oracle.relation_rows([1]) == 1
    # Height 2: (1, 1) -> (2, 0) and the rows (1, 2), (2, 1) vanish; so one
    # nonzero pair plus the zero row.
    assert oracle.relation_rows([2]) == 2
