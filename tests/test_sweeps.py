"""The pair-group suite and the good-sequence certificate against their
enumeration oracles, and the sweep's size bound.

`suite_pair_groups` certifies the carry rule by transport through phi (see
`carry_rule_by_transport`).  The oracle below is the suite it replaced: it
re-derives the group and lattice laws on pairs, with meet and join read off
`leq`, over the same window.  Both must accept the real rule and reject
each carry-rule mutant.  `fiber_goodseq_case` reads uniqueness off the
segment's ⊕ table; its oracle, `goodseq_case_by_enumeration`, lists every
good sequence up to the window's lengths.
"""

import collections
import sys

import pytest

import mvgamma.equivalence as eq
import mvgamma.sweeps as sweeps
from fiber_oracles import goodseq_case_by_enumeration
from mvgamma.equivalence import good_sequence_sums_hold, upsilon
from mvgamma.lgroup import ChangChainGroup, ChangPair, chain_fiber
from mvgamma.sweeps import (
    SweepContext,
    carry_rule_by_transport,
    fiber_goodseq_case,
    generated_algebras,
    run_all_checks,
    suite_good_sequences,
    suite_naturality,
    suite_pair_groups,
    suite_spectrum_oracle,
)


def pair_laws_by_enumeration(f: ChangChainGroup) -> bool:
    """Oracle: abelian group laws, total order, translation invariance and
    the positive-part identities of the carry rule over the window of copy
    index at most 4, and phi a bijective, order-preserving homomorphism
    onto the integers there, with phi(k·x) = k·phi(x) for |k| <= 4;
    associativity and the triple laws over the slice |t| <= 2n."""
    n = f.height

    def meet(x, y):
        return x if f.leq(x, y) else y

    def join(x, y):
        return y if f.leq(x, y) else x

    zero = f.pair_of_phi(0)
    win = [f.pair_of_phi(t) for t in range(-4 * n, 4 * n + 1)]
    ok = [f.phi(x) for x in win] == list(range(-4 * n, 4 * n + 1))
    for x in win:
        if f.add(x, f.neg(x)) != zero or f.neg(f.neg(x)) != x:
            ok = False
        px, nx = join(zero, x), join(zero, f.neg(x))
        if meet(px, nx) != zero or f.add(px, f.neg(nx)) != x:
            ok = False
        if any(f.phi(f.mul(k, x)) != k * f.phi(x) for k in range(-4, 5)):
            ok = False
        for y in win:
            if f.add(x, y) != f.add(y, x):
                ok = False
            if not (f.leq(x, y) or f.leq(y, x)):
                ok = False
            if f.neg(meet(f.neg(x), f.neg(y))) != join(x, y):
                ok = False
            if f.phi(f.add(x, y)) != f.phi(x) + f.phi(y):
                ok = False
            if f.leq(x, y) != (f.phi(x) <= f.phi(y)):
                ok = False
    small = win[2 * n : 6 * n + 1]
    for x in small:
        for y in small:
            for z in small:
                if f.add(f.add(x, y), z) != f.add(x, f.add(y, z)):
                    ok = False
                if f.add(x, join(y, z)) != join(f.add(x, y), f.add(x, z)):
                    ok = False
                if f.leq(y, z) != f.leq(f.add(x, y), f.add(x, z)):
                    ok = False
    return ok


@pytest.mark.parametrize("n", range(1, 9))
def test_real_carry_rule_passes_both_routes(n):
    assert carry_rule_by_transport(chain_fiber(n))
    assert pair_laws_by_enumeration(chain_fiber(n))


# -- carry-rule mutants, each wrong at one copy index --------------------------

ADD, NEG = ChangChainGroup.add, ChangChainGroup.neg
LEQ, MUL = ChangChainGroup.leq, ChangChainGroup.mul


def early_carry(self, x, y):
    """Adding copy index -1 to copy index 1, carries when the offsets reach
    one step below the top.  `mul` never adds pairs of opposite signs, so
    only the comparison of sums can see this."""
    if (x.m, y.m) == (1, -1) and self.rank[self.chain.oplus[x.a][y.a]] == self.height - 1:
        return ChangPair(x.m + y.m + 1, self.chain.odot[x.a][y.a])
    return ADD(self, x, y)


def unnormalized_neg(self, x):
    """Writes -(2, 0) = (-2, 0) as (-3, top): the right integer, the wrong pair."""
    if x == (2, 0):
        return ChangPair(-3, self.top)
    return NEG(self, x)


def flat_copy_order(self, x, y):
    """Within copy index 1 every pair is below every other."""
    return (x.m == y.m == 1) or LEQ(self, x, y)


def mul_one_off(self, k, x):
    """-4·x comes out as -3·x."""
    if k == -4:
        return self.add(MUL(self, k, x), x)
    return MUL(self, k, x)


MUTANTS = {
    "add": early_carry,
    "neg": unnormalized_neg,
    "leq": flat_copy_order,
    "mul": mul_one_off,
}


@pytest.mark.parametrize("name", MUTANTS)
def test_carry_rule_mutant_fails_both_routes(monkeypatch, name):
    monkeypatch.setattr(ChangChainGroup, name, MUTANTS[name])
    # heights 2..5: a copy of the 1-step chain holds one pair, so there the
    # order mutant is the rule itself
    for n in range(2, 6):
        assert not carry_rule_by_transport(chain_fiber(n))
        assert not pair_laws_by_enumeration(chain_fiber(n))
    assert not suite_pair_groups(SweepContext(16, 4)).ok


# -- the size bound -------------------------------------------------------------


@pytest.mark.parametrize("n", [81, 10**6])
def test_max_size_saturates_at_81(n):
    # chains stop at 8 steps and binary products at 9·9 elements, so no
    # larger --max-size changes what a sweep generates; nothing is swept here
    assert generated_algebras(80) != generated_algebras(81)
    assert all(a is b for a, b in zip(generated_algebras(n), generated_algebras(81), strict=True))
    big, cap = vars(SweepContext(n)), vars(SweepContext(81))
    assert big.pop("max_size") == n and cap.pop("max_size") == 81
    assert big == cap


# -- segment work per unit ------------------------------------------------------


def test_sweep_certifies_each_unit_once(fresh_memos):
    # upsilon reads only the unit: the 39 group units of the sweep and the
    # chain units 4..8 (1..3 are group units too); the good-sequence sums run
    # on the 4 two-fiber units of height at most 2 and on the fiber units
    # (1,), (2,) and (3,)
    assert all(suite.ok for suite in run_all_checks(16, 4))
    assert upsilon.cache_info().misses == 44
    assert good_sequence_sums_hold.cache_info().misses == 7


# -- good sequences by the segment table ----------------------------------------


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_goodseq_certificate_matches_the_enumeration(h):
    for window in range(1, 6):
        assert fiber_goodseq_case(h, window)
        assert goodseq_case_by_enumeration(h, window)


def accept_every_pair(monkeypatch):
    def accepts(algebra, entries):
        return all(0 <= e < algebra.size for e in entries)

    monkeypatch.setattr(eq, "is_good_sequence", accepts)
    monkeypatch.setattr(sweeps, "is_good_sequence", accepts)


def first_run_one_too_long(monkeypatch):
    entries = eq.canonical_entries

    def longer(u, x):
        runs = entries(u, x)
        return ((runs[0][0] + 1, runs[0][1]),) + runs[1:] if runs else runs

    monkeypatch.setattr(eq, "canonical_entries", longer)


def sum_drops_the_last_run(monkeypatch):
    total = eq.good_sequence_sum
    monkeypatch.setattr(eq, "good_sequence_sum", lambda seg, runs: total(seg, list(runs)[:-1]))


def rejects(case, h, window):
    """False from a good-sequence case, or a `GoodSequence` refusing its
    entries (the absorption law) on the way."""
    try:
        return not case(h, window)
    except ValueError as exc:
        assert "absorption" in str(exc)
        return True


@pytest.mark.parametrize(
    "mutant", [accept_every_pair, first_run_one_too_long, sum_drops_the_last_run]
)
def test_goodseq_mutants_fail_both_versions(mutant, monkeypatch, fresh_memos):
    mutant(monkeypatch)
    for h in (1, 2, 3):
        for window in (1, 2, 3):
            assert rejects(fiber_goodseq_case, h, window)
            assert rejects(goodseq_case_by_enumeration, h, window)


@pytest.mark.parametrize("window", [4, 8])
def test_good_sequences_read_each_fiber_table_once(window, monkeypatch, fresh_memos):
    # (h + 1)² pairs for each fiber unit h = 1..3, whatever the window; the
    # enumeration called it 1,296 times at window 4 and 282,336 at window 8
    calls = []
    is_good = sweeps.is_good_sequence
    monkeypatch.setattr(
        sweeps, "is_good_sequence", lambda a, entries: calls.append(entries) or is_good(a, entries)
    )
    assert suite_good_sequences(SweepContext(16, window)).ok
    assert len(calls) <= sum((h + 1) ** 2 for h in (1, 2, 3)) == 29
    assert all(len(entries) == 2 for entries in calls)


# -- what the product walks no longer call --------------------------------------------


def count_calls(monkeypatch, module, names):
    """Count the calls of each named function of the module, wherever a
    module of the package binds it, through its `__wrapped__` too."""
    calls = collections.Counter()
    for name in names:
        original = getattr(module, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        counted.__wrapped__ = counted
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("mvgamma") and (
                getattr(other, name, None) is original
            ):
                monkeypatch.setattr(other, name, counted)
    return calls


def test_a_fresh_naturality_suite_walks_no_pair(monkeypatch, fresh_memos):
    # the composition squares are certified per morphism and per chain
    # triple: no morphism is composed and no pair's square is walked; the
    # 306 route comparisons are the evaluation squares'
    names = ("compose", "star_functoriality", "_routes_agree")
    calls = count_calls(monkeypatch, eq, names)
    result = suite_naturality(SweepContext(16, 4))
    assert (result.ok, result.cases) == (True, 2254)
    assert calls == {"_routes_agree": 306}


def test_a_fresh_spectrum_oracle_suite_asks_no_ideal_violations(monkeypatch, fresh_memos):
    calls = count_calls(monkeypatch, sys.modules["mvgamma.spectrum"], ("ideal_violations",))
    result = suite_spectrum_oracle(SweepContext(16, 4))
    assert (result.ok, result.cases, calls) == (True, 15, {})
