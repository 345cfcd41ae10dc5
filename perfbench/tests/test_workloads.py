"""The generators: same seed, same inputs; other seed, other values but the
same amount of work."""

import pytest

import workloads


@pytest.mark.parametrize("name", ["digits", "carriers"])
def test_same_seed_same_script(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert a.script == b.script
    assert a.expected == b.expected


@pytest.mark.parametrize("name", ["digits", "carriers"])
def test_seed_changes_values_not_shape(name):
    a, b = workloads.build(name, 1), workloads.build(name, 2)
    assert a.script != b.script
    assert [(e.command, e.line) for e in a.expected] == [
        (e.command, e.line) for e in b.expected
    ]


def test_digits_counts():
    wl = workloads.build("digits", 3)
    kinds = [e.command for e in wl.expected]
    assert kinds.count("goodseq") == 36
    assert kinds.count("member") == 36
    assert kinds.count("gamma") == 6


def test_carrier_sizes_are_fixed():
    sizes = [
        [e.detail["size"] for e in workloads.build("carriers", s).expected if e.command == "freequotient"]
        for s in (1, 2)
    ]
    assert sizes[0] == sizes[1]
    tables = [workloads.build("carriers", s).script.count("= table") for s in (1, 2)]
    assert tables == [8, 8]


def test_sweep_ignores_the_seed():
    assert workloads.build("sweep", 1) == workloads.build("sweep", 2)
