"""Shared fixtures."""

import sys

import pytest

import mvgamma.cli  # noqa: F401  (loads every module of the package)

# Every `functools.cache` of the package, taken before any test can patch a
# module binding over one of them.
MEMOS = {
    id(value): value
    for name, module in sorted(sys.modules.items())
    if name == "mvgamma" or name.startswith("mvgamma.")
    for value in vars(module).values()
    if callable(getattr(value, "cache_clear", None))
}.values()


def clear_memos() -> None:
    """Empty every memo of the package."""
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture
def fresh_memos():
    """Empty the package's memos before and after the test, so that no
    result cached by another test, or before a patch, can hide a mutant.
    The test gets `clear_memos` itself for a clear between a clean run and
    the patch, or after undoing the patch."""
    clear_memos()
    yield clear_memos
    clear_memos()
