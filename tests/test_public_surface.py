"""Every public name has a caller outside the tests, the package exports
exactly the library modules' `__all__` lists, and it imports without numpy
or its front end.

A name in a module's `__all__` counts as used when the package refers to it
outside its own definition (the `__all__` lists and the re-exports in
`__init__.py` do not count), when a demo refers to it, or when the
benchmark's tracer names it in `TRACED`.  A name that only its unit test
calls is not public API; the test fails on it.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import mvgamma

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "mvgamma"


def is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def referenced(tree: ast.AST, skip: str | None = None) -> set[str]:
    """Names and attributes read anywhere in the tree, leaving out `__all__`
    and the function or class definition called `skip`."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if is_all(node):
            continue
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return found


def traced_names() -> set[tuple[str, str]]:
    """(module, top-level name) for every entry of the tracer's TRACED."""
    tree = ast.parse((REPO / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED":
            entries = ast.literal_eval(node.value)
            return {(module, path.split(".")[0]) for _, module, path in entries}
    raise AssertionError("perfbench/tracer.py defines no TRACED")


def test_every_public_name_has_a_caller():
    modules = {
        p.stem: ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted(PACKAGE.glob("*.py"))
        if p.stem != "__init__"
    }
    refs = {stem: referenced(tree) for stem, tree in modules.items()}
    demos = set()
    for path in sorted((REPO / "demos").glob("*.py")):
        demos |= referenced(ast.parse(path.read_text(encoding="utf-8")))
    traced = traced_names()
    unused = []
    for stem, tree in modules.items():
        outside = demos.union(*(r for other, r in refs.items() if other != stem))
        public = [ast.literal_eval(n.value) for n in tree.body if is_all(n)]
        for name in public[0] if public else []:
            if name in outside or (f"mvgamma.{stem}", name) in traced:
                continue
            if name not in referenced(tree, skip=name):
                unused.append(f"{stem}.{name}")
    assert unused == []


LIBRARY = ("mv_core", "spectrum", "lgroup", "snf", "equivalence", "serialize", "sweeps")

# The names the package exported from a hand-written list; none may go.
# Three of the original 52 were removed on purpose: the window walk
# `segment_generation_check` (now a test oracle, the verdict being
# `iota_roundtrip(star).onto_segment`), its one-line `star_membership`, and
# `invariant_factors`, whose one caller, `free_quotient_experiment`, now
# states the quotient in closed form.
EXPORTED_BEFORE = """
    AxiomReport ChangChainGroup ChangPair FiniteMVAlgebra GammaSegment GoodSequence
    Ideal InternalInvariantError MVMorphism ProductLuGroup SchemaError Spectrum
    StarAlgebra SweepContext abs_decompose canonical_entries canonical_good_sequence
    check_morphism check_mv_axioms compose coordinate_ideal_checks dumps
    enumerate_ideals export_json find_morphisms free_quotient_experiment
    gamma_restriction gamma_segment generated_membership good_sequence_sum
    iota_naturality iota_roundtrip is_good_sequence is_prime_ideal
    loads make_chain make_product make_product_group make_product_many quotient
    run_all_checks smith_diagonal spectrum star_algebra star_functoriality
    star_morphism to_jsonable upsilon upsilon_naturality
""".split()


def test_package_exports_the_library_lists():
    modules = [importlib.import_module(f"mvgamma.{stem}") for stem in LIBRARY]
    expected = ["InternalInvariantError"] + [n for m in modules for n in m.__all__]
    assert mvgamma.__all__ == expected and len(set(expected)) == len(expected)
    assert all(getattr(mvgamma, n) is getattr(m, n) for m in modules for n in m.__all__)

    assert len(EXPORTED_BEFORE) == 49 and set(EXPORTED_BEFORE) <= set(mvgamma.__all__)

    # the script language, its interpreter and the command line load only
    # when asked for
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    code = (
        "import sys, mvgamma\n"
        "print([m for m in ('script', 'interp', 'cli') if f'mvgamma.{m}' in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_import_leaves_numpy_out():
    # tables are tuples of ints, and records are NamedTuples or slotted
    # classes: in a fresh interpreter, importing the package and its front
    # end loads neither numpy nor dataclasses (and with it inspect), whatever
    # the interpreter's own start-up had loaded before
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import mvgamma, mvgamma.cli\n"
        "print(sorted({'numpy', 'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def is_cached(fn: ast.FunctionDef) -> bool:
    """Whether `functools.cache` or `functools.lru_cache` decorates the definition."""
    for decorator in fn.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if getattr(decorator, "attr", getattr(decorator, "id", None)) in ("cache", "lru_cache"):
            return True
    return False


def test_cached_functions_have_one_call_form():
    # a memo keys on the form of the call: f(1, 2), f(1, b=2) and, with b=2 a
    # default, f(1) are three entries, and g(a) and g(algebra=a) are two; so
    # every cached function takes its parameters positional-only and without
    # defaults
    loose, checked = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.FunctionDef) and is_cached(node)):
                continue
            a = node.args
            named = a.posonlyargs + a.args + a.kwonlyargs
            if not (named or a.vararg or a.kwarg):
                continue
            checked.append(node.name)
            if a.args or a.kwonlyargs or a.kwarg or a.defaults:
                loose.append(f"{path.stem}.{node.name}")
    assert loose == []
    assert {"upsilon", "quotient", "find_morphisms", "_scaling"} <= set(checked)
    assert {"check_mv_axioms", "spectrum", "star_algebra", "unit_segment"} <= set(checked)


def test_the_squares_take_no_window():
    # the squares are decided on the whole group by fiber-map values, so
    # they have no bound to choose
    from mvgamma.equivalence import _routes_agree, star_functoriality, upsilon_naturality

    def params(fn):
        return tuple(inspect.signature(fn).parameters)

    assert params(star_functoriality) == ("first", "then")
    assert params(upsilon_naturality) == ("phi",)
    assert params(_routes_agree) == ("lhs", "rhs")


def test_upsilon_takes_no_window():
    # each evaluation fiber map is decided on one period and the residues of
    # the group's unit coordinate, so upsilon's certificate has no bound to
    # choose either; it reads that coordinate, not the map's step
    from mvgamma.equivalence import _fiber_certificate, upsilon

    assert tuple(inspect.signature(upsilon).parameters) == ("u",)
    assert len(inspect.signature(_fiber_certificate).parameters) == 3
