"""Execution of parsed scripts: bind names, dispatch commands, build a report.

Statements reach their handlers by type, and commands by kind, as parsed.

Failure taxonomy (process exit codes in parentheses):

  * parse errors never reach this module — the parser raises first (2);
  * semantic errors (3): a definition or command whose inputs are the wrong
    kind or break a law at binding time — a morphism that fails the morphism
    laws, a table that fails the axioms, a negative element where a nonnegative
    one is required, an element or unit of the wrong arity, an unwritable
    export path, a window below 1 or above MAX_WINDOW = 8 or a max size below
    2, a carrier above MAX_CARRIER = 256 elements (a chain, product or table
    algebra, a fiber chain, or a group's unit segment), rejected before it is
    built, and a good sequence or membership witness of more than MAX_LISTED =
    100,000 entries, rejected before it is listed;
  * command failures (1): well-posed checks whose verdict is negative — a
    non-member, a failed round trip, a non-isomorphic free quotient;
  * internal invariant breaches (4) propagate as InternalInvariantError.

A failing command does not stop the run; every command reports an outcome
and the overall verdict is "pass" exactly when all of them passed.  An
outcome, and each command's detail inside it, is a plain dict whose keys are
the report's keys; a detail may hold package values (carry pairs, reports,
good sequences as `Runs` of (count, value)) as they are, and `dumps` lowers
them when the report is written.  Reports contain no timing or environment
data: the same script and config produce byte-identical JSON.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

from .equivalence import (
    coordinate_ideal_checks,
    canonical_good_sequence,
    free_quotient_experiment,
    generated_membership,
    good_sequence_sum,
    good_sequence_sums_hold,
    iota_naturality,
    iota_roundtrip,
    star_algebra,
    upsilon,
)
from .errors import InternalInvariantError
from .lgroup import ProductLuGroup, chain_fiber, gamma_segment, make_product_group
from .mv_core import (
    FiniteMVAlgebra,
    MVMorphism,
    check_morphism,
    check_mv_axioms,
    make_chain,
    make_product_many,
)
from .script import (
    AlgebraDef,
    ChainExpr,
    Command,
    GroupDef,
    HomDef,
    NameExpr,
    ProductExpr,
    Script,
)
from .serialize import (
    Runs,
    SchemaError,
    algebra_from_json,
    element_from_json,
    export_json,
)
from .spectrum import (
    SUBSET_ORACLE_CAP,
    enumerate_ideals,
    ideals_by_subset_filter,
)
from .sweeps import run_all_checks

__all__ = ["RunConfig", "SemanticError", "RunReport", "execute"]

# At the cap, in process, a lawful table builds and checks in about 10 ms, a
# random one in 0.08-0.11 s, one with a single neg entry off (associative, so
# every triple is checked) in 0.32-0.36 s, and freequotient in 0.04-0.13 s.
MAX_CARRIER = 256
# `check all` sums good sequences over the window, linear in it: cold,
# `check-all --max-size 16` took 0.27-0.44 s at window 8, as at window 4.
# `check G` sums them only to bound min(2, window): they number
# (bound·u_t + 1)^k, and eight fibers of unit 1 would need 9^8 at window 8.
MAX_WINDOW = 8
# Good-sequence entries a report lists: 10^5 took 0.54 s cold and 139 MB for a
# two-fiber `goodseq` plus `member`; digits' longest sequence has 3,163.
MAX_LISTED = 10**5


class RunConfig(NamedTuple):
    max_size: int = 12
    window: int = 4


class SemanticError(ValueError):
    """A statement whose meaning is ill-formed; carries the line and a
    counterexample payload that `dumps` can write."""

    def __init__(self, message: str, line: int, counterexample: Any = None):
        self.line = line
        self.counterexample = counterexample
        super().__init__(f"{message} (line {line})")


def _capped(value: int, cap: int, line: int, what: str, key: str) -> int:
    """value, or a SemanticError saying what it is when it is above cap."""
    if value > cap:
        raise SemanticError(f"{what}, above the cap of {cap}", line, {key: value, "cap": cap})
    return value


class RunReport:
    """The run's config and one outcome per command, in script order, which
    the run appends to.  An outcome is the dict the report prints: command,
    line, target, status ("pass" or "fail") and detail, a plain dict or a
    report object whose package values `dumps` lowers."""

    __slots__ = ("config", "outcomes")

    def __init__(self, config: RunConfig, outcomes: list[dict] | None = None):
        self.config = config
        self.outcomes = [] if outcomes is None else outcomes

    @property
    def overall(self) -> str:
        return "pass" if all(o["status"] == "pass" for o in self.outcomes) else "fail"

    @property
    def exit_code(self) -> int:
        return 0 if self.overall == "pass" else 1

    def as_json(self) -> dict:
        return {
            "config": self.config._asdict(),
            "commands": self.outcomes,
            "overall": self.overall,
        }


class _Runner:
    def __init__(self, config: RunConfig):
        self.config = config
        self.env: dict[str, tuple[str, Any]] = {}
        self.report = RunReport(config)

    # -- helpers --

    def value(self, name: str, kinds: tuple[str, ...], line: int):
        kind, value = self.env[name]
        if kind not in kinds:
            raise SemanticError(
                f"{name!r} has kind {kind!r}; this command needs "
                + " or ".join(repr(k) for k in kinds),
                line,
                {"name": name, "kind": kind},
            )
        return kind, value

    def bound(self, cmd: Command, name: str, least: int) -> int:
        """A command's `window` or `max_size`: its own flag, else the config's."""
        value = getattr(cmd, name)
        value = getattr(self.config, name) if value is None else value
        if value < least:
            raise SemanticError(f"{name} must be at least {least}", cmd.line, {name: value})
        if name == "window":
            _capped(value, MAX_WINDOW, cmd.line, f"window {value}", name)
        return value

    def listed(self, cmd: Command, *runs) -> int:
        """How many entries runs (count, value) list; above MAX_LISTED a SemanticError."""
        length = sum(n for part in runs for n, _ in part)
        return _capped(length, MAX_LISTED, cmd.line, f"{length} good-sequence entries", "length")

    def check_carrier(self, size: int, line: int, what: str) -> None:
        _capped(size, MAX_CARRIER, line, f"{what} would have {size} elements", "size")

    def element_in(self, group: ProductLuGroup, raw: Any, line: int):
        try:
            coords = element_from_json(raw)
        except SchemaError as exc:
            raise SemanticError(f"bad element literal: {exc}", line, raw) from exc
        try:
            return group.from_pairs(coords)  # the arity and each offset
        except ValueError as exc:
            raise SemanticError(f"bad element: {exc}", line, raw) from exc

    # -- definitions --

    def eval_algebra_expr(self, expr, line: int) -> FiniteMVAlgebra:
        if isinstance(expr, ChainExpr):
            if expr.height < 1:
                raise SemanticError(
                    "chain height must be at least 1", line, {"height": expr.height}
                )
            self.check_carrier(expr.height + 1, line, "chain")
            return make_chain(expr.height)
        if isinstance(expr, NameExpr):
            return self.value(expr.name, ("algebra",), line)[1]
        if isinstance(expr, ProductExpr):  # the factors are atoms, capped from the left
            factors = [self.eval_algebra_expr(expr.factors[0], line)]
            for atom in expr.factors[1:]:
                factors.append(self.eval_algebra_expr(atom, line))
                self.check_carrier(math.prod(f.size for f in factors), line, "product")
            return make_product_many(factors)  # one table, which the decomposition finds again
        size = expr.obj.get("size") if isinstance(expr.obj, dict) else None  # a TableExpr
        if isinstance(size, int):
            self.check_carrier(size, line, "table")
        try:
            a = algebra_from_json(expr.obj)
        except SchemaError as exc:
            raise SemanticError(f"bad table: {exc}", line, expr.obj) from exc
        report = check_mv_axioms(a)
        if not report.ok:
            raise SemanticError(
                f"table violates the {report.violations[0][0]} axiom",
                line,
                {"violations": [[n, list(w)] for n, w in report.violations[:5]]},
            )
        return a

    def define_algebra(self, stmt: AlgebraDef):
        self.env[stmt.name] = ("algebra", self.eval_algebra_expr(stmt.expr, stmt.line))

    def define_hom(self, stmt: HomDef):
        _, dom = self.value(stmt.dom, ("algebra",), stmt.line)
        _, cod = self.value(stmt.cod, ("algebra",), stmt.line)
        mapping = [-1] * dom.size
        for a, b in stmt.pairs:
            if not 0 <= a < dom.size:
                raise SemanticError(f"index {a} outside the domain carrier", stmt.line, [a, b])
            if not 0 <= b < cod.size:
                raise SemanticError(f"value {b} outside the codomain carrier", stmt.line, [a, b])
            if mapping[a] != -1:
                raise SemanticError(f"index {a} mapped twice", stmt.line, [a, b])
            mapping[a] = b
        missing = [a for a, v in enumerate(mapping) if v == -1]
        if missing:
            raise SemanticError(
                f"map leaves domain index {missing[0]} unassigned", stmt.line, missing
            )
        h = MVMorphism(dom, cod, tuple(mapping))
        report = check_morphism(h)
        if not report.ok:
            raise SemanticError(
                f"map breaks the {report.violations[0][0]} law",
                stmt.line,
                {
                    "map": list(h.map),
                    "violations": [[n, list(w)] for n, w in report.violations[:5]],
                },
            )
        self.env[stmt.name] = ("hom", h)

    def define_group(self, stmt: GroupDef):
        for s in stmt.sizes:
            if s < 2:
                raise SemanticError(f"fiber chain size {s} is too small", stmt.line, s)
            self.check_carrier(s, stmt.line, "fiber chain")
        fibers = [chain_fiber(s - 1) for s in stmt.sizes]
        try:
            g = make_product_group(fibers, stmt.unit)  # the unit count and each pair
        except ValueError as exc:
            raise SemanticError(f"bad unit: {exc}", stmt.line, list(map(list, stmt.unit))) from exc
        self.check_carrier(math.prod(t + 1 for t in g.u), stmt.line, "unit segment")
        self.env[stmt.name] = ("group", g)

    # -- commands --

    def run_command(self, cmd: Command):
        """Run one command and append its outcome: a dict holding the
        command's detail as the handler returned it, unlowered."""
        passed, detail = getattr(self, f"cmd_{cmd.kind}")(cmd)
        self.report.outcomes.append(
            {
                "command": cmd.kind,
                "line": cmd.line,
                "target": cmd.name,
                "status": "pass" if passed else "fail",
                "detail": detail,
            }
        )

    def cmd_spec(self, cmd: Command):
        _, a = self.value(cmd.name, ("algebra",), cmd.line)
        star = star_algebra(a)
        detail = {
            "primes": [sorted(p.members) for p in star.spec.primes],
            "count": len(star.spec.primes),
            "embedding_injective": star.injective,
        }
        return star.injective, detail

    def cmd_star(self, cmd: Command):
        _, a = self.value(cmd.name, ("algebra",), cmd.line)
        star = star_algebra(a)
        detail = {
            "fibers": star.ambient.k,
            "heights": [f.height for f in star.ambient.fibers],
            "unit": star.ambient.to_pairs(star.ambient.u),
            "injective": star.injective,
        }
        return star.injective, detail

    def cmd_gamma(self, cmd: Command):
        _, g = self.value(cmd.name, ("group",), cmd.line)
        seg = gamma_segment(g)
        detail = {
            "size": seg.algebra.size,
            "zero_index": seg.index[g.zero],
            "unit_index": seg.index[g.u],
        }
        return True, detail

    def cmd_roundtrip(self, cmd: Command):
        kind, value = self.value(cmd.name, ("algebra", "group"), cmd.line)
        window = self.bound(cmd, "window", 1)  # refused out of range on both sides
        if kind == "algebra":
            report = iota_roundtrip(star_algebra(value))
            return report.holds, {**report._asdict(), "window_generated": report.onto_segment}
        result = upsilon(value.u)
        window_elements = math.prod(2 * window * up + 1 for up in value.u)
        return result.holds, {**result._asdict(), "window_elements": window_elements}

    def cmd_goodseq(self, cmd: Command):
        kind, value = self.value(cmd.name, ("algebra", "group"), cmd.line)
        group = value if kind == "group" else star_algebra(value).ambient
        seg = gamma_segment(group)
        x = self.element_in(group, cmd.element, cmd.line)
        if not group.leq(group.zero, x):
            raise SemanticError(
                "only nonnegative elements have good sequences", cmd.line, group.to_pairs(x)
            )
        gs = canonical_good_sequence(seg, x)
        if good_sequence_sum(seg, gs.runs) != x:
            raise InternalInvariantError("canonical sequence lost its sum")
        length = self.listed(cmd, gs.runs)
        detail = {
            "entries": Runs(gs.runs),
            "elements": Runs((n, group.to_pairs(seg.elements[e])) for n, e in gs.runs),
            "length": length,
        }
        return True, detail

    def cmd_member(self, cmd: Command):
        kind, value = self.value(cmd.name, ("algebra", "group", "hom"), cmd.line)
        if kind == "group":
            group, allowed = value, gamma_segment(value).index
        elif kind == "algebra":
            star = star_algebra(value)
            group, allowed = star.ambient, star.circle_index
        else:  # the subgroup generated by the image of a morphism
            star = star_algebra(value.cod)
            group, allowed = star.ambient, {star.a_circle[b] for b in value.map}
        x = self.element_in(group, cmd.element, cmd.line)
        witness = generated_membership(group, allowed, x)
        self.listed(cmd, witness.positive, witness.negative)
        detail = {
            "member": witness.member,
            "positive": Runs((n, group.to_pairs(x)) for n, x in witness.positive),
            "negative": Runs((n, group.to_pairs(x)) for n, x in witness.negative),
        }
        if witness.missing is not None:
            detail["missing"] = group.to_pairs(witness.missing)
        return witness.member, detail

    def cmd_freequotient(self, cmd: Command):
        _, a = self.value(cmd.name, ("algebra",), cmd.line)
        report = free_quotient_experiment(a, identify_zero=not cmd.keep_zero)
        return report.isomorphic, report

    def cmd_check(self, cmd: Command):
        window = self.bound(cmd, "window", 1)
        if cmd.name == "all":
            max_size = self.bound(cmd, "max_size", 2)
            suites = run_all_checks(max_size=max_size, window=window)
            return all(s.ok for s in suites), {"suites": [s.as_json() for s in suites]}
        kind, value = self.value(cmd.name, ("algebra", "group", "hom"), cmd.line)
        if kind == "algebra":
            axioms = check_mv_axioms(value).ok
            round_trip = iota_roundtrip(star_algebra(value)).holds
            detail = {"axioms": axioms, "iota_roundtrip": round_trip}
            if value.size <= SUBSET_ORACLE_CAP:
                detail["ideal_oracle"] = enumerate_ideals(value) == ideals_by_subset_filter(value)
            return all(detail.values()), detail
        if kind == "hom":
            law = check_morphism(value).ok
            square = iota_naturality(value).ok
            detail = {"morphism_law": law, "iota_square": square}
            return law and square, detail
        detail = {
            "upsilon": upsilon(value.u).holds,
            "coordinate_ideals": all(r.holds for r in coordinate_ideal_checks(value.u)),
            "good_sequence_sums": good_sequence_sums_hold(value.u, min(2, window)),
        }
        return all(detail.values()), detail

    def cmd_export(self, cmd: Command):
        _, value = self.value(cmd.name, ("algebra", "group", "hom"), cmd.line)
        try:
            export_json(value, cmd.path)
        except OSError as exc:
            raise SemanticError(
                f"cannot write {cmd.path!r}: {exc}", cmd.line, {"path": cmd.path}
            ) from exc
        return True, {"path": cmd.path}


# The handler of each statement type the parser emits; a command's is `cmd_<kind>`.
_HANDLERS = {
    AlgebraDef: _Runner.define_algebra,
    HomDef: _Runner.define_hom,
    GroupDef: _Runner.define_group,
    Command: _Runner.run_command,
}


def execute(script: Script, config: RunConfig | None = None) -> RunReport:
    """Run a parsed script.  Returns the report; raises SemanticError for
    ill-formed statements and lets InternalInvariantError propagate."""
    runner = _Runner(config or RunConfig())
    for stmt in script.statements:
        _HANDLERS[type(stmt)](runner, stmt)
    return runner.report
