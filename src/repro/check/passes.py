"""The checker pipeline: structural passes, domains, cost prediction.

:func:`check_problem` is the front door used by ``dprle check``, the
analyzer, and the test suite.  It layers three families of passes over
one dependency graph:

1. **Structural** — unused and indirectly-constrained variables,
   duplicate / subsumed / self-subsuming subset edges, empty
   right-hand sides, unsupported concatenation cycles.
2. **Abstract domains** — :mod:`repro.check.domains` evaluated to a
   fixpoint; nodes proved empty and instances proved unsatisfiable
   become diagnostics, and every node's facts land in the report.
3. **Cost** — :mod:`repro.check.cost` estimates each CI-group's
   bridge-combination ceiling and warns (with a concrete mitigation)
   when it crosses :attr:`CheckLimits.explosion_threshold`.

All passes are product-free: nothing here determinizes, complements,
or intersects automata bigger than the parsed constants themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..automata.equivalence import is_subset
from ..constraints.depgraph import DepGraph, SubsetEdge, build_graph
from ..constraints.dsl import DslError
from ..constraints.terms import Problem
from .cost import estimate_group
from .diagnostics import CheckReport, Diagnostic
from .domains import GraphAbstraction, evaluate_graph, render_charset

__all__ = ["CheckLimits", "check_problem", "report_from_error"]


@dataclass(frozen=True)
class CheckLimits:
    """Knobs bounding the checker's own work.

    ``explosion_threshold`` is the predicted ``gci.combinations_total``
    above which a D100 warning fires.  It sits between the ceilings of
    the two calibration files: ``wide.dprle`` (2,025) stays quiet and
    ``warn_wide.dprle`` (3,249) warns.  ``max_inclusion_states`` caps
    the constant-machine size for which the (exact) pairwise
    subsumed-constraint scan runs; bigger constants skip the scan so
    the checker stays product-free in spirit and linear in practice.
    """

    explosion_threshold: int = 2500
    max_inclusion_states: int = 256


def check_problem(
    problem: Problem,
    limits: Optional[CheckLimits] = None,
) -> CheckReport:
    """Run every pre-solve pass over a parsed problem."""
    limits = limits or CheckLimits()
    report = CheckReport()
    graph, _var_nodes = build_graph(problem)
    source_map = getattr(problem, "source_map", None)

    _structural_passes(report, problem, graph, source_map, limits)
    cyclic = _cycle_pass(report, graph)
    abstraction = evaluate_graph(graph)
    _domain_pass(report, graph, abstraction, cyclic)
    _cost_pass(report, graph, limits, cyclic)
    return report


def report_from_error(error: DslError) -> CheckReport:
    """A report holding exactly one parse diagnostic (D00x)."""
    report = CheckReport()
    code = getattr(error, "code", "D001")
    report.add(
        Diagnostic.make(code, error.message, line=error.line)
    )
    return report


# -- structural passes ------------------------------------------------------


def _structural_passes(
    report: CheckReport,
    problem: Problem,
    graph: DepGraph,
    source_map: Optional[object],
    limits: CheckLimits,
) -> None:
    used = {var.name for var in problem.variables()}
    decl_lines: dict[str, int] = {}
    const_lines: dict[str, int] = {}
    if source_map is not None:
        decl_lines = dict(getattr(source_map, "var_decls", {}))
        const_lines = dict(getattr(source_map, "const_defs", {}))
        for name in sorted(decl_lines):
            if name not in used:
                report.add(
                    Diagnostic.make(
                        "D010",
                        f"variable {name!r} is declared but never used "
                        "in any constraint",
                        line=decl_lines[name],
                        node=name,
                        hint="remove the declaration, or constrain the "
                        "variable",
                    )
                )

    for node in graph.var_nodes():
        if graph.in_some_concat(node) and not graph.inbound_subsets(node):
            report.add(
                Diagnostic.make(
                    "D011",
                    f"variable {node.name!r} has no direct subset "
                    "constraint; it is constrained only through "
                    "concatenations",
                    line=decl_lines.get(node.name),
                    node=node.name,
                )
            )

    seen_edges: dict[tuple[str, str], Optional[int]] = {}
    for edge in graph.subset_edges:
        key = (edge.source.name, edge.target.name)
        line = getattr(edge, "line", None)
        if key in seen_edges:
            report.add(
                Diagnostic.make(
                    "D012",
                    f"duplicate constraint: {edge.target} ⊆ "
                    f"{edge.source.name} already required"
                    + (
                        f" at line {seen_edges[key]}"
                        if seen_edges[key]
                        else ""
                    ),
                    line=line,
                    node=edge.target.name,
                    hint="drop the repeated constraint",
                )
            )
            continue
        seen_edges[key] = line

        if edge.source == edge.target:
            report.add(
                Diagnostic.make(
                    "D014",
                    f"constraint {edge.target.name} ⊆ {edge.source.name} "
                    "subsumes itself and is always satisfied",
                    line=line,
                    node=edge.target.name,
                )
            )
        machine = graph.machine(edge.source)
        if machine.is_empty():
            report.add(
                Diagnostic.make(
                    "D015",
                    f"right-hand side {edge.source.name!r} denotes the "
                    f"empty language; {edge.target} is forced to ∅",
                    line=line
                    if line is not None
                    else const_lines.get(edge.source.name),
                    node=edge.target.name,
                )
            )

    _subsumed_pass(report, graph, limits)


def _subsumed_pass(
    report: CheckReport, graph: DepGraph, limits: CheckLimits
) -> None:
    """Flag inbound constraints made redundant by a strictly tighter
    sibling on the same node (an exact inclusion check on the constant
    machines, gated by size so the pass stays cheap)."""
    by_target: dict[str, list[SubsetEdge]] = {}
    for edge in graph.subset_edges:
        by_target.setdefault(edge.target.name, []).append(edge)
    for _target, edges in sorted(by_target.items()):
        if len(edges) < 2:
            continue
        machines = {e.source.name: graph.machine(e.source) for e in edges}
        if any(
            m.num_states > limits.max_inclusion_states
            for m in machines.values()
        ):
            continue
        names = sorted(machines)
        for edge in edges:
            wide = edge.source.name
            for narrow in names:
                if narrow == wide:
                    continue
                # `narrow ⊆ wide` but not conversely: the `wide`
                # constraint adds nothing on this node.
                if is_subset(machines[narrow], machines[wide]) and not (
                    is_subset(machines[wide], machines[narrow])
                ):
                    report.add(
                        Diagnostic.make(
                            "D013",
                            f"constraint {edge.target} ⊆ {wide} is "
                            f"subsumed by the tighter {edge.target} ⊆ "
                            f"{narrow}",
                            line=getattr(edge, "line", None),
                            node=edge.target.name,
                            hint="drop the wider constraint",
                        )
                    )
                    break


def _cycle_pass(report: CheckReport, graph: DepGraph) -> bool:
    """Report concatenation cycles (the paper's procedure requires the
    temporaries of each CI-group to order topologically)."""
    cyclic = False
    for group in graph.ci_groups():
        try:
            graph.group_temps_in_order(group)
        except ValueError:
            cyclic = True
            names = ", ".join(sorted(n.name for n in group))
            report.add(
                Diagnostic.make(
                    "D016",
                    "unsupported dependency cycle among concatenation "
                    f"temporaries in CI-group {{{names}}}",
                    hint="break the cycle by introducing a fresh "
                    "variable",
                )
            )
    return cyclic


# -- domain pass ------------------------------------------------------------


def _domain_pass(
    report: CheckReport,
    graph: DepGraph,
    abstraction: GraphAbstraction,
    cyclic: bool,
) -> None:
    for node in sorted(graph.nodes, key=lambda n: (n.kind, n.name)):
        value = abstraction.value(node)
        report.domains[node.name] = {
            "kind": node.kind,
            "length": value.length.to_list(),
            "chars": render_charset(value.chars),
            "empty": value.is_empty(),
        }

    for node in graph.var_nodes():
        if abstraction.proved_empty(node):
            report.add(
                Diagnostic.make(
                    "D020",
                    f"variable {node.name!r} is proved empty by the "
                    "abstract domains: no string satisfies all of its "
                    "constraints",
                    node=node.name,
                )
            )

    if cyclic:
        return  # group solvability is undefined on cyclic graphs
    for group in graph.ci_groups():
        witness = abstraction.unsat_witness(group)
        if witness is not None:
            names = ", ".join(sorted(n.name for n in group if n.is_var))
            report.add(
                Diagnostic.make(
                    "D021",
                    "instance proved unsatisfiable: node "
                    f"{witness.name!r} of the CI-group over {{{names}}} "
                    "admits no strings under the length/character "
                    "domains",
                    node=witness.name,
                )
            )


# -- cost pass --------------------------------------------------------------


def _cost_pass(
    report: CheckReport,
    graph: DepGraph,
    limits: CheckLimits,
    cyclic: bool,
) -> None:
    if cyclic:
        return
    for estimate in (
        estimate_group(graph, group) for group in graph.ci_groups()
    ):
        entry = estimate.to_dict()
        warned = estimate.estimated_combinations > limits.explosion_threshold
        entry["warned"] = warned
        report.groups.append(entry)
        if warned:
            variables = ", ".join(estimate.variables) or "<none>"
            report.add(
                Diagnostic.make(
                    "D100",
                    "CI-group over {"
                    + variables
                    + f"}} predicts up to "
                    f"{estimate.estimated_combinations} bridge "
                    "combinations "
                    f"(threshold {limits.explosion_threshold})",
                    hint="bound the enumeration with --max-solutions 1, "
                    "or fan it out with --workers N "
                    "(docs/PARALLELISM.md)",
                )
            )
