"""The general constraint-solving algorithm (paper Fig. 7).

Solving a dependency graph proceeds in the paper's three stages:

1. *Basic constraints* — variables with only subset constraints (no
   concatenation edges) are resolved by intersecting their inbound
   constants in topological order (``sort_acyclic_nodes`` + ``reduce``);
   this never forks the worklist.
2. *CI-groups* — each connected component of concatenation edges is
   eliminated by the generalized CI procedure (:mod:`repro.solver.gci`),
   which may produce several disjunctive solutions; the first solution
   continues the current work item and the rest are appended to the
   worklist (Fig. 7 lines 11-15).
3. *Termination* — a work item whose groups are all eliminated yields a
   complete assignment.  Following the paper (lines 16-23), an
   assignment that maps a queried variable to ∅ does not count as
   success; if every work item ends that way the instance is reported
   unsatisfiable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Optional

from .. import obs
from ..automata import ops
from ..automata.dfa import minimize_nfa
from ..automata.equivalence import is_subset
from ..automata.nfa import Nfa
from ..cache import LangCache, active_cache
from ..constraints.depgraph import DepGraph, build_graph
from ..constraints.terms import Problem
from .assignments import Assignment, SolutionSet
from .gci import GciLimits, group_solutions

__all__ = ["solve", "solve_graph"]


def solve(
    problem: Problem,
    query: Optional[list[str]] = None,
    max_solutions: Optional[int] = None,
    limits: Optional[GciLimits] = None,
    only: Optional[list[str]] = None,
) -> SolutionSet:
    """Find the disjunctive satisfying assignments for an RMA instance.

    ``query`` is the paper's node set ``S``: the variables that must be
    non-empty for the result to count as satisfiable (default: all).
    ``max_solutions`` bounds the enumeration; the first solution is
    always found without enumerating the rest (Sec. 3.5's observation).

    ``only`` solves just the part of the dependency graph a client
    analysis cares about (paper Sec. 4: "the possibility of solving
    either part or all of the graph depending on the needs of the
    client analysis"): CI-groups and basic variables that involve none
    of the named variables are skipped entirely, and the returned
    assignments cover only the reachable part.
    """
    graph, _ = build_graph(problem)
    variable_names = [v.name for v in problem.variables()]
    if only is not None:
        unknown = set(only) - {v.name for v in problem.variables()}
        if unknown:
            raise ValueError(f"unknown variables in `only`: {sorted(unknown)}")
        variable_names = [n for n in variable_names if n in set(only)]
    return solve_graph(
        graph,
        variable_names,
        query=query,
        max_solutions=max_solutions,
        limits=limits,
        only=only,
    )


def solve_graph(
    graph: DepGraph,
    variable_names: list[str],
    query: Optional[list[str]] = None,
    max_solutions: Optional[int] = None,
    limits: Optional[GciLimits] = None,
    only: Optional[list[str]] = None,
) -> SolutionSet:
    """Solve a pre-built dependency graph (Fig. 7's entry point).

    When ``limits.cache`` requests a language cache and none is active
    yet, one is activated for the duration of this solve (solver-scoped
    memoization of determinize/minimize/intersect/inclusion work).
    """
    limits = limits or GciLimits()
    if limits.cache is not None and active_cache() is None:
        with LangCache(limits.cache).activate():
            return _solve_graph(
                graph, variable_names, query, max_solutions, limits, only
            )
    return _solve_graph(graph, variable_names, query, max_solutions, limits, only)


def _solve_graph(
    graph: DepGraph,
    variable_names: list[str],
    query: Optional[list[str]],
    max_solutions: Optional[int],
    limits: GciLimits,
    only: Optional[list[str]],
) -> SolutionSet:
    query_names = list(query) if query is not None else list(variable_names)
    wanted: Optional[set[str]] = set(only) if only is not None else None

    with obs.span(
        "solve", variables=len(variable_names), plan=limits.plan
    ) as solve_span:
        # -- Constant-to-constant constraints are pure checks: a violated
        # one makes the whole system unsatisfiable regardless of variables.
        for edge in graph.subset_edges:
            if edge.target.is_const:
                target = graph.machine(edge.target)
                source = graph.machine(edge.source)
                if not is_subset(target, source):
                    solve_span.set("assignments", 0)
                    return SolutionSet([], query_names)

        # -- Opt-in precheck: run the abstract domains once and prune
        # whatever they prove empty.  Sound relative to the stages
        # below: a basic variable proved empty would intersect to ∅
        # anyway, and a group with a forced-empty node admits no viable
        # bridge combination (see repro.check.domains).
        abstraction = None
        if limits.precheck:
            from ..check.domains import evaluate_graph

            with obs.span("precheck"):
                abstraction = evaluate_graph(graph)

        # -- Stage 1: basic constraints (Fig. 7 lines 3-8).
        base: dict[str, Nfa] = {}
        with obs.span("basic_constraints"):
            for node in graph.var_nodes():
                if graph.in_some_concat(node):
                    continue
                if wanted is not None and node.name not in wanted:
                    continue
                if abstraction is not None and abstraction.proved_empty(node):
                    # The inbound intersection is provably ∅; skip the
                    # products and assign the canonical empty machine
                    # (language-equal to what the intersection yields).
                    obs.increment_metric("check.pruned_nodes")
                    base[node.name] = Nfa.never(graph.alphabet)
                    continue
                machine = Nfa.universal(graph.alphabet)
                for const_node in graph.inbound_subsets(node):
                    machine = ops.intersect(
                        machine, graph.machine(const_node)
                    ).trim()
                if limits.minimize_leaves and not machine.is_empty():
                    machine = minimize_nfa(machine)
                base[node.name] = machine

        # -- Stage 2: eliminate CI-groups via the worklist (lines 9-23).
        groups = graph.ci_groups()
        if wanted is not None:
            groups = [
                group
                for group in groups
                if any(node.is_var and node.name in wanted for node in group)
            ]
        solve_span.set("groups", len(groups))

        if groups and obs.active_sinks():
            # Publish the pre-solve cost ceiling (repro.check's sound
            # bound on gci.combinations_total, arithmetic over machine
            # sizes only) so heartbeat consumers can report % complete
            # against it before enumeration begins.  Cyclic groups have
            # no ceiling; skip quietly.
            from ..check.cost import estimate_group

            ceiling = 0
            estimated = 0
            for group in groups:
                try:
                    ceiling += estimate_group(graph, group).estimated_combinations
                    estimated += 1
                except ValueError:
                    continue
            if estimated:
                obs.set_gauge("check.cost_ceiling", ceiling)
                obs.event(
                    "cost_ceiling",
                    estimate=ceiling,
                    groups=len(groups),
                    groups_estimated=estimated,
                )

        if abstraction is not None:
            for group in groups:
                if abstraction.unsat_witness(group) is None:
                    continue
                try:
                    graph.group_temps_in_order(group)
                except ValueError:
                    continue  # cyclic group: let the real path report it
                # The group admits no viable bridge combination, so
                # every work item dies at it: the instance has exactly
                # zero assignments, which is what we return.
                obs.increment_metric("check.proved_unsat")
                obs.increment_metric(
                    "check.pruned_nodes",
                    sum(1 for node in group if node.is_var),
                )
                solve_span.set("assignments", 0)
                return SolutionSet([], query_names)

        # With workers configured, solve every group up-front on one
        # shared process pool (independent-group scheduling): the
        # groups are disjoint, so the per-item re-enumeration below
        # would recompute identical solution lists anyway.  The BFS
        # then replays the cached lists, so ordering, caps, and the
        # resulting SolutionSet are exactly the serial path's.
        from ..parallel import resolve_workers, solve_groups

        # The BFS below consumes at most max(1, max_solutions) solutions
        # per group, so push that bound down into the group enumeration:
        # group_solutions yields exactly the same prefix either way, and
        # the streaming consumer can use the cap to stop enumerating
        # bridge combinations early (see gci._consume).
        group_limits = limits
        if max_solutions is not None:
            per_group = max(1, max_solutions)
            if limits.max_solutions is None or per_group < limits.max_solutions:
                group_limits = replace(limits, max_solutions=per_group)

        workers = resolve_workers(limits.workers)
        cached: Optional[list[list]] = None
        if workers > 0 and groups:
            take = max(1, max_solutions) if max_solutions is not None else None
            cached = solve_groups(graph, groups, group_limits, workers, take)

        assignments: list[Assignment] = []
        queue: deque[tuple[int, dict[str, Nfa]]] = deque([(0, base)])
        iterations = 0
        while queue:
            group_index, partial = queue.popleft()
            iterations += 1
            if group_index == len(groups):
                assignments.append(Assignment(partial))
                if max_solutions is not None and len(assignments) >= max_solutions:
                    break
                continue
            with obs.span(
                "worklist_iteration", group_index=group_index
            ) as iter_span:
                group = groups[group_index]
                produced = 0
                source = (
                    cached[group_index]
                    if cached is not None
                    else group_solutions(graph, group, group_limits)
                )
                for solution in source:
                    mapping = dict(partial)
                    for node, machine in solution.items():
                        mapping[node.name] = machine
                    queue.append((group_index + 1, mapping))
                    produced += 1
                    if max_solutions is not None and produced >= max_solutions:
                        break
                iter_span.set("solutions", produced)
            # A group with no solutions kills this work item (the paper's
            # "no assignments found" branch for the current graph).

        solve_span.set("iterations", iterations)
        solve_span.set("assignments", len(assignments))
        return SolutionSet(assignments, query_names)
