"""Static combination-space cost prediction for CI-groups.

The GCI enumeration (``repro.solver.gci``) walks the product of the
per-concatenation bridge-edge lists — ``gci.combinations_total`` in
the telemetry — and PR 3 showed that product is where all the solve
cost lives.  This module predicts an *upper bound* on that product
from machine sizes alone, without building a single automata product,
so the checker can warn about explosive groups before any solving
work runs.

Estimation model (all quantities are upper bounds):

* A variable leaf starts as the one-state universal machine; each
  inbound subset constraint multiplies its state/start/final counts by
  the constant's (a product machine has at most ``|A| × |B|`` states,
  starts, and finals).
* A constant leaf contributes its own counts, again multiplied by any
  inbound constraints.  Every constant counts as the solver uses it,
  ε-eliminated (:func:`_constant_size`): elimination drops states but
  can add finals, so raw counts are no ceiling.
* Concatenating ``L`` and ``R`` creates ``|finals(L)| × |starts(R)|``
  bridge ε-edges; every later product against a constant — on the
  temporary itself or on any enclosing temporary — multiplies each
  surviving image by at most that constant's (ε-eliminated) state
  count.

The predicted group total is the product of the per-tag bridge
estimates, exactly mirroring ``_prepare_group``'s
``total_combinations`` computation.  Trimming only ever *shrinks* the
real spaces, so the estimate is a sound ceiling on
``gci.combinations_total``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..automata.nfa import Nfa
from ..constraints.depgraph import DepGraph, Node

__all__ = [
    "GroupEstimate",
    "estimate_group",
    "estimate_groups",
]


@dataclass(frozen=True)
class _SizeEstimate:
    """Upper bounds on one machine's state/start/final counts."""

    states: int
    starts: int
    finals: int


@dataclass
class GroupEstimate:
    """Predicted enumeration cost of one CI-group."""

    nodes: list[str]
    variables: list[str]
    concatenations: int
    #: Predicted per-tag bridge-edge counts, keyed by temporary name.
    bridges: dict[str, int]
    #: Predicted ceiling on ``gci.combinations_total``.
    estimated_combinations: int

    def to_dict(self) -> dict[str, object]:
        return {
            "nodes": self.nodes,
            "variables": self.variables,
            "concatenations": self.concatenations,
            "bridges": self.bridges,
            "estimated_combinations": self.estimated_combinations,
        }


def estimate_group(graph: DepGraph, group: set[Node]) -> GroupEstimate:
    """Predict the bridge-combination ceiling for one CI-group."""
    sizes: dict[Node, _SizeEstimate] = {}
    # dprle-lint: disable=L030 -- fills a keyed dict of exact int estimates; consumption order is canonicalized by group_temps_in_order
    for leaf in (n for n in group if not n.is_temp):
        if leaf.is_const:
            estimate = _constant_size(graph.machine(leaf))
        else:
            estimate = _SizeEstimate(states=1, starts=1, finals=1)
        for const_node in graph.inbound_subsets(leaf):
            estimate = _multiply(estimate, graph.machine(const_node))
        sizes[leaf] = estimate

    ordered = graph.group_temps_in_order(group)
    raw_bridges: dict[Node, int] = {}
    for temp in ordered:
        pair = graph.concat_of(temp)
        assert pair is not None
        left, right = sizes[pair.left], sizes[pair.right]
        raw_bridges[temp] = left.finals * right.starts
        estimate = _SizeEstimate(
            states=left.states + right.states,
            starts=left.starts,
            finals=right.finals,
        )
        for const_node in graph.inbound_subsets(temp):
            estimate = _multiply(estimate, graph.machine(const_node))
        sizes[temp] = estimate

    # Every product against a constant — on the temporary itself or on
    # any enclosing temporary — multiplies each bridge image by at
    # most the constant's state count.  Accumulate those multipliers
    # top-down through each tower.
    multipliers: dict[Node, int] = {}
    operand_of = {
        operand: pair.result
        for pair in graph.concat_pairs
        if pair.result in group
        for operand in pair.operands()
    }

    def own_multiplier(temp: Node) -> int:
        factor = 1
        for const_node in graph.inbound_subsets(temp):
            factor *= _constant_size(graph.machine(const_node)).states
        return factor

    def multiplier(temp: Node) -> int:
        if temp in multipliers:
            return multipliers[temp]
        factor = own_multiplier(temp)
        parent = operand_of.get(temp)
        if parent is not None:
            factor *= multiplier(parent)
        multipliers[temp] = factor
        return factor

    bridges = {
        temp.name: raw_bridges[temp] * multiplier(temp) for temp in ordered
    }
    total = 1
    for count in bridges.values():
        total *= max(1, count)
    return GroupEstimate(
        nodes=sorted(node.name for node in group),
        variables=sorted(node.name for node in group if node.is_var),
        concatenations=len(ordered),
        bridges=bridges,
        estimated_combinations=total,
    )


def estimate_groups(graph: DepGraph) -> list[GroupEstimate]:
    """One :class:`GroupEstimate` per CI-group, in group order."""
    return [estimate_group(graph, group) for group in graph.ci_groups()]


def _constant_size(constant: Nfa) -> _SizeEstimate:
    """Bounds on ``ops.eliminate_epsilon(constant)``, the machine the
    solver builds products with.  Only starts and targets of character
    edges stay reachable once the ε-edges are gone; each of them is
    final when its ε-closure reaches a final."""
    predecessors: dict[int, list[int]] = {}
    kept = set(constant.starts)
    for src, edge in constant.edges():
        if edge.is_epsilon:
            predecessors.setdefault(edge.dst, []).append(src)
        else:
            kept.add(edge.dst)
    closes = set(constant.finals)
    stack = sorted(closes)
    while stack:
        for src in predecessors.get(stack.pop(), ()):
            if src not in closes:
                closes.add(src)
                stack.append(src)
    return _SizeEstimate(
        states=max(1, len(kept)),
        starts=max(1, len(constant.starts)),
        finals=max(1, len(kept & closes)),
    )


def _multiply(estimate: _SizeEstimate, constant: Nfa) -> _SizeEstimate:
    size = _constant_size(constant)
    return _SizeEstimate(
        states=estimate.states * size.states,
        starts=estimate.starts * size.starts,
        finals=estimate.finals * size.finals,
    )
