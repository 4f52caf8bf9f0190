"""The Concatenation-Intersection algorithm (paper Fig. 3).

Given three regular languages ``c1, c2, c3``, the CI problem asks for
all maximal assignments to ``v1, v2`` such that::

    v1 ⊆ c1      v2 ⊆ c2      v1 · v2 ⊆ c3

The construction: build ``M4 = M1 · M2`` with a *tagged* bridging
ε-transition, then ``M5 = M4 ∩ M3`` by cross product.  Every image of
the bridge inside ``M5`` (one per ``(Qlhs × Qrhs)`` crossing in the
paper's terms) yields one disjunctive solution: ``v1`` is ``M5`` with
the image's source as the only final state (``induce_from_final``) and
``v2`` is ``M5`` with the image's target as the only start state
(``induce_from_start``).  Pairs where either side is empty are
rejected, exactly as in the paper.
"""

from __future__ import annotations

from .. import obs
from ..automata import ops
from ..automata.equivalence import equivalent
from ..automata.nfa import BridgeTag, Nfa

__all__ = ["concat_intersect", "CiSolution"]


class CiSolution:
    """One disjunctive CI solution ``[v1 ↦ lhs, v2 ↦ rhs]``.

    ``crossing`` records the bridge image (source and target state of
    the chosen ε-transition in ``M5``) — useful for debugging and for
    the proof-property tests.
    """

    def __init__(self, lhs: Nfa, rhs: Nfa, crossing: tuple[int, int]):
        self.lhs = lhs
        self.rhs = rhs
        self.crossing = crossing

    def __iter__(self):
        return iter((self.lhs, self.rhs))

    def __repr__(self) -> str:
        return f"<CiSolution crossing={self.crossing}>"


def concat_intersect(
    c1: Nfa, c2: Nfa, c3: Nfa, dedupe: bool = False, maximize: bool = False
) -> list[CiSolution]:
    """Solve the CI instance ``(c1, c2, c3)``; returns all solutions.

    With ``dedupe=True``, solutions whose two languages are pairwise
    equivalent to an earlier solution's are dropped (the paper
    enumerates per ε-transition, which can repeat languages).

    With ``maximize=True``, each per-transition slice pair is closed
    under the Galois maximization ``rhs' = c2 ∩ LQ(lhs, c3)`` followed
    by ``lhs' = c1 ∩ RQ(c3, rhs')`` (universal quotients), which makes
    every returned pair maximal in the sense of Def. 3.1.  The plain
    per-transition output matches Fig. 3 as written; see the module
    docs of :mod:`repro.solver.gci` for why the two can differ.
    """
    tag = BridgeTag("ci")
    with obs.span(
        "ci",
        c1_states=c1.num_states,
        c2_states=c2.num_states,
        c3_states=c3.num_states,
    ) as sp:
        # ε-eliminating the inputs keeps bridge images one per genuinely
        # distinct crossing state (cf. gci module docs).
        m1 = ops.eliminate_epsilon(c1).normalized()
        m2 = ops.eliminate_epsilon(c2).normalized()
        m3 = ops.eliminate_epsilon(c3)
        m4 = ops.concat(m1, m2, tag)  # Fig. 3 line 6
        m5 = ops.product(m4, m3)  # Fig. 3 lines 7-8, trimmed
        sp.set("product_states", m5.num_states)

        solutions: list[CiSolution] = []
        for src, dst in sorted(
            (src, edge.dst) for src, edge in m5.edges() if edge.tag is tag
        ):
            lhs = m5.restricted(m5.starts, {src})  # induce_from_final(M5, qa)
            rhs = m5.restricted({dst}, m5.finals)  # induce_from_start(M5, qb)
            if maximize:
                rhs = ops.intersect(c2, ops.left_quotient(lhs, c3))
                lhs = ops.intersect(c1, ops.right_quotient(c3, rhs))
            if dedupe and any(
                equivalent(lhs, existing.lhs) and equivalent(rhs, existing.rhs)
                for existing in solutions
            ):
                continue
            solutions.append(CiSolution(lhs, rhs, (src, dst)))
        sp.set("solutions", len(solutions))
        return solutions
