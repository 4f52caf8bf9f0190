"""Experiment sec35-chain — chained CI calls (paper Sec. 3.5, end).

The paper's example system::

    v1 ⊆ c1   v2 ⊆ c2   v3 ⊆ c3
    v1 · v2 ⊆ c4
    v1 · v2 · v3 ⊆ c5

requires two inductive concat_intersect applications; enumerating the
*first* solution visits O(Q³) states while enumerating *all* solutions
visits O(Q⁵).  This benchmark builds k-step chains of that shape over
random machines and measures both modes in the paper's cost unit,
checking that full enumeration grows strictly faster than
first-solution extraction.
"""

import pytest

from repro import obs
from repro.constraints.terms import ConcatTerm, Const, Problem, Subset, Var
from repro.solver import solve
from repro.solver.gci import GciLimits

from benchmarks._util import random_nfa, write_json, write_table

Q = 5
CHAIN_LENGTHS = [1, 2, 3]

_ROWS: dict[int, tuple[int, int, int]] = {}


def chain_problem(k: int) -> Problem:
    """k nested prefix constraints over k+1 variables.

    Each chain constant is the union of a random machine with the
    concatenation of the affected leaves' languages, so every chain
    length stays satisfiable and the enumeration is non-trivial.
    """
    from repro.automata import ops

    variables = [Var(f"v{i}") for i in range(k + 1)]
    leaf_machines = [
        random_nfa(Q, seed=100 + index, edge_factor=0.8, label_style="banded")
        for index in range(k + 1)
    ]
    constraints = [
        Subset(var, Const(f"c{index}", leaf_machines[index]))
        for index, var in enumerate(variables)
    ]
    for step in range(1, k + 1):
        prefix = variables[: step + 1]
        term = prefix[0] if len(prefix) == 1 else ConcatTerm(tuple(prefix))
        exact = leaf_machines[0]
        for machine in leaf_machines[1 : step + 1]:
            exact = ops.concat(exact, machine)
        loose = ops.union(
            random_nfa(
                Q + step, seed=200 + step, edge_factor=0.8, label_style="banded"
            ),
            exact,
        )
        constraints.append(Subset(term, Const(f"k{step}", loose)))
    return Problem(constraints)


def run_chain(k: int):
    problem = chain_problem(k)
    limits = GciLimits(
        maximize=False,
        prune_subsumed=False,
        max_combinations=1_000_000,
    )
    with obs.collect() as first_cost:
        first = solve(problem, max_solutions=1, limits=limits)
    with obs.collect() as all_cost:
        everything = solve(problem, limits=limits)
    return first_cost.states_visited, all_cost.states_visited, len(everything)


@pytest.mark.parametrize("k", CHAIN_LENGTHS)
def test_chain_row(benchmark, k):
    first_visited, all_visited, num_solutions = benchmark.pedantic(
        run_chain, args=(k,), rounds=1, iterations=1
    )
    _ROWS[k] = (first_visited, all_visited, num_solutions)
    assert first_visited <= all_visited


def test_chain_table(benchmark):
    benchmark.pedantic(lambda: None, rounds=1)
    if len(_ROWS) < len(CHAIN_LENGTHS):
        pytest.skip("row benchmarks did not all run")
    lines = [
        f"{'k':>3} {'first-solution visits':>22} {'all-solutions visits':>21} "
        f"{'solutions':>10}"
    ]
    for k in CHAIN_LENGTHS:
        first_visited, all_visited, count = _ROWS[k]
        lines.append(
            f"{k:>3} {first_visited:>22} {all_visited:>21} {count:>10}"
        )
    write_table(
        "sec35_chain",
        "Sec. 3.5 — chained concat_intersect calls (Q = %d)" % Q,
        lines + [
            "",
            "Claim: full enumeration cost grows with chain length much",
            "faster than first-solution cost (O(Q^5) vs O(Q^3) per call).",
        ],
    )
    write_json(
        "sec35_chain",
        "Sec. 3.5 — chained concat_intersect calls",
        {
            "q": Q,
            "rows": {
                str(k): {
                    "first_solution_visits": _ROWS[k][0],
                    "all_solutions_visits": _ROWS[k][1],
                    "solutions": _ROWS[k][2],
                }
                for k in CHAIN_LENGTHS
            },
        },
    )
    # Enumeration cost must grow along the chain.
    assert _ROWS[CHAIN_LENGTHS[-1]][1] > _ROWS[CHAIN_LENGTHS[0]][1]
