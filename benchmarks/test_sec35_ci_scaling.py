"""Experiment sec35-ci — the complexity claims of paper Sec. 3.5.

For a single ``concat_intersect`` call with input machines of size Q,
the paper claims (in its "NFA states visited" cost model):

* the intersection machine M5 has size O(Q²),
* constructing it visits |M3|·(|M1|+|M2|) = O(Q²) states,
* the number of disjunctive solutions is bounded by |M3|,
* enumerating *all* solutions costs O(Q³) states visited.

This benchmark sweeps Q over random machines, measures the same
quantities with :func:`repro.obs.collect`, and checks the bounds (with
explicit constants — the model counts exactly what the paper counts).
"""

import time

import pytest

from repro import obs
from repro.automata import enumerate_strings, ops
from repro.cache import CacheLimits, LangCache
from repro.constraints import parse_problem
from repro.solver import concat_intersect, solve

from benchmarks._util import random_nfa, write_json, write_table

SIZES = [4, 8, 16, 32, 48]

_ROWS: dict[int, tuple[int, int, int]] = {}


def run_ci(q: int):
    c1 = random_nfa(q, seed=q * 3 + 1)
    c2 = random_nfa(q, seed=q * 3 + 2)
    c3 = random_nfa(q, seed=q * 3 + 3)
    with obs.collect() as cost:
        solutions = concat_intersect(c1, c2, c3)
    m4 = ops.concat(c1, c2)
    m5, _ = ops.product(m4, c3)
    return cost.states_visited, m5.num_states, len(solutions)


@pytest.mark.parametrize("q", SIZES)
def test_ci_scaling_row(benchmark, q):
    visited, machine_size, num_solutions = benchmark.pedantic(
        run_ci, args=(q,), rounds=1, iterations=1
    )
    _ROWS[q] = (visited, machine_size, num_solutions)

    # Paper bounds, with explicit constants: |M5| ≤ |M4|·|M3| ≤ 3Q²
    # (M4 has 2Q + up-to-4 normalization states), solutions ≤ |M3| = Q,
    # and the full run visits O(Q³) states.
    assert machine_size <= 3 * q * q + 10
    assert num_solutions <= q
    assert visited <= 30 * q**3 + 1000


def test_ci_scaling_table(benchmark):
    benchmark.pedantic(lambda: None, rounds=1)
    if len(_ROWS) < len(SIZES):
        pytest.skip("row benchmarks did not all run")
    lines = [
        f"{'Q':>4} {'states visited':>15} {'|M5|':>8} {'solutions':>10}"
        f" {'visited/Q^3':>12} {'|M5|/Q^2':>9}"
    ]
    for q in SIZES:
        visited, size, solutions = _ROWS[q]
        lines.append(
            f"{q:>4} {visited:>15} {size:>8} {solutions:>10}"
            f" {visited / q**3:>12.2f} {size / q**2:>9.2f}"
        )
    write_table(
        "sec35_ci",
        "Sec. 3.5 — single concat_intersect cost scaling",
        lines + [
            "",
            "Claims: |M5|/Q^2 bounded; solutions <= Q; visited/Q^3 bounded.",
        ],
    )
    write_json(
        "sec35_ci",
        "Sec. 3.5 — single concat_intersect cost scaling",
        {
            "rows": {
                str(q): {
                    "states_visited": _ROWS[q][0],
                    "m5_states": _ROWS[q][1],
                    "solutions": _ROWS[q][2],
                }
                for q in SIZES
            }
        },
    )
    # The normalized ratios must not grow with Q (the big-O claims).
    small = _ROWS[SIZES[0]]
    large = _ROWS[SIZES[-1]]
    assert large[0] / SIZES[-1] ** 3 <= max(4.0, 4 * small[0] / SIZES[0] ** 3)
    assert large[1] / SIZES[-1] ** 2 <= max(4.0, 4 * small[1] / SIZES[0] ** 2)


# -- language-cache ablation on the full solver path -------------------------

CHAIN_LENGTHS = [2, 3, 4]


def _chain_problem(n: int):
    """A length-``n`` chain of mutually dependent concatenations.

    ``(ab)*`` is closed under concatenation, so every constraint is
    satisfiable and the GCI enumeration produces many language-equal
    candidates — the dedupe/subsumption and Galois-maximization load the
    language cache is built for.
    """
    names = [f"v{i}" for i in range(n + 1)]
    lines = [f"var {', '.join(names)};"]
    for name in names:
        lines.append(f"{name} <= /(ab)*/;")
    for left, right in zip(names, names[1:]):
        lines.append(f"{left} . {right} <= /(ab)*/;")
    return parse_problem("\n".join(lines))


def _solution_summary(solutions) -> set:
    return {
        tuple(
            frozenset(enumerate_strings(machine, limit=6, max_length=8))
            for _, machine in sorted(assignment.items())
        )
        for assignment in solutions
    }


def test_ci_cache_ablation():
    """Sec. 3.5 cost model, cache off vs on: same solutions, fewer
    state visits.  Results land in BENCH_solver.json under the `cache`
    ablation rows."""
    rows = {}
    for n in CHAIN_LENGTHS:
        problem = _chain_problem(n)

        started = time.perf_counter()
        with obs.collect() as cost:
            base = solve(problem)
        base_seconds = time.perf_counter() - started
        base_visited = cost.states_visited

        cache = LangCache(CacheLimits())
        started = time.perf_counter()
        with cache.activate():
            with obs.collect() as cost:
                cached = solve(problem)
        cached_seconds = time.perf_counter() - started
        cached_visited = cost.states_visited

        # Caching must be invisible in the answers...
        assert _solution_summary(cached) == _solution_summary(base)
        # ...and strictly cheaper in the paper's cost model.
        assert cached_visited < base_visited
        summary = cache.stats()
        assert summary["hit_total"] > 0

        rows[str(n)] = {
            "states_visited_uncached": base_visited,
            "states_visited_cached": cached_visited,
            "visit_reduction": round(1 - cached_visited / base_visited, 4),
            "seconds_uncached": round(base_seconds, 6),
            "seconds_cached": round(cached_seconds, 6),
            "cache_hits": summary["hit_total"],
            "cache_misses": summary["miss_total"],
        }

    write_table(
        "sec35_cache",
        "Sec. 3.5 — solver path, language cache off vs on",
        [
            f"{'chain':>6} {'visited (off)':>14} {'visited (on)':>13}"
            f" {'reduction':>10} {'hits':>6} {'misses':>7}"
        ]
        + [
            f"{n:>6} {row['states_visited_uncached']:>14}"
            f" {row['states_visited_cached']:>13}"
            f" {row['visit_reduction']:>10.1%}"
            f" {row['cache_hits']:>6} {row['cache_misses']:>7}"
            for n, row in rows.items()
        ],
    )
    write_json(
        "sec35_cache",
        "Sec. 3.5 — solver path, language cache off vs on",
        {"rows": rows},
        cache={"enabled": True, "max_entries": 4096, "ablation": "off-vs-on"},
    )
