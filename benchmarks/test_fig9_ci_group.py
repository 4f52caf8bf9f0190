"""Experiment fig9-10 — the CI-group instance of paper Figs. 9/10.

``vb`` participates in two concatenations, making them mutually
dependent; the gci procedure enumerates bridge combinations and
intersects the shared slices.  The paper lists two satisfying
assignments; its own Def. 3.1 admits four (see DESIGN.md §4) and we
report all of them, asserting the paper's A1/A2 are included.
"""

from repro import obs
from repro.automata import enumerate_strings
from repro.cache import CacheLimits, LangCache
from repro.constraints import parse_problem
from repro.solver import solve

FIG9 = """
var va, vb, vc;
va <= /o(pp)+/;
vb <= /p*(qq)+/;
vc <= /q*r/;
va . vb <= /op{5}q*/;
vb . vc <= /p*q{4}r/;
"""


def words(machine):
    return frozenset(enumerate_strings(machine, limit=10, max_length=12))


def test_fig9_group_solving(benchmark):
    problem = parse_problem(FIG9)
    solutions = benchmark(lambda: solve(problem))

    combos = {
        (words(a["va"]), words(a["vb"]), words(a["vc"])) for a in solutions
    }
    paper_a1 = (frozenset({"opp"}), frozenset({"pppqq"}), frozenset({"qqr"}))
    paper_a2 = (frozenset({"opppp"}), frozenset({"pqq"}), frozenset({"qqr"}))
    assert paper_a1 in combos
    assert paper_a2 in combos
    assert len(solutions) == 4

    from benchmarks._util import write_json, write_table

    lines = [f"solutions: {len(solutions)} (paper lists 2; see DESIGN.md §4)"]
    assignment_rows = []
    for index, assignment in enumerate(solutions, start=1):
        row = {
            name: assignment.regex_str(name) for name in ("va", "vb", "vc")
        }
        assignment_rows.append(row)
        lines.append(
            f"A{index}: va={row['va']} vb={row['vb']} vc={row['vc']}"
        )
    write_table("fig9", "Figs. 9/10 — mutually dependent concatenations", lines)
    write_json(
        "fig9",
        "Figs. 9/10 — mutually dependent concatenations",
        {
            "solutions": len(solutions),
            "assignments": assignment_rows,
            "mean_seconds": benchmark.stats.stats.mean,
        },
    )


def test_fig9_first_solution_only(benchmark):
    """Sec. 3.5: the first solution without enumerating the others."""
    problem = parse_problem(FIG9)
    solutions = benchmark(lambda: solve(problem, max_solutions=1))
    assert len(solutions) == 1


def test_fig9_cached_group_solving():
    """The language cache must not change the Fig. 9 answer set — same
    four assignments — while cutting the states-visited cost."""
    problem = parse_problem(FIG9)

    with obs.collect() as cost:
        base = solve(problem)
    base_visited = cost.states_visited

    cache = LangCache(CacheLimits())
    with cache.activate():
        with obs.collect() as cost:
            cached = solve(problem)
    cached_visited = cost.states_visited

    def combos(solutions):
        return {
            (words(a["va"]), words(a["vb"]), words(a["vc"])) for a in solutions
        }

    assert len(cached) == 4
    assert combos(cached) == combos(base)
    assert cached_visited < base_visited
    summary = cache.stats()
    assert summary["hit_total"] > 0

    from benchmarks._util import write_json

    write_json(
        "fig9_cache",
        "Figs. 9/10 — CI-group solve, language cache off vs on",
        {
            "solutions": len(cached),
            "states_visited_uncached": base_visited,
            "states_visited_cached": cached_visited,
            "visit_reduction": round(1 - cached_visited / base_visited, 4),
            "cache_hits": summary["hit_total"],
            "cache_misses": summary["miss_total"],
        },
        cache={"enabled": True, "max_entries": 4096, "ablation": "off-vs-on"},
    )
