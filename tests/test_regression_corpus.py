"""Table-driven regression suite over the shipped constraint files.

Each ``tests/data/*.dprle`` file is solved end to end; expectations pin
satisfiability, solution counts, witness membership, and — for every
assignment — the executable Satisfying and Maximal checks of
:mod:`repro.solver.verify` (paper Sec. 3.3), maximality decided
exactly.  The Sec. 3.5 chain at k = 2 is checked the same way.
"""

import pathlib

import pytest

from repro.constraints import parse_problem
from repro.solver import solve
from repro.solver.verify import check_assignment

from .helpers import chain_problem

DATA_DIR = pathlib.Path(__file__).parent / "data"

# file -> (satisfiable, expected solution count or None, per-var membership
#          probes: {var: (member, non_member)})
EXPECTATIONS = {
    "motivating.dprle": (True, 1, {"v1": ("' OR 1=1 --9", "123")}),
    "disjunctive.dprle": (True, 2, {"v1": ("xyy", "xy")}),
    "fig9.dprle": (True, 4, {"va": ("opp", "op")}),
    "nested.dprle": (True, 2, {"y": ("b", "a")}),
    "pushback.dprle": (True, 1, {"v2": ("5", "6")}),
    "unsat.dprle": (False, None, {}),
    "xss.dprle": (True, 1, {"name": ("<script>alert1", "harmless")}),
    "const_exprs.dprle": (True, 1, {"v": ("42", "7")}),
    "wide.dprle": (True, 8, {"va": ("a", "aaaaaaaa")}),
    "wider.dprle": (True, 8, {"va": ("a", "aaaaaaaa")}),
    "unsat_static.dprle": (False, None, {}),
    "warn_wide.dprle": (True, 10, {"va": ("a", "aaaaaaaaaa")}),
}


@pytest.mark.parametrize("name", sorted(EXPECTATIONS), ids=lambda n: n.split(".")[0])
def test_regression_file(name):
    satisfiable, count, probes = EXPECTATIONS[name]
    problem = parse_problem((DATA_DIR / name).read_text())
    solutions = solve(problem)

    assert solutions.satisfiable == satisfiable
    if count is not None:
        assert len(solutions) == count

    if not satisfiable:
        return

    for assignment in solutions.nonempty():
        report = check_assignment(problem, assignment, check_maximality=True)
        assert report.satisfying, (name, report.violations)
        assert report.maximal is True, (name, report.violations)

    # Membership probes hold in at least one disjunct (member) and in
    # no disjunct (non-member strings violate some constraint).
    for var, (member, non_member) in probes.items():
        assert any(a[var].accepts(member) for a in solutions.nonempty()), (
            name,
            var,
            member,
        )
        for assignment in solutions.nonempty():
            if assignment[var].accepts(non_member):
                report = check_assignment(
                    problem, assignment, check_maximality=False
                )
                assert report.satisfying  # then it was a bad probe
                pytest.fail(f"{name}: {var} unexpectedly admits {non_member!r}")


def test_all_data_files_covered():
    files = {p.name for p in DATA_DIR.glob("*.dprle")}
    assert files == set(EXPECTATIONS)


def test_sec35_chain_k2_is_satisfying_and_maximal():
    """The Sec. 3.5 chain at k = 2 under default limits: its one
    assignment is satisfying and exactly maximal."""
    problem = chain_problem(2)
    solutions = solve(problem)
    assert solutions.satisfiable
    (assignment,) = solutions.nonempty()
    report = check_assignment(problem, assignment)
    assert report.satisfying, report.violations
    assert report.maximal is True, report.violations
