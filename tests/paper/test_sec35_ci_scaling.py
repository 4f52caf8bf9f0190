"""Paper Sec. 3.5: the cost of one concat_intersect call.

For input machines of size Q the paper claims, in its "NFA states
visited" cost model:

* the intersection machine M5 has size O(Q²);
* the number of disjunctive solutions is bounded by |M3|;
* enumerating all solutions visits O(Q³) states.

The sweep runs random machines of growing Q, counts with
:func:`repro.obs.collect`, and checks each bound with an explicit
constant, then checks that the normalized ratios do not grow with Q.
"""

import functools

import pytest

from repro import obs
from repro.automata import ops
from repro.solver import concat_intersect

from ..helpers import random_nfa

SIZES = [4, 8, 16, 32, 48]


@functools.cache
def _ci_cost(q: int) -> tuple[int, int, int]:
    """States visited, |M5| and the number of solutions at size ``q``."""
    c1 = random_nfa(q, seed=q * 3 + 1)
    c2 = random_nfa(q, seed=q * 3 + 2)
    c3 = random_nfa(q, seed=q * 3 + 3)
    with obs.collect() as cost:
        solutions = concat_intersect(c1, c2, c3)
    m5 = ops.product(ops.concat(c1, c2), c3)
    return cost.states_visited, m5.num_states, len(solutions)


@pytest.mark.parametrize("q", SIZES)
def test_ci_bounds(q):
    visited, machine_size, num_solutions = _ci_cost(q)
    # |M5| ≤ |M4|·|M3| ≤ 3Q² (M4 has 2Q + up to 4 normalization
    # states), solutions ≤ |M3| = Q, and the full run visits O(Q³).
    assert machine_size <= 3 * q * q + 10
    assert num_solutions <= q
    assert visited <= 30 * q**3 + 1000


def test_ci_cost_ratios_do_not_grow():
    small_q, large_q = SIZES[0], SIZES[-1]
    small, large = _ci_cost(small_q), _ci_cost(large_q)
    assert large[0] / large_q**3 <= max(4.0, 4 * small[0] / small_q**3)
    assert large[1] / large_q**2 <= max(4.0, 4 * small[1] / small_q**2)
