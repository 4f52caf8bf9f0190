"""Paper Fig. 12: exploit-input generation for the 17 vulnerabilities.

Each row generates its corpus file at scale 1.0 and runs the whole
pipeline (parse → CFG → symbolic execution → decision procedure).  The
file must be found vulnerable with concrete exploit inputs, and |FG|
(basic blocks) and |C| (constraints) must be within 2 of the paper's
columns.

The paper's TS column is a time; here the cost of a row is the number
of NFA states its analysis visits (Sec. 3.5's measure, counted by
``obs.collect()``).  The shape claim is the paper's: ``warp/secure`` is
the outlier, costlier than every other row and more than 50× their
median (paper: 577 s against a 0.052 s median; here 264,786 states
against 1,464 when this test was written).  Solves run serially, so
the counts do not depend on ``DPRLE_WORKERS``.
"""

import functools

import pytest

from repro import obs
from repro.analysis import VULN_SPECS, analyze_source, make_vulnerable_source
from repro.solver import GciLimits

SPECS = {f"{spec.app}/{spec.name}": spec for spec in VULN_SPECS}


@functools.cache
def _row(key: str):
    """The file's report and the NFA states its analysis visited."""
    spec = SPECS[key]
    source = make_vulnerable_source(spec, scale=1.0)
    with obs.collect() as collector:
        report = analyze_source(
            source, f"{key}.php", limits=GciLimits(workers=0)
        )
    return report, collector.states_visited


@pytest.mark.parametrize("key", SPECS)
def test_fig12_row(key):
    spec = SPECS[key]
    report, _ = _row(key)
    finding = report.first_vulnerable

    assert report.vulnerable, f"{key} must be detected"
    assert finding.exploit_inputs, "exploit inputs must be generated"
    assert abs(report.num_blocks - spec.paper_fg) <= 2
    assert abs(finding.num_constraints - spec.paper_c) <= 2


def test_fig12_secure_is_the_outlier():
    visited = {key: _row(key)[1] for key in SPECS}
    secure = visited.pop("warp/secure")
    others = sorted(visited.values())
    median = others[len(others) // 2]
    assert all(count < secure for count in others)
    assert secure > 50 * median, (secure, median)
