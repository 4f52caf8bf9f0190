"""A machine-independent pin on ``warp/secure``, the paper's outlier.

Two walks used to dominate its solve, and both are now sized by what
they keep (docs/ALGORITHMS.md §5):

* each occurrence slice walks only its own region of the top machine,
  so ``gci.slice.states_walked`` stays near ``gci.slice.states_kept``;
* the maximization caps with the *minimal* admissible DFA, whose
  padding language (strings containing a ``'``) has 2 states, so no
  ``cap ∩ Adm`` product is more than twice its leaf.

Both figures are counts from ``obs.collect()``, not times.
"""

from repro import obs
from repro.analysis import VULN_SPECS, analyze_source, make_vulnerable_source

SCALE = 0.2

#: ``gci.slice.states_walked`` for this file at this scale when every
#: slice walked everything reachable from its start (the unbarriered
#: restriction): 50,057 states for 22 slices.
UNBARRIERED_WALK = 50_057


def _secure_trace():
    spec = next(s for s in VULN_SPECS if s.name == "secure")
    source = make_vulnerable_source(spec, SCALE)
    with obs.collect(max_recorded_spans=1_000_000) as collector:
        report = analyze_source(source, "secure.php")
    assert report.vulnerable
    return collector


def test_secure_slices_walk_their_region_and_caps_stay_small():
    collector = _secure_trace()
    counters = collector.metrics.snapshot()["counters"]
    assert counters.get("obs.spans_dropped", 0) == 0

    products = [
        product
        for maximize in collector.root.find("gci_maximize")
        for product in maximize.find("product")
    ]
    assert products
    for product in products:
        attrs = product.attrs
        assert attrs["states_out"] <= 2 * attrs["states_a"], attrs

    walked = counters["gci.slice.states_walked"]
    kept = counters["gci.slice.states_kept"]
    assert kept <= walked < UNBARRIERED_WALK
