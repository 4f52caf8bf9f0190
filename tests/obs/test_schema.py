"""Runtime exhaustiveness: the schema registry and reality agree.

Solves the wide corpus — serial, and parallel — under a collector,
then checks the observed telemetry against :mod:`repro.obs.schema` in both directions:

* **observed ⊆ schema** for every instrument kind: a name the solver
  emits that the registry does not know is a schema bug (and would
  also be an L020 lint error at the emission site);
* **schema-required ⊆ observed** for the unconditional core
  (``REQUIRED_COUNTERS``): a registered series no solve ever emits is
  dead weight that the CI counter gate silently stops gating.
"""

import pathlib

import pytest

from repro import obs, parallel
from repro.obs import schema
from repro.constraints import parse_problem
from repro.solver import solve
from repro.solver.gci import GciLimits

DATA = pathlib.Path(__file__).parent.parent / "data"


def _solve_under_collector(fixture, **limit_kwargs):
    problem = parse_problem((DATA / fixture).read_text())
    with obs.collect() as collector:
        solve(problem, limits=GciLimits(**limit_kwargs))
    return collector


@pytest.fixture(scope="module")
def wide_serial():
    return _solve_under_collector("wide.dprle", workers=0)


@pytest.fixture(scope="module")
def wider_parallel():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel, "MIN_PARALLEL_COMBINATIONS", 1)
        return _solve_under_collector("wider.dprle", workers=2)


def _registry(collector):
    return collector.metrics.snapshot()


class TestObservedSubsetOfSchema:
    @pytest.mark.parametrize(
        "kind, checker",
        [
            ("counters", schema.is_known_counter),
            ("gauges", schema.is_known_gauge),
            ("histograms", schema.is_known_histogram),
        ],
    )
    def test_wide_serial(self, wide_serial, kind, checker):
        observed = _registry(wide_serial)[kind]
        unknown = sorted(name for name in observed if not checker(name))
        assert unknown == [], f"unregistered {kind}: {unknown}"

    @pytest.mark.parametrize(
        "kind, checker",
        [
            ("counters", schema.is_known_counter),
            ("gauges", schema.is_known_gauge),
            ("histograms", schema.is_known_histogram),
        ],
    )
    def test_wider_parallel(self, wider_parallel, kind, checker):
        observed = _registry(wider_parallel)[kind]
        unknown = sorted(name for name in observed if not checker(name))
        assert unknown == [], f"unregistered {kind}: {unknown}"

    def test_span_names_registered(self, wider_parallel):
        def walk(span):
            yield span.name
            for child in span.children:
                yield from walk(child)

        unknown = sorted(
            name
            for name in walk(wider_parallel.root)
            if not schema.is_known_span(name)
        )
        assert unknown == [], f"unregistered spans: {unknown}"


class TestRequiredCoreObserved:
    def test_required_counters_all_fire_serial(self, wide_serial):
        observed = set(_registry(wide_serial)["counters"])
        missing = sorted(schema.REQUIRED_COUNTERS - observed)
        assert missing == [], f"registered-but-never-emitted: {missing}"

    def test_parallel_only_series_fire(self, wider_parallel):
        registry = _registry(wider_parallel)
        observed_counters = set(registry["counters"])
        assert any(
            schema.matches_pattern(name, "parallel.worker.*.busy_ms")
            for name in observed_counters
        )
        for name in (
            "parallel.chunk_seconds",
            "parallel.queue_wait_seconds",
            "parallel.chunk_combinations",
        ):
            assert name in registry["histograms"]
        assert "parallel.utilization" in registry["gauges"]


class TestSchemaInternalConsistency:
    def test_generated_families_cover_their_sources(self):
        for op in schema.OPERATIONS:
            assert f"op.{op}" in schema.COUNTERS
        for op in schema.CACHE_OPS:
            assert f"cache.hit.{op}" in schema.COUNTERS
            assert f"cache.miss.{op}" in schema.COUNTERS
        for name in schema.SPANS:
            assert f"span.{name}" in schema.COUNTERS
            assert f"span_seconds.{name}" in schema.HISTOGRAMS

    def test_required_counters_are_registered(self):
        assert schema.REQUIRED_COUNTERS <= schema.COUNTERS

    def test_patterns_match_their_own_families(self):
        assert schema.matches_pattern("op.determinize", "op.*")
        assert schema.matches_pattern(
            "parallel.worker.1234.busy_ms", "parallel.worker.*.busy_ms"
        )
        assert not schema.matches_pattern("op.a.b", "op.*")
        assert not schema.matches_pattern("span.x", "op.*")

    def test_all_exact_names_universe(self):
        universe = schema.all_exact_names()
        assert set(universe) == {
            "counters", "gauges", "histograms", "spans", "events",
        }
        assert universe["counters"] == schema.COUNTERS
