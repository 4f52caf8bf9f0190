"""Per-layer attribution for the traced pass.

The traced pass runs each query under its own ``repro.obs`` collector.
The solver, cache and kernel layers already open spans there; the
front-end layers do not, so while the traced pass runs, this module
wraps the public front-end entry points (``parse_php``, ``build_cfg``,
``SymbolicExecutor.run_cfg``, ``SinkQuery.problem``, ``parse_problem``,
``build_graph``) and records a span for each call in the same
collector, through the collector's public ``open_span``/``close_span``.
Nothing under ``src/`` changes, and the untraced passes run unwrapped.

Layer CPU is read off the finished span tree: a layer's inclusive CPU
is the ``cpu`` of its outermost spans, and a span's self CPU is its
``cpu`` minus its children's.  Layers that some workload never enters
(Hopcroft minimisation, complement, the signature cache) are reported
as a share of the traced CPU, so that on those workloads the value is
a true fraction of zero rather than a zero time.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Any, Callable, Iterator, Mapping, Sequence

import _measure

#: Per-query span cap of the traced pass; a truncated tree is rejected.
SPAN_CAP = 200_000

#: Span names this module records (the harness's own spans).
QUERY = "bench.query"
PARSE = "bench.parse"
LOWER = "bench.lower"
DEPGRAPH = "bench.depgraph"

#: Kernels every workload enters: self CPU in seconds, plus call counts.
TIMED_KERNELS = (
    "determinize",
    "product",
    "left_quotient",
    "right_quotient",
    "eliminate_epsilon",
    "inclusion_check",
)
#: Kernels some workload never enters: share of traced CPU, plus calls.
SHARED_KERNELS = ("hopcroft", "complement")

#: Span name -> layer metric, summed over outermost occurrences.
_INCLUSIVE = {
    PARSE: "front.parse.cpu_s",
    DEPGRAPH: "constraints.depgraph.cpu_s",
    "solve": "solver.solve.cpu_s",
    "basic_constraints": "solver.basic.cpu_s",
    "ci": "gci.prepare.cpu_s",
    "gci_factor": "gci.factor.cpu_s",
    "gci_maximize": "gci.maximize.cpu_s",
    "signature": "signature_cpu_s",
}
_FRONT = frozenset({PARSE, LOWER})


class TruncatedTrace(RuntimeError):
    """A traced query hit the span cap; its layer numbers are incomplete."""


# -- wrapping the front end -----------------------------------------------


def _wrap(fn: Callable[..., Any], name: str) -> Callable[..., Any]:
    from repro import obs

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        collector = obs.current_collector()
        if collector is None:
            return fn(*args, **kwargs)
        with recorded(collector, name):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def recorded(collector: Any, name: str) -> Iterator[None]:
    """Record the block as span ``name`` in ``collector``'s tree."""
    opened = collector.open_span(name, None)
    started_wall = _measure.wall()
    started_cpu = _measure.thread_cpu()
    try:
        yield
    finally:
        collector.close_span(
            opened,
            _measure.wall() - started_wall,
            _measure.thread_cpu() - started_cpu,
        )


def _targets() -> list[tuple[Any, str, str]]:
    from repro.analysis import analyzer
    from repro.constraints import dsl
    from repro.php import symexec
    from repro.server import handlers
    from repro.solver import worklist

    return [
        (analyzer, "parse_php", PARSE),
        (analyzer, "build_cfg", LOWER),
        (symexec.SymbolicExecutor, "run_cfg", LOWER),
        (symexec.SinkQuery, "problem", LOWER),
        (dsl, "parse_problem", PARSE),
        (handlers, "parse_problem", PARSE),
        (worklist, "build_graph", DEPGRAPH),
    ]


@contextlib.contextmanager
def instrumented() -> Iterator[None]:
    """Wrap the front-end entry points for the duration of the block."""
    patched = []
    try:
        for owner, attribute, name in _targets():
            original = getattr(owner, attribute)
            setattr(owner, attribute, _wrap(original, name))
            patched.append((owner, attribute, original))
        yield
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)


# -- reading the tree -----------------------------------------------------


def _walk(node: Any, above: frozenset[str], raw: dict[str, float]) -> None:
    name = node.name
    children = node.children
    child_cpu = sum(child.cpu for child in children)
    if name != QUERY:
        raw["attributed_cpu_s"] += node.cpu - child_cpu
    metric = _INCLUSIVE.get(name)
    if metric is not None and name not in above:
        raw[metric] += node.cpu
    if name in _FRONT and not above & _FRONT:
        raw["front.cpu_s"] += node.cpu
    if name in TIMED_KERNELS or name in SHARED_KERNELS:
        raw[f"{name}.self_cpu_s"] += node.cpu - child_cpu
        raw[f"{name}.calls"] += 1
    elif name == "gci_combination":
        raw["gci.slice.cpu_s"] += node.cpu - sum(
            child.cpu for child in children if child.name == "gci_maximize"
        )
        if node.attrs.get("viable"):
            raw["gci.solutions"] += 1
    elif name == "signature":
        raw["signature_calls"] += 1
    elif name == "solve":
        raw["solver.iterations"] += node.attrs.get("iterations", 0)
    elif name == "analyze":
        raw["php.blocks"] += node.attrs.get("blocks", 0)
    elif name == "sink_query":
        raw["php.constraints"] += node.attrs.get("num_constraints", 0)
    elif name == QUERY:
        raw["traced_cpu_s"] += node.cpu
    inner = above | {name}
    for child in children:
        _walk(child, inner, raw)


def empty_raw() -> dict[str, float]:
    """Zeroed accumulators for :func:`add_tree` / :func:`add_counters`."""
    keys = [
        "attributed_cpu_s", "traced_cpu_s", "front.cpu_s", "gci.slice.cpu_s",
        "gci.solutions", "signature_calls", "solver.iterations",
        "php.blocks", "php.constraints",
        "gci.combinations_total", "gci.combinations_enumerated",
        "slice_memo_hits", "slice_memo_misses", "cache.hits", "cache.misses",
        "cache.store.writes", "cache.store.hits", "automata.states_visited",
        *_INCLUSIVE.values(),
    ]
    for kernel in TIMED_KERNELS + SHARED_KERNELS:
        keys += [f"{kernel}.self_cpu_s", f"{kernel}.calls"]
    return dict.fromkeys(keys, 0.0)


def add_tree(root: Any, raw: dict[str, float]) -> None:
    """Fold a span tree (anything with ``name``/``cpu``/``attrs``/
    ``children``) into ``raw``."""
    for child in root.children:
        _walk(child, frozenset(), raw)


def add_counters(counters: Mapping[str, float], raw: dict[str, float]) -> None:
    """Fold an obs counter snapshot into ``raw``."""
    raw["gci.combinations_total"] += counters.get("gci.combinations_total", 0)
    raw["gci.combinations_enumerated"] += counters.get(
        "gci.combinations_enumerated", 0
    )
    raw["slice_memo_hits"] += counters.get("gci.slice_memo_hits", 0)
    raw["slice_memo_misses"] += counters.get("gci.slice_memo_misses", 0)
    raw["cache.store.writes"] += counters.get("cache.store.writes", 0)
    raw["cache.store.hits"] += counters.get("cache.store.hits", 0)
    raw["automata.states_visited"] += counters.get("states_visited", 0)
    for name, value in counters.items():
        if name.startswith("cache.hit."):
            raw["cache.hits"] += value
        elif name.startswith("cache.miss."):
            raw["cache.misses"] += value


def add_collector(collector: Any, raw: dict[str, float]) -> None:
    """Fold one traced query's collector into ``raw``; reject a
    truncated trace."""
    snapshot = collector.to_dict()
    if snapshot["truncated"]:
        raise TruncatedTrace(
            f"{snapshot['spans_dropped']} spans dropped at cap {SPAN_CAP}"
        )
    add_tree(collector.root, raw)
    add_counters(snapshot["metrics"]["counters"], raw)


@contextlib.contextmanager
def traced_query(raw: dict[str, float]) -> Iterator[None]:
    """Run the block as one traced query and fold its tree into ``raw``."""
    from repro import obs

    with obs.collect(max_recorded_spans=SPAN_CAP) as collector:
        with recorded(collector, QUERY):
            yield
    add_collector(collector, raw)


# -- the reported metrics -------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(raw: Mapping[str, float]) -> dict[str, float]:
    """Per-layer metric values from one pass's accumulators (everything
    except the ``server.*`` and ``obs.*`` families)."""
    traced = raw["traced_cpu_s"]
    out = {
        "front.parse.cpu_s": raw["front.parse.cpu_s"],
        "front.cpu_s": raw["front.cpu_s"],
        "php.blocks": raw["php.blocks"],
        "php.constraints": raw["php.constraints"],
        "constraints.depgraph.cpu_s": raw["constraints.depgraph.cpu_s"],
        "solver.solve.cpu_s": raw["solver.solve.cpu_s"],
        "solver.basic.cpu_s": raw["solver.basic.cpu_s"],
        "solver.iterations": raw["solver.iterations"],
        "gci.prepare.cpu_s": raw["gci.prepare.cpu_s"],
        "gci.factor.cpu_s": raw["gci.factor.cpu_s"],
        "gci.maximize.cpu_s": raw["gci.maximize.cpu_s"],
        "gci.slice.cpu_s": raw["gci.slice.cpu_s"],
        "gci.combinations_total": raw["gci.combinations_total"],
        "gci.combinations_enumerated": raw["gci.combinations_enumerated"],
        "gci.solutions": raw["gci.solutions"],
        "gci.useful_ratio": _ratio(
            raw["gci.solutions"], raw["gci.combinations_enumerated"]
        ),
        "gci.slice_memo_hit_ratio": _ratio(
            raw["slice_memo_hits"],
            raw["slice_memo_hits"] + raw["slice_memo_misses"],
        ),
        "cache.hits": raw["cache.hits"],
        "cache.misses": raw["cache.misses"],
        "cache.hit_ratio": _ratio(
            raw["cache.hits"], raw["cache.hits"] + raw["cache.misses"]
        ),
        "cache.signature.calls": raw["signature_calls"],
        "cache.signature.cpu_share": _ratio(raw["signature_cpu_s"], traced),
        "cache.store.writes": raw["cache.store.writes"],
        "cache.store.hits": raw["cache.store.hits"],
        "automata.states_visited": raw["automata.states_visited"],
    }
    for kernel in TIMED_KERNELS:
        out[f"automata.{kernel}.self_cpu_s"] = raw[f"{kernel}.self_cpu_s"]
        out[f"automata.{kernel}.calls"] = raw[f"{kernel}.calls"]
    for kernel in SHARED_KERNELS:
        out[f"automata.{kernel}.cpu_share"] = _ratio(
            raw[f"{kernel}.self_cpu_s"], traced
        )
        out[f"automata.{kernel}.calls"] = raw[f"{kernel}.calls"]
    return out


def assemble(
    layers: Mapping[str, float],
    server: Mapping[str, float],
    trace_overhead: float,
    coverage: float,
) -> dict[str, float]:
    """All per-layer metrics of a traced run: the layer values, the
    ``server.*`` family, and how much the tracing itself cost
    (traced / untraced CPU) and explains (attributed / traced CPU)."""
    return {
        **layers,
        **server,
        "obs.trace_overhead": trace_overhead,
        "obs.layer_coverage": coverage,
    }


def median_metrics(passes: Sequence[Mapping[str, float]]) -> dict[str, float]:
    """Metric-wise median over several traced passes."""
    return {
        name: _measure.median([values[name] for values in passes])
        for name in passes[0]
    }
