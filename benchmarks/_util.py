"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper's
evaluation (see DESIGN.md's experiment index).  Besides the
pytest-benchmark timings, every module writes a human-readable
comparison table to ``benchmarks/out/`` so paper-vs-measured results
can be inspected after a run (EXPERIMENTS.md is produced from these).
"""

from __future__ import annotations

import json
import pathlib
import platform
import random
import time

from repro import __version__
from repro.automata import BYTE_ALPHABET, Alphabet, CharSet, Nfa
from repro.automata.backend import active_backend

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: The aggregated perf-trajectory file future PRs diff against.
AGGREGATE_PATH = pathlib.Path(__file__).parent.parent / "BENCH_solver.json"


def write_table(name: str, title: str, lines: list[str]) -> pathlib.Path:
    """Write a result table to benchmarks/out/<name>.txt and echo it."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.txt"
    content = "\n".join([title, "=" * len(title), *lines, ""])
    path.write_text(content)
    print()
    print(content)
    return path


def write_json(
    name: str,
    title: str,
    data: dict,
    cache: dict | None = None,
) -> pathlib.Path:
    """Write machine-readable results to benchmarks/out/<name>.json.

    ``data`` is the benchmark's structured payload (rows keyed however
    the experiment is parameterized).  ``cache`` records the language-
    cache configuration the numbers were measured under (see
    docs/CACHING.md); benchmarks that never activate one record
    ``{"enabled": False}``.  The payload's ``backend`` field names the
    automata kernel set (docs/BACKENDS.md) that produced the numbers.
    Every call also re-aggregates all per-benchmark JSON files into the
    top-level ``BENCH_solver.json`` so a full benchmark run leaves one
    perf-trajectory artifact behind (see docs/OBSERVABILITY.md for the
    schema).
    """
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.json"
    payload = {
        "name": name,
        "title": title,
        "cache": cache if cache is not None else {"enabled": False},
        "backend": active_backend().name,
        "data": data,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    aggregate_results()
    return path


def aggregate_results() -> pathlib.Path:
    """Merge every benchmarks/out/*.json into BENCH_solver.json."""
    merged = {}
    for item in sorted(OUT_DIR.glob("*.json")):
        try:
            merged[item.stem] = json.loads(item.read_text())
        except ValueError:
            continue  # half-written or foreign file: skip, don't fail a run
    AGGREGATE_PATH.write_text(
        json.dumps(
            {
                "schema": "dprle.bench/1",
                "repro_version": __version__,
                "python": platform.python_version(),
                "generated_unix": int(time.time()),
                "benchmarks": merged,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    return AGGREGATE_PATH


def random_nfa(
    num_states: int,
    seed: int,
    alphabet: Alphabet = BYTE_ALPHABET,
    edge_factor: float = 1.6,
    label_style: str = "overlap",
) -> Nfa:
    """A random trim NFA with ``num_states`` states.

    A backbone chain start→…→final guarantees the machine is non-empty
    and every state is live; extra random class-labelled edges (some
    backwards, giving cycles) provide nondeterminism.  Deterministic in
    ``seed``.

    ``label_style="overlap"`` makes every label contain ``'a'``, so
    products of independently random machines keep non-trivial
    intersections even at large Q (the single-CI scaling sweep needs
    this, otherwise it mostly measures empty machines).  ``"banded"``
    draws independent sub-ranges instead — sparser intersections, which
    keeps multi-call enumeration (the chain sweep) tractable.
    """
    rng = random.Random(seed)
    machine = Nfa(alphabet)
    states = machine.add_states(num_states)
    lo, hi = 97, 110  # labels drawn from a 14-letter band

    def random_label() -> CharSet:
        if label_style == "overlap":
            return CharSet.range(lo, rng.randrange(lo, hi))
        a = rng.randrange(lo, hi)
        return CharSet.range(a, rng.randrange(a, hi))

    for i in range(num_states - 1):
        machine.add_transition(states[i], random_label(), states[i + 1])
    extra = int(num_states * edge_factor)
    for _ in range(extra):
        src = rng.choice(states)
        dst = rng.choice(states)
        machine.add_transition(src, random_label(), dst)
    machine.starts = {states[0]}
    machine.finals = {states[-1]}
    return machine
