"""Generalized Concatenation-Intersection over CI-groups (paper Fig. 8).

A *CI-group* is a connected component of the dependency graph's
concatenation edges (Sec. 3.4.3).  Solving one group generalizes the
basic CI algorithm along three axes:

* **Nesting** — ``(v1 · v2) · v3 ⊆ c4`` builds a tower of machines; a
  subset constraint on the top affects every operand below it.  We keep
  the paper's *shared solution representation* by making every
  operand's solution a literal sub-machine (a start/final boundary
  pair) of its top-level machine, so later intersections on the top
  machine automatically update the operands.
* **Operation ordering** — inbound subset constraints are applied to a
  node *before* its machine participates in a concatenation (the
  paper's first invariant, which the ``nid_5`` example motivates).
* **Sharing** — a variable that occurs as an operand of several
  concatenations receives one slice per occurrence; a candidate
  combination of bridge choices is a solution only if the slices'
  intersection is non-empty (the paper's "matching machines" check).

Three hygiene measures keep the output consistent with the paper's
*Maximal* property (Def. 3.1):

* Constant machines are ε-eliminated before any product.  ε-closure
  aliases of a crossing state would otherwise each produce a bridge
  image with a possibly *smaller* sliced language — satisfying but not
  maximal.  The paper's figures draw constants ε-free for this reason.
* Each candidate is *closed* under a Galois maximization: every
  variable is re-assigned the largest language that keeps all the
  group's constraints satisfied given the other variables' current
  values, computed with universal left/right quotients, until a fixed
  point.  This is what turns the per-ε-transition slices of the
  Sec. 3.1.1 example (``(xyy, z)``, ``(xyy, yyz)``, ``(xyyyy, z)``)
  into the paper's maximal answers ``A1 = (xyy, z|yyz)`` and
  ``A2 = (x(yy|yyyy), z)``.
* Surviving solutions that are pointwise subsumed by another solution
  (every variable's language a subset of the other's) are pruned —
  *online*, against a maximal frontier of incumbents, so the
  enumeration can stop early once ``max_solutions`` provably-maximal
  solutions exist (see :func:`_consume`).

The combination enumeration (stage 5) is organised as a
producer/consumer pair so the producer can be swapped out: serial
in-process (:func:`_serial_candidates`) or fanned out across worker
processes (:mod:`repro.parallel`) when ``GciLimits.workers`` asks for
it.  Candidate order is canonical (mixed-radix combination index, last
tag fastest — exactly ``itertools.product`` order), so results are
identical no matter how the space is chunked.

The output is a list of disjunctive solutions, each mapping the group's
variable nodes to NFAs — one solution per surviving combination of
bridge-ε choices, exactly one choice per concatenation in the group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from .. import obs
from ..automata import ops
from ..automata.dfa import minimize_nfa
from ..automata.equivalence import equivalent, is_subset
from ..automata.nfa import BridgeTag, Nfa
from ..cache import CacheLimits, active_cache
from ..constraints.depgraph import DepGraph, Node

__all__ = ["GciLimits", "solve_group", "group_solutions"]


@dataclass
class GciLimits:
    """Knobs bounding the (worst-case exponential) enumeration.

    ``prune_subsumed`` implements the Maximal property across a group's
    disjunctive solutions.  The subsumption check is *streaming*: each
    candidate is compared against a frontier of incumbent maxima as it
    arrives, and with ``maximize=False`` the enumeration stops as soon
    as ``max_solutions`` provably-unsubsumable solutions exist — so the
    cap bounds work, not just output.  (With ``maximize=True`` a later
    combination can still grow past an earlier one, so the full space
    is consumed before the cap applies; ``prune_subsumed=False`` or
    ``max_solutions=1`` always stream.)

    ``workers`` fans the bridge-combination space out across a process
    pool (:mod:`repro.parallel`): ``0`` forces serial, ``None`` defers
    to the ``DPRLE_WORKERS`` environment variable (default serial).
    Groups whose combination space is smaller than
    ``min_parallel_combinations`` are solved in-process even when
    workers are available — the task encode/decode would cost more than
    the enumeration.

    ``cache`` requests a solver-scoped language cache
    (:class:`repro.cache.LangCache`) for the solve: the worklist solver
    activates one with these limits when no cache is already active.
    ``None`` leaves caching to the caller (:class:`RegLangSolver`
    installs its own).

    ``precheck`` runs the :mod:`repro.check` abstract domains over the
    graph before solving and prunes what they prove empty — basic
    variables short-circuit to ∅ without any products, and a group
    proved unsatisfiable skips the enumeration entirely.  The pruning
    is solution-preserving (see ``docs/DIAGNOSTICS.md``); counters
    ``check.pruned_nodes`` / ``check.proved_unsat`` record its effect.

    ``plan`` selects the enumeration planner (:mod:`repro.solver.plan`):
    ``"off"`` (default) walks the factored space as-is; ``"equiv"``
    collapses signature-interchangeable bridge edges before stage 5;
    ``"beam"`` builds the viability bitmask and schedules parallel
    chunks best-first by exact predicted yield; ``"full"`` does both.
    Every mode preserves the output stream exactly (same solutions,
    same order) — the planner only removes work that is provably
    redundant.  ``beam_width`` caps the number of chunks in flight for
    a planned parallel solve with a ``max_solutions`` cap (``0`` sizes
    the window from the predicted yield).
    """

    max_solutions: Optional[int] = None
    max_combinations: int = 100_000
    dedupe: bool = True
    prune_subsumed: bool = True
    maximize: bool = True
    max_maximize_rounds: int = 3
    minimize_leaves: bool = False
    cache: Optional[CacheLimits] = None
    workers: Optional[int] = None
    min_parallel_combinations: int = 64
    precheck: bool = False
    plan: str = "off"
    beam_width: int = 0


@dataclass
class _Occurrence:
    """One leaf occurrence inside a top machine's expression tree.

    Boundary selectors are resolved against a chosen bridge-edge
    combination: ``("machine",)`` means the top machine's own
    starts/finals; ``("edge-src", tag)`` / ``("edge-dst", tag)`` mean
    the source/target state of the chosen ε-image for ``tag``.
    """

    node: Node
    top: Node
    start_of: tuple
    final_of: tuple


def solve_group(
    graph: DepGraph,
    group: set[Node],
    limits: Optional[GciLimits] = None,
) -> list[dict[Node, Nfa]]:
    """Solve one CI-group; returns its disjunctive solutions eagerly."""
    return list(group_solutions(graph, group, limits))


def group_solutions(
    graph: DepGraph,
    group: set[Node],
    limits: Optional[GciLimits] = None,
) -> Iterator[dict[Node, Nfa]]:
    """Enumerate a CI-group's disjunctive solutions.

    Yields ``{var node: machine}`` dictionaries; an exhausted iterator
    with no yields means the group admits no (non-empty) solutions.
    Enumeration is lazy unless ``prune_subsumed`` demands a wider view;
    even then the streaming frontier lets ``max_solutions=N`` cut the
    enumeration short once the first ``N`` survivors are provably
    final (see :class:`GciLimits`).
    """
    limits = limits or GciLimits()
    with obs.span("ci", group_size=len(group)) as sp:
        prepared = _prepare_group(graph, group, limits)
        if prepared is None:
            # Some concatenation is unrealizable: no solutions.
            sp.set("combinations", 0)
            return
        sp.set("combinations", prepared.total_combinations)
    _emit_group_counters(prepared)
    yield from _consume(prepared, limits, _candidate_stream(prepared, limits))


def _emit_group_counters(prepared: "_PreparedGroup") -> None:
    """The per-group combination accounting, shared with the parallel
    driver.  The identity the telemetry tests rely on::

        total = factored + pruned_equiv + pruned_plan
                + enumerated + skipped
    """
    obs.increment_metric(
        "gci.combinations_total", prepared.total_combinations
    )
    factored_out = prepared.total_combinations - prepared.factored_combinations
    if factored_out:
        obs.increment_metric("gci.combinations_factored", factored_out)
    if prepared.plan is not None:
        if prepared.plan.pruned_equiv:
            obs.increment_metric(
                "gci.combinations_pruned_equiv", prepared.plan.pruned_equiv
            )
        if prepared.plan.pruned_plan:
            obs.increment_metric(
                "gci.combinations_pruned_plan", prepared.plan.pruned_plan
            )


def _candidate_stream(
    prepared: "_PreparedGroup", limits: GciLimits
) -> Iterator[tuple[int, Any, dict[Node, Nfa]]]:
    """The stage-5 producer: serial in-process, or a process-pool
    fan-out when workers are configured and the space is big enough."""
    from ..parallel import parallel_candidates, resolve_workers

    workers = resolve_workers(limits.workers)
    if (
        workers > 0
        and prepared.enumeration_space >= limits.min_parallel_combinations
    ):
        return parallel_candidates(prepared, limits, workers)
    return _serial_candidates(prepared, limits)


@dataclass
class _PreparedGroup:
    """Stages 1-4 of the GCI procedure: everything the combination
    enumeration (stage 5) needs, built once per group.

    ``total_combinations`` is the full bridge-choice product;
    ``factored_combinations`` is what is left after the combination-
    space factoring dropped edges that can appear in no viable
    combination (so only the factored space is ever walked).
    ``slice_memo`` memoizes per-occurrence slices across combinations —
    an occurrence's slice depends on at most two tags, so the memo
    collapses the per-combination ``copy``/``trim`` work to one
    computation per (occurrence, boundary-edge) pair.  ``pair_memo``
    memoizes the pairwise share intersections (trimmed, ``None`` when
    empty) keyed by the two occurrences' boundary keys; factoring fills
    it and :func:`_slice_combination` reads it back.

    ``plan`` is the enumeration planner's verdict
    (:class:`repro.solver.plan.EnumerationPlan`, ``None`` when
    ``GciLimits.plan`` is ``"off"``).  Planning may collapse
    ``edges_by_tag`` further (one representative per signature class),
    so the canonical index space actually walked is
    :attr:`index_space`, and :attr:`enumeration_space` is the survivor
    count the enumerated/skipped accounting is measured against.
    """

    machines: dict[Node, Nfa]
    occurrences: list[_Occurrence]
    tag_order: list[BridgeTag]
    edges_by_tag: dict[BridgeTag, list[tuple[int, int]]]
    constraint_specs: list[tuple[Nfa, list[Node]]]
    var_nodes: list[Node]
    leaves: set[Node]
    total_combinations: int
    factored_combinations: int
    slice_memo: dict[tuple, Optional[Nfa]] = field(default_factory=dict)
    pair_memo: dict[tuple, Optional[Nfa]] = field(default_factory=dict)
    plan: Optional[Any] = None

    @property
    def index_space(self) -> int:
        """The canonical index space over the current edge lists."""
        space = 1
        for tag in self.tag_order:
            space *= len(self.edges_by_tag[tag])
        return space

    @property
    def enumeration_space(self) -> int:
        """How many combinations stage 5 can walk at most (survivors
        of the plan's viability mask; the whole index space without
        one)."""
        if self.plan is not None:
            return self.plan.survivors
        return self.factored_combinations

    def survivors_in(self, start: int, stop: int) -> int:
        """Walkable combinations with canonical index in [start, stop)."""
        if self.plan is not None:
            return self.plan.count_survivors(start, stop)
        return max(0, stop - start)


def _serial_candidates(
    prepared: "_PreparedGroup", limits: GciLimits
) -> Iterator[tuple[int, Any, dict[Node, Nfa]]]:
    """Walk the whole (factored) combination space in-process.

    Yields ``(combination index, dedupe key or None, solution)``; the
    key slot is filled by the parallel producer (workers compute
    signatures on their side) and left ``None`` here.  Accounts walked
    combinations into ``gci.combinations_enumerated`` /
    ``gci.combinations_skipped`` when the consumer stops early.
    """
    progress = [0]
    try:
        for index, solution in _iter_candidates(
            prepared, limits, 0, None, progress
        ):
            yield index, None, solution
    finally:
        obs.increment_metric("gci.combinations_enumerated", progress[0])
        skipped = prepared.enumeration_space - progress[0]
        if skipped > 0:
            obs.increment_metric("gci.combinations_skipped", skipped)


def _iter_candidates(
    prepared: "_PreparedGroup",
    limits: GciLimits,
    start: int,
    stop: Optional[int],
    progress: Optional[list[int]] = None,
) -> Iterator[tuple[int, dict[Node, Nfa]]]:
    """Yield ``(index, solution)`` for the viable combinations with
    canonical index in ``[start, stop)``.

    The canonical index enumerates ``itertools.product`` order over the
    factored edge lists (last tag in ``tag_order`` fastest); workers
    and the serial path share this function, so a combination's index —
    and therefore the output order — is identical regardless of how the
    space is chunked.  ``progress``, when given, is a one-element list
    incremented per combination walked (work accounting survives an
    early ``close()``).
    """
    edge_lists = [prepared.edges_by_tag[tag] for tag in prepared.tag_order]
    radices = [len(edges) for edges in edge_lists]
    total = 1
    for radix in radices:
        total *= radix
    stop = total if stop is None else min(stop, total)
    if start >= stop:
        return
    plan = prepared.plan
    if plan is not None and plan.mask is not None:
        # Planned walk: only the viability-mask survivors, by index.
        indices: Any = plan.iter_survivors(start, stop)
        digits = None
    else:
        indices = range(start, stop)
        digits = _digits_at(start, radices)
    for index in indices:
        if digits is None:
            current = _digits_at(index, radices)
        else:
            current = digits
        if progress is not None:
            # Serial path: heartbeat against the group's walkable space
            # (the parallel path reports per-chunk from _drain instead).
            progress[0] += 1
            obs.progress(
                "gci_enumeration", progress[0], prepared.enumeration_space
            )
        with obs.span("gci_combination") as sp:
            chosen = {
                tag: edge_lists[pos][current[pos]]
                for pos, tag in enumerate(prepared.tag_order)
            }
            solution = _slice_combination(prepared, chosen)
            if solution is not None and limits.maximize:
                with obs.span("gci_maximize"):
                    solution = _maximize_solution(
                        solution,
                        prepared.machines,
                        prepared.constraint_specs,
                        prepared.var_nodes,
                        limits,
                    )
            sp.set("viable", solution is not None)
        if solution is not None:
            yield index, solution
        if digits is not None:
            for pos in range(len(digits) - 1, -1, -1):
                digits[pos] += 1
                if digits[pos] < radices[pos]:
                    break
                digits[pos] = 0


def _digits_at(index: int, radices: list[int]) -> list[int]:
    """Mixed-radix decomposition of a canonical combination index."""
    digits = [0] * len(radices)
    for pos in range(len(radices) - 1, -1, -1):
        index, digits[pos] = divmod(index, radices[pos])
    return digits


def _combo_at(
    prepared: "_PreparedGroup", index: int
) -> dict[BridgeTag, tuple[int, int]]:
    """The chosen-edge mapping for a canonical combination index."""
    edge_lists = [prepared.edges_by_tag[tag] for tag in prepared.tag_order]
    digits = _digits_at(index, [len(edges) for edges in edge_lists])
    return {
        tag: edge_lists[pos][digits[pos]]
        for pos, tag in enumerate(prepared.tag_order)
    }


def _deduped(
    prepared: "_PreparedGroup",
    limits: GciLimits,
    candidates: Iterator[tuple[int, Any, dict[Node, Nfa]]],
) -> Iterator[tuple[int, Any, dict[Node, Nfa]]]:
    """Drop language-duplicate candidates (stage-5 dedupe).

    With a language cache (or worker-computed keys) this is a
    signature-set membership test; without either it falls back to the
    pairwise equivalence scan against previously accepted solutions.
    """
    cache = active_cache()
    seen: set = set()
    accepted: list[dict[Node, Nfa]] = []
    for index, key, solution in candidates:
        if key is None and cache is not None:
            key = tuple(
                cache.signature(solution[node]) for node in prepared.var_nodes
            )
        if key is not None:
            if key in seen:
                continue
            seen.add(key)
        elif any(_pointwise_equivalent(solution, prior) for prior in accepted):
            continue
        else:
            accepted.append(solution)
        yield index, key, solution


def _consume(
    prepared: "_PreparedGroup",
    limits: GciLimits,
    candidates: Iterator[tuple[int, Any, dict[Node, Nfa]]],
) -> Iterator[dict[Node, Nfa]]:
    """The stage-5 consumer: dedupe, subsumption, caps.

    Three regimes, all reading the same producer stream:

    * ``prune_subsumed=False`` or ``max_solutions == 1`` — stream
      candidates straight through (the paper's Sec. 3.5 first-solution
      behaviour).
    * pruning with ``dedupe=False`` — the legacy collect-everything
      pairwise scan; mutually-equal candidates subsume each other, a
      corner the frontier below cannot reproduce.
    * pruning with dedupe (the default) — an online *maximal frontier*:
      a candidate subsumed by an incumbent is dropped on arrival,
      incumbents subsumed by a new candidate leave the frontier, and —
      when ``maximize`` is off, so candidate languages are bounded by
      their slices — the enumeration stops early once the first
      ``max_solutions`` frontier members are provably unsubsumable by
      any future combination (:func:`_member_is_safe`).

    The frontier's final content equals the survivors of the full
    pairwise scan (domination is transitive, and dedupe guarantees no
    symmetric ties), in canonical index order — so results are
    identical to eager enumerate-then-prune, only cheaper.
    """
    try:
        cap = limits.max_solutions
        if not limits.prune_subsumed or cap == 1:
            source = (
                _deduped(prepared, limits, candidates)
                if limits.dedupe
                else candidates
            )
            yielded = 0
            for _, _, solution in source:
                yield solution
                yielded += 1
                if cap is not None and yielded >= cap:
                    return
            return

        if not limits.dedupe:
            collected = [solution for _, _, solution in candidates]
            keep: list[dict[Node, Nfa]] = []
            for idx, solution in enumerate(collected):
                subsumed = False
                for jdx, other in enumerate(collected):
                    if idx == jdx:
                        continue
                    if _pointwise_subset(solution, other):
                        subsumed = True
                        break
                if not subsumed:
                    keep.append(solution)
            yield from keep[:cap] if cap is not None else keep
            return

        frontier: list[tuple[int, Any, dict[Node, Nfa]]] = []
        safety: dict[int, bool] = {}
        for index, key, solution in _deduped(prepared, limits, candidates):
            dominated = False
            for _, _, incumbent in frontier:
                # is_subset is signature-memoized when a language cache
                # is active, so this scan costs one inclusion check per
                # distinct language pair rather than per solution pair.
                if _pointwise_subset(solution, incumbent):
                    # Dedupe removed equal solutions, so pointwise ⊆
                    # here means strictly smaller somewhere; symmetric
                    # ties cannot arise.
                    dominated = True
                    break
            if dominated:
                continue
            frontier = [
                item
                for item in frontier
                if not _pointwise_subset(item[2], solution)
            ]
            frontier.append((index, key, solution))
            if cap is None or limits.maximize or len(frontier) < cap:
                continue
            # Maximization can grow a later candidate past its slices,
            # so the safety argument below only holds for raw slices.
            exhausted = True
            for member_index, _, member in frontier[:cap]:
                verdict = safety.get(member_index)
                if verdict is None:
                    verdict = _member_is_safe(prepared, member_index, member)
                    safety[member_index] = verdict
                if not verdict:
                    exhausted = False
                    break
            if exhausted:
                break
        if cap is not None:
            frontier = frontier[:cap]
        for _, _, solution in frontier:
            yield solution
    finally:
        candidates.close()


def _member_is_safe(
    prepared: "_PreparedGroup", index: int, solution: dict[Node, Nfa]
) -> bool:
    """Can any not-yet-seen combination pointwise subsume ``solution``?

    A future subsumer must pick, at some tag, an edge different from
    this member's choice.  Every alternative edge is checked: if some
    variable occurrence adjacent to the tag has, for *every* completion
    of its other boundary tag, a slice that does not contain the
    member's language for that variable, then no combination through
    that edge can dominate the member (a candidate's language is always
    contained in each of its occurrence slices — which is why this is
    only sound with ``maximize`` off).  Tags with no adjacent variable
    occurrence cannot change variable languages at all: a combination
    differing only there is a language-duplicate, which dedupe already
    drops.  If every alternative everywhere is blocked, the member is
    *safe* — it will survive the full enumeration.
    """
    chosen = _combo_at(prepared, index)
    for tag in prepared.tag_order:
        edges = prepared.edges_by_tag[tag]
        if len(edges) == 1:
            continue
        adjacent = [
            (occ_index, occ)
            for occ_index, occ in enumerate(prepared.occurrences)
            if occ.node.is_var and _occ_adjacent(occ, tag)
        ]
        if not adjacent:
            continue
        own = chosen[tag]
        for alt in edges:
            if alt == own:
                continue
            if not any(
                _occ_blocks(prepared, occ_index, occ, tag, alt, solution)
                for occ_index, occ in adjacent
            ):
                return False
    return True


def _occ_adjacent(occ: _Occurrence, tag: BridgeTag) -> bool:
    return (occ.start_of[0] != "machine" and occ.start_of[1] is tag) or (
        occ.final_of[0] != "machine" and occ.final_of[1] is tag
    )


def _occ_blocks(
    prepared: "_PreparedGroup",
    occ_index: int,
    occ: _Occurrence,
    tag: BridgeTag,
    alt: tuple[int, int],
    solution: dict[Node, Nfa],
) -> bool:
    """Does ``occ`` rule out every combination choosing ``alt`` at
    ``tag`` as a subsumer of ``solution``?  True iff the member's
    language for the occurrence's variable escapes the slice for every
    completion of the occurrence's other boundary."""
    start_tag = occ.start_of[1] if occ.start_of[0] != "machine" else None
    final_tag = occ.final_of[1] if occ.final_of[0] != "machine" else None
    if start_tag is tag and final_tag is tag:
        boundaries = [(alt, alt)]
    elif start_tag is tag:
        completions = (
            prepared.edges_by_tag[final_tag] if final_tag is not None else [None]
        )
        boundaries = [(alt, other) for other in completions]
    elif final_tag is tag:
        completions = (
            prepared.edges_by_tag[start_tag] if start_tag is not None else [None]
        )
        boundaries = [(other, alt) for other in completions]
    else:  # pragma: no cover - caller filters by adjacency
        return False
    language = solution[occ.node]
    for start_edge, final_edge in boundaries:
        piece = _occurrence_slice(
            prepared.machines,
            occ,
            occ_index,
            start_edge,
            final_edge,
            prepared.slice_memo,
        )
        # An empty slice blocks trivially: the member's language is
        # non-empty (viable candidates never map a variable to ∅).
        if piece is not None and is_subset(language, piece):
            return False
    return True


def _prepare_group(
    graph: DepGraph,
    group: set[Node],
    limits: GciLimits,
) -> Optional[_PreparedGroup]:
    alphabet = graph.alphabet
    leaves = {n for n in group if not n.is_temp}
    ordered_temps = graph.group_temps_in_order(group)

    def const_machine(node: Node) -> Nfa:
        # ε-eliminated constants keep bridge images one-per-crossing.
        return ops.eliminate_epsilon(graph.machine(node))

    # -- Stage 1: leaf machines, subset constraints first (invariant 1).
    # dprle-lint: identity-sensitive
    # Stage 1/2 machines carry the start/final structure the stage-4
    # bridge images are read from; signature-keyed cache substitution
    # here is the PR 2 bug (L002 enforces this — docs/LINTING.md).
    machines: dict[Node, Nfa] = {}
    for leaf in sorted(leaves, key=lambda n: n.name):
        if leaf.is_var:
            base = Nfa.universal(alphabet)
        else:
            base = const_machine(leaf)
        for const_node in graph.inbound_subsets(leaf):
            # Uncached product, never ops.intersect: this machine's
            # start/final structure determines the stage-4 bridge images
            # (|finals(left)| × |starts(right)| ε-edges per concat), and
            # a signature-keyed cache hit may substitute a language-equal
            # machine with different structure — merging distinct
            # crossings and dropping maximal disjuncts depending on what
            # the cache happened to see first.
            base, _ = ops.product(base, const_machine(const_node))
            base = base.trim()
        if limits.minimize_leaves:
            # dprle-lint: disable=L002 -- deliberate opt-in: collapsing leaf structure BEFORE any bridge tag exists is sound; the flag defaults off
            base = minimize_nfa(base)
        machines[leaf] = base

    # -- Stage 2: temp machines bottom-up; every concatenation gets a
    # bridge tag, every inbound subset is a product on the result.
    tags: dict[Node, BridgeTag] = {}
    for temp in ordered_temps:
        pair = graph.concat_of(temp)
        assert pair is not None
        tag = BridgeTag(temp.name)
        tags[temp] = tag
        machine = ops.concat(machines[pair.left], machines[pair.right], tag)
        for const_node in graph.inbound_subsets(temp):
            machine, _ = ops.product(machine, const_machine(const_node))
            machine = machine.trim()
        machines[temp] = machine

    # -- Stage 3: top machines and the leaf occurrences inside them.
    tops = graph.top_temps(group)
    occurrences: list[_Occurrence] = []
    tags_by_top: dict[Node, list[BridgeTag]] = {}

    def walk(node: Node, top: Node, start_of: tuple, final_of: tuple) -> None:
        if node.is_temp and node in group:
            pair = graph.concat_of(node)
            assert pair is not None
            tag = tags[node]
            tags_by_top[top].append(tag)
            walk(pair.left, top, start_of, ("edge-src", tag))
            walk(pair.right, top, ("edge-dst", tag), final_of)
        else:
            occurrences.append(_Occurrence(node, top, start_of, final_of))

    for top in tops:
        tags_by_top[top] = []
        walk(top, top, ("machine",), ("machine",))

    # -- Stage 4: candidate bridge edges per tag, read off the final top
    # machines (the images of each concatenation ε under the products).
    edges_by_tag: dict[BridgeTag, list[tuple[int, int]]] = {
        tag: [] for tag in tags.values()
    }
    for top in tops:
        machine = machines[top]
        live = machine.live_states()
        for src, edge in sorted(
            machine.edges(), key=lambda item: (item[0], item[1].dst)
        ):
            if edge.tag is None or edge.tag not in edges_by_tag:
                continue
            if src in live and edge.dst in live:
                edges_by_tag[edge.tag].append((src, edge.dst))

    tag_order = [tag for top in tops for tag in tags_by_top[top]]
    for tag in tag_order:
        if not edges_by_tag[tag]:
            return None  # some concatenation is unrealizable

    total_combinations = 1
    for tag in tag_order:
        total_combinations *= len(edges_by_tag[tag])
    if total_combinations > limits.max_combinations:
        raise RuntimeError(
            f"CI-group requires {total_combinations} bridge combinations "
            f"(limit {limits.max_combinations})"
        )

    # -- Stage 4.5: combination-space factoring.  A bridge edge whose
    # slice is empty for one of its occurrences under every completion,
    # or whose slice misses every partner slice of another occurrence
    # of the same (shared) variable, can appear in no viable
    # combination; dropping it shrinks the product that stage 5 walks.
    # The slices and pairwise intersections computed here seed the
    # memos the enumeration reuses.
    slice_memo: dict[tuple, Optional[Nfa]] = {}
    pair_memo: dict[tuple, Optional[Nfa]] = {}
    with obs.span("gci_factor", tags=len(tag_order)):
        factorable = _factor_edges(
            machines, occurrences, tag_order, edges_by_tag, slice_memo, pair_memo
        )
    if not factorable:
        return None  # some tag lost all its edges: unrealizable
    factored_combinations = 1
    for tag in tag_order:
        factored_combinations *= len(edges_by_tag[tag])

    # Flattened leaf sequences per constrained temp, for maximization:
    # the subtree of temp ``t`` denotes the concatenation of its leaves
    # in order, and must be ⊆ every constant on ``t``.
    constraint_specs: list[tuple[Nfa, list[Node]]] = []
    if limits.maximize:
        for temp in ordered_temps:
            inbound = graph.inbound_subsets(temp)
            if not inbound:
                continue
            leaf_seq = _flatten_leaves(graph, group, temp)
            for const_node in inbound:
                constraint_specs.append((const_machine(const_node), leaf_seq))

    var_nodes = sorted((n for n in leaves if n.is_var), key=lambda n: n.name)
    prepared = _PreparedGroup(
        machines=machines,
        occurrences=occurrences,
        tag_order=tag_order,
        edges_by_tag=edges_by_tag,
        constraint_specs=constraint_specs,
        var_nodes=var_nodes,
        leaves=leaves,
        total_combinations=total_combinations,
        factored_combinations=factored_combinations,
        slice_memo=slice_memo,
        pair_memo=pair_memo,
    )
    if limits.plan != "off":
        from .plan import build_plan

        prepared.plan = build_plan(prepared, limits)
    return prepared


def _factor_edges(
    machines: dict[Node, Nfa],
    occurrences: list[_Occurrence],
    tag_order: list[BridgeTag],
    edges_by_tag: dict[BridgeTag, list[tuple[int, int]]],
    memo: dict[tuple, Optional[Nfa]],
    pair_memo: dict[tuple, Optional[Nfa]],
) -> bool:
    """Drop bridge edges that admit no viable combination; fixpoint.

    Two per-edge tests, neither needing a full product walk:

    * *Boundary viability* — the occurrence's slice must be non-empty
      for at least one completion of its other boundary.  For groups
      built by :func:`_prepare_group` this is a defensive no-op: stage
      4 keeps only live edges, and a live edge's target always reaches
      the finals through *some* completing edge, so one completion is
      always non-empty.  It guards hand-assembled groups.
    * *Share viability* — a variable occurring in several
      concatenations is assigned the *intersection* of its slices, so
      an edge whose slice has an empty intersection with every partner
      slice of some other occurrence of the same variable is dead.
      This is a language check, not a reachability check, and it is
      what actually fires in practice (e.g. a shared middle variable
      squeezed between an ``a``-only and a ``b``-only neighbour).  The
      pairwise intersections land in ``pair_memo``, where
      :func:`_slice_combination` reuses them, so factoring fronts
      enumeration work instead of duplicating it.

    Removing an edge can strand edges of a neighbouring tag (their
    only non-empty partners are gone), hence the fixpoint loop.
    Returns False when a tag loses every edge (the group is
    unrealizable).
    """
    # Single-tagged-boundary occurrences of each shared variable: the
    # slice is determined by one edge choice, so the pairwise check is
    # |edges| x |edges| at worst (and early-exits per edge).  Doubly
    # tagged occurrences would multiply completions; they are left to
    # the per-combination check.
    shares: dict[Node, list[tuple[int, BridgeTag, str]]] = {}
    for occ_index, occ in enumerate(occurrences):
        if not occ.node.is_var:
            continue
        start_tag = occ.start_of[1] if occ.start_of[0] != "machine" else None
        final_tag = occ.final_of[1] if occ.final_of[0] != "machine" else None
        if (start_tag is None) == (final_tag is None):
            continue
        if start_tag is not None:
            shares.setdefault(occ.node, []).append(
                (occ_index, start_tag, "start")
            )
        else:
            shares.setdefault(occ.node, []).append(
                (occ_index, final_tag, "final")
            )

    changed = True
    while changed:
        changed = False
        for occ_index, occ in enumerate(occurrences):
            start_tag = occ.start_of[1] if occ.start_of[0] != "machine" else None
            final_tag = occ.final_of[1] if occ.final_of[0] != "machine" else None
            if start_tag is None and final_tag is None:
                continue

            def viable(start_edge, final_edge) -> bool:
                return (
                    _occurrence_slice(
                        machines, occ, occ_index, start_edge, final_edge, memo
                    )
                    is not None
                )

            if start_tag is not None and start_tag is final_tag:
                kept = [e for e in edges_by_tag[start_tag] if viable(e, e)]
                if len(kept) != len(edges_by_tag[start_tag]):
                    edges_by_tag[start_tag] = kept
                    changed = True
                    if not kept:
                        return False
                continue
            if start_tag is not None:
                completions = (
                    edges_by_tag[final_tag]
                    if final_tag is not None
                    else [None]
                )
                kept = [
                    e
                    for e in edges_by_tag[start_tag]
                    if any(viable(e, other) for other in completions)
                ]
                if len(kept) != len(edges_by_tag[start_tag]):
                    edges_by_tag[start_tag] = kept
                    changed = True
                    if not kept:
                        return False
            if final_tag is not None:
                completions = (
                    edges_by_tag[start_tag]
                    if start_tag is not None
                    else [None]
                )
                kept = [
                    e
                    for e in edges_by_tag[final_tag]
                    if any(viable(other, e) for other in completions)
                ]
                if len(kept) != len(edges_by_tag[final_tag]):
                    edges_by_tag[final_tag] = kept
                    changed = True
                    if not kept:
                        return False

        for node, occs in shares.items():
            if len(occs) < 2:
                continue
            for i1, tag1, side1 in occs:
                def key_of(i, side, edge):
                    return (i, edge, None) if side == "start" else (i, None, edge)

                def partnered(edge) -> bool:
                    key1 = key_of(i1, side1, edge)
                    for i2, tag2, side2 in occs:
                        if i2 == i1:
                            continue
                        # A tag shared by both occurrences pins both
                        # boundaries to the *same* chosen edge.
                        partners = [edge] if tag2 is tag1 else edges_by_tag[tag2]
                        if not any(
                            _share_intersection(
                                machines,
                                occurrences,
                                key1,
                                key_of(i2, side2, partner),
                                memo,
                                pair_memo,
                            )
                            is not None
                            for partner in partners
                        ):
                            return False
                    return True

                kept = [e for e in edges_by_tag[tag1] if partnered(e)]
                if len(kept) != len(edges_by_tag[tag1]):
                    edges_by_tag[tag1] = kept
                    changed = True
                    if not kept:
                        return False
    return True


def _share_intersection(
    machines: dict[Node, Nfa],
    occurrences: list[_Occurrence],
    key1: tuple,
    key2: tuple,
    memo: dict[tuple, Optional[Nfa]],
    pair_memo: dict[tuple, Optional[Nfa]],
) -> Optional[Nfa]:
    """Trimmed intersection of two occurrence slices, memoized.

    ``key1``/``key2`` are slice-memo keys ``(occ index, start edge,
    final edge)`` of two occurrences of the same variable; the memoized
    machine is shared, so callers must ``copy()`` before handing it out
    as part of a solution.  ``None`` means the intersection is empty.
    """
    pair_key = (key1, key2) if key1[0] < key2[0] else (key2, key1)
    if pair_key in pair_memo:
        obs.increment_metric("gci.pair_memo_hits")
        return pair_memo[pair_key]
    obs.increment_metric("gci.pair_memo_misses")
    a = _occurrence_slice(
        machines, occurrences[key1[0]], key1[0], key1[1], key1[2], memo
    )
    b = _occurrence_slice(
        machines, occurrences[key2[0]], key2[0], key2[1], key2[2], memo
    )
    if a is None or b is None:
        result = None
    else:
        intersection = ops.intersect(a, b).trim()
        result = None if intersection.is_empty() else intersection
    # dprle-lint: disable=L001 -- pair_memo is a documented out-param accumulator, not machine state
    pair_memo[pair_key] = result
    return result


def _occurrence_slice(
    machines: dict[Node, Nfa],
    occ: _Occurrence,
    occ_index: int,
    start_edge: Optional[tuple[int, int]],
    final_edge: Optional[tuple[int, int]],
    memo: dict[tuple, Optional[Nfa]],
) -> Optional[Nfa]:
    """The occurrence's sub-machine for one boundary choice, memoized.

    ``None`` boundaries keep the top machine's own starts/finals; a
    ``(src, dst)`` bridge edge sets the start to its destination
    (start-side) or the final to its source (final-side), exactly the
    paper's induce-from construction.  Returns ``None`` for an empty
    slice.  Memoized machines are shared across combinations — callers
    must copy before handing one out as (part of) a solution.
    """
    key = (occ_index, start_edge, final_edge)
    if key in memo:
        obs.increment_metric("gci.slice_memo_hits")
        return memo[key]
    obs.increment_metric("gci.slice_memo_misses")
    piece = machines[occ.top].copy()
    if start_edge is not None:
        piece.set_start(start_edge[1])
    if final_edge is not None:
        piece.set_final(final_edge[0])
    piece = piece.trim()
    result = None if piece.is_empty() else piece
    # dprle-lint: disable=L001 -- memo is a documented out-param accumulator, not machine state
    memo[key] = result
    return result


def _slice_combination(
    prepared: "_PreparedGroup",
    chosen: dict[BridgeTag, tuple[int, int]],
) -> Optional[dict[Node, Nfa]]:
    """Slice every occurrence for one bridge choice; None if any slice
    or any shared variable's intersection is empty."""
    slices: dict[Node, list[tuple[tuple, Nfa]]] = {
        node: [] for node in prepared.leaves
    }
    for occ_index, occ in enumerate(prepared.occurrences):
        start_edge = (
            chosen[occ.start_of[1]] if occ.start_of[0] != "machine" else None
        )
        final_edge = (
            chosen[occ.final_of[1]] if occ.final_of[0] != "machine" else None
        )
        piece = _occurrence_slice(
            prepared.machines,
            occ,
            occ_index,
            start_edge,
            final_edge,
            prepared.slice_memo,
        )
        if piece is None:
            return None
        slices[occ.node].append(((occ_index, start_edge, final_edge), piece))

    solution: dict[Node, Nfa] = {}
    for node in prepared.var_nodes:
        parts = slices[node]
        if len(parts) == 1:
            # The memoized slice is shared across combinations; the
            # solution must own its machine.
            machine = parts[0][1].copy()
        elif len(parts) == 2:
            # The common sharing shape; the intersection is memoized
            # (and may already be warm from the factoring pass).
            cached = _share_intersection(
                prepared.machines,
                prepared.occurrences,
                parts[0][0],
                parts[1][0],
                prepared.slice_memo,
                prepared.pair_memo,
            )
            if cached is None:
                return None
            machine = cached.copy()
        else:
            machine = parts[0][1]
            for _, part in parts[1:]:
                machine = ops.intersect(machine, part).trim()
            if machine.is_empty():
                return None
        solution[node] = machine
    return solution


def _flatten_leaves(graph: DepGraph, group: set[Node], temp: Node) -> list[Node]:
    """Leaf operands of ``temp``'s subtree, left to right."""
    pair = graph.concat_of(temp)
    assert pair is not None
    out: list[Node] = []
    for operand in pair.operands():
        if operand.is_temp and operand in group:
            out.extend(_flatten_leaves(graph, group, operand))
        else:
            out.append(operand)
    return out


def _maximize_solution(
    solution: dict[Node, Nfa],
    leaf_machines: dict[Node, Nfa],
    constraint_specs: list[tuple[Nfa, list[Node]]],
    var_nodes: list[Node],
    limits: GciLimits,
) -> dict[Node, Nfa]:
    """Close a satisfying candidate under the Galois maximization.

    For each variable in turn, compute the largest language that keeps
    every constraint satisfied with the *other* leaves fixed at their
    current values: for an occurrence with left context ``L`` and right
    context ``R`` inside a constraint ``⊆ c``, the admissible strings
    are ``LQ(L, RQ(c, R))`` (universal quotients).  Languages only grow
    (the current value is always admissible), so iterating to a fixed
    point — usually one round — yields a maximal assignment.
    """
    current: dict[Node, Nfa] = dict(solution)

    def value(node: Node) -> Nfa:
        if node in current:
            return current[node]
        return leaf_machines[node]  # constants stay fixed

    # A variable occurring twice in one constraint cannot be maximized
    # this way: the quotient for one occurrence holds the *other*
    # occurrence fixed at the current value, so the grown language is
    # not guaranteed to satisfy the constraint when substituted at both
    # positions simultaneously (e.g. v·v ⊆ c).  Such variables keep
    # their sliced (sound) value.
    nonlinear = {
        var
        for var in var_nodes
        for _, leaf_seq in constraint_specs
        if leaf_seq.count(var) > 1
    }

    for _ in range(limits.max_maximize_rounds):
        changed = False
        for var in var_nodes:
            if var in nonlinear:
                continue
            # The variable's own subset constraints are baked into its
            # stage-1 leaf machine.
            cap = leaf_machines[var]
            for const, leaf_seq in constraint_specs:
                for idx, leaf in enumerate(leaf_seq):
                    if leaf != var:
                        continue
                    left = _concat_all(
                        [value(n) for n in leaf_seq[:idx]], cap.alphabet
                    )
                    right = _concat_all(
                        [value(n) for n in leaf_seq[idx + 1 :]], cap.alphabet
                    )
                    admissible = ops.left_quotient(
                        left, ops.right_quotient(const, right)
                    )
                    cap = ops.intersect(cap, admissible).trim()
            if not is_subset(cap, current[var]):
                current[var] = cap
                changed = True
        if not changed:
            break
    return current


def _concat_all(parts: list[Nfa], alphabet) -> Nfa:
    if not parts:
        return Nfa.epsilon_only(alphabet)
    machine = parts[0]
    for part in parts[1:]:
        machine = ops.concat(machine, part)
    return machine


def _pointwise_equivalent(a: dict[Node, Nfa], b: dict[Node, Nfa]) -> bool:
    return all(equivalent(machine, b[node]) for node, machine in a.items())


def _pointwise_subset(a: dict[Node, Nfa], b: dict[Node, Nfa]) -> bool:
    return all(is_subset(machine, b[node]) for node, machine in a.items())
