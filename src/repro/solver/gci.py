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
  variable is re-assigned, in one pass, the largest language that
  keeps all the group's constraints satisfied given the other
  variables' current values, computed with universal quotients on the
  residual DFAs of the constraint constants (see
  :func:`_maximize_solution`).  This is what turns the
  per-ε-transition slices of the Sec. 3.1.1 example (``(xyy, z)``, ``(xyy, yyz)``, ``(xyyyy, z)``)
  into the paper's maximal answers ``A1 = (xyy, z|yyz)`` and
  ``A2 = (x(yy|yyyy), z)``.
* Maximized solutions that are pointwise subsumed by another solution
  (every variable's language a subset of the other's) are pruned —
  *online*, against a maximal frontier of incumbents (see
  :func:`_select`).

The combination enumeration (stage 5) is one pipeline with no mode
switches: walk, maximize, select.  The producer (:func:`_candidates`)
runs it in-process or fans it out across worker processes
(:mod:`repro.parallel`) when ``GciLimits.workers`` asks for it; both run
:func:`_iter_candidates`, a depth-first walk over the bridge tags that
checks each occurrence slice and each shared variable's intersection as
soon as the tags it depends on are fixed, and skips the whole subtree
below a prefix that fails one, and both maximize every viable candidate
through :func:`_maximized`.  Candidate order is canonical (mixed-radix
combination index, last tag fastest — exactly ``itertools.product``
order), so results are identical no matter how the space is chunked.
The selector (:func:`_select`) keeps the maximal frontier and caps it;
closing the producer early, after the first candidate when
``max_solutions == 1``, is its only way to stop the walk.

The output is a list of disjunctive solutions, each mapping the group's
variable nodes to NFAs — one solution per surviving combination of
bridge-ε choices, exactly one choice per concatenation in the group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from .. import obs
from ..automata import bitset, ops
from ..automata.dfa import determinize
from ..automata.equivalence import is_subset
from ..automata.nfa import BridgeTag, Nfa
from ..cache import active_cache, struct_digest
from ..constraints.depgraph import DepGraph, Node

__all__ = ["GciLimits", "SolveLimitExceeded", "solve_group", "group_solutions"]


class SolveLimitExceeded(RuntimeError):
    """A solve needs more work than a :class:`GciLimits` bound allows.

    ``code`` is the stable diagnostic code the front ends report
    (``D101``, see ``docs/DIAGNOSTICS.md``): the CLI exits 2 and the
    daemon answers 422.
    """

    code = "D101"


@dataclass
class GciLimits:
    """Knobs bounding the (worst-case exponential) enumeration.

    Every viable candidate is closed under the Galois maximization
    (:func:`_maximize_solution`) and the subsumed ones are pruned
    against a maximal frontier.  ``max_solutions`` caps the answer;
    only ``max_solutions == 1`` also bounds the work, by stopping the
    walk at the first candidate (see :func:`_select`).
    ``max_combinations`` refuses a group whose bridge-choice product is
    larger, before any enumeration (:class:`SolveLimitExceeded`).

    ``workers`` fans the bridge-combination space out across a process
    pool (:mod:`repro.parallel`): ``0`` forces serial, ``None`` defers
    to the ``DPRLE_WORKERS`` environment variable (default serial).
    Groups with fewer than ``repro.parallel.MIN_PARALLEL_COMBINATIONS``
    bridge combinations are solved in-process even when workers are
    available — shipping the group and its results would cost more
    than the enumeration.
    """

    max_solutions: Optional[int] = None
    max_combinations: int = 100_000
    workers: Optional[int] = None


@dataclass
class _Occurrence:
    """One leaf occurrence inside a top machine's expression tree.

    Boundary selectors are resolved against a chosen bridge-edge
    combination: ``("machine",)`` means the top machine's own
    starts/finals; ``("edge-src", tag)`` / ``("edge-dst", tag)`` mean
    the source/target state of the chosen ε-image for ``tag``.
    ``start_tag``/``final_tag`` are the selectors' tags, ``None`` for a
    machine boundary.
    """

    node: Node
    top: Node
    start_of: tuple
    final_of: tuple
    start_tag: Optional[BridgeTag] = field(init=False)
    final_tag: Optional[BridgeTag] = field(init=False)

    def __post_init__(self) -> None:
        self.start_tag = None if self.start_of[0] == "machine" else self.start_of[1]
        self.final_tag = None if self.final_of[0] == "machine" else self.final_of[1]


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
    The maximal frontier consumes the whole walk before it yields;
    ``max_solutions=1`` yields the first maximized candidate and stops
    the walk there (see :func:`_select`).
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
    yield from _select(prepared, limits, _candidates(prepared, limits))


def _emit_group_counters(prepared: "_PreparedGroup") -> None:
    """The per-group combination accounting.  The producer adds
    enumerated/skipped (and ``gci.combinations_pruned``, the enumerated
    combinations settled by a failing prefix); the identity the
    telemetry tests rely on::

        total = enumerated + skipped,  pruned <= enumerated
    """
    obs.increment_metric(
        "gci.combinations_total", prepared.total_combinations
    )


@dataclass
class _PreparedGroup:
    """Stages 1-4 of the GCI procedure: everything the combination
    enumeration (stage 5) needs, built once per group.

    ``total_combinations`` is the full bridge-choice product.
    ``slice_memo`` memoizes per-occurrence slices across combinations —
    an occurrence's slice depends on at most two tags, so the memo
    collapses the per-combination restriction of the top machine
    (:meth:`~repro.automata.nfa.Nfa.restricted`) to one computation per
    (occurrence, boundary-edge) pair.  ``barriers`` holds each top's own
    bridge tags, derived from the occurrences (every tag of a top bounds
    one of its occurrences); a slice is walked with its top's set as the
    barrier and so stays inside its own region (see
    :func:`_occurrence_slice`).
    ``pair_memo`` memoizes the share intersections (trimmed, ``None``
    when empty) keyed by the tuple of the variable's slice keys.

    ``schedule`` is the stage-5 walk's check schedule, derived like
    ``barriers``: entry ``k`` lists the occurrences whose boundary tags
    are all among the first ``k`` tags of ``tag_order``, and the
    variables whose occurrences are then all sliced.
    ``var_occurrences`` lists each variable's occurrence indices.

    ``residuals`` holds the residual DFA of each constraint constant
    (parallel to ``constraint_specs``), built by :func:`_residuals` the
    first time the group is maximized; ``quotient_memo`` memoizes the
    maximization's ``post``/``pre`` passes over constant leaves and its
    ``run`` results, keyed by spec index (see :func:`_admissible`).
    Both live and die with the group.
    """

    machines: dict[Node, Nfa]
    occurrences: list[_Occurrence]
    tag_order: list[BridgeTag]
    edges_by_tag: dict[BridgeTag, list[tuple[int, int]]]
    constraint_specs: list[tuple[Nfa, list[Node]]]
    var_nodes: list[Node]
    leaves: set[Node]
    total_combinations: int
    slice_memo: dict[tuple, Optional[Nfa]] = field(default_factory=dict)
    pair_memo: dict[tuple, Optional[Nfa]] = field(default_factory=dict)
    residuals: Optional[list[bitset.Residual]] = None
    quotient_memo: dict[tuple, Any] = field(default_factory=dict)
    barriers: dict[Node, frozenset[BridgeTag]] = field(init=False)
    schedule: list[tuple[list[int], list[Node]]] = field(init=False)
    var_occurrences: dict[Node, list[int]] = field(init=False)

    def __post_init__(self) -> None:
        position = {tag: pos for pos, tag in enumerate(self.tag_order)}
        barriers: dict[Node, set[BridgeTag]] = {}
        self.schedule = [([], []) for _ in range(len(self.tag_order) + 1)]
        levels = []
        for occ_index, occ in enumerate(self.occurrences):
            tags = [t for t in (occ.start_tag, occ.final_tag) if t is not None]
            barriers.setdefault(occ.top, set()).update(tags)
            levels.append(max((position[t] + 1 for t in tags), default=0))
            self.schedule[levels[-1]][0].append(occ_index)
        self.var_occurrences = {}
        for var in self.var_nodes:
            occs = [i for i, occ in enumerate(self.occurrences) if occ.node == var]
            self.var_occurrences[var] = occs
            self.schedule[max(levels[i] for i in occs)][1].append(var)
        self.barriers = {top: frozenset(own) for top, own in barriers.items()}


def _candidates(
    prepared: "_PreparedGroup", limits: GciLimits
) -> Iterator[tuple[int, dict[Node, Nfa]]]:
    """The stage-5 producer: the group's viable candidates in canonical
    order, maximized, as ``(combination index, solution)``.

    A process-pool fan-out (:func:`repro.parallel.parallel_candidates`)
    when :func:`repro.parallel.resolve_workers` grants workers for this
    space; otherwise the in-process walk.  Both add the combinations
    they walk to one ``progress`` cell, which is accounted here into
    ``gci.combinations_enumerated`` / ``gci.combinations_skipped``, also
    when the selector closes the producer early.
    """
    from ..parallel import parallel_candidates, resolve_workers

    workers = resolve_workers(limits.workers, prepared.total_combinations)
    progress = [0]
    try:
        if workers:
            yield from parallel_candidates(prepared, workers, progress)
        else:
            walk = _iter_candidates(prepared, 0, None, progress)
            yield from _maximized(prepared, walk)
    finally:
        obs.increment_metric("gci.combinations_enumerated", progress[0])
        skipped = prepared.total_combinations - progress[0]
        if skipped > 0:
            obs.increment_metric("gci.combinations_skipped", skipped)


def _iter_candidates(
    prepared: "_PreparedGroup",
    start: int,
    stop: Optional[int],
    progress: Optional[list[int]] = None,
) -> Iterator[tuple[int, dict[Node, Nfa]]]:
    """Yield ``(index, solution)`` for the viable combinations with
    canonical index in ``[start, stop)``: the raw slices (their
    intersection for a shared variable), not yet maximized.

    The canonical index enumerates ``itertools.product`` order over the
    edge lists (last tag in ``tag_order`` fastest); workers and the
    serial path share this function, so a combination's index — and
    therefore the output order — is identical regardless of how the
    space is chunked.

    The walk is depth-first in that order.  Fixing the first ``k`` tags
    runs the checks of ``prepared.schedule[k]`` (:func:`_run_checks`);
    an empty slice or intersection settles the whole subtree below the
    prefix at once (``gci.combinations_pruned``), and only subtrees that
    overlap ``[start, stop)`` are entered.  Changing a tag re-runs only
    the checks that depend on it.  Each settlement step — a leaf or a
    cut prefix — is one ``gci_combination`` span.  ``progress``, when
    given, is a one-element list incremented by the combinations each
    step settles (work accounting survives an early ``close()``).
    """
    tag_order = prepared.tag_order
    edge_lists = [prepared.edges_by_tag[tag] for tag in tag_order]
    radices = [len(edges) for edges in edge_lists]
    depth = len(radices)
    # spans[k]: the combinations below one prefix of k fixed tags.
    spans = [1] * (depth + 1)
    for pos in range(depth - 1, -1, -1):
        spans[pos] = spans[pos + 1] * radices[pos]
    stop = spans[0] if stop is None else min(stop, spans[0])
    if start >= stop:
        return
    digits = _digits_at(start, radices)
    chosen = {tag: edge_lists[pos][digits[pos]] for pos, tag in enumerate(tag_order)}
    sliced: dict[int, tuple[tuple, Nfa]] = {}
    values: dict[Node, Nfa] = {}
    index, level = start, 0
    while True:
        with obs.span("gci_combination") as sp:
            cut = _run_checks(prepared, chosen, level, sliced, values)
            solution = None
            if cut is None:
                # Memoized machines are shared across combinations; the
                # solution must own its machines.
                solution = {var: values[var].copy() for var in prepared.var_nodes}
            sp.set("viable", solution is not None)
        settled = depth if cut is None else cut
        end = min((index // spans[settled] + 1) * spans[settled], stop)
        if cut is not None:
            obs.increment_metric("gci.combinations_pruned", end - index)
        if progress is not None:
            # Serial path: heartbeat against the group's whole space
            # (the parallel path reports per chunk instead).
            progress[0] += end - index
            obs.progress("gci_enumeration", progress[0], prepared.total_combinations)
        if solution is not None:
            yield index, solution
        if end >= stop:
            return
        index = end
        following = _digits_at(index, radices)
        changed = next(pos for pos in range(depth) if following[pos] != digits[pos])
        for pos in range(changed, depth):
            chosen[tag_order[pos]] = edge_lists[pos][following[pos]]
        digits, level = following, changed + 1


def _run_checks(
    prepared: "_PreparedGroup",
    chosen: dict[BridgeTag, tuple[int, int]],
    level: int,
    sliced: dict[int, tuple[tuple, Nfa]],
    values: dict[Node, Nfa],
) -> Optional[int]:
    """Run the schedule's checks from ``level`` on, under ``chosen``.

    Each occurrence's slice-memo key and slice land in ``sliced`` and
    each variable's language (its one slice, or the intersection of its
    slices) in ``values``; entries of lower levels are left as they
    are.  Returns the first level whose check came out empty, or
    ``None`` when every check passed.
    """
    for k in range(level, len(prepared.schedule)):
        occ_indices, variables = prepared.schedule[k]
        for occ_index in occ_indices:
            occ = prepared.occurrences[occ_index]
            # chosen.get(None) is None: a machine boundary.
            key = (occ_index, chosen.get(occ.start_tag), chosen.get(occ.final_tag))
            piece = _occurrence_slice(prepared, *key)
            if piece is None:
                return k
            sliced[occ_index] = (key, piece)
        for var in variables:
            occs = prepared.var_occurrences[var]
            if len(occs) == 1:
                meet = sliced[occs[0]][1]
            else:
                meet = _share_intersection(
                    prepared, tuple(sliced[occ][0] for occ in occs)
                )
            if meet is None:
                return k
            values[var] = meet
    return None


def _digits_at(index: int, radices: list[int]) -> list[int]:
    """Mixed-radix decomposition of a canonical combination index."""
    digits = [0] * len(radices)
    for pos in range(len(radices) - 1, -1, -1):
        index, digits[pos] = divmod(index, radices[pos])
    return digits


def _select(
    prepared: "_PreparedGroup",
    limits: GciLimits,
    candidates: Iterator[tuple[int, dict[Node, Nfa]]],
) -> Iterator[dict[Node, Nfa]]:
    """The stage-5 selector: subsumption and caps.

    Two regimes over the producer's stream of maximized candidates:

    * ``max_solutions == 1`` — the first candidate passes straight
      through (the paper's Sec. 3.5 first-solution behaviour), and
      closing the producer stops the walk.
    * otherwise an online *maximal frontier*: a candidate whose tuple of
      structural digests was seen before is dropped at once, any other
      candidate subsumed by an incumbent is dropped on arrival, and
      incumbents subsumed by a new candidate leave the frontier.  A
      later candidate can subsume an earlier one, so the whole stream
      is consumed before ``max_solutions`` applies.

    The frontier's final content equals the survivors of the full
    pairwise scan, the earliest of equal candidates kept, in canonical
    index order: domination is transitive, and an incumbent only ever
    leaves for a superset, so a candidate equal to an earlier one is
    subsumed by whichever member dominates that one.  Results are thus
    identical to eager enumerate-then-prune, only cheaper.
    """
    try:
        cap = limits.max_solutions
        if cap == 1:
            first = next(candidates, None)
            if first is not None:
                yield first[1]
            return

        cache = active_cache()
        digest = struct_digest if cache is None else cache.struct_key
        seen: set[tuple[str, ...]] = set()
        frontier: list[dict[Node, Nfa]] = []
        for _, solution in candidates:
            key = tuple(digest(solution[node]) for node in prepared.var_nodes)
            if key in seen:
                continue
            seen.add(key)
            if any(_pointwise_subset(solution, incumbent) for incumbent in frontier):
                continue
            # Nothing in the frontier contains the candidate, so nothing
            # it removes here is equal to it: ⊆ means strictly smaller.
            frontier = [
                incumbent
                for incumbent in frontier
                if not _pointwise_subset(incumbent, solution)
            ]
            frontier.append(solution)
        yield from frontier[:cap]
    finally:
        candidates.close()


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
    # bridge images are read from; a cached or minimized substitute
    # here makes answers depend on cache history (L002 enforces this —
    # docs/LINTING.md).
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
            # a cache hit may substitute a language-equal machine with
            # different structure — merging distinct crossings and
            # dropping maximal disjuncts depending on what the cache
            # happened to see first.
            base = ops.product(base, const_machine(const_node))
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
            machine = ops.product(machine, const_machine(const_node))
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
        # Products come out trimmed; a bare concatenation is dead where
        # an operand's language is empty, so it keeps the live filter.
        live = None if graph.inbound_subsets(top) else machine.live_states()
        tagged = [
            (src, edge.dst, edge.tag)
            for src, edge in machine.edges()
            if edge.tag in edges_by_tag
            and (live is None or (src in live and edge.dst in live))
        ]
        for src, dst, tag in sorted(tagged, key=lambda item: item[:2]):
            edges_by_tag[tag].append((src, dst))

    tag_order = [tag for top in tops for tag in tags_by_top[top]]
    for tag in tag_order:
        if not edges_by_tag[tag]:
            return None  # some concatenation is unrealizable

    total_combinations = 1
    for tag in tag_order:
        total_combinations *= len(edges_by_tag[tag])
    if total_combinations > limits.max_combinations:
        raise SolveLimitExceeded(
            f"CI-group requires {total_combinations} bridge combinations "
            f"(limit {limits.max_combinations})"
        )

    # Flattened leaf sequences per constrained temp, for maximization:
    # the subtree of temp ``t`` denotes the concatenation of its leaves
    # in order, and must be ⊆ every constant on ``t``.
    constraint_specs = [
        (const_machine(const_node), _flatten_leaves(graph, group, temp))
        for temp in ordered_temps
        for const_node in graph.inbound_subsets(temp)
    ]
    return _PreparedGroup(
        machines=machines,
        occurrences=occurrences,
        tag_order=tag_order,
        edges_by_tag=edges_by_tag,
        constraint_specs=constraint_specs,
        var_nodes=sorted((n for n in leaves if n.is_var), key=lambda n: n.name),
        leaves=leaves,
        total_combinations=total_combinations,
    )


def _share_intersection(
    prepared: _PreparedGroup, keys: tuple[tuple, ...]
) -> Optional[Nfa]:
    """Trimmed intersection of a shared variable's slices, memoized.

    ``keys`` are the slice-memo keys ``(occ index, start edge, final
    edge)`` of the variable's occurrences, in occurrence order; the
    slices are intersected left to right (every product is trimmed).
    The memoized machine is shared, so callers must ``copy()`` before
    handing it out as part of a solution.  ``None`` means the
    intersection is empty.
    """
    pair_memo = prepared.pair_memo
    if keys in pair_memo:
        obs.increment_metric("gci.pair_memo_hits")
        return pair_memo[keys]
    obs.increment_metric("gci.pair_memo_misses")
    result = _occurrence_slice(prepared, *keys[0])
    for key in keys[1:]:
        piece = _occurrence_slice(prepared, *key)
        if result is None or piece is None:
            result = None
            break
        result = ops.intersect(result, piece)
    if result is not None and result.is_empty():
        result = None
    # dprle-lint: disable=L001 -- pair_memo is a documented out-param accumulator, not machine state
    pair_memo[keys] = result
    return result


def _occurrence_slice(
    prepared: _PreparedGroup,
    occ_index: int,
    start_edge: Optional[tuple[int, int]],
    final_edge: Optional[tuple[int, int]],
) -> Optional[Nfa]:
    """The occurrence's sub-machine for one boundary choice, memoized.

    ``None`` boundaries keep the top machine's own starts/finals; a
    ``(src, dst)`` bridge edge sets the start to its destination
    (start-side) or the final to its source (final-side), exactly the
    paper's induce-from construction.  Returns ``None`` for an empty
    slice.  Memoized machines are shared across combinations — callers
    must copy before handing one out as (part of) a solution.

    The walk takes the top's own bridge tags as its barrier, so it
    stays inside the occurrence's region instead of walking everything
    after its start.  The result is the unbarriered slice exactly:
    ``ops.concat`` tags every ε-edge from a left region into a right
    one, ``product`` carries the tag onto every image, and no edge
    leads back from right to left.  A path that crossed one of its
    top's tags would be in a later region, with no way back to the
    occurrence's own final, so the barrier drops only states the trim
    drops anyway.  Each miss counts the states walked and kept
    (``gci.slice.states_walked`` / ``gci.slice.states_kept``).
    """
    memo = prepared.slice_memo
    key = (occ_index, start_edge, final_edge)
    if key in memo:
        obs.increment_metric("gci.slice_memo_hits")
        return memo[key]
    obs.increment_metric("gci.slice_memo_misses")
    occ = prepared.occurrences[occ_index]
    top = prepared.machines[occ.top]
    walked = [0]
    piece = top.restricted(
        top.starts if start_edge is None else {start_edge[1]},
        top.finals if final_edge is None else {final_edge[0]},
        prepared.barriers[occ.top],
        walked,
    )
    obs.increment_metric("gci.slice.states_walked", walked[0])
    obs.increment_metric("gci.slice.states_kept", piece.num_states)
    # A restriction keeps only live finals: none means an empty slice.
    result = piece if piece.finals else None
    # dprle-lint: disable=L001 -- memo is a documented out-param accumulator, not machine state
    memo[key] = result
    return result


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


def _residuals(prepared: "_PreparedGroup") -> list[bitset.Residual]:
    """The residual DFA of each constraint constant, built once per
    group on first use."""
    if prepared.residuals is None:
        prepared.residuals = [
            bitset.Residual(determinize(const))
            for const, _ in prepared.constraint_specs
        ]
    return prepared.residuals


def _maximized(
    prepared: "_PreparedGroup",
    candidates: Iterator[tuple[int, dict[Node, Nfa]]],
) -> Iterator[tuple[int, dict[Node, Nfa]]]:
    """The walk's ``(index, solution)`` stream, each candidate closed
    under the Galois maximization in its own ``gci_maximize`` span.

    The residual DFAs are built first, so their determinizations sit
    outside every ``gci_maximize`` span.  The serial producer and the
    worker chunks both maximize through here.
    """
    _residuals(prepared)
    for index, solution in candidates:
        with obs.span("gci_maximize"):
            solution = _maximize_solution(prepared, solution)
        yield index, solution


def _maximize_solution(
    prepared: "_PreparedGroup", solution: dict[Node, Nfa]
) -> dict[Node, Nfa]:
    """Close a satisfying candidate under the Galois maximization.

    One Gauss–Seidel pass: each variable ``x`` in turn is assigned
    ``cap = leaf(x) ∩ Adm(x)``, where ``leaf(x)`` is its stage-1 machine
    (its own subset constraints) and ``Adm(x)`` the strings every
    constraint admits at each occurrence of ``x`` with the other leaves
    fixed at their current values — ``LQ(L, RQ(c, R))`` for left context
    ``L`` and right context ``R`` inside ``… ⊆ c`` (universal quotients).

    Why one pass reaches the fixpoint.  For a variable occurring at most
    once per constraint, ``Adm`` is antitone in the other variables (a
    larger context admits fewer strings), and each update keeps the
    assignment satisfying: ``cap`` satisfies every constraint on ``x``
    by construction, and ``cap ⊇ current[x]`` because the assignment
    satisfied them before.  So languages only grow.  Take ``x``,
    assigned ``cap`` at its turn; the variables updated after it only
    grew, so a second round would compute ``cap' ⊆ cap`` by
    antitonicity, and ``cap' ⊇ current[x] = cap`` because the final
    assignment is satisfying: ``cap' = cap``.  No variable can grow
    alone any more, which is the paper's *Maximal* (Sec. 3.3), without
    a second round or an inclusion check.  A variable occurring twice in
    one constraint breaks antitonicity (the quotient for one occurrence
    holds the other fixed, so ``v·v ⊆ c`` need not hold for the grown
    language), so such variables keep their sliced (sound) value.

    Since ``cap ⊆ Adm`` always, the pass also repairs a candidate whose
    slices do not satisfy a constraint (a constant operand is sliced
    existentially): the variables shrink to a satisfying assignment
    instead of keeping the slice.

    ``Adm`` is computed on the residual DFA of the constant, never on a
    context machine; see :func:`_admissible`.
    """
    current: dict[Node, Nfa] = dict(solution)
    specs = prepared.constraint_specs
    nonlinear = {
        var
        for var in prepared.var_nodes
        for _, leaf_seq in specs
        if leaf_seq.count(var) > 1
    }
    for var in prepared.var_nodes:
        if var in nonlinear:
            continue
        cap = prepared.machines[var]
        for spec_index, (_, leaf_seq) in enumerate(specs):
            for idx, leaf in enumerate(leaf_seq):
                if leaf == var:
                    admissible = _admissible(
                        prepared, spec_index, idx, current
                    )
                    cap = ops.intersect(cap, admissible)
        current[var] = cap
    return current


def _admissible(
    prepared: "_PreparedGroup",
    spec_index: int,
    idx: int,
    current: dict[Node, Nfa],
) -> Nfa:
    """``LQ(L, RQ(c, R))`` for the occurrence ``leaf_seq[idx]`` of
    constraint ``spec_index``, on the residual DFA of ``c``.

    The goal mask ``G = pre(R, finals)`` folds the right leaves from the
    right, the track mask ``S = post(L, {start})`` folds the left leaves
    from the left, and the admissible strings are ``run(S, G)``.  A
    constant leaf is the same machine for every candidate, so its
    ``post``/``pre`` steps are memoized per ``(spec index, node,
    mask)``; ``run`` depends on ``(spec index, S, G)`` alone.  The
    passes count as the ``right_quotient`` (``pre``) and
    ``left_quotient`` (``post`` and ``run``) operations.
    """
    res = _residuals(prepared)[spec_index]
    leaf_seq = prepared.constraint_specs[spec_index][1]
    memo = prepared.quotient_memo

    def fold(
        kind: str,
        kernel: Callable[[bitset.Residual, Nfa, int], int],
        mask: int,
        leaves: list[Node],
    ) -> int:
        for leaf in leaves:
            machine = current.get(leaf)
            if machine is not None:  # a variable: its value varies
                mask = kernel(res, machine, mask)
                continue
            key = (kind, spec_index, leaf, mask)
            found = memo.get(key)
            if found is None:
                found = kernel(res, prepared.machines[leaf], mask)
                memo[key] = found
            mask = found
        return mask

    obs.count_operation("right_quotient")
    with obs.span("right_quotient"):
        goal = fold(
            "pre", bitset.pre, res.finals_mask, leaf_seq[idx + 1 :][::-1]
        )
    obs.count_operation("left_quotient")
    with obs.span("left_quotient"):
        tracks = fold("post", bitset.post, res.start_mask, leaf_seq[:idx])
        if not tracks:
            # An empty left context constrains nothing: LQ(∅, ·) = Σ*.
            return Nfa.universal(res.dfa.alphabet)
        key = ("run", spec_index, tracks, goal)
        admissible = memo.get(key)
        if admissible is None:
            admissible = bitset.run(res, tracks, goal)
            memo[key] = admissible
    return admissible


def _pointwise_subset(a: dict[Node, Nfa], b: dict[Node, Nfa]) -> bool:
    return all(is_subset(machine, b[node]) for node, machine in a.items())
