"""Symmetry-aware planning for the GCI stage-5 enumeration.

The bridge-combination space stage 5 walks is a mixed-radix product of
per-tag edge lists, and after the stage-4.5 factoring it still contains
two kinds of provably wasted work:

* **Equivalent choices.**  Two bridge edges of the same tag whose
  slices have equal canonical language signatures (:mod:`repro.cache`)
  for every adjacent occurrence — under every completion of the
  occurrence's other boundary — are *interchangeable*: swapping one for
  the other changes no candidate's language, so the stage-5 dedupe
  would drop every combination using the non-representative anyway,
  only after paying for its products and maximization.  The planner
  mines those equivalence classes up front and collapses each edge
  list to one representative per class
  (``gci.combinations_pruned_equiv``).
* **Provably non-viable combinations.**  The factoring pass already
  computed per-(occurrence, boundary) slices and pairwise share
  intersections (``slice_memo`` / ``pair_memo``).  Read as constraint
  tables over the combination digits, they prove many *individual*
  combinations empty even when no whole edge could be dropped.  The
  planner folds them into a viability bitmask over the collapsed
  space, so the enumeration iterates survivors only
  (``gci.combinations_pruned_plan``).

Both moves are exact with respect to the enumeration's output stream:

* Collapse keeps the *first* edge of each class, so substituting
  representatives for class members maps any dropped combination to a
  strictly smaller canonical index with a pointwise language-equal
  candidate — exactly the combination dedupe keeps first.  Collapse is
  therefore only applied when ``GciLimits.dedupe`` is on (and a
  language cache is active to compute signatures); the raw
  ``dedupe=False`` stream must see every structural candidate.
* The mask only clears combinations some constraint table proves
  ``_slice_combination`` would reject (an empty slice or an empty
  pairwise share intersection), so the surviving stream — indices,
  order, and machines — is identical to the unplanned walk.

The mask doubles as an exact per-chunk yield table: popcounts over
canonical index ranges feed the best-first chunk scheduling in
:mod:`repro.parallel`.

Modes (``GciLimits.plan`` / ``--plan``): ``"off"`` (default, planner
never runs), ``"equiv"`` (class collapse only), ``"beam"`` (viability
mask + yield-ordered chunk scheduling only), ``"full"`` (both).
See ``docs/PLANNER.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from .. import obs
from ..cache import active_cache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..automata.nfa import BridgeTag
    from ..constraints.depgraph import Node
    from .gci import GciLimits, _Occurrence, _PreparedGroup

#: A bridge edge is a ``(src, dst)`` state pair; ``None`` boundaries
#: keep the top machine's own starts/finals.
Edge = Optional[tuple[int, int]]

__all__ = ["PLAN_MODES", "EnumerationPlan", "build_plan"]

#: Recognised ``GciLimits.plan`` values.
PLAN_MODES = ("off", "equiv", "beam", "full")


@dataclass
class EnumerationPlan:
    """The planner's verdict on one prepared CI-group.

    ``space`` is the collapsed index space (the product of the per-tag
    edge-list lengths after class collapse); ``mask`` is the viability
    bitmask over that space (bit ``i`` set ⇔ combination ``i`` may be
    viable), or ``None`` when the mode skips mask building.
    ``survivors`` is ``popcount(mask)`` (``space`` when there is no
    mask).
    """

    mode: str
    space: int
    pruned_equiv: int
    pruned_plan: int
    survivors: int
    mask: Optional[int]

    def iter_survivors(self, start: int, stop: int) -> Iterator[int]:
        """Canonical indices of surviving combinations in [start, stop)."""
        if self.mask is None:
            yield from range(start, stop)
            return
        window = (self.mask >> start) & ((1 << (stop - start)) - 1)
        while window:
            low = window & -window
            yield start + low.bit_length() - 1
            window ^= low

    def count_survivors(self, start: int, stop: int) -> int:
        """Exact survivor count in [start, stop) (a popcount)."""
        if self.mask is None:
            return max(0, stop - start)
        window = (self.mask >> start) & ((1 << (stop - start)) - 1)
        return window.bit_count()


def build_plan(
    prepared: "_PreparedGroup", limits: "GciLimits"
) -> Optional[EnumerationPlan]:
    """Plan the enumeration of ``prepared``; collapses its edge lists
    in place (the same contract as the stage-4.5 factoring).

    Returns ``None`` for ``plan="off"``.  Raises ``ValueError`` on an
    unknown mode — a typo must fail loudly, not silently disable the
    planner someone asked for.
    """
    mode = limits.plan
    if mode == "off":
        return None
    if mode not in PLAN_MODES:
        raise ValueError(
            f"unknown plan mode {mode!r} (expected one of {', '.join(PLAN_MODES)})"
        )
    base_space = prepared.factored_combinations
    with obs.span("gci_plan", mode=mode, base_space=base_space) as sp:
        if mode in ("equiv", "full"):
            _collapse_classes(prepared, limits)
        space = 1
        for tag in prepared.tag_order:
            space *= len(prepared.edges_by_tag[tag])
        pruned_equiv = base_space - space

        mask: Optional[int] = None
        survivors = space
        if mode in ("beam", "full"):
            mask = _viability_mask(prepared)
            survivors = mask.bit_count()
        pruned_plan = space - survivors

        sp.set("space", space)
        sp.set("pruned_equiv", pruned_equiv)
        sp.set("pruned_plan", pruned_plan)
        sp.set("survivors", survivors)
    return EnumerationPlan(
        mode=mode,
        space=space,
        pruned_equiv=pruned_equiv,
        pruned_plan=pruned_plan,
        survivors=survivors,
        mask=mask,
    )


# -- equivalence-class mining ------------------------------------------------


def _occ_tags(
    occ: "_Occurrence",
) -> tuple[Optional["BridgeTag"], Optional["BridgeTag"]]:
    start_tag = occ.start_of[1] if occ.start_of[0] != "machine" else None
    final_tag = occ.final_of[1] if occ.final_of[0] != "machine" else None
    return start_tag, final_tag


def _collapse_classes(prepared: "_PreparedGroup", limits: "GciLimits") -> None:
    """Collapse each tag's edge list, in place, to one representative
    per signature-equivalence class.

    Sound only under dedupe (class members' candidates are pointwise
    language-equal to the representative's, which arrives first in
    canonical order), and only computable with an active language
    cache; otherwise the lists are left untouched.
    """
    from .gci import _occurrence_slice

    cache = active_cache()
    if cache is None or not limits.dedupe:
        return

    def slice_profile(
        occ: "_Occurrence", occ_index: int, start_edge: Edge, final_edge: Edge
    ) -> object:
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
        if occ.node.is_var:
            # Variables contribute their slice's language to candidates:
            # interchangeability needs language equality, interned to a
            # dense per-cache class id.
            return cache.class_id(piece)
        # Constant slices only gate viability; any non-empty slice acts
        # the same.
        return True

    # Tags are collapsed in tag_order; a later tag's profiles range
    # over the *already collapsed* earlier lists, which is sound: only
    # representative completions are ever enumerated.
    for tag in prepared.tag_order:
        edges = prepared.edges_by_tag[tag]
        if len(edges) <= 1:
            continue
        profiles: list[tuple[object, ...]] = []
        for edge in edges:
            profile: list[object] = []
            for occ_index, occ in enumerate(prepared.occurrences):
                start_tag, final_tag = _occ_tags(occ)
                if start_tag is not tag and final_tag is not tag:
                    continue
                if start_tag is tag and final_tag is tag:
                    profile.append(
                        slice_profile(occ, occ_index, edge, edge)
                    )
                elif start_tag is tag:
                    others = (
                        prepared.edges_by_tag[final_tag]
                        if final_tag is not None
                        else [None]
                    )
                    profile.append(
                        tuple(
                            slice_profile(occ, occ_index, edge, other)
                            for other in others
                        )
                    )
                else:
                    others = (
                        prepared.edges_by_tag[start_tag]
                        if start_tag is not None
                        else [None]
                    )
                    profile.append(
                        tuple(
                            slice_profile(occ, occ_index, other, edge)
                            for other in others
                        )
                    )
            profiles.append(tuple(profile))
        representatives: set[tuple[object, ...]] = set()
        kept: list[tuple[int, int]] = []
        for edge, profile in zip(edges, profiles):
            if profile not in representatives:
                representatives.add(profile)
                kept.append(edge)
        if len(kept) != len(edges):
            prepared.edges_by_tag[tag] = kept


# -- viability mask ----------------------------------------------------------


def _viability_mask(prepared: "_PreparedGroup") -> int:
    """A bitmask over the (collapsed) canonical index space with a set
    bit for every combination the factoring tables cannot refute.

    Exact in one direction only: a cleared bit is a proof (some slice
    or pairwise share intersection is empty, so
    ``_slice_combination`` returns ``None``); a set bit is merely
    "not refuted here" — three-way share intersections and
    doubly-tagged share pairs are left to the per-combination check.
    """
    from .gci import _share_intersection

    tag_pos = {tag: pos for pos, tag in enumerate(prepared.tag_order)}
    radices = [len(prepared.edges_by_tag[tag]) for tag in prepared.tag_order]

    # Unary constraints: per tag position, a boolean per digit.
    unary: list[list[bool]] = [[True] * r for r in radices]
    # Binary constraints: (pos1, pos2) -> row-major boolean matrix.
    binary: dict[tuple[int, int], list[bool]] = {}

    def binary_table(pos1: int, pos2: int) -> list[bool]:
        table = binary.get((pos1, pos2))
        if table is None:
            table = [True] * (radices[pos1] * radices[pos2])
            binary[(pos1, pos2)] = table
        return table

    from .gci import _occurrence_slice

    # Per-occurrence boundary viability over the collapsed lists.
    for occ_index, occ in enumerate(prepared.occurrences):
        start_tag, final_tag = _occ_tags(occ)
        if start_tag is None and final_tag is None:
            continue

        def viable(start_edge: Edge, final_edge: Edge) -> bool:
            return (
                _occurrence_slice(
                    prepared.machines,
                    occ,
                    occ_index,
                    start_edge,
                    final_edge,
                    prepared.slice_memo,
                )
                is not None
            )

        if start_tag is not None and start_tag is final_tag:
            allowed = unary[tag_pos[start_tag]]
            for digit, edge in enumerate(prepared.edges_by_tag[start_tag]):
                if allowed[digit] and not viable(edge, edge):
                    allowed[digit] = False
        elif start_tag is not None and final_tag is not None:
            pos1, pos2 = tag_pos[start_tag], tag_pos[final_tag]
            table = binary_table(pos1, pos2)
            edges1 = prepared.edges_by_tag[start_tag]
            edges2 = prepared.edges_by_tag[final_tag]
            for d1, e1 in enumerate(edges1):
                row = d1 * len(edges2)
                for d2, e2 in enumerate(edges2):
                    if table[row + d2] and not viable(e1, e2):
                        table[row + d2] = False
        elif start_tag is not None:
            allowed = unary[tag_pos[start_tag]]
            for digit, edge in enumerate(prepared.edges_by_tag[start_tag]):
                if allowed[digit] and not viable(edge, None):
                    allowed[digit] = False
        else:
            allowed = unary[tag_pos[final_tag]]
            for digit, edge in enumerate(prepared.edges_by_tag[final_tag]):
                if allowed[digit] and not viable(None, edge):
                    allowed[digit] = False

    # Pairwise share viability for singly-tagged occurrences of shared
    # variables — the same pairs the factoring's share test walks, so
    # ``pair_memo`` is warm for most of them.
    singly: dict["Node", list[tuple[int, "BridgeTag", str]]] = {}
    for occ_index, occ in enumerate(prepared.occurrences):
        if not occ.node.is_var:
            continue
        start_tag, final_tag = _occ_tags(occ)
        if (start_tag is None) == (final_tag is None):
            continue
        if start_tag is not None:
            singly.setdefault(occ.node, []).append(
                (occ_index, start_tag, "start")
            )
        else:
            singly.setdefault(occ.node, []).append(
                (occ_index, final_tag, "final")
            )

    def key_of(i: int, side: str, edge: tuple[int, int]) -> tuple[object, ...]:
        return (i, edge, None) if side == "start" else (i, None, edge)

    for node, occs in singly.items():
        for a in range(len(occs)):
            i1, tag1, side1 = occs[a]
            for b in range(a + 1, len(occs)):
                i2, tag2, side2 = occs[b]
                edges1 = prepared.edges_by_tag[tag1]
                if tag1 is tag2:
                    # One shared tag pins both boundaries to one edge.
                    allowed = unary[tag_pos[tag1]]
                    for digit, edge in enumerate(edges1):
                        if allowed[digit] and (
                            _share_intersection(
                                prepared.machines,
                                prepared.occurrences,
                                key_of(i1, side1, edge),
                                key_of(i2, side2, edge),
                                prepared.slice_memo,
                                prepared.pair_memo,
                            )
                            is None
                        ):
                            allowed[digit] = False
                    continue
                pos1, pos2 = tag_pos[tag1], tag_pos[tag2]
                if pos1 > pos2:
                    pos1, pos2 = pos2, pos1
                    (i1, tag1, side1), (i2, tag2, side2) = (
                        (i2, tag2, side2),
                        (i1, tag1, side1),
                    )
                    edges1 = prepared.edges_by_tag[tag1]
                table = binary_table(pos1, pos2)
                edges2 = prepared.edges_by_tag[tag2]
                for d1, e1 in enumerate(edges1):
                    row = d1 * len(edges2)
                    for d2, e2 in enumerate(edges2):
                        if table[row + d2] and (
                            _share_intersection(
                                prepared.machines,
                                prepared.occurrences,
                                key_of(i1, side1, e1),
                                key_of(i2, side2, e2),
                                prepared.slice_memo,
                                prepared.pair_memo,
                            )
                            is None
                        ):
                            table[row + d2] = False

    # Fold the tables into a bitmask by one mixed-radix walk.
    space = 1
    for radix in radices:
        space *= radix
    npos = len(radices)
    binary_items = [
        (pos1, pos2, radices[pos2], table)
        for (pos1, pos2), table in binary.items()
    ]
    mask = 0
    digits = [0] * npos
    for index in range(space):
        ok = True
        for pos in range(npos):
            if not unary[pos][digits[pos]]:
                ok = False
                break
        if ok:
            for pos1, pos2, radix2, table in binary_items:
                if not table[digits[pos1] * radix2 + digits[pos2]]:
                    ok = False
                    break
        if ok:
            mask |= 1 << index
        for pos in range(npos - 1, -1, -1):
            digits[pos] += 1
            if digits[pos] < radices[pos]:
                break
            digits[pos] = 0
    return mask
