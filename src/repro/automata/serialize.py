"""Serialization of machines: Graphviz DOT, text tables, JSON.

The DOT output mirrors the paper's machine figures (Figs. 4 and 10):
ε-transitions are dashed, and bridge-tagged ε-transitions (the
concatenation crossings the CI algorithm slices at) are additionally
labelled with their tag.
"""

from __future__ import annotations

import json
from typing import Any

from .alphabet import Alphabet
from .charset import CharSet
from .nfa import BridgeTag, Edge, Nfa

__all__ = ["to_dot", "to_table", "to_json", "from_json", "to_dict", "from_dict"]


def _label_text(label: CharSet | None) -> str:
    if label is None:
        return "ε"
    if label.cardinality() == 1:
        return label.sample()
    text = label.format()
    return f"[{text}]" if len(text) <= 24 else f"[{text[:21]}...]"


def to_dot(nfa: Nfa, name: str = "nfa") -> str:
    """Graphviz DOT rendering of the machine."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  node [shape=circle];']
    for state in sorted(nfa.starts):
        lines.append(f'  __start{state} [shape=point, label=""];')
        lines.append(f"  __start{state} -> s{state};")
    for state in sorted(nfa.states):
        shape = "doublecircle" if state in nfa.finals else "circle"
        lines.append(f'  s{state} [shape={shape}, label="{state}"];')
    for src, edge in nfa.edges():
        text = _label_text(edge.label).replace("\\", "\\\\").replace('"', '\\"')
        style = ""
        if edge.is_epsilon:
            style = ", style=dashed"
            if edge.tag is not None:
                text = f"ε:{edge.tag.label}"
        lines.append(f'  s{src} -> s{edge.dst} [label="{text}"{style}];')
    lines.append("}")
    return "\n".join(lines)


def to_table(nfa: Nfa) -> str:
    """A plain-text transition table, convenient in test failures."""
    rows = [
        f"states: {nfa.num_states}  starts: {sorted(nfa.starts)}  "
        f"finals: {sorted(nfa.finals)}"
    ]
    for src in sorted(nfa.states):
        for edge in nfa.out_edges(src):
            tag = f"  <{edge.tag.label}>" if edge.tag else ""
            rows.append(f"  {src:>4} --{_label_text(edge.label)}--> {edge.dst}{tag}")
    return "\n".join(rows)


def to_json(nfa: Nfa) -> str:
    """A JSON document round-trippable through :func:`from_json`.

    Bridge tags are serialized by label; distinct tags with equal
    labels are merged on load, which is safe because tags are minted
    with unique labels.
    """
    doc: dict[str, Any] = {
        "alphabet": list(nfa.alphabet.universe.ranges),
        "alphabet_name": nfa.alphabet.name,
        "starts": sorted(nfa.starts),
        "finals": sorted(nfa.finals),
        "states": sorted(nfa.states),
        "transitions": [
            {
                "src": src,
                "dst": edge.dst,
                "label": None if edge.label is None else list(edge.label.ranges),
                "tag": edge.tag.label if edge.tag else None,
            }
            for src, edge in nfa.edges()
        ],
    }
    return json.dumps(doc, indent=2)


def to_dict(nfa: Nfa) -> dict[str, Any]:
    """An id-preserving plain-dict encoding for :func:`from_dict`.

    Unlike :func:`to_json`/:func:`from_json`, which renumber states
    densely, this round-trip keeps state ids exactly as they are
    (including the gaps ``trim`` leaves) and serializes tags by label.
    It is the on-disk machine encoding of
    :class:`repro.cache.store.SignatureStore`.
    """
    return {
        "alphabet": list(nfa.alphabet.universe.ranges),
        "alphabet_name": nfa.alphabet.name,
        "next_state": nfa._next_state,
        "starts": sorted(nfa.starts),
        "finals": sorted(nfa.finals),
        "states": sorted(nfa.states),
        "transitions": [
            {
                "src": src,
                "dst": edge.dst,
                "label": None if edge.label is None else list(edge.label.ranges),
                "tag": edge.tag.label if edge.tag else None,
            }
            for src, edge in nfa.edges()
        ],
    }


def from_dict(doc: dict[str, Any]) -> Nfa:
    """Rebuild a machine encoded by :func:`to_dict`, ids intact.

    Bridge tags are minted afresh, one per label, so the machine is a
    language-level value: tag identity is shared within it but not with
    the machine it was encoded from.
    """
    alphabet = Alphabet(
        CharSet([tuple(r) for r in doc["alphabet"]]),
        name=doc.get("alphabet_name", "custom"),
    )
    tags: dict[str, BridgeTag] = {}
    nfa = Nfa(alphabet)
    nfa._next_state = doc["next_state"]
    nfa._edges = {state: [] for state in doc["states"]}
    for item in doc["transitions"]:
        label = (
            None
            if item["label"] is None
            else CharSet([tuple(r) for r in item["label"]])
        )
        tag = None
        if item["tag"] is not None:
            tag = tags.setdefault(item["tag"], BridgeTag(item["tag"]))
        nfa._edges[item["src"]].append(Edge(label, item["dst"], tag))
    nfa.starts = set(doc["starts"])
    nfa.finals = set(doc["finals"])
    return nfa


def from_json(text: str) -> Nfa:
    """Rebuild a machine serialized by :func:`to_json`."""
    doc = json.loads(text)
    alphabet = Alphabet(
        CharSet([tuple(r) for r in doc["alphabet"]]),
        name=doc.get("alphabet_name", "custom"),
    )
    nfa = Nfa(alphabet)
    mapping = {state: nfa.add_state() for state in doc["states"]}
    tags: dict[str, BridgeTag] = {}
    for item in doc["transitions"]:
        label = (
            None
            if item["label"] is None
            else CharSet([tuple(r) for r in item["label"]])
        )
        tag = None
        if item["tag"] is not None:
            tag = tags.setdefault(item["tag"], BridgeTag(item["tag"]))
        nfa.add_transition(mapping[item["src"]], label, mapping[item["dst"]], tag)
    nfa.starts = {mapping[s] for s in doc["starts"]}
    nfa.finals = {mapping[s] for s in doc["finals"]}
    return nfa
