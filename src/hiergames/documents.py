"""JSON game documents: the CLI's interchange format.

Two shapes, distinguished by their keys:

  spec form:      {"kind": "disjunctive"|"conjunctive",
                   "n": [n1, ...], "k": [k1, ...], "name": optional}
  explicit form:  {"universe": [n1, ...],
                   "min_winning": [[c1, ...], ...], "name": optional}

Levels are 1-indexed in prose and in CLI output, but the vectors above are
plain positional arrays (index 0 is level 1). Rationals never appear in game
documents; they only show up in verdicts, serialized as 'p/q' strings.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Any, Optional

from .core import Coalition, ExplicitGame, Multiset
from .hierarchy import HierSpec, realize

__all__ = [
    "GameDocument",
    "parse_document",
    "document_from_spec",
    "document_from_game",
    "document_to_dict",
    "load_document",
]


@dataclass(frozen=True)
class GameDocument:
    """Exactly one of spec/game is set; name is cosmetic."""

    name: Optional[str]
    spec: Optional[HierSpec]
    game: Optional[ExplicitGame]

    def __post_init__(self) -> None:
        if (self.spec is None) == (self.game is None):
            raise ValueError("document needs exactly one of spec or explicit game")

    def to_game(self) -> ExplicitGame:
        return self.game if self.game is not None else realize(self.spec)


def document_from_spec(spec: HierSpec, name: Optional[str] = None) -> GameDocument:
    return GameDocument(name=name, spec=spec, game=None)


def document_from_game(game: ExplicitGame, name: Optional[str] = None) -> GameDocument:
    return GameDocument(name=name, spec=None, game=game)


def parse_document(data: Any) -> GameDocument:
    """Build a document from parsed JSON (a dict of one of the two shapes)."""
    if not isinstance(data, dict):
        raise ValueError(f"game document must be a JSON object, got {type(data).__name__}")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError("document name must be a string")
    spec_keys = {"kind", "n", "k"}
    explicit_keys = {"universe", "min_winning"}
    has_spec = spec_keys & data.keys()
    has_explicit = explicit_keys & data.keys()
    if has_spec and has_explicit:
        raise ValueError("document mixes spec keys with explicit-game keys")
    if has_spec:
        missing = spec_keys - data.keys()
        if missing:
            raise ValueError(f"spec document missing keys: {sorted(missing)}")
        spec = HierSpec(data["kind"], tuple(data["n"]), tuple(data["k"]))
        return document_from_spec(spec, name)
    if has_explicit:
        missing = explicit_keys - data.keys()
        if missing:
            raise ValueError(f"explicit document missing keys: {sorted(missing)}")
        universe = Multiset(tuple(data["universe"]))
        members = frozenset(Coalition(tuple(row)) for row in data["min_winning"])
        return document_from_game(ExplicitGame(universe, members), name)
    raise ValueError("document has neither spec keys (kind/n/k) nor explicit keys (universe/min_winning)")


def document_to_dict(doc: GameDocument) -> dict:
    out: dict[str, Any] = {}
    if doc.name is not None:
        out["name"] = doc.name
    if doc.spec is not None:
        out["kind"] = doc.spec.kind
        out["n"] = list(doc.spec.n)
        out["k"] = list(doc.spec.k)
    else:
        out["universe"] = list(doc.game.universe.counts)
        out["min_winning"] = sorted(list(w.counts) for w in doc.game.min_winning)
    return out


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object as a dict; a key given twice, at any depth, raises
    ValueError where json would silently keep the last value."""
    out = dict(pairs)
    if len(out) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ValueError(f"JSON object repeats the key {repeated!r}")
    return out


def load_document(path: str) -> GameDocument:
    """Read a document from a JSON file; '-' reads standard input."""
    try:
        if path == "-":
            return parse_document(json.load(sys.stdin, object_pairs_hook=_unique_keys))
        with open(path, "r", encoding="utf-8") as fh:
            return parse_document(json.load(fh, object_pairs_hook=_unique_keys))
    except RecursionError as exc:
        raise ValueError(f"JSON document is nested too deeply: {exc}") from exc
