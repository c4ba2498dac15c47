"""Five-level geography taxonomy and the active hypothesis set.

The graph is the entire uncertainty state of a game: a fixed tree of
region/subregion/country/state/city nodes plus an active/pruned flag on
every city leaf. Pruning only flips flags; structure is immutable after
build, so transcripts can be replayed against the same graph.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .dataset import CityRecord


class GraphError(Exception):
    """Base class for taxonomy/graph faults."""


class DuplicateCityIdError(GraphError):
    pass


class InconsistentHierarchyError(GraphError):
    pass


class MissingFieldError(GraphError):
    pass


class UnknownIdError(GraphError):
    pass


class NonCityIdError(GraphError):
    pass


class AlreadyPrunedError(GraphError):
    pass


class WouldEmptySpaceError(GraphError):
    pass


class Level(str, Enum):
    """Taxonomy level, ordered from coarsest to finest."""

    REGION = "region"
    SUBREGION = "subregion"
    COUNTRY = "country"
    STATE = "state"
    CITY = "city"

    @property
    def depth(self) -> int:
        return LEVELS.index(self)

    def __lt__(self, other: object) -> bool:  # type: ignore[override]
        if not isinstance(other, Level):
            return NotImplemented
        return self.depth < other.depth


LEVELS: tuple[Level, ...] = (
    Level.REGION,
    Level.SUBREGION,
    Level.COUNTRY,
    Level.STATE,
    Level.CITY,
)

# Levels usable in attribute-membership questions (everything above city).
ATTRIBUTE_LEVELS: tuple[Level, ...] = LEVELS[:-1]

_NODE_ID_RE = re.compile(r"^(region|subregion|country|state|city):([0-9]+)$")


@dataclass(frozen=True)
class NodeId:
    """Identifier of one taxonomy node; canonical form "<level>:<numeric_id>"."""

    level: Level
    numeric_id: int

    def __post_init__(self) -> None:
        if self.numeric_id < 0:
            raise ValueError(f"numeric_id must be non-negative, got {self.numeric_id}")

    def __str__(self) -> str:
        return f"{self.level.value}:{self.numeric_id}"

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.level.depth, self.numeric_id)

    @classmethod
    @functools.lru_cache(maxsize=1 << 14)  # ids are immutable; a dataset has few
    def parse(cls, text: str) -> NodeId:
        m = _NODE_ID_RE.match(text)
        if m is None:
            raise ValueError(f"not a node id: {text!r}")
        return cls(Level(m.group(1)), int(m.group(2)))


@dataclass
class TaxonomyNode:
    id: NodeId
    name: str
    parent: NodeId | None
    children: tuple[NodeId, ...]


class HypothesisGraph:
    """Taxonomy tree plus the set of still-active city leaves.

    One instance is owned by exactly one game; reads are safe to share.
    """

    def __init__(
        self,
        nodes: dict[NodeId, TaxonomyNode],
        city_leaves: frozenset[NodeId],
        fingerprint: str,
    ) -> None:
        self.nodes = nodes
        self.city_leaves = city_leaves
        self.active_cities: set[NodeId] = set(city_leaves)
        self.fingerprint = fingerprint
        # city -> level -> display name of the ancestor at that level (the
        # city's own name at Level.CITY); precomputed for fast classification.
        self._attrs: dict[NodeId, dict[Level, str]] = {}
        for city in city_leaves:
            attrs = {Level.CITY: nodes[city].name}
            cur = nodes[city]
            while cur.parent is not None:
                cur = nodes[cur.parent]
                attrs[cur.id.level] = cur.name
            self._attrs[city] = attrs

    def node(self, node_id: NodeId) -> TaxonomyNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownIdError(f"unknown node id: {node_id}") from None

    def name_of(self, node_id: NodeId) -> str:
        return self.node(node_id).name

    def active_count(self) -> int:
        return len(self.active_cities)

    def is_active(self, city_id: NodeId) -> bool:
        return city_id in self.active_cities

    def attribute_name(self, city_id: NodeId, level: Level) -> str:
        """Display name of the city's ancestor at `level` (its own name for city)."""
        try:
            return self._attrs[city_id][level]
        except KeyError:
            raise UnknownIdError(f"unknown city id: {city_id}") from None

    def value_counts(self, level: Level) -> Counter[str]:
        """Active cities per display name at `level`; case variants count apart."""
        attrs = self._attrs
        return Counter(attrs[c][level] for c in self.active_cities)

    def ancestors(self, city_id: NodeId) -> list[NodeId]:
        """Ancestor path of a city, finest first: [state, country, subregion, region]."""
        node = self.node(city_id)
        if node.id.level is not Level.CITY:
            raise NonCityIdError(f"not a city id: {city_id}")
        path = []
        cur = node
        while cur.parent is not None:
            cur = self.nodes[cur.parent]
            path.append(cur.id)
        return path

    def prune(self, ids: Iterable[NodeId]) -> None:
        """Deactivate the given cities. Validates everything before mutating."""
        id_set = set(ids)
        for node_id in id_set:
            if node_id not in self.nodes:
                raise UnknownIdError(f"unknown node id: {node_id}")
            if node_id.level is not Level.CITY:
                raise NonCityIdError(f"only city nodes may be pruned: {node_id}")
            if node_id not in self.active_cities:
                raise AlreadyPrunedError(f"city already pruned: {node_id}")
        n_before = len(self.active_cities)
        if id_set and len(id_set) >= n_before:
            raise WouldEmptySpaceError(
                f"pruning {len(id_set)} of {n_before} active cities would empty the space"
            )
        self.active_cities -= id_set

    def serialize_state(self) -> str:
        """Deterministic indented tree rendering; cities carry ACTIVE/PRUNED tags.

        A pure function of graph state: identical states serialize to
        identical bytes regardless of construction order.
        """
        lines: list[str] = []

        def walk(node_id: NodeId, depth: int) -> None:
            node = self.nodes[node_id]
            line = f"{'  ' * depth}{node.id} {node.name}"
            if node.id.level is Level.CITY:
                tag = "ACTIVE" if node_id in self.active_cities else "PRUNED"
                line += f" [{tag}]"
            lines.append(line)
            for child in sorted(node.children, key=lambda i: i.numeric_id):
                walk(child, depth + 1)

        roots = sorted(
            (n.id for n in self.nodes.values() if n.parent is None),
            key=lambda i: i.numeric_id,
        )
        for root in roots:
            walk(root, 0)
        return "\n".join(lines) + "\n"

    def fresh_copy(self) -> HypothesisGraph:
        """New graph with the same structure and all cities active.

        Nodes and the ancestor-name table are shared; neither is mutated
        after build. Only the active set is new.
        """
        clone = copy.copy(self)
        clone.active_cities = set(self.city_leaves)
        return clone


_LEVEL_FIELDS: tuple[tuple[Level, str, str], ...] = (
    (Level.REGION, "region_id", "region_name"),
    (Level.SUBREGION, "subregion_id", "subregion_name"),
    (Level.COUNTRY, "country_id", "country_name"),
    (Level.STATE, "state_id", "state_name"),
    (Level.CITY, "city_id", "city_name"),
)


def records_fingerprint(records: Iterable[CityRecord]) -> str:
    """Content hash of a record set, independent of row order."""
    lines = []
    for r in records:
        pop = "" if r.population_2025 is None else str(r.population_2025)
        lines.append(
            f"{r.city_id},{r.city_name},{r.state_id},{r.state_name},"
            f"{r.country_id},{r.country_name},{r.region_id},{r.region_name},"
            f"{r.subregion_id},{r.subregion_name},{pop}"
        )
    blob = "\n".join(sorted(lines)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def build_graph(records: list[CityRecord]) -> HypothesisGraph:
    """Build the five-level graph from flat city records, merging shared ancestors."""
    if not records:
        raise MissingFieldError("no records")
    nodes: dict[NodeId, TaxonomyNode] = {}
    children: dict[NodeId, list[NodeId]] = {}
    city_leaves: set[NodeId] = set()

    for record in records:
        parent_id: NodeId | None = None
        for level, id_field, name_field in _LEVEL_FIELDS:
            numeric = getattr(record, id_field)
            name = getattr(record, name_field)
            if numeric is None or name is None or str(name).strip() == "":
                raise MissingFieldError(
                    f"record city_id={record.city_id}: missing {id_field}/{name_field}"
                )
            node_id = NodeId(level, int(numeric))
            existing = nodes.get(node_id)
            if existing is None:
                if level is Level.CITY and node_id in city_leaves:
                    raise DuplicateCityIdError(f"duplicate city id: {node_id}")
                nodes[node_id] = TaxonomyNode(node_id, str(name), parent_id, ())
                children[node_id] = []
                if parent_id is not None:
                    children[parent_id].append(node_id)
                if level is Level.CITY:
                    city_leaves.add(node_id)
            else:
                if level is Level.CITY:
                    raise DuplicateCityIdError(f"duplicate city id: {node_id}")
                if existing.parent != parent_id or existing.name != str(name):
                    raise InconsistentHierarchyError(
                        f"{node_id} appears as {existing.name!r} under "
                        f"{existing.parent} and as {name!r} under {parent_id}"
                    )
            parent_id = node_id

    for node_id, kids in children.items():
        nodes[node_id].children = tuple(kids)
    return HypothesisGraph(nodes, frozenset(city_leaves), records_fingerprint(records))
