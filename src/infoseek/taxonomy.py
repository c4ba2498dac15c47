"""Five-level geography taxonomy and the active hypothesis set.

The graph is the entire uncertainty state of a game: a fixed tree of
region/subregion/country/state/city nodes plus one active bit per city
leaf, held together as an int mask. Pruning only clears bits; structure is
immutable after build, so transcripts can be replayed against the same graph.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import re
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import TYPE_CHECKING, Collection, Iterable

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


def smallest_spellings(names: Iterable[str]) -> dict[str, str]:
    """Casefolded name -> its smallest spelling, whatever order the names come in.

    In reverse sorted order the smallest spelling of a name comes last and wins.
    """
    return {n.casefold(): n for n in sorted(names, reverse=True)}


def _set_bits(mask: int) -> list[int]:
    """Indices of the set bits of a non-negative mask, lowest first."""
    bits = []
    i = -1
    for gap in f"{mask:b}"[::-1].split("1")[:-1]:
        i += len(gap) + 1
        bits.append(i)
    return bits


def mask_of(bits: Iterable[int], width: int) -> int:
    """Mask of `width` bits with exactly the given bit indices set."""
    buf = bytearray((width + 7) // 8)
    for i in bits:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def lowest_bits(mask: int, k: int) -> int:
    """The lowest k set bits of a non-negative mask (all of them if it has fewer).

    Bisects on the width of the low part, so it costs about log2(bit_length)
    bit counts and no loop over the bits.
    """
    lo, hi = 0, mask.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask & ((1 << mid) - 1)).bit_count() < k:
            lo = mid + 1
        else:
            hi = mid
    return mask & ((1 << lo) - 1)


class HypothesisGraph:
    """Taxonomy tree plus the set of still-active city leaves.

    The active set is one int, `active`: bit i is the i-th city in
    id-string order ("city:10" before "city:2"). Ids appear only at the
    edges (bit_of, prune, is_active, cities). One instance is owned by
    exactly one game; reads are safe to share.
    """

    def __init__(
        self,
        nodes: dict[NodeId, TaxonomyNode],
        city_leaves: frozenset[NodeId],
        fingerprint: str,
    ) -> None:
        self.nodes = nodes
        self.city_leaves = city_leaves
        self.fingerprint = fingerprint
        self._order: tuple[NodeId, ...] = tuple(sorted(city_leaves, key=str))
        self._bit: dict[NodeId, int] = {city: i for i, city in enumerate(self._order)}
        # One row per bit: the display names of the city's ancestors, coarsest
        # first, then its own. Cities under one state share the ancestors' part.
        rows = []
        above: dict[NodeId | None, list[str]] = {}
        for city in self._order:
            node = nodes[city]
            names = above.get(node.parent)
            if names is None:
                names = []
                cur = node
                while cur.parent is not None:
                    cur = nodes[cur.parent]
                    names.append(cur.name)
                names = above[node.parent] = names[::-1]
            rows.append((*names, node.name))
        # level -> those names, indexed by bit.
        self._names: dict[Level, tuple[str, ...]] = dict(zip(LEVELS, zip(*rows)))
        # level -> casefolded name -> its smallest spelling in the dataset.
        self._spelling: dict[Level, dict[str, str]] = {}
        # level above city -> casefolded name -> mask of its cities.
        self._masks: dict[Level, dict[str, int]] = {}
        # level above city -> ((spelling,), mask) per casefolded name, in spelling order.
        self._rows: dict[Level, tuple[tuple[tuple[str], int], ...]] = {}
        for level in ATTRIBUTE_LEVELS:
            by_name: dict[str, int] = {}
            for i, name in enumerate(self._names[level]):
                by_name[name] = by_name.get(name, 0) | 1 << i
            spelling = self._spelling[level] = smallest_spellings(by_name)
            masks = self._masks[level] = {}
            for name, mask in by_name.items():
                key = name.casefold()
                masks[key] = masks.get(key, 0) | mask
            self._rows[level] = tuple(
                ((name,), masks[key]) for key, name in sorted(spelling.items(), key=itemgetter(1))
            )
        # casefolded city name -> bits of the cities so named.
        self._city_bits: dict[str, list[int]] = {}
        for i, name in enumerate(self._names[Level.CITY]):
            self._city_bits.setdefault(name.casefold(), []).append(i)
        # The cities whose casefolded name another city also has.
        self._shared = mask_of(
            (i for bits in self._city_bits.values() if len(bits) > 1 for i in bits),
            len(self._order),
        )
        # A city name no other city shares is its own smallest spelling.
        cities = self._names[Level.CITY]
        spelling = {key: cities[bits[0]] for key, bits in self._city_bits.items()}
        spelling.update(smallest_spellings(self.names(Level.CITY, self._shared)))
        self._spelling[Level.CITY] = spelling
        self.active = (1 << len(self._order)) - 1

    @property
    def bit_of(self) -> dict[NodeId, int]:
        """City id -> its bit, for callers that look up many ids; not to be mutated."""
        return self._bit

    def node(self, node_id: NodeId) -> TaxonomyNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownIdError(f"unknown node id: {node_id}") from None

    def name_of(self, node_id: NodeId) -> str:
        return self.node(node_id).name

    def active_count(self) -> int:
        return self.active.bit_count()

    def is_active(self, city_id: NodeId) -> bool:
        bit = self._bit.get(city_id)
        return bit is not None and self.active >> bit & 1 == 1

    def cities(self, mask: int) -> list[NodeId]:
        """Ids of the cities whose bits are set in `mask`, in bit order."""
        order = self._order
        return [order[i] for i in _set_bits(mask)]

    def names(self, level: Level, mask: int) -> list[str]:
        """Display names at `level` of the cities in `mask`, in bit order."""
        names = self._names[level]
        return [names[i] for i in _set_bits(mask)]

    def spelled_city_names(self, mask: int) -> list[str]:
        """City names of the cities in `mask`, in bit order, each in its
        smallest spelling in the dataset.

        Only a name some other city also has can be spelled otherwise, so
        when `mask` holds none of those nothing is looked up.
        """
        names = self.names(Level.CITY, mask)
        if mask & self._shared:
            spelling = self._spelling[Level.CITY]
            names = [spelling[name.casefold()] for name in names]
        return names

    @property
    def spellings(self) -> dict[Level, dict[str, str]]:
        """Level -> casefolded name -> its smallest spelling in the dataset; not
        to be mutated."""
        return self._spelling

    def value_rows(self, level: Level) -> tuple[tuple[tuple[str], int], ...]:
        """One `((spelling,), mask)` row per casefolded name at a level above
        city, in spelling order, of active and pruned cities alike."""
        return self._rows[level]

    def names_mask(self, level: Level, folded: Collection[str]) -> int:
        """Mask of the cities whose casefolded name at `level` is in `folded`."""
        if level is Level.CITY:
            bits = self._city_bits
            return mask_of((i for name in folded for i in bits.get(name, ())), len(self._order))
        masks = self._masks[level]
        mask = 0
        for name in folded:
            mask |= masks.get(name, 0)
        return mask

    def namesakes(self, mask: int) -> int:
        """Mask of the cities whose casefolded name some city in `mask` has.

        `mask` itself is part of it. Only names more than one city has are
        looked up, so on data with unique names this is `mask`.
        """
        shared = self.names(Level.CITY, mask & self._shared)
        return mask | self.names_mask(Level.CITY, {name.casefold() for name in shared})

    def attribute_name(self, city_id: NodeId, level: Level) -> str:
        """Display name of the city's ancestor at `level` (its own name for city)."""
        try:
            return self._names[level][self._bit[city_id]]
        except KeyError:
            raise UnknownIdError(f"unknown city id: {city_id}") from None

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
        bits = []
        for node_id in ids:
            bit = self._bit.get(node_id)
            if bit is None:
                self.node(node_id)  # raises UnknownIdError for an id not in the graph
                raise NonCityIdError(f"only city nodes may be pruned: {node_id}")
            bits.append(bit)
        self.prune_mask(mask_of(bits, len(self._order)))

    def prune_mask(self, mask: int) -> None:
        """Deactivate the cities in `mask`. Raises before mutating if one of
        them is already pruned, or if they are every active city."""
        stale = mask & ~self.active
        if stale:
            raise AlreadyPrunedError(f"city already pruned: {self.cities(stale)[0]}")
        n_pruned, n_before = mask.bit_count(), self.active.bit_count()
        if n_pruned and n_pruned >= n_before:
            raise WouldEmptySpaceError(
                f"pruning {n_pruned} of {n_before} active cities would empty the space"
            )
        self.active &= ~mask

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
                tag = "ACTIVE" if self.is_active(node_id) else "PRUNED"
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

        Nodes and the bit tables are shared; neither is mutated after
        build. Only the active mask is new.
        """
        clone = copy.copy(self)
        clone.active = (1 << len(self._order)) - 1
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
    # level -> numeric id -> node: a record's known ancestors are found by int,
    # and each node's id is made once, so one parent is always one object.
    known: dict[Level, dict[int, TaxonomyNode]] = {level: {} for level in LEVELS}

    for record in records:
        parent: TaxonomyNode | None = None
        for level, id_field, name_field in _LEVEL_FIELDS:
            numeric = getattr(record, id_field)
            name = getattr(record, name_field)
            if numeric is None or name is None or str(name).strip() == "":
                raise MissingFieldError(
                    f"record city_id={record.city_id}: missing {id_field}/{name_field}"
                )
            numeric = int(numeric)
            parent_id = None if parent is None else parent.id
            node = known[level].get(numeric)
            if node is None:
                # Children gather in a list; it becomes a tuple below.
                node = TaxonomyNode(NodeId(level, numeric), str(name), parent_id, [])
                nodes[node.id] = known[level][numeric] = node
                if parent is not None:
                    parent.children.append(node.id)
            elif level is Level.CITY:
                raise DuplicateCityIdError(f"duplicate city id: {node.id}")
            elif node.parent is not parent_id or node.name != str(name):
                raise InconsistentHierarchyError(
                    f"{node.id} appears as {node.name!r} under "
                    f"{node.parent} and as {name!r} under {parent_id}"
                )
            parent = node

    for node in nodes.values():
        node.children = tuple(node.children)
    cities = frozenset(node.id for node in known[Level.CITY].values())
    return HypothesisGraph(nodes, cities, records_fingerprint(records))
