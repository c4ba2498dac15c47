"""The graph's bit masks agree with the per-city `matches` definitions.

Each check walks a random sequence of prunes and compares every mask-based
answer (prune_set, counterfactual_ig, the rule menu's counts, active_count,
is_active) with the same answer counted city by city from
`Predicate.matches` and `HypothesisGraph.attribute_name`. The menu's values
are checked against the dataset-wide spelling rule: each casefolded name
with an active city, spelled as the smallest of its variants among all the
dataset's cities, pruned or not.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoseek.agents import HalfSpace, menu_predicate, rule_menu
from infoseek.metrics import information_gain
from infoseek.questions import CityGuess, counterfactual_ig, prune_set
from infoseek.taxonomy import ATTRIBUTE_LEVELS, LEVELS, GraphError, Level, NodeId


def dataset_spellings(g) -> dict[Level, dict[str, str]]:
    """Level -> casefolded name -> its smallest spelling over every city."""
    smallest: dict[Level, dict[str, str]] = {level: {} for level in LEVELS}
    for c in g.city_leaves:
        for level in LEVELS:
            name = g.attribute_name(c, level)
            table = smallest[level]
            table[name.casefold()] = min(table.get(name.casefold(), name), name)
    return smallest


def check_masks(g, alive: set[NodeId]) -> None:
    n = len(alive)
    assert g.active_count() == n
    assert frozenset(g.cities(g.active)) == alive
    assert all(g.is_active(c) == (c in alive) for c in g.city_leaves)
    menu = rule_menu(g)
    spelling = dataset_spellings(g)
    for level in ATTRIBUTE_LEVELS:
        folded = {g.attribute_name(c, level).casefold() for c in alive}
        expected = sorted(spelling[level][name] for name in folded)
        assert [e.values[0] for e in menu if e.level is level] == expected
    for entry in menu:
        assert entry.matches == sum(menu_predicate(entry).matches(g, c) for c in alive)
    if isinstance(menu[-1], HalfSpace):
        cities = spelling[Level.CITY]
        assert all(v == cities[v.casefold()] for v in menu[-1].values)
    guesses = [CityGuess(g.attribute_name(c, Level.CITY)) for c in alive]
    for p in [*map(menu_predicate, menu), *guesses]:
        yes = {c for c in alive if p.matches(g, c)}
        assert set(prune_set(p, True, g)) == alive - yes
        assert set(prune_set(p, False, g)) == yes
        for target in alive:
            kept = len(yes) if target in yes else n - len(yes)
            assert counterfactual_ig(p, g, target) == information_gain(n, kept)


def walk_prunes(g, data) -> None:
    """Check, prune a drawn set (sometimes one the graph must reject), repeat."""
    alive = set(g.city_leaves)
    for _ in range(data.draw(st.integers(1, 5))):
        check_masks(g, alive)
        if len(alive) == 1:
            return
        ordered = sorted(alive, key=lambda c: c.numeric_id)
        doomed = data.draw(st.lists(st.sampled_from(ordered), max_size=len(ordered) - 1))
        fault = data.draw(st.sampled_from([None, None, "stale", "unknown", "non_city", "all"]))
        stale = sorted(g.city_leaves - alive, key=lambda c: c.numeric_id)[:1]
        extra = {
            None: [], "stale": stale, "unknown": [NodeId(Level.CITY, 10**6)],
            "non_city": [NodeId(Level.STATE, 1)], "all": ordered,
        }[fault]
        if not extra:
            g.prune(doomed)
            alive -= set(doomed)
            continue
        before = g.active
        with pytest.raises(GraphError):
            g.prune([*doomed, *extra])
        assert g.active == before


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_masks_agree_on_the_bundled_graph(base_graph, data):
    walk_prunes(base_graph.fresh_copy(), data)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_masks_agree_with_case_variants_and_shared_names(variant_graph, data):
    walk_prunes(variant_graph.fresh_copy(), data)
