"""The graph's bit masks agree with the per-city `matches` definitions.

Each check walks a random sequence of prunes and compares every mask-based
answer (prune_set, counterfactual_ig, value_counts, the rule menu's counts
and spellings, active_count, is_active) with the same answer counted city
by city from `Predicate.matches` and `HypothesisGraph.attribute_name`.
"""

from collections import Counter

import pytest
from conftest import RecordFactory
from hypothesis import given, settings
from hypothesis import strategies as st

from infoseek.agents import menu_predicate, rule_menu
from infoseek.metrics import information_gain
from infoseek.questions import CityGuess, counterfactual_ig, prune_set
from infoseek.taxonomy import ATTRIBUTE_LEVELS, GraphError, Level, NodeId, build_graph


@pytest.fixture(scope="module")
def variant_graph():
    """Case-variant state names ("Georgia", "GEORGIA", "georgia") and shared
    city names ("Springfield" twice, "Columbus" twice, "Paris"/"PARIS")."""
    f = RecordFactory()

    def usa(city, state):
        return f.record(city, state, "USA", "Northern America", "Americas")

    return build_graph([
        usa("Springfield", "Illinois"), usa("Chicago", "Illinois"),
        usa("Springfield", "Missouri"), usa("Kansas City", "Missouri"),
        usa("Atlanta", "Georgia"), usa("Columbus", "Georgia"),
        usa("Columbus", "Ohio"), usa("PARIS", "Texas"),
        f.record("Tbilisi", "GEORGIA", "Sakartvelo", "Western Asia", "Asia"),
        f.record("Batumi", "GEORGIA", "Sakartvelo", "Western Asia", "Asia"),
        f.record("Kutaisi", "georgia", "Imereti", "Western Asia", "Asia"),
        f.record("Paris", "Ile-de-France", "France", "Western Europe", "Europe"),
    ])


def check_masks(g, alive: set[NodeId]) -> None:
    n = len(alive)
    assert g.active_count() == n
    assert frozenset(g.cities(g.active)) == alive
    assert all(g.is_active(c) == (c in alive) for c in g.city_leaves)
    menu = rule_menu(g)
    for level in ATTRIBUTE_LEVELS:
        names = [g.attribute_name(c, level) for c in alive]
        assert g.value_counts(level) == Counter(names)
        smallest: dict[str, str] = {}
        for name in names:
            smallest[name.casefold()] = min(smallest.get(name.casefold(), name), name)
        assert [e.values[0] for e in menu if e.level is level] == sorted(smallest.values())
    for entry in menu:
        assert entry.matches == sum(menu_predicate(entry).matches(g, c) for c in alive)
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
