import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infoseek.agents import candidate_predicates, greedy_choose
from infoseek.questions import (
    AttributeIn,
    CityGuess,
    CityIn,
    PredicateError,
    QuestionParser,
    TargetNotActiveError,
    _normalize_values,
    counterfactual_ig,
    parse_canonical,
    prune_set,
)
from infoseek.taxonomy import Level, NodeId

TOKYO = NodeId(Level.CITY, 1)
DELHI = NodeId(Level.CITY, 2)
CAIRO = NodeId(Level.CITY, 5)


class TestConstruction:
    def test_values_are_deduped_casefolded_and_sorted(self):
        p = AttributeIn(Level.COUNTRY, ("japan", "Japan", "  China"))
        assert p.values == ("China", "Japan")  # smallest spelling wins, sorted by casefold

    def test_empty_values_rejected(self):
        with pytest.raises(PredicateError):
            AttributeIn(Level.COUNTRY, ())
        with pytest.raises(PredicateError):
            CityIn(("",))

    def test_city_level_attribute_rejected(self):
        with pytest.raises(PredicateError):
            AttributeIn(Level.CITY, ("Tokyo",))

    def test_guess_strips_whitespace(self):
        assert CityGuess("  Tokyo ").name == "Tokyo"
        with pytest.raises(PredicateError):
            CityGuess("   ")


class TestCanonical:
    def test_forms(self):
        assert AttributeIn(Level.REGION, ("Asia",)).canonical() == "attr:region:Asia"
        assert CityIn(("Tokyo", "Delhi")).canonical() == "cityin:Delhi|Tokyo"
        assert CityGuess("Tokyo").canonical() == "guess:Tokyo"

    def test_round_trip(self):
        for p in (
            AttributeIn(Level.STATE, ("Maharashtra", "Uttar Pradesh")),
            CityIn(("Tokyo", "Delhi", "Shanghai")),
            CityGuess("Sao Paulo"),
        ):
            assert parse_canonical(p.canonical()) == p

    @pytest.mark.parametrize(
        "bad",
        ["", "attr:city:Tokyo", "attr:region:", "cityin:", "guess:", "what:Tokyo", "attr:region"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(PredicateError):
            parse_canonical(bad)

    def test_case_variants_collapse(self):
        a = AttributeIn(Level.COUNTRY, ("JAPAN",))
        b = AttributeIn(Level.COUNTRY, ("JAPAN", "japan"))
        assert a.canonical() == b.canonical() == "attr:country:JAPAN"


@settings(max_examples=60, deadline=None)
@given(
    names=st.lists(
        st.text(
            alphabet=st.characters(whitelist_categories=("Lu", "Ll"), max_codepoint=0x24F),
            min_size=1,
            max_size=8,
        ),
        min_size=1,
        max_size=5,
    ),
    keys=st.lists(st.integers(), min_size=5, max_size=5),
)
@example(names=["A", "A", "A", "R", "r"], keys=[0, 1, 2, 4, 3])  # case variants swapped
def test_value_order_never_changes_identity(names, keys):
    shuffled = [names[i] for i in sorted(range(len(names)), key=keys.__getitem__)]
    a = CityIn(tuple(names))
    b = CityIn(tuple(shuffled))
    assert a == b
    assert a.canonical() == b.canonical()
    assert a.render() == b.render()


def reference_normalize(values):
    """The definition: strip, keep each key's smallest spelling, sort by
    (casefold, spelling)."""
    stripped = [v.strip() for v in values]
    if not all(stripped):
        raise PredicateError("empty value in predicate")
    smallest: dict[str, str] = {}
    for v in stripped:
        smallest[v.casefold()] = min(smallest.get(v.casefold(), v), v)
    return tuple(sorted(smallest.values(), key=lambda v: (v.casefold(), v)))


_SPELLINGS = ["ab", "AB", "Ab", "aB", "b", "B", "ß", "ss", "SS", "Straße", "STRASSE"]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["", " ", "\t"]), st.sampled_from(_SPELLINGS),
                  st.sampled_from(["", "  ", "\n"])).map("".join),
        st.sampled_from(["", "   "]),
    ),
    min_size=1, max_size=8,
))
def test_normalize_values_equals_its_definition(values):
    try:
        expected = reference_normalize(values)
    except PredicateError:
        with pytest.raises(PredicateError):
            _normalize_values(tuple(values))
        return
    spellings = _normalize_values(tuple(values))
    assert tuple(spellings.values()) == expected
    assert list(spellings) == [v.casefold() for v in expected]


class TestRender:
    def test_region_membership_reads_naturally(self):
        assert AttributeIn(Level.REGION, ("Asia",)).render() == "Is the target city in Asia?"

    def test_possessive_for_finer_levels(self):
        assert (
            AttributeIn(Level.COUNTRY, ("Japan",)).render()
            == "Is the target city's country Japan?"
        )
        assert (
            AttributeIn(Level.STATE, ("Maharashtra", "Karnataka")).render()
            == "Is the target city's state one of Karnataka or Maharashtra?"
        )

    def test_city_membership_and_guess(self):
        assert CityIn(("Tokyo",)).render() == "Is the target city Tokyo?"
        assert (
            CityIn(("Tokyo", "Delhi", "Cairo")).render()
            == "Is the target city one of Cairo, Delhi or Tokyo?"
        )
        assert CityGuess("Tokyo").render() == "Is the target city Tokyo?"


class TestEvaluate:
    def test_attribute_membership(self, graph):
        asia = AttributeIn(Level.REGION, ("Asia",))
        assert asia.matches(graph, TOKYO) is True
        assert asia.matches(graph, CAIRO) is False

    def test_matching_is_case_insensitive(self, graph):
        assert AttributeIn(Level.COUNTRY, ("JAPAN",)).matches(graph, TOKYO) is True
        assert CityGuess("tokyo").matches(graph, TOKYO) is True
        assert CityIn(("TOKYO", "delhi")).matches(graph, DELHI) is True

    def test_guess_misses(self, graph):
        assert CityGuess("Tokyo").matches(graph, DELHI) is False


class TestPruneSet:
    def test_partition_over_actives(self, graph):
        p = AttributeIn(Level.REGION, ("Asia",))
        yes = set(prune_set(p, True, graph))
        no = set(prune_set(p, False, graph))
        active = {c for c in graph.city_leaves if graph.is_active(c)}
        assert yes | no == active
        assert yes & no == set()
        assert len(no) == 27  # the Asian cities get pruned on a "No"
        assert len(yes) == 13

    def test_only_active_cities_are_candidates(self, graph):
        graph.prune({CAIRO})
        no = prune_set(AttributeIn(Level.REGION, ("Africa",)), False, graph)
        assert CAIRO not in no

    def test_pure_no_mutation(self, graph):
        prune_set(AttributeIn(Level.REGION, ("Asia",)), True, graph)
        assert graph.active_count() == 40


class TestCounterfactualIG:
    def test_halving_is_one_bit(self, graph):
        # CityIn over exactly half the space, target inside it
        active = sorted(
            (c for c in graph.city_leaves if graph.is_active(c)), key=lambda n: str(n)
        )
        half = tuple(graph.name_of(c) for c in active[:20])
        p = CityIn(half)
        target = active[0]
        ig = counterfactual_ig(p, graph, target)
        assert ig == 1.0
        assert graph.active_count() == 40  # pure

    def test_correct_guess_collapses_all_entropy(self, graph):
        ig = counterfactual_ig(CityGuess("Tokyo"), graph, TOKYO)
        assert math.isclose(ig, math.log2(40), rel_tol=0, abs_tol=1e-12)

    def test_wrong_guess_gains_little(self, graph):
        ig = counterfactual_ig(CityGuess("Tokyo"), graph, DELHI)
        assert math.isclose(ig, math.log2(40) - math.log2(39), abs_tol=1e-12)

    def test_pruned_target_rejected(self, graph):
        graph.prune({TOKYO})
        with pytest.raises(TargetNotActiveError):
            counterfactual_ig(CityGuess("Delhi"), graph, TOKYO)


@settings(max_examples=40, deadline=None)
@given(
    level=st.sampled_from([Level.REGION, Level.SUBREGION, Level.COUNTRY, Level.STATE]),
    idx=st.integers(min_value=0, max_value=39),
    answer=st.booleans(),
)
def test_prune_set_complement_property(base_graph, level, idx, answer):
    g = base_graph.fresh_copy()
    target = sorted(g.city_leaves, key=lambda n: n.numeric_id)[idx]
    value = g.attribute_name(target, level)
    p = AttributeIn(level, (value,))
    removed = set(prune_set(p, answer, g))
    # a truthful answer never prunes the city it was derived from
    if answer == p.matches(g, target):
        assert target not in removed
    active = {c for c in g.city_leaves if g.is_active(c)}
    assert removed | set(prune_set(p, not answer, g)) == active


def _parse_expected(p):
    """What the parser reads back from p.render(); see the module docstring."""
    if isinstance(p, CityIn) and len(p.values) == 1:
        return CityGuess(p.values[0])
    return p


def walk_menu_round_trips(g, data) -> None:
    """Parse the English of every menu question and greedy's pick, prune, repeat."""
    parser = QuestionParser(g)
    for _ in range(data.draw(st.integers(1, 7))):
        for p in [*candidate_predicates(g), greedy_choose(g)]:
            assert parser.parse(p.render()) == _parse_expected(p), p
        active = sorted(g.cities(g.active), key=lambda c: c.numeric_id)
        if len(active) == 1:
            break
        doomed = data.draw(st.sets(st.sampled_from(active), max_size=len(active) - 1))
        if doomed:
            g.prune(doomed)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_parser_inverts_render_on_every_menu_question(base_graph, data):
    walk_menu_round_trips(base_graph.fresh_copy(), data)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_parser_inverts_render_with_case_variants_and_shared_names(variant_graph, data):
    walk_menu_round_trips(variant_graph.fresh_copy(), data)
