import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoseek.taxonomy import (
    ATTRIBUTE_LEVELS,
    LEVELS,
    AlreadyPrunedError,
    DuplicateCityIdError,
    InconsistentHierarchyError,
    Level,
    MissingFieldError,
    NodeId,
    NonCityIdError,
    UnknownIdError,
    WouldEmptySpaceError,
    build_graph,
    records_fingerprint,
)


def test_level_ordering_and_depth():
    assert [lv.depth for lv in LEVELS] == [0, 1, 2, 3, 4]
    assert Level.REGION < Level.CITY
    assert ATTRIBUTE_LEVELS == LEVELS[:-1]
    assert Level.CITY not in ATTRIBUTE_LEVELS


class TestNodeId:
    def test_str_round_trip(self):
        nid = NodeId(Level.CITY, 7)
        assert str(nid) == "city:7"
        assert NodeId.parse("city:7") == nid

    @pytest.mark.parametrize(
        "bad",
        ["city:1x", "City:1", " city:1", "city: 1", "city:-1", "region:", "town:3", "city", ""],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            NodeId.parse(bad)


class TestBuildGraph:
    def test_two_cities_sharing_everything_but_state(self, factory):
        records = [
            factory.record("Tokyo", "Tokyo Metropolis", "Japan", "Eastern Asia", "Asia"),
            factory.record("Osaka", "Osaka Prefecture", "Japan", "Eastern Asia", "Asia"),
        ]
        g = build_graph(records)
        # region + subregion + country are shared; states and cities are not
        assert len(g.nodes) == 7
        assert len(g.city_leaves) == 2
        assert g.active_count() == 2

    def test_two_cities_in_different_countries(self, factory):
        records = [
            factory.record("Tokyo", "Tokyo Metropolis", "Japan", "Eastern Asia", "Asia"),
            factory.record("Seoul", "Seoul Capital", "South Korea", "Eastern Asia", "Asia"),
        ]
        g = build_graph(records)
        assert len(g.nodes) == 8

    def test_duplicate_city_id_rejected(self, factory):
        a = factory.record("Tokyo", "T", "Japan", "EA", "Asia", city_id=1)
        b = factory.record("Osaka", "O", "Japan", "EA", "Asia", city_id=1)
        with pytest.raises(DuplicateCityIdError):
            build_graph([a, b])

    def test_same_id_different_name_rejected(self, factory):
        import dataclasses

        a = factory.record("Tokyo", "T", "Japan", "EA", "Asia")
        b = factory.record("Osaka", "O", "Japan", "EA", "Asia")
        b = dataclasses.replace(b, country_name="Nippon")  # same country_id, new spelling
        with pytest.raises(InconsistentHierarchyError):
            build_graph([a, b])

    def test_same_id_different_parent_rejected(self, factory):
        import dataclasses

        a = factory.record("Tokyo", "T", "Japan", "EA", "Asia")
        b = factory.record("Busan", "B", "Korea", "EA", "Asia")
        # move Korea under a different subregion while keeping its country_id
        b = dataclasses.replace(b, country_id=a.country_id)
        with pytest.raises(InconsistentHierarchyError):
            build_graph([a, b])

    def test_blank_name_rejected(self, factory):
        import dataclasses

        a = dataclasses.replace(
            factory.record("Tokyo", "T", "Japan", "EA", "Asia"), state_name="  "
        )
        with pytest.raises(MissingFieldError):
            build_graph([a])

    def test_empty_input_rejected(self):
        with pytest.raises(MissingFieldError):
            build_graph([])

    def test_fingerprint_independent_of_record_order(self, dataset_records):
        fwd = build_graph(list(dataset_records))
        rev = build_graph(list(reversed(dataset_records)))
        assert fwd.fingerprint == rev.fingerprint
        assert records_fingerprint(dataset_records) == fwd.fingerprint
        assert fwd.serialize_state() == rev.serialize_state()


class TestBundledGraphShape:
    def test_level_census(self, graph):
        by_level = {lv: 0 for lv in LEVELS}
        for nid in graph.nodes:
            by_level[nid.level] += 1
        assert by_level == {
            Level.REGION: 4,
            Level.SUBREGION: 12,
            Level.COUNTRY: 24,
            Level.STATE: 39,
            Level.CITY: 40,
        }

    def test_ancestors_finest_first(self, graph):
        chain = graph.ancestors(NodeId(Level.CITY, 1))
        assert [n.level for n in chain] == [
            Level.STATE,
            Level.COUNTRY,
            Level.SUBREGION,
            Level.REGION,
        ]
        assert [graph.name_of(n) for n in chain] == ["Tokyo", "Japan", "Eastern Asia", "Asia"]

    def test_ancestors_of_non_city_rejected(self, graph):
        with pytest.raises(NonCityIdError):
            graph.ancestors(NodeId(Level.REGION, 1))

    def test_attribute_name_unknown_id(self, graph):
        with pytest.raises(UnknownIdError):
            graph.attribute_name(NodeId(Level.CITY, 999), Level.REGION)


class TestPrune:
    def test_prune_flips_flags_only(self, graph):
        victim = NodeId(Level.CITY, 40)
        before = graph.serialize_state()
        assert graph.prune({victim}) is None
        assert graph.active_count() == 39
        assert not graph.is_active(victim)
        after = graph.serialize_state()
        assert before != after
        assert "[PRUNED]" in after
        assert len(graph.nodes) == 119  # structure untouched

    def test_unknown_id(self, graph):
        with pytest.raises(UnknownIdError):
            graph.prune({NodeId(Level.CITY, 404)})

    def test_non_city_id(self, graph):
        with pytest.raises(NonCityIdError):
            graph.prune({NodeId(Level.STATE, 1)})

    def test_already_pruned(self, graph):
        victim = NodeId(Level.CITY, 3)
        graph.prune({victim})
        with pytest.raises(AlreadyPrunedError):
            graph.prune({victim})

    def test_would_empty_space(self, graph):
        everyone = set(graph.city_leaves)
        with pytest.raises(WouldEmptySpaceError):
            graph.prune(everyone)

    def test_validation_happens_before_any_mutation(self, graph):
        good = NodeId(Level.CITY, 5)
        bad = NodeId(Level.CITY, 404)
        with pytest.raises(UnknownIdError):
            graph.prune({good, bad})
        assert graph.is_active(good)
        assert graph.active_count() == 40

    def test_fresh_copy_resets_flags_without_copying_structure(self, graph):
        graph.prune({NodeId(Level.CITY, 1), NodeId(Level.CITY, 2)})
        clone = graph.fresh_copy()
        assert clone.active_count() == 40
        assert graph.active_count() == 38
        assert clone.nodes is graph.nodes
        for table in ("_order", "_bit", "_names", "_spelling", "_masks", "_rows", "_city_bits"):
            assert getattr(clone, table) is getattr(graph, table)
        assert clone.fingerprint == graph.fingerprint


@settings(max_examples=50, deadline=None)
@given(
    ids=st.sets(
        st.integers(min_value=1, max_value=40).map(lambda i: NodeId(Level.CITY, i)),
        min_size=1,
        max_size=39,
    )
)
def test_prune_accounting_property(base_graph, ids):
    g = base_graph.fresh_copy()
    g.prune(ids)
    assert g.active_count() == 40 - len(ids)
    assert all(not g.is_active(i) for i in ids)
    surviving = {n for n in g.city_leaves if g.is_active(n)}
    assert surviving.isdisjoint(ids)


def test_serialize_state_shape(graph):
    text = graph.serialize_state()
    assert text.endswith("\n")
    lines = text.splitlines()
    # cities carry an activity tag, inner nodes do not
    city_lines = [l for l in lines if "[ACTIVE]" in l or "[PRUNED]" in l]
    assert len(city_lines) == 40
    assert all(l.strip().endswith("[ACTIVE]") for l in city_lines)


def test_serialize_state_root_order(graph):
    # roots appear in numeric-id order: Asia=1, Africa=2, Americas=3, Europe=4
    text = graph.serialize_state()
    roots = [l for l in text.splitlines() if not l.startswith(" ")]
    assert [r.split(" ", 1)[1] for r in roots] == ["Asia", "Africa", "Americas", "Europe"]
    assert roots[0].startswith("region:1 ")
