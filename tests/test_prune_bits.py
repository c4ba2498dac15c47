"""The prune path in bits agrees with its set-based definition.

`engine._validated_prune` looks each requested id up once in the graph's
bit table and tracks repeats by bit. `reference_validated_prune` below is
the set-based version it replaced, kept as the definition: both must keep
the same ids and tag the same faults in the same order, on the bundled
40-city graph and on the 3,840-city one. A greedy turn on 3,840 cities
must hash each pruned id at most once.
"""

import importlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoseek.agents import GreedyHalvingSeeker, Observability, RuleOracle, RulePruner
from infoseek.dataset import load_dataset
from infoseek.engine import GameConfig, _validated_prune, play_game
from infoseek.taxonomy import Level, NodeId, build_graph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def reference_validated_prune(pruned_ids, graph, target):
    """The set-based validator: one `seen` set, `is_active` per id."""
    valid: list[NodeId] = []
    faults: list[str] = []
    seen: set[NodeId] = set()
    for node_id in pruned_ids:
        n_seen = len(seen)
        seen.add(node_id)
        if len(seen) == n_seen:
            faults.append(f"already_pruned:{node_id}")
            continue
        if not graph.is_active(node_id):
            if node_id not in graph.nodes:
                faults.append(f"unknown_id:{node_id}")
            elif node_id.level is not Level.CITY:
                faults.append(f"non_city_id:{node_id}")
            else:
                faults.append(f"already_pruned:{node_id}")
            continue
        if node_id == target:
            faults.append(f"target_in_prune_set:{node_id}")
            continue
        valid.append(node_id)
    if valid and len(valid) >= graph.active_count():
        faults.append("would_empty_space")
        valid = valid[: graph.active_count() - 1]
    return valid, faults


@pytest.fixture(scope="module")
def synth_graph(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        gen = importlib.import_module("gen")
    path = tmp_path_factory.mktemp("synth") / "synth4k.csv"
    assert gen.write_taxonomy(path, 0, (4, 4, 4, 4, 15)) == 3840
    records, _ = load_dataset(path)
    return build_graph(records)


def check_against_reference(base, data) -> None:
    """Prune a drawn set, then validate a drawn request both ways."""
    g = base.fresh_copy()
    cities = sorted(g.city_leaves, key=lambda c: c.numeric_id)
    target = data.draw(st.sampled_from(cities), label="target")
    doomed = set(data.draw(st.lists(st.sampled_from(cities)), label="pruned"))
    # A pruned target cannot happen in a game; it reaches the would-empty guard.
    if data.draw(st.booleans(), label="prune the target"):
        doomed.add(target)
    if len(doomed) < len(cities):
        g.prune(doomed)
    active = [c for c in cities if g.is_active(c)]
    pools = [
        active,
        [c for c in cities if not g.is_active(c)],
        [target],
        [NodeId(Level.CITY, 10**6), NodeId(Level.CITY, 10**6 + 1)],
        [n for n in g.nodes if n.level is not Level.CITY][:20],
        [NodeId(Level.STATE, 10**6)],
    ]
    pick = st.sampled_from([pool for pool in pools if pool]).flatmap(st.sampled_from)
    ids = data.draw(st.lists(pick, max_size=40), label="ids")
    if data.draw(st.booleans(), label="add every active city"):
        ids += active
    if ids:
        ids += data.draw(st.lists(st.sampled_from(ids), max_size=5), label="repeats")

    valid, mask, faults = _validated_prune(ids, g, target)
    assert (valid, faults) == reference_validated_prune(ids, g, target)
    assert mask == sum(1 << g.bit_of[c] for c in valid)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_validator_equals_the_set_definition_on_the_bundled_graph(base_graph, data):
    check_against_reference(base_graph, data)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_validator_equals_the_set_definition_on_3840_cities(synth_graph, data):
    check_against_reference(synth_graph, data)


def test_a_greedy_turn_hashes_each_pruned_id_at_most_once(synth_graph, monkeypatch):
    graph = synth_graph.fresh_copy()
    cfg = GameConfig(target=NodeId(Level.CITY, 2718), max_turns=1,
                     observability=Observability.PARTIAL)
    calls = 0
    original = NodeId.__hash__

    def counting(self):
        nonlocal calls
        calls += 1
        return original(self)

    monkeypatch.setattr(NodeId, "__hash__", counting)
    transcript = play_game(GreedyHalvingSeeker(), RuleOracle(), RulePruner(), graph, cfg)
    monkeypatch.undo()
    (turn,) = transcript.turns
    assert len(turn.pruned_ids) == 1920
    # Besides the pruned ids, the turn looks the target up three times: the
    # dataset check in play_game, the oracle, and the validator's target bit.
    assert calls <= len(turn.pruned_ids) + 3
