import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoseek.metrics import (
    AggregateMetrics,
    EmptyInputError,
    GameMetrics,
    InvalidShrinkError,
    MeanSE,
    TimelinePoint,
    TurnMetrics,
    ZeroCandidatesError,
    aggregate,
    entropy,
    ig_timeline,
    information_gain,
)


class TestEntropy:
    def test_known_values_are_exact(self):
        assert entropy(1) == 0.0
        assert entropy(2) == 1.0
        assert entropy(40) == math.log2(40)
        assert entropy(40) == 5.321928094887363

    def test_zero_or_negative_rejected(self):
        for n in (0, -1):
            with pytest.raises(ZeroCandidatesError):
                entropy(n)


class TestInformationGain:
    def test_halving_is_exactly_one_bit(self):
        assert information_gain(40, 20) == 1.0

    def test_no_shrink_no_gain(self):
        assert information_gain(17, 17) == 0.0

    def test_collapse_to_one(self):
        assert information_gain(40, 1) == math.log2(40)

    def test_growth_rejected(self):
        with pytest.raises(InvalidShrinkError):
            information_gain(10, 11)

    def test_empty_after_rejected(self):
        with pytest.raises(InvalidShrinkError):
            information_gain(10, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10_000), st.integers(1, 10_000), st.integers(1, 10_000))
    def test_chain_telescopes(self, a, b, c):
        lo, mid, hi = sorted((a, b, c))
        total = information_gain(hi, mid) + information_gain(mid, lo)
        assert math.isclose(total, information_gain(hi, lo), rel_tol=0, abs_tol=1e-9)


class TestTurnMetrics:
    def test_measure_matches_direct_subtraction(self):
        tm = TurnMetrics.measure(n_before=40, n_after=27)
        assert tm.h_before == entropy(40)
        assert tm.h_after == entropy(27)
        assert tm.ig == tm.h_before - tm.h_after  # exact float identity

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 100_000), st.data())
    def test_ig_identity_property(self, n_before, data):
        n_after = data.draw(st.integers(1, n_before))
        tm = TurnMetrics.measure(n_before=n_before, n_after=n_after)
        assert tm.ig == tm.h_before - tm.h_after


class TestGameMetrics:
    def test_totals(self):
        turns = (
            TurnMetrics.measure(40, 20),
            TurnMetrics.measure(20, 10),
            TurnMetrics.measure(10, 1),
        )
        gm = GameMetrics.from_turns(True, turns)
        assert gm.win is True
        assert gm.turns == 3
        assert math.isclose(gm.total_ig, math.log2(40), abs_tol=1e-9)
        assert gm.ig_per_turn == gm.total_ig / 3

    def test_explicit_turn_charge_overrides_count(self):
        turns = (TurnMetrics.measure(40, 20),)
        gm = GameMetrics.from_turns(False, turns, turns=30)
        assert gm.turns == 30
        assert gm.ig_per_turn == gm.total_ig / 30

    def test_zero_turns(self):
        gm = GameMetrics.from_turns(False, ())
        assert gm.total_ig == 0.0
        assert gm.ig_per_turn == 0.0


class TestMeanSE:
    def test_win_loss_pair(self):
        assert MeanSE.of([1.0, 0.0]) == MeanSE(0.5, 0.5)

    def test_identical_values_have_zero_se(self):
        assert MeanSE.of([2.5] * 7) == MeanSE(2.5, 0.0)

    def test_single_value(self):
        assert MeanSE.of([3.0]) == MeanSE(3.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            MeanSE.of([])

    def test_matches_textbook_formula(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        got = MeanSE.of(xs)
        assert got.mean == statistics.fmean(xs)
        assert math.isclose(got.se, statistics.stdev(xs) / math.sqrt(4), abs_tol=1e-12)

    def test_render_two_decimals(self):
        assert str(MeanSE(1.0, 0.0)) == "1.00 ± 0.00"
        assert str(MeanSE(5.321928, 0.126)) == "5.32 ± 0.13"


def _turns(shrinks: list[tuple[int, int]]) -> list[TurnMetrics]:
    return [TurnMetrics.measure(nb, na) for nb, na in shrinks]


def _game(win: bool, shrinks: list[tuple[int, int]], charged: int | None = None) -> GameMetrics:
    return GameMetrics.from_turns(win, _turns(shrinks), turns=charged)


class TestAggregate:
    def test_win_loss_half(self):
        games = [_game(True, [(40, 1)]), _game(False, [(40, 20)])]
        agg = aggregate(games)
        assert agg.n_games == 2
        assert agg.win_rate == MeanSE(0.5, 0.5)

    def test_identical_games_zero_se_everywhere(self):
        games = [_game(True, [(40, 20), (20, 1)])] * 5
        agg = aggregate(games)
        for stat in (agg.win_rate, agg.avg_turns, agg.ig_per_turn, agg.total_ig):
            assert stat.se == 0.0
        assert agg.avg_turns.mean == 2.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            aggregate([])

    def test_grouped_se_uses_group_means(self):
        # two targets, two runs each; grouping first collapses runs
        g1 = [_game(True, [(40, 1)]), _game(True, [(40, 1)])]
        g2 = [_game(False, [(40, 20)]), _game(False, [(40, 20)])]
        agg = aggregate(g1 + g2, groups=["a", "a", "b", "b"])
        assert agg.win_rate.mean == 0.5
        assert agg.win_rate.se == pytest.approx(
            statistics.stdev([1.0, 0.0]) / math.sqrt(2)
        )

    def test_group_length_mismatch_rejected(self):
        from infoseek.metrics import MetricsError

        with pytest.raises(MetricsError):
            aggregate([_game(True, [(2, 1)])], groups=["a", "b"])


class TestTimeline:
    def test_points_per_turn_index(self):
        games = [_turns([(40, 10), (10, 5), (5, 1)])]
        points = ig_timeline(games, max_turns=4)
        assert len(points) == 4
        assert points[0] == TimelinePoint(1, information_gain(40, 10), 1)
        assert points[2].n_games == 1
        assert points[3] == TimelinePoint(4, None, 0)

    def test_short_games_drop_out_of_later_turns(self):
        short = _turns([(40, 20)])
        long = _turns([(40, 10), (10, 2)])
        points = ig_timeline([short, long], max_turns=2)
        assert points[0].n_games == 2
        assert points[0].mean_ig == pytest.approx(
            (information_gain(40, 20) + information_gain(40, 10)) / 2
        )
        assert points[1].n_games == 1
        assert points[1].mean_ig == pytest.approx(information_gain(10, 2))

    def test_n_games_never_increases(self):
        games = [
            _turns([(40, 20)]),
            _turns([(40, 20), (20, 10)]),
            _turns([(40, 20), (20, 10), (10, 1)]),
        ]
        points = ig_timeline(games, max_turns=5)
        counts = [p.n_games for p in points]
        assert counts == sorted(counts, reverse=True)

    def test_no_games_yields_empty_points(self):
        points = ig_timeline([], max_turns=3)
        assert all(p.mean_ig is None and p.n_games == 0 for p in points)
        assert len(points) == 3


def test_aggregate_round_values_render_like_results_rows():
    games = [_game(True, [(40, 1)])] * 3
    agg = aggregate(games)
    assert isinstance(agg, AggregateMetrics)
    assert str(agg.win_rate) == "1.00 ± 0.00"
    assert str(agg.total_ig) == "5.32 ± 0.00"
