"""Unit and property tests for the cyclic scheduling substrate (MCR)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cyclic import (
    EventGraph,
    InfeasibleScheduleError,
    brute_force_mcr,
    earliest_times,
    is_feasible,
    minimum_period,
)

F = Fraction


def simple_cycle_graph(weights, heights):
    """A single directed cycle with the given edge weights/heights."""
    eg = EventGraph()
    n = len(weights)
    for i in range(n):
        eg.add_constraint(i, (i + 1) % n, weights[i], heights[i])
    return eg


class TestEventGraph:
    def test_idempotent_events(self):
        eg = EventGraph()
        assert eg.add_event("x") == eg.add_event("x")
        assert len(eg) == 1
        assert "x" in eg

    def test_negative_height_rejected(self):
        eg = EventGraph()
        with pytest.raises(ValueError):
            eg.add_constraint("a", "b", 1, height=-1)

    def test_labels_roundtrip(self):
        eg = EventGraph()
        eg.add_constraint("a", "b", 1, 0)
        assert eg.label(eg.index("a")) == "a"
        assert set(eg.labels) == {"a", "b"}


class TestMinimumPeriod:
    def test_single_server_cycle(self):
        # in(1) -> comp(4) -> out(1) -> wrap: period = 6
        eg = EventGraph()
        eg.add_constraint("in", "comp", 1, 0)
        eg.add_constraint("comp", "out", 4, 0)
        eg.add_constraint("out", "in", 1, 1)
        assert minimum_period(eg) == 6

    def test_independent_self_loops_take_max(self):
        eg = EventGraph()
        eg.add_constraint("s", "s", 5, 1)
        eg.add_constraint("t", "t", 3, 1)
        assert minimum_period(eg) == 5

    def test_fractional_ratio(self):
        eg = simple_cycle_graph([F(23)], [3])
        assert minimum_period(eg) == F(23, 3)

    def test_floor_respected(self):
        eg = simple_cycle_graph([F(4)], [1])
        assert minimum_period(eg, floor=10) == 10

    def test_infeasible_zero_height(self):
        eg = simple_cycle_graph([F(1), F(1)], [0, 0])
        with pytest.raises(InfeasibleScheduleError):
            minimum_period(eg)

    def test_acyclic_graph_returns_floor(self):
        eg = EventGraph()
        eg.add_constraint("a", "b", 7, 0)
        eg.add_constraint("b", "c", 3, 0)
        assert minimum_period(eg) == 0
        assert minimum_period(eg, floor=2) == 2

    def test_negative_weights_ok(self):
        eg = simple_cycle_graph([F(-1), F(5)], [1, 1])
        assert minimum_period(eg) == 2

    def test_is_feasible_monotone(self):
        eg = simple_cycle_graph([F(10), F(4)], [1, 1])
        assert not is_feasible(eg, 6)
        assert is_feasible(eg, 7)
        assert is_feasible(eg, 8)


class TestEarliestTimes:
    def test_chain_times(self):
        eg = EventGraph()
        eg.add_constraint("a", "b", 2, 0)
        eg.add_constraint("b", "c", 3, 0)
        times = earliest_times(eg, 10)
        assert times["a"] == 0
        assert times["b"] == 2
        assert times["c"] == 5

    def test_height_reduces_offset(self):
        eg = EventGraph()
        eg.add_constraint("a", "b", 12, 1)
        times = earliest_times(eg, 10)
        assert times["b"] == 2  # 12 - 10

    def test_infeasible_raises(self):
        eg = simple_cycle_graph([F(10)], [1])
        with pytest.raises(InfeasibleScheduleError):
            earliest_times(eg, 5)

    def test_times_satisfy_constraints(self):
        eg = EventGraph()
        eg.add_constraint("a", "b", 3, 0)
        eg.add_constraint("b", "c", 4, 1)
        eg.add_constraint("c", "a", 2, 1)
        lam = minimum_period(eg)
        times = earliest_times(eg, lam)
        for e in eg.edges:
            u, v = eg.label(e.src), eg.label(e.dst)
            assert times[v] >= times[u] + e.weight - lam * e.height


@st.composite
def random_event_graph(draw):
    n = draw(st.integers(2, 6))
    n_edges = draw(st.integers(1, 10))
    eg = EventGraph()
    for node in range(n):
        eg.add_event(node)
    height_one_somewhere = False
    for _ in range(n_edges):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            h = 1  # self loops must advance data sets
        else:
            h = draw(st.integers(0, 2))
        w = draw(st.fractions(min_value=0, max_value=10))
        eg.add_constraint(u, v, w, h)
        height_one_somewhere = height_one_somewhere or h > 0
    return eg


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(random_event_graph())
    def test_mcr_matches_cycle_enumeration(self, eg):
        try:
            expected = brute_force_mcr(eg)
        except InfeasibleScheduleError:
            with pytest.raises(InfeasibleScheduleError):
                minimum_period(eg)
            return
        got = minimum_period(eg)
        if expected is None or expected < 0:
            assert got == 0  # floor
        else:
            assert got == expected

    @settings(max_examples=30, deadline=None)
    @given(random_event_graph())
    def test_earliest_times_valid_at_mcr(self, eg):
        try:
            lam = minimum_period(eg)
        except InfeasibleScheduleError:
            return
        if lam == 0:
            lam = Fraction(1)
        times = earliest_times(eg, lam)
        for e in eg.edges:
            u, v = eg.label(e.src), eg.label(e.dst)
            assert times[v] >= times[u] + e.weight - lam * e.height


# ---------------------------------------------------------------------------
# The integer relaxation against a plain-Fraction one
# ---------------------------------------------------------------------------

#: Weight and floor denominators: dyadic and not, and two coprime ones
#: near 10^6, whose lcm makes the scaled costs large.
DENOMINATORS = (1, 2, 3, 7, 12, 256, 999_983, 1_000_003)


def fraction_earliest_times(eg, lam):
    """The longest-path relaxation in ``Fraction``s, the oracle of the
    integer kernel: earliest times by label, or ``None`` when *lam*
    leaves a positive cycle."""
    dist = [F(0)] * eg.n_events
    for _ in range(eg.n_events):
        changed = False
        for e in eg.edges:
            cand = dist[e.src] + e.weight - lam * e.height
            if cand > dist[e.dst]:
                dist[e.dst] = cand
                changed = True
        if not changed:
            return {eg.label(i): d for i, d in enumerate(dist)}
    return None


@st.composite
def rational_event_graph(draw):
    """Uniform graphs with negative and non-dyadic weights, heights 0-2
    (height-0 cycles included) and a non-integral floor."""
    n = draw(st.integers(1, 6))
    eg = EventGraph()
    for node in range(n):
        eg.add_event(node)
    for _ in range(draw(st.integers(0, 12))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        h = draw(st.integers(1 if u == v else 0, 2))
        w = F(draw(st.integers(-30, 60)), draw(st.sampled_from(DENOMINATORS)))
        eg.add_constraint(u, v, w, h)
    floor = F(draw(st.integers(1, 40)), draw(st.sampled_from(DENOMINATORS[1:])))
    return eg, floor


class TestIntegerRelaxation:
    @settings(max_examples=150, deadline=None)
    @given(rational_event_graph(), st.sampled_from(DENOMINATORS))
    def test_matches_fraction_relaxation(self, case, step_den):
        eg, floor = case
        try:
            expected = brute_force_mcr(eg)
        except InfeasibleScheduleError:
            with pytest.raises(InfeasibleScheduleError):
                minimum_period(eg, floor)
            assert not is_feasible(eg, floor)
            assert fraction_earliest_times(eg, floor) is None
            return
        lam = minimum_period(eg, floor)
        assert lam == (floor if expected is None else max(floor, expected))
        # Earliest at the optimum and above it: the oracle's exact times.
        for at in (lam, lam + F(1, step_den)):
            times = earliest_times(eg, at)
            assert times == fraction_earliest_times(eg, at)
            assert all(type(t) is F for t in times.values())
            assert is_feasible(eg, at)
        if expected is not None and expected > 0:
            below = expected - F(1, step_den)
            assert fraction_earliest_times(eg, below) is None
            assert not is_feasible(eg, below)
            with pytest.raises(InfeasibleScheduleError):
                earliest_times(eg, below)

    def test_coprime_denominators_near_a_million(self):
        eg = EventGraph()
        eg.add_constraint("a", "b", F(1_000_001, 999_983), 0)
        eg.add_constraint("b", "a", F(-3, 1_000_003), 1)
        eg.add_constraint("b", "c", F(5, 7), 1)
        eg.add_constraint("c", "b", F(2, 3), 1)
        lam = minimum_period(eg, F(1, 3))
        assert lam == max(F(1, 3), brute_force_mcr(eg))
        assert earliest_times(eg, lam) == fraction_earliest_times(eg, lam)
