"""Placement schemes over a dynamic node set.

The unit tests pin the two schemes' contracts (stride == legacy modulo,
rendezvous determinism, membership bookkeeping); the hypothesis suite
asserts the property elastic caching depends on: under rendezvous
placement a partition's home NEVER changes on a join, and on a leave
only the departed node's partitions move.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.placement import (
    PLACEMENTS,
    RendezvousPlacement,
    StridePlacement,
    build_placement,
)

PARTITIONS = range(24)


# ----------------------------------------------------------------------
# construction and membership bookkeeping (scheme-independent)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", PLACEMENTS)
def test_build_placement_by_name(name):
    policy = build_placement(name, [0, 1, 2])
    assert policy.name == name
    assert policy.live_node_ids == [0, 1, 2]


def test_build_placement_unknown_name():
    with pytest.raises(ValueError, match="placement must be one of"):
        build_placement("consistent", [0, 1])


@pytest.mark.parametrize("name", PLACEMENTS)
def test_needs_at_least_one_node(name):
    with pytest.raises(ValueError, match="at least one live node"):
        build_placement(name, [])


@pytest.mark.parametrize("name", PLACEMENTS)
def test_live_set_kept_sorted(name):
    policy = build_placement(name, [3, 0, 2])
    assert policy.live_node_ids == [0, 2, 3]
    policy.node_joined(1)
    assert policy.live_node_ids == [0, 1, 2, 3]
    policy.node_left(2)
    assert policy.live_node_ids == [0, 1, 3]


@pytest.mark.parametrize("name", PLACEMENTS)
def test_join_of_live_node_rejected(name):
    policy = build_placement(name, [0, 1])
    with pytest.raises(ValueError, match="already live"):
        policy.node_joined(1)


@pytest.mark.parametrize("name", PLACEMENTS)
def test_leave_of_unknown_node_rejected(name):
    policy = build_placement(name, [0, 1])
    with pytest.raises(ValueError, match="not live"):
        policy.node_left(7)


@pytest.mark.parametrize("name", PLACEMENTS)
def test_last_node_cannot_leave(name):
    policy = build_placement(name, [4])
    with pytest.raises(ValueError, match="last live node"):
        policy.node_left(4)


@pytest.mark.parametrize("name", PLACEMENTS)
def test_place_always_returns_a_live_node(name):
    policy = build_placement(name, [1, 3, 5])
    for p in PARTITIONS:
        assert policy.place(p) in (1, 3, 5)


# ----------------------------------------------------------------------
# stride: the legacy modulo mapping, generalized
# ----------------------------------------------------------------------
def test_stride_matches_legacy_modulo_on_contiguous_nodes():
    """With nodes 0..n-1 (the static case) stride must be byte-identical
    to the original ``p % num_nodes`` — the static-membership guardrail
    at the placement layer."""
    policy = StridePlacement([0, 1, 2, 3])
    for p in PARTITIONS:
        assert policy.place(p) == p % 4


def test_stride_strides_over_the_live_set():
    policy = StridePlacement([2, 5, 9])
    assert [policy.place(p) for p in range(6)] == [2, 5, 9, 2, 5, 9]


def test_stride_reshuffles_on_membership_change():
    """The known weakness rendezvous exists to fix: a stride join moves
    homes wholesale."""
    policy = StridePlacement([0, 1, 2])
    before = {p: policy.place(p) for p in PARTITIONS}
    policy.node_joined(3)
    after = {p: policy.place(p) for p in PARTITIONS}
    assert before != after


# ----------------------------------------------------------------------
# rendezvous: deterministic and sticky
# ----------------------------------------------------------------------
def test_rendezvous_deterministic_across_instances():
    a = RendezvousPlacement([0, 1, 2, 3])
    b = RendezvousPlacement([0, 1, 2, 3])
    assert [a.place(p) for p in PARTITIONS] == [b.place(p) for p in PARTITIONS]


def test_rendezvous_independent_of_resolution_order():
    """Pinning must not depend on which partition asks first."""
    a = RendezvousPlacement([0, 1, 2, 3])
    b = RendezvousPlacement([0, 1, 2, 3])
    forward = {p: a.place(p) for p in PARTITIONS}
    backward = {p: b.place(p) for p in reversed(PARTITIONS)}
    assert forward == backward


def test_rendezvous_spreads_partitions():
    """Not a balance guarantee, just a sanity floor: 64 partitions over
    4 nodes should not all land on one node."""
    policy = RendezvousPlacement([0, 1, 2, 3])
    homes = {policy.place(p) for p in range(64)}
    assert len(homes) == 4


def test_rendezvous_join_never_moves_placed_partitions():
    policy = RendezvousPlacement([0, 1, 2])
    before = {p: policy.place(p) for p in PARTITIONS}
    policy.node_joined(3)
    assert {p: policy.place(p) for p in PARTITIONS} == before


def test_rendezvous_leave_moves_only_the_departed_nodes_partitions():
    policy = RendezvousPlacement([0, 1, 2, 3])
    before = {p: policy.place(p) for p in PARTITIONS}
    policy.node_left(2)
    for p, old_home in before.items():
        new_home = policy.place(p)
        if old_home == 2:
            assert new_home != 2
        else:
            assert new_home == old_home


def test_rendezvous_unplaced_partition_resolves_over_current_live_set():
    """A partition first asked about *after* a leave must not resolve to
    the dead node."""
    policy = RendezvousPlacement([0, 1, 2, 3])
    policy.node_left(1)
    for p in range(200):
        assert policy.place(p) != 1


# ----------------------------------------------------------------------
# hypothesis: the join-stability property (the contract the engine's
# elastic cache placement is built on)
# ----------------------------------------------------------------------
_events = st.lists(
    st.tuples(st.sampled_from(["join", "leave"]), st.integers(0, 9)),
    max_size=12,
)


def _apply(policy, events):
    """Apply (kind, node) events, skipping the invalid ones, yielding
    the policy after each applied event."""
    for kind, node in events:
        live = policy.live_node_ids
        if kind == "join":
            if node in live:
                continue
            policy.node_joined(node)
        else:
            if node not in live or len(live) <= 1:
                continue
            policy.node_left(node)
        yield kind, node


@settings(max_examples=200, deadline=None)
@given(
    partitions=st.lists(st.integers(0, 499), min_size=1, max_size=30, unique=True),
    initial=st.lists(st.integers(0, 9), min_size=1, max_size=6, unique=True),
    events=_events,
)
def test_rendezvous_partitions_move_only_when_their_home_leaves(
    partitions, initial, events
):
    """Satellite property: across ANY membership history, a placed
    partition's home changes only when that exact home leaves — never on
    a join, and never on another node's departure."""
    policy = RendezvousPlacement(initial)
    homes = {p: policy.place(p) for p in partitions}
    for kind, node in _apply(policy, events):
        for p, old_home in homes.items():
            new_home = policy.place(p)
            if kind == "leave" and old_home == node:
                assert new_home != node
                homes[p] = new_home  # re-pinned until *this* home leaves
            else:
                assert new_home == old_home, (
                    f"partition {p} moved {old_home} -> {new_home} "
                    f"on {kind}({node})"
                )


@settings(max_examples=100, deadline=None)
@given(
    partitions=st.lists(st.integers(0, 499), min_size=1, max_size=20, unique=True),
    initial=st.lists(st.integers(0, 9), min_size=1, max_size=6, unique=True),
    events=_events,
)
def test_placement_history_is_deterministic(partitions, initial, events):
    """Two policies fed the same membership *and query* history agree
    everywhere — placement is a pure function of both (pins are made at
    first resolution, so query order is part of the history)."""
    a = RendezvousPlacement(initial)
    b = RendezvousPlacement(initial)
    for p in partitions:
        a.place(p)
        b.place(p)
    applied = list(_apply(a, events))
    for kind, node in applied:
        (b.node_joined if kind == "join" else b.node_left)(node)
    assert [a.place(p) for p in partitions] == [b.place(p) for p in partitions]


# ----------------------------------------------------------------------
# tasks_by_node: the engine's one-call grouping of a stage's tasks
# ----------------------------------------------------------------------
def _grouped_by_place(policy, num_tasks: int, num_nodes: int) -> list[list[int]]:
    """The per-partition spec: ``place(p)`` for p ascending."""
    groups: list[list[int]] = [[] for _ in range(num_nodes)]
    for p in range(num_tasks):
        groups[policy.place(p)].append(p)
    return groups


def test_stride_tasks_by_node_allocates_nothing_per_task():
    policy = StridePlacement([0, 2, 3])
    groups = policy.tasks_by_node(10, 5)
    assert all(isinstance(g, range) for g in groups)
    assert [list(g) for g in groups] == [[0, 3, 6, 9], [], [1, 4, 7], [2, 5, 8], []]


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(PLACEMENTS),
    num_tasks=st.integers(0, 60),
    initial=st.lists(st.integers(0, 9), min_size=1, max_size=6, unique=True),
    events=_events,
)
def test_tasks_by_node_matches_per_partition_place(name, num_tasks, initial, events):
    """Across any join/leave history, ``tasks_by_node`` equals grouping
    ``place(p)`` over p — and rendezvous is left with the same pins, in
    the same order, as the per-partition loop."""
    spec = build_placement(name, initial)
    fast = build_placement(name, initial)

    def check() -> None:
        expected = _grouped_by_place(spec, num_tasks, 10)
        assert [list(g) for g in fast.tasks_by_node(num_tasks, 10)] == expected
        if name == "rendezvous":
            assert list(fast._assigned.items()) == list(spec._assigned.items())

    check()
    for kind, node in _apply(spec, events):
        (fast.node_joined if kind == "join" else fast.node_left)(node)
        check()
