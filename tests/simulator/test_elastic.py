"""Elastic membership in the standalone engine.

Covers the join/decommission lifecycle end to end: scheduler-core
equivalence under churn, the static-membership guardrail (no churn +
stride placement must be byte-identical to the pre-elastic engine),
drop-vs-migrate accounting, presence-weighted hit ratios, the §4.4
exactly-once table resend under lossy control, and trace record/replay
of the membership events.
"""

from __future__ import annotations

import pytest

from repro.control.plane import RpcConfig
from repro.experiments.harness import build_workload_dag, cache_mb_for
from repro.simulator.engine import simulate
from repro.simulator.failures import FailurePlan, build_churn_plan
from repro.simulator.metrics import RunMetrics
from repro.simulator.reporting import metrics_from_dict, metrics_to_dict
from repro.sweep.schemes import resolve_scheme
from repro.trace.recorder import TraceRecorder
from tests.simulator.run_digest import run_digest
from tests.simulator.test_scheduler_equivalence import CLUSTER, fingerprint, run_both


def _dag(workload: str = "KM"):
    return build_workload_dag(workload, partitions=8)


def _cfg(dag, fraction: float = 0.4):
    return CLUSTER.with_cache(cache_mb_for(dag, fraction, CLUSTER))


def _churny_plan() -> FailurePlan:
    """A join, a pinned decommission, and an unpinned decommission."""
    return (
        FailurePlan()
        .add_join(at_seq=2)
        .add_decommission(at_seq=4, node_id=1)
        .add_decommission(at_seq=6)
    )


# ----------------------------------------------------------------------
# scheduler-core equivalence under churn
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme_name", ["lru", "mrd"])
@pytest.mark.parametrize("placement", ["stride", "rendezvous"])
@pytest.mark.parametrize("rebalance", ["drop", "migrate"])
def test_cores_equivalent_under_churn(scheme_name, placement, rebalance):
    dag = _dag()
    event, reference = run_both(
        dag, _cfg(dag), scheme_name,
        failure_plan=_churny_plan(), placement=placement, rebalance=rebalance,
    )
    assert event == reference


@pytest.mark.parametrize("scheme_name", ["lru", "mrd"])
def test_cores_equivalent_under_churn_over_rpc(scheme_name):
    """Membership messages ride the same delayed control plane as
    everything else; the cores must interleave them identically."""
    dag = _dag("PR")
    event, reference = run_both(
        dag, _cfg(dag), scheme_name,
        failure_plan=_churny_plan(), placement="rendezvous",
        rebalance="migrate",
        control_plane="rpc", control_config=RpcConfig(latency_s=1.0),
    )
    assert event == reference


# ----------------------------------------------------------------------
# the static-membership guardrail
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme_name", ["lru", "mrd"])
def test_static_membership_is_byte_identical(scheme_name):
    """No churn events + stride placement must reproduce the pre-elastic
    engine exactly, whatever the rebalance policy or an empty plan says
    — the elasticity machinery may not perturb static runs."""
    dag = _dag()
    cfg = _cfg(dag)
    baseline = fingerprint(simulate(dag, cfg, resolve_scheme(scheme_name).build()))
    elastic_but_inert = fingerprint(simulate(
        dag, cfg, resolve_scheme(scheme_name).build(),
        failure_plan=FailurePlan(), rebalance="migrate",
    ))
    assert elastic_but_inert == baseline


def test_static_run_reports_no_churn():
    dag = _dag()
    m = simulate(dag, _cfg(dag), resolve_scheme("mrd").build())
    assert m.nodes_joined == 0
    assert m.nodes_decommissioned == 0
    assert m.rebalanced_blocks == 0
    assert m.rebalanced_mb == 0.0
    assert m.decommission_dropped_blocks == 0
    assert m.per_node_presence == []


# ----------------------------------------------------------------------
# membership lifecycle and accounting
# ----------------------------------------------------------------------
def test_join_and_decommission_counters():
    dag = _dag()
    m = simulate(
        dag, _cfg(dag), resolve_scheme("mrd").build(),
        failure_plan=_churny_plan(), placement="rendezvous",
    )
    assert m.nodes_joined == 1
    assert m.nodes_decommissioned == 2
    assert m.jct > 0
    assert len(m.stage_records) == len(dag.active_stages)


def test_drop_loses_blocks_migrate_carries_them():
    dag = _dag()
    cfg = _cfg(dag)
    plan = FailurePlan().add_decommission(at_seq=4, node_id=0)
    dropped = simulate(dag, cfg, resolve_scheme("mrd").build(),
                       failure_plan=plan, rebalance="drop")
    migrated = simulate(dag, cfg, resolve_scheme("mrd").build(),
                        failure_plan=plan, rebalance="migrate")
    # The node held cached blocks by seq 4; drop loses them all,
    # migrate carries the finite-distance ones.
    assert dropped.decommission_dropped_blocks > 0
    assert dropped.rebalanced_blocks == 0
    assert migrated.rebalanced_blocks > 0
    assert migrated.rebalanced_mb > 0
    # Every resident block is either migrated or dropped, never both.
    total = dropped.decommission_dropped_blocks + dropped.rebalanced_blocks
    assert (migrated.rebalanced_blocks
            + migrated.decommission_dropped_blocks) == total


def test_failure_of_decommissioned_node_is_skipped():
    """A plan may decommission a node before a failure scheduled on it
    comes due; the failure must then be a no-op, not a crash."""
    dag = _dag()
    plan = (FailurePlan()
            .add_decommission(at_seq=2, node_id=3)
            .add(at_seq=5, node_id=3))
    m = simulate(dag, _cfg(dag), resolve_scheme("mrd").build(), failure_plan=plan)
    assert m.nodes_decommissioned == 1
    assert m.failure_lost_blocks == 0


def test_unknown_placement_rejected():
    dag = _dag()
    with pytest.raises(ValueError, match="placement must be one of"):
        simulate(dag, _cfg(dag), resolve_scheme("lru").build(), placement="bogus")


# ----------------------------------------------------------------------
# churn plans
# ----------------------------------------------------------------------
def test_build_churn_plan_is_deterministic():
    a = build_churn_plan(20, 0.5, seed=3)
    b = build_churn_plan(20, 0.5, seed=3)
    assert a.memberships == b.memberships
    assert build_churn_plan(20, 0.5, seed=4).memberships != a.memberships


def test_build_churn_plan_rate_bounds():
    assert build_churn_plan(20, 0.0).memberships == []
    full = build_churn_plan(20, 1.0)
    assert sorted(m.at_seq for m in full.memberships) == list(range(1, 20))
    with pytest.raises(ValueError):
        build_churn_plan(20, 1.5)
    with pytest.raises(ValueError):
        build_churn_plan(-1, 0.5)


# ----------------------------------------------------------------------
# presence-weighted hit ratios (regression: a last-stage joiner must not
# drag the cluster mean like a full-run node)
# ----------------------------------------------------------------------
def test_mean_node_hit_ratio_weights_by_presence():
    m = RunMetrics(scheme="s", workload="w",
                   per_node_hit_ratio=[1.0, 0.0],
                   per_node_presence=[1.0, 0.1])
    assert m.mean_node_hit_ratio == pytest.approx(1.0 / 1.1)


def test_mean_node_hit_ratio_static_is_plain_average():
    m = RunMetrics(scheme="s", workload="w",
                   per_node_hit_ratio=[1.0, 0.0])
    assert m.mean_node_hit_ratio == pytest.approx(0.5)


def test_mean_node_hit_ratio_skips_idle_nodes():
    m = RunMetrics(scheme="s", workload="w",
                   per_node_hit_ratio=[None, 0.8],
                   per_node_presence=[0.2, 0.5])
    assert m.mean_node_hit_ratio == pytest.approx(0.8)


def test_mean_node_hit_ratio_none_when_no_weight():
    all_idle = RunMetrics(scheme="s", workload="w",
                          per_node_hit_ratio=[None, None])
    assert all_idle.mean_node_hit_ratio is None
    zero_presence = RunMetrics(scheme="s", workload="w",
                               per_node_hit_ratio=[0.9],
                               per_node_presence=[0.0])
    assert zero_presence.mean_node_hit_ratio is None


def test_churn_run_reports_presence_fractions():
    dag = _dag()
    m = simulate(
        dag, _cfg(dag), resolve_scheme("mrd").build(),
        failure_plan=FailurePlan().add_join(at_seq=5),
        placement="rendezvous",
    )
    assert len(m.per_node_presence) == len(m.per_node_hit_ratio)
    # The original nodes were live the whole run; the joiner was not.
    assert m.per_node_presence[:4] == [1.0] * 4
    assert 0.0 < m.per_node_presence[4] < 1.0


def test_elastic_metrics_round_trip_through_reporting():
    dag = _dag()
    m = simulate(
        dag, _cfg(dag), resolve_scheme("mrd").build(),
        failure_plan=_churny_plan(), placement="rendezvous",
        rebalance="migrate",
    )
    back = metrics_from_dict(metrics_to_dict(m))
    assert back.nodes_joined == m.nodes_joined
    assert back.nodes_decommissioned == m.nodes_decommissioned
    assert back.rebalanced_blocks == m.rebalanced_blocks
    assert back.rebalanced_mb == m.rebalanced_mb
    assert back.decommission_dropped_blocks == m.decommission_dropped_blocks
    assert back.per_node_presence == m.per_node_presence
    assert back.mean_node_hit_ratio == m.mean_node_hit_ratio


# ----------------------------------------------------------------------
# §4.4 under lossy control: the table is resent exactly once per
# *successful* (re-)registration — a lost register means no resend
# ----------------------------------------------------------------------
def _snapshot_count(failure_plan: FailurePlan | None) -> int:
    dag = _dag()
    scheme = resolve_scheme("mrd").build()
    calls: list[int] = []
    original = scheme.table_snapshot

    def spy():
        calls.append(1)
        return original()

    scheme.table_snapshot = spy  # type: ignore[method-assign]
    simulate(
        dag, _cfg(dag), scheme,
        control_plane="rpc", control_config=RpcConfig(latency_s=0.0),
        failure_plan=failure_plan,
    )
    return len(calls)


def test_table_resent_exactly_once_per_reregistration():
    startup_only = _snapshot_count(None)
    assert startup_only == CLUSTER.num_nodes  # one per initial register
    one_failure = _snapshot_count(FailurePlan().add(at_seq=3, node_id=1))
    assert one_failure == startup_only + 1
    two_failures = _snapshot_count(
        FailurePlan().add(at_seq=3, node_id=1).add(at_seq=6, node_id=2)
    )
    assert two_failures == startup_only + 2


def test_lost_register_means_no_resend():
    """A total control outage over the failure boundary swallows the
    replacement's WorkerRegister: no delivery, no table resend."""
    plan = (FailurePlan()
            .add(at_seq=3, node_id=1)
            .add_outage(from_seq=3, to_seq=3, node_id=1, loss_rate=1.0))
    assert _snapshot_count(plan) == CLUSTER.num_nodes


def test_join_registers_through_the_table_resend_path():
    plan = FailurePlan().add_join(at_seq=2)
    assert _snapshot_count(plan) == CLUSTER.num_nodes + 1


# ----------------------------------------------------------------------
# tracing: membership events record, replay and survive JSONL
# ----------------------------------------------------------------------
def _record_churn_run() -> tuple[TraceRecorder, RunMetrics]:
    dag = _dag()
    recorder = TraceRecorder(meta={"scheme": "mrd"})
    metrics = simulate(
        dag, _cfg(dag), resolve_scheme("mrd").build(),
        failure_plan=FailurePlan().add_join(at_seq=2)
        .add_decommission(at_seq=4, node_id=0),
        placement="rendezvous", rebalance="migrate",
        recorder=recorder,
    )
    return recorder, metrics


def test_churn_trace_records_membership_events():
    recorder, metrics = _record_churn_run()
    by_kind: dict[str, list] = {}
    for ev in recorder.events:
        by_kind.setdefault(ev.kind, []).append(ev)
    registers = by_kind.get("worker_register", [])
    deregisters = by_kind.get("worker_deregister", [])
    migrations = by_kind.get("block_migrate", [])
    # Startup registrations are untraced; the join is the only register.
    assert [e.reason for e in registers] == ["join"]
    assert [e.reason for e in deregisters] == ["decommission"]
    assert deregisters[0].node_id == 0
    # One migrate event per rebalanced block, naming the retiring node.
    assert len(migrations) == metrics.rebalanced_blocks > 0
    assert all(ev.from_node == 0 for ev in migrations)
    assert all(ev.to_node != 0 for ev in migrations)


def test_churn_trace_replays_identically_and_round_trips(tmp_path):
    rec1, _ = _record_churn_run()
    rec2, _ = _record_churn_run()
    assert rec1.events == rec2.events
    path = tmp_path / "churn.jsonl"
    rec1.to_jsonl(path)
    assert TraceRecorder.from_jsonl(path).events == rec1.events


# ----------------------------------------------------------------------
# pinned digests: churned runs compute and record exactly what they did
# when pinned (metrics_to_dict + the full event stream per case)
# ----------------------------------------------------------------------
def _bounce_plan() -> FailurePlan:
    """A join, a pinned and an unpinned decommission, then the pinned
    node's slot rejoins."""
    return _churny_plan().add_join(at_seq=9, node_id=1)


def _lossy_rpc() -> dict:
    return {
        "control_plane": "rpc",
        "control_config": RpcConfig(
            latency_s=0.2, jitter_s=0.3, loss_rate=0.05, seed=11
        ),
    }


def _churn_digest(workload: str, scheme_name: str, **kwargs) -> str:
    dag = _dag(workload)
    recorder = TraceRecorder()
    metrics = simulate(
        dag, _cfg(dag), resolve_scheme(scheme_name).build(), recorder=recorder, **kwargs
    )
    return run_digest([metrics], recorder.events)


#: ``workload-scheme-placement-rebalance-scheduler-plane -> digest``.
PINNED_CHURN_DIGESTS = {
    "KM-lru-stride-drop-event-instant": "150dc62a4fd9393e",
    "KM-lru-stride-drop-event-rpc": "25ea79e2da95e7ff",
    "KM-lru-stride-drop-reference-instant": "150dc62a4fd9393e",
    "KM-lru-stride-drop-reference-rpc": "25ea79e2da95e7ff",
    "KM-lru-stride-migrate-event-instant": "0916b617b05962f4",
    "KM-lru-stride-migrate-event-rpc": "10135e98c83c2b3f",
    "KM-lru-stride-migrate-reference-instant": "0916b617b05962f4",
    "KM-lru-stride-migrate-reference-rpc": "10135e98c83c2b3f",
    "KM-lru-rendezvous-drop-event-instant": "a5d5fec83bce12c1",
    "KM-lru-rendezvous-drop-event-rpc": "dd2b5adf920c4f4d",
    "KM-lru-rendezvous-drop-reference-instant": "a5d5fec83bce12c1",
    "KM-lru-rendezvous-drop-reference-rpc": "dd2b5adf920c4f4d",
    "KM-lru-rendezvous-migrate-event-instant": "fa6eda7c5029480f",
    "KM-lru-rendezvous-migrate-event-rpc": "19d2f3c0a7d43b73",
    "KM-lru-rendezvous-migrate-reference-instant": "fa6eda7c5029480f",
    "KM-lru-rendezvous-migrate-reference-rpc": "19d2f3c0a7d43b73",
    "KM-mrd-stride-drop-event-instant": "77561d42f4fc7a6d",
    "KM-mrd-stride-drop-event-rpc": "fa81cf0dbb3c0191",
    "KM-mrd-stride-drop-reference-instant": "77561d42f4fc7a6d",
    "KM-mrd-stride-drop-reference-rpc": "fa81cf0dbb3c0191",
    "KM-mrd-stride-migrate-event-instant": "a82614ae607c32d1",
    "KM-mrd-stride-migrate-event-rpc": "257ea382e3437629",
    "KM-mrd-stride-migrate-reference-instant": "a82614ae607c32d1",
    "KM-mrd-stride-migrate-reference-rpc": "257ea382e3437629",
    "KM-mrd-rendezvous-drop-event-instant": "c544585a11492f11",
    "KM-mrd-rendezvous-drop-event-rpc": "fff736376ead9b87",
    "KM-mrd-rendezvous-drop-reference-instant": "c544585a11492f11",
    "KM-mrd-rendezvous-drop-reference-rpc": "fff736376ead9b87",
    "KM-mrd-rendezvous-migrate-event-instant": "7eb2394b0c02d995",
    "KM-mrd-rendezvous-migrate-event-rpc": "2ac906ae7a7e2de3",
    "KM-mrd-rendezvous-migrate-reference-instant": "7eb2394b0c02d995",
    "KM-mrd-rendezvous-migrate-reference-rpc": "2ac906ae7a7e2de3",
    "PR-lru-stride-drop-event-instant": "9288b72be195ce97",
    "PR-lru-stride-drop-event-rpc": "288920ccb0827753",
    "PR-lru-stride-drop-reference-instant": "9288b72be195ce97",
    "PR-lru-stride-drop-reference-rpc": "288920ccb0827753",
    "PR-lru-stride-migrate-event-instant": "a44e001a24247ef9",
    "PR-lru-stride-migrate-event-rpc": "59f92cb7f81edc4e",
    "PR-lru-stride-migrate-reference-instant": "a44e001a24247ef9",
    "PR-lru-stride-migrate-reference-rpc": "59f92cb7f81edc4e",
    "PR-lru-rendezvous-drop-event-instant": "285e511f11ef46e4",
    "PR-lru-rendezvous-drop-event-rpc": "8691b1f3e737ac0c",
    "PR-lru-rendezvous-drop-reference-instant": "285e511f11ef46e4",
    "PR-lru-rendezvous-drop-reference-rpc": "8691b1f3e737ac0c",
    "PR-lru-rendezvous-migrate-event-instant": "138da5e1678478a5",
    "PR-lru-rendezvous-migrate-event-rpc": "178b2fbe488728ad",
    "PR-lru-rendezvous-migrate-reference-instant": "138da5e1678478a5",
    "PR-lru-rendezvous-migrate-reference-rpc": "178b2fbe488728ad",
    "PR-mrd-stride-drop-event-instant": "9abb4d5921da4e7a",
    "PR-mrd-stride-drop-event-rpc": "1e66435af4bde79e",
    "PR-mrd-stride-drop-reference-instant": "9abb4d5921da4e7a",
    "PR-mrd-stride-drop-reference-rpc": "1e66435af4bde79e",
    "PR-mrd-stride-migrate-event-instant": "67cbcaf1d42ab360",
    "PR-mrd-stride-migrate-event-rpc": "cafe270968e43faf",
    "PR-mrd-stride-migrate-reference-instant": "67cbcaf1d42ab360",
    "PR-mrd-stride-migrate-reference-rpc": "cafe270968e43faf",
    "PR-mrd-rendezvous-drop-event-instant": "503425d4383fc8bc",
    "PR-mrd-rendezvous-drop-event-rpc": "7b8739cd16a00a94",
    "PR-mrd-rendezvous-drop-reference-instant": "503425d4383fc8bc",
    "PR-mrd-rendezvous-drop-reference-rpc": "7b8739cd16a00a94",
    "PR-mrd-rendezvous-migrate-event-instant": "1f1f682e595faa8f",
    "PR-mrd-rendezvous-migrate-event-rpc": "8ecbee1bd4ffc893",
    "PR-mrd-rendezvous-migrate-reference-instant": "1f1f682e595faa8f",
    "PR-mrd-rendezvous-migrate-reference-rpc": "8ecbee1bd4ffc893",
    "SVD++-lru-stride-drop-event-instant": "d271516e7dd6f631",
    "SVD++-lru-stride-drop-event-rpc": "83341f2cd4892593",
    "SVD++-lru-stride-drop-reference-instant": "d271516e7dd6f631",
    "SVD++-lru-stride-drop-reference-rpc": "83341f2cd4892593",
    "SVD++-lru-stride-migrate-event-instant": "d7ac2f438e333089",
    "SVD++-lru-stride-migrate-event-rpc": "5b29366c11430c5c",
    "SVD++-lru-stride-migrate-reference-instant": "d7ac2f438e333089",
    "SVD++-lru-stride-migrate-reference-rpc": "5b29366c11430c5c",
    "SVD++-lru-rendezvous-drop-event-instant": "cf35eca72ef29700",
    "SVD++-lru-rendezvous-drop-event-rpc": "60c86f111afa1664",
    "SVD++-lru-rendezvous-drop-reference-instant": "cf35eca72ef29700",
    "SVD++-lru-rendezvous-drop-reference-rpc": "60c86f111afa1664",
    "SVD++-lru-rendezvous-migrate-event-instant": "593476da6e2968e2",
    "SVD++-lru-rendezvous-migrate-event-rpc": "ea2ba5e3e14b4787",
    "SVD++-lru-rendezvous-migrate-reference-instant": "593476da6e2968e2",
    "SVD++-lru-rendezvous-migrate-reference-rpc": "ea2ba5e3e14b4787",
    "SVD++-mrd-stride-drop-event-instant": "aedf6247e888ea0e",
    "SVD++-mrd-stride-drop-event-rpc": "b8f29b1f727c4149",
    "SVD++-mrd-stride-drop-reference-instant": "aedf6247e888ea0e",
    "SVD++-mrd-stride-drop-reference-rpc": "b8f29b1f727c4149",
    "SVD++-mrd-stride-migrate-event-instant": "cfe7de55db6b62de",
    "SVD++-mrd-stride-migrate-event-rpc": "086c1f53ec96880f",
    "SVD++-mrd-stride-migrate-reference-instant": "cfe7de55db6b62de",
    "SVD++-mrd-stride-migrate-reference-rpc": "086c1f53ec96880f",
    "SVD++-mrd-rendezvous-drop-event-instant": "7c98f2c31c640e68",
    "SVD++-mrd-rendezvous-drop-event-rpc": "09360e3793b2fbb4",
    "SVD++-mrd-rendezvous-drop-reference-instant": "7c98f2c31c640e68",
    "SVD++-mrd-rendezvous-drop-reference-rpc": "09360e3793b2fbb4",
    "SVD++-mrd-rendezvous-migrate-event-instant": "26f61fc0517393ea",
    "SVD++-mrd-rendezvous-migrate-event-rpc": "9050ff426dc9df7d",
    "SVD++-mrd-rendezvous-migrate-reference-instant": "26f61fc0517393ea",
    "SVD++-mrd-rendezvous-migrate-reference-rpc": "9050ff426dc9df7d",
}

#: ``churn-plan seed -> digest`` (KM, MRD, rendezvous, migrate).
PINNED_CHURN_PLAN_DIGESTS = {
    0: "2aa88813e603451e",
    1: "c64b78e303376da5",
    2: "7c03b46463b2cf7f",
}


@pytest.mark.parametrize("case", sorted(PINNED_CHURN_DIGESTS))
def test_churned_run_digest_is_pinned(case):
    workload, scheme_name, placement, rebalance, scheduler, plane = case.split("-")
    kwargs = _lossy_rpc() if plane == "rpc" else {}
    digest = _churn_digest(
        workload, scheme_name, failure_plan=_bounce_plan(),
        placement=placement, rebalance=rebalance, scheduler=scheduler, **kwargs,
    )
    assert digest == PINNED_CHURN_DIGESTS[case]


def test_pinned_churn_matrix_is_complete():
    expected = {
        f"{w}-{s}-{p}-{r}-{c}-{plane}"
        for w in ("KM", "PR", "SVD++")
        for s in ("lru", "mrd")
        for p in ("stride", "rendezvous")
        for r in ("drop", "migrate")
        for c in ("event", "reference")
        for plane in ("instant", "rpc")
    }
    assert set(PINNED_CHURN_DIGESTS) == expected


@pytest.mark.parametrize("seed", sorted(PINNED_CHURN_PLAN_DIGESTS))
def test_seeded_churn_plan_digest_is_pinned(seed):
    stages = len(_dag().active_stages)
    digest = _churn_digest(
        "KM", "mrd", failure_plan=build_churn_plan(stages, 0.5, seed=seed),
        placement="rendezvous", rebalance="migrate",
    )
    assert digest == PINNED_CHURN_PLAN_DIGESTS[seed]
