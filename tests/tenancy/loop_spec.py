"""Executable specification of the shared scheduling loop.

:class:`PerTaskLoop` is the multi-tenant loop in its plainest form: one
heap holds every event and every executor slot, each pop runs at most
one task, tasks queue one by one, and no stage takes a closed form.
It has the interface :class:`~repro.simulator.engine.EventLoop` offers
the multi-tenant engine, so a test can swap it in and check that the
production loop's batching, run-until-preempted slots, inline slot
pops and closed-form stages change nothing about how applications
interleave — a question the single-application reference core cannot
answer.  Each queued task keeps the time it was queued, and the spec
asserts that no slot ever reaches a task before that time: the
invariant that lets the production loop's batches carry no time.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable, Sequence

from repro.dag.structures import Stage
from repro.simulator.engine import AppRun, SparkSimulator

#: Kind priorities at equal times: finish/advance stages, then admit
#: new applications, then run tasks.
BARRIER, ARRIVAL, SLOT = 0, 1, 2

#: One queued task: (not_before, app_index, stage, partition, fixed_cost).
QueueItem = tuple[float, int, Stage, int, float]


class PerTaskLoop:
    """One heap pop per task; see the module docstring."""

    def __init__(
        self,
        drivers: Sequence[SparkSimulator],
        on_finish: Callable[[AppRun, float], None] | None = None,
    ) -> None:
        self.apps = [
            AppRun(index, driver, list(driver.dag.active_stages))
            for index, driver in enumerate(drivers)
        ]
        self.active: list[AppRun] = []
        self.heap: list[tuple[float, int, int]] = []
        self.queues: list[deque[QueueItem]] = []
        self.parked: list[list[float]] = []
        self._on_finish = on_finish

    def run(self, arrivals: Sequence[float]) -> list:
        for app, t in zip(self.apps, arrivals):
            heapq.heappush(self.heap, (t, ARRIVAL, app.index))
        while self.heap:
            t, kind, key = heapq.heappop(self.heap)
            if kind == BARRIER:
                self._on_barrier(self.apps[key], t)
            elif kind == ARRIVAL:
                self._on_arrival(self.apps[key], t)
            else:
                self._on_slot(key, t)
        return [app.metrics for app in self.apps]

    def _on_arrival(self, app: AppRun, t: float) -> None:
        self.active.append(app)
        app.driver._start_run(t)
        if not app.stages:
            self._finish(app, t)
            return
        app.driver._begin_stage(app.stages[0], t)
        self._enqueue_stage(app, app.stages[0], t)

    def _on_barrier(self, app: AppRun, t: float) -> None:
        app.driver._record_stage(app.stages[app.stage_idx], app.stage_start, t)
        app.stage_idx += 1
        if app.stage_idx < len(app.stages):
            stage = app.stages[app.stage_idx]
            app.driver._begin_stage(stage, t)
            self._enqueue_stage(app, stage, t)
        else:
            self._finish(app, t)

    def _on_slot(self, node_id: int, t0: float) -> None:
        queue = self.queues[node_id]
        if not queue:
            self.parked[node_id].append(t0)
            return
        # No slot reaches a task before the time it was queued, so the
        # production loop's batches carry no queueing time.
        assert queue[0][0] <= t0, "a slot reached a task queued in its future"
        for active in self.active:
            driver = active.driver
            if driver.control.heap and driver.control.heap[0][0] <= t0:
                driver.control.pump(t0)
            if driver._prefetch_heap and driver._prefetch_heap[0][0] <= t0:
                driver._apply_due_prefetches(t0)
        _, app_index, stage, partition, fixed = queue.popleft()
        app = self.apps[app_index]
        t_end = app.driver._run_task(stage, partition, node_id, t0, fixed)
        heapq.heappush(self.heap, (t_end, SLOT, node_id))
        app.stage_end = max(app.stage_end, t_end)
        app.remaining -= 1
        if app.remaining == 0:
            heapq.heappush(self.heap, (app.stage_end, BARRIER, app.index))

    def _finish(self, app: AppRun, t: float) -> None:
        app.metrics = app.driver._finish_run(t)
        app.finish = t
        self.active.remove(app)
        if self._on_finish is not None:
            self._on_finish(app, t)

    def _enqueue_stage(self, app: AppRun, stage: Stage, now: float) -> None:
        driver = app.driver
        self._grow(driver.cluster.nodes, now)
        fixed = driver._stage_costs(stage)
        app.remaining = stage.num_tasks
        app.stage_start = app.stage_end = now
        if stage.num_tasks == 0:
            heapq.heappush(self.heap, (now, BARRIER, app.index))
            return
        for node_id, partitions in enumerate(driver._pending_by_node(stage)):
            for partition in partitions:
                self.queues[node_id].append(
                    (now, app.index, stage, partition, fixed[node_id])
                )
            if partitions:
                self._wake(node_id, now)

    def _grow(self, nodes, now: float) -> None:
        while len(self.parked) < len(nodes):
            self.parked.append([now] * nodes[len(self.parked)].num_slots)
            self.queues.append(deque())

    def _wake(self, node_id: int, now: float) -> None:
        for free in self.parked[node_id]:
            heapq.heappush(self.heap, (max(free, now), SLOT, node_id))
        self.parked[node_id].clear()
