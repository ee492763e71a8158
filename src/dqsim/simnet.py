"""Deterministic master-worker loop with bounded gradient staleness.

Simulated time is an integer clock; the master applies at most one gradient
per tick, so when it never idles the clock coincides with the update count.
Worker compute latency is drawn in ticks from a per-worker stream at dispatch
time, which makes every run a pure function of the configuration and seeds.

Staleness control. A gradient dispatched at model version ``v`` and applied
as update ``t`` has staleness ``t - v``. Two mechanisms keep that at most
``tau`` for every applied update without ever dropping a result:

* admission: at most ``tau + 1`` dispatched-but-unapplied gradients exist at
  any time (a worker asking for work beyond that waits for a free slot), and
* deadline ordering: the master consumes pending results
  earliest-arrival-first while slack allows, but a result is held back
  whenever consuming it would leave some older outstanding gradient unable
  to meet its own staleness deadline; when nothing is safely consumable the
  master idles until a result arrives that is (the oldest outstanding result
  always is), and the simulated clock jumps straight to that arrival.

Both mechanisms live in one gate object that the simulated loop and the
real-thread loop drive from their own event sources.

Stalling only delays results, so every dispatched gradient is eventually
applied within the epoch that produced it or discarded at the epoch barrier.
"""

from __future__ import annotations

import heapq
import itertools
import numbers
from collections import deque
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .codec import BitLedger, full_bits
from .problems import CompositeProblem

__all__ = [
    "FixedLatency",
    "UniformLatency",
    "GeometricLatency",
    "StalenessRecord",
    "run_inner_loop",
    "run_inner_loop_threads",
    "epoch_barrier",
    "check_field_types",
]


# The values a config dataclass field of each annotation takes; a bool is
# an int to Python, so it passes only where the annotation is bool.
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}
_FIELD_TYPES |= {f"Optional[{k}]": (v, type(None)) for k, v in _FIELD_TYPES.items()}
_FIELD_TYPES["bool"] = bool


def check_field_types(config) -> None:
    """Raise ValueError, naming the field, when a field of the dataclass
    ``config`` does not hold a value of its annotated type."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in _FIELD_TYPES and (
                not isinstance(value, _FIELD_TYPES[f.type])
                or isinstance(value, bool) != (f.type == "bool")):
            raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")


@dataclass(frozen=True)
class FixedLatency:
    ticks: int = 1

    def __post_init__(self):
        check_field_types(self)
        if self.ticks < 1:
            raise ValueError(f"latency must be >= 1 tick, got {self.ticks}")

    def draw(self, rng: np.random.Generator) -> int:
        return self.ticks


@dataclass(frozen=True)
class UniformLatency:
    low: int
    high: int  # inclusive

    def __post_init__(self):
        check_field_types(self)
        if self.low < 1 or self.high < self.low:
            raise ValueError(f"need 1 <= low <= high, got [{self.low}, {self.high}]")
        if self.high > np.iinfo(np.int64).max:  # numpy draws int64
            raise ValueError(f"uniform high must be <= 2**63 - 1, got {self.high}")

    def draw(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low, self.high + 1))


@dataclass(frozen=True)
class GeometricLatency:
    p: float  # success probability; support {1, 2, ...}

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"geometric p must be in (0, 1], got {self.p}")

    def draw(self, rng: np.random.Generator) -> int:
        return int(rng.geometric(self.p))


# A worker is its latency model; its id is its position in the workers list.
Latency = FixedLatency | UniformLatency | GeometricLatency


@dataclass(frozen=True)
class StalenessRecord:
    """One applied update: update index, the model version its gradient was
    computed on, who computed it, and the clock tick it landed."""

    t: int
    version: int
    worker_id: int
    clock: int

    @property
    def staleness(self) -> int:
        return self.t - self.version


@dataclass
class _Task:
    seq: int  # dispatch order, so a smaller seq is an older task
    worker_id: int
    version: int
    arrival: int = -1  # set by the event source
    payload: object = None


def _validate_loop_args(workers, tau, m):
    if not workers:
        raise ValueError("need at least one worker")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")


class _Gate:
    """Staleness bookkeeping shared by both inner loops: admission of at most
    ``tau + 1`` outstanding tasks, the ready queue, and the deadline-safe
    choice among arrived results. The loops only feed it events."""

    def __init__(self, n_workers: int, tau: int):
        self.tau = tau
        self.ready: deque[int] = deque(range(n_workers))
        # dispatched, not applied; filled in seq order, so oldest first
        self.outstanding: dict[int, _Task] = {}
        self.pending: dict[int, _Task] = {}  # arrived, not applied; arrival order
        self.records: list[StalenessRecord] = []
        self._next_seq = 0

    @property
    def t(self) -> int:
        """Index of the next update, which is also the current model version."""
        return len(self.records)

    def admit(self) -> list[_Task]:
        """Dispatch ready workers into free staleness slots at version ``t``."""
        granted = []
        while self.ready and len(self.outstanding) <= self.tau:
            task = _Task(self._next_seq, self.ready.popleft(), self.t)
            self.outstanding[task.seq] = task
            self._next_seq += 1
            granted.append(task)
        return granted

    def arrive(self, task: _Task) -> None:
        self.pending[task.seq] = task
        self.ready.append(task.worker_id)

    def choose(self) -> Optional[_Task]:
        """Earliest-arrived pending task whose consumption leaves every older
        outstanding task able to meet its staleness deadline, or None.

        The j-th oldest outstanding task applies no earlier than update
        t + j, so the safe tasks are the oldest ones up to and including the
        first with zero slack. The oldest task is always safe, which gives
        liveness.
        """
        t, tau = self.t, self.tau
        limit = next((task.seq for j, task in enumerate(self.outstanding.values())
                      if task.version + tau - (t + j) < 1), None)
        return next((task for task in self.pending.values()
                     if limit is None or task.seq <= limit), None)

    def apply(self, task: _Task, clock: int) -> StalenessRecord:
        """Retire ``task`` as update ``t`` landing at ``clock``."""
        record = StalenessRecord(self.t, task.version, task.worker_id, clock)
        del self.pending[task.seq], self.outstanding[task.seq]
        self.records.append(record)
        return record


def run_inner_loop(
    workers: Sequence[Latency],
    tau: int,
    m: int,
    model_step: Callable[[int, int], object],
    worker_step: Callable[[int, object], object],
    apply_step: Callable[[int, object, StalenessRecord], None],
    latency_rngs: Sequence[np.random.Generator],
    on_arrival: Optional[Callable[[int, int, object], None]] = None,
) -> list[StalenessRecord]:
    """Run exactly ``m`` master updates over the given workers.

    Worker ``i`` is ``workers[i]``, its latency model, and draws its
    latencies from ``latency_rngs[i]``; ``worker_id`` below is that ``i``.
    ``model_step(worker_id, version)`` builds the master's broadcast at
    dispatch; ``worker_step(worker_id, model)`` computes the reply. Both are
    invoked at dispatch time in a deterministic order, so per-worker stream
    consumption is independent of event interleaving.
    ``apply_step(t, payload, record)`` mutates master state.
    ``on_arrival(clock, worker_id, payload)`` fires when a result reaches the
    master, applied or not; epoch-end leftovers are the caller's to discard.
    """
    _validate_loop_args(workers, tau, m)
    if len(latency_rngs) != len(workers):
        raise ValueError(f"{len(workers)} workers need as many latency streams, "
                         f"got {len(latency_rngs)}")
    gate = _Gate(len(workers), tau)
    arrivals: list[tuple[int, int, _Task]] = []  # heap keyed by (arrival, seq)
    clock = 0

    # Each tick: land this tick's arrivals, apply at most one update, then
    # dispatch into free slots at the post-update model version.
    while True:
        while arrivals and arrivals[0][0] == clock:
            task = heapq.heappop(arrivals)[2]
            gate.arrive(task)
            if on_arrival is not None:
                on_arrival(clock, task.worker_id, task.payload)
        chosen = gate.choose()
        if chosen is not None:
            record = gate.apply(chosen, clock)
            apply_step(record.t, chosen.payload, record)
            if gate.t == m:
                return gate.records
        for task in gate.admit():
            w = task.worker_id
            task.arrival = clock + workers[w].draw(latency_rngs[w])
            task.payload = worker_step(w, model_step(w, task.version))
            heapq.heappush(arrivals, (task.arrival, task.seq, task))
        # Without a safe choice nothing changes before the next arrival, and
        # one is in flight because the oldest outstanding task is always safe.
        clock = clock + 1 if chosen is not None else arrivals[0][0]


def run_inner_loop_threads(
    workers: Sequence[Latency],
    tau: int,
    m: int,
    model_step: Callable[[int, int], object],
    worker_step: Callable[[int, object], object],
    apply_step: Callable[[int, object, StalenessRecord], None],
    on_arrival: Optional[Callable[[int, int, object], None]] = None,
) -> list[StalenessRecord]:
    """Real-thread variant of :func:`run_inner_loop`.

    Worker steps run on ``min(len(workers), tau + 1)`` single-thread pools,
    one per task the gate lets be in flight: a dispatch takes a free pool and
    the arrival of its result frees it, so tasks in flight together run on
    distinct threads and no more threads than that ever exist. A worker's
    compute time replaces its latency model ``workers[i]``, so arrival order
    depends on the scheduler and determinism is forfeited. The staleness
    bound is enforced with the same admission and deadline rules. Workers
    share nothing: they receive model messages and return results by value,
    and only the master thread touches master state (all model_step/
    apply_step calls happen here; worker_step runs on a pool thread against
    the worker's own streams, which no two threads use at once because the
    gate re-admits a worker only after its result arrives). An exception
    raised by ``worker_step`` stops the run and is re-raised here. Every pool
    thread is joined before this returns or raises.
    """
    # imported here, not at module top: the executor modules add about
    # 1.3 MB to a process, which a simulated run never needs
    import queue
    from concurrent.futures import ThreadPoolExecutor

    _validate_loop_args(workers, tau, m)
    pools = [ThreadPoolExecutor(max_workers=1)
             for _ in range(min(len(workers), tau + 1))]
    free = list(range(len(pools)))  # indices of pools with no task in flight
    finished: queue.SimpleQueue = queue.SimpleQueue()  # (task, slot, future)
    gate = _Gate(len(workers), tau)
    arrival_order = itertools.count()
    try:
        while gate.t < m:
            for task in gate.admit():
                model = model_step(task.worker_id, task.version)
                slot = free.pop()
                future = pools[slot].submit(worker_step, task.worker_id, model)
                future.add_done_callback(
                    lambda future, task=task, slot=slot:
                    finished.put((task, slot, future)))
            # Land every finished result, then choose; block for the next
            # result only while no pending one is safe.
            while not finished.empty() or (chosen := gate.choose()) is None:
                task, slot, future = finished.get()
                free.append(slot)
                task.payload = future.result()  # re-raises a worker's error
                task.arrival = next(arrival_order)
                gate.arrive(task)
                if on_arrival is not None:
                    on_arrival(task.arrival, task.worker_id, task.payload)
            record = gate.apply(chosen, chosen.arrival)
            apply_step(record.t, chosen.payload, record)
    finally:
        for pool in pools:
            pool.shutdown(cancel_futures=True)
    return gate.records


def epoch_barrier(
    problem: CompositeProblem,
    snapshot: np.ndarray,
    n_workers: int,
    ledger: BitLedger,
    step: int = 0,
) -> np.ndarray:
    """Synchronous full-batch gradient at the snapshot, map-reduce style.

    All workers receive the snapshot, each reduces its contiguous sample
    range, and the master sums partials in worker order before dividing by n.
    With one worker this is bit-for-bit the single-pass full gradient. Each
    worker's full-precision exchange, one message down and one up, is
    recorded in ``ledger`` at ``step`` under its own kind, ``full_barrier``,
    so inner and barrier traffic stay separable.
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    bounds = np.linspace(0, problem.n, n_workers + 1).astype(int)
    total = np.zeros(problem.d)
    for w in range(n_workers):
        lo, hi = int(bounds[w]), int(bounds[w + 1])
        ledger.record(step, "down", "full_barrier", full_bits(problem.d))
        if hi > lo:
            total += problem.grad_range_sum(lo, hi, snapshot)
        ledger.record(step, "up", "full_barrier", full_bits(problem.d))
    return total / problem.n

