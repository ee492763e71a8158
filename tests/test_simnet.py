import hashlib
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from dqsim import harness
from dqsim.codec import BitLedger
from dqsim.optim import make_streams
from dqsim.problems import logistic_problem, synth_dataset
from dqsim.simnet import (
    FixedLatency,
    GeometricLatency,
    UniformLatency,
    epoch_barrier,
    run_inner_loop,
    run_inner_loop_threads,
)

from oracles import per_kind


def run_plain(workers, tau, m, seed=0):
    _, _, lat, _, _ = make_streams(seed, len(workers))
    return run_inner_loop(
        workers, tau, m, lambda w, v: (w, v), lambda w, d: d,
        lambda t, p, r: None, lat
    )


def random_workers(rng, n_w):
    specs = []
    for _ in range(n_w):
        k = int(rng.integers(0, 3))
        if k == 0:
            specs.append(FixedLatency(int(rng.integers(1, 6))))
        elif k == 1:
            specs.append(UniformLatency(1, int(rng.integers(2, 9))))
        else:
            specs.append(GeometricLatency(float(rng.uniform(0.2, 0.9))))
    return specs


class TestInnerLoop:
    def test_single_worker_unit_latency_is_synchronous(self):
        recs = run_plain([FixedLatency(1)], 0, 20)
        assert [r.version for r in recs] == list(range(20))
        assert all(r.staleness == 0 for r in recs)

    def test_two_workers_fixed_latency_hand_trace(self):
        workers = [FixedLatency(2)] * 2
        recs = run_plain(workers, 2, 6)
        assert [(r.t, r.version, r.worker_id) for r in recs] == [
            (0, 0, 0), (1, 0, 1), (2, 1, 0), (3, 1, 1), (4, 3, 0), (5, 3, 1),
        ]
        assert [r.staleness for r in recs[1:]] == [1, 1, 2, 1, 2]

    def test_staleness_never_exceeds_tau(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            n_w = int(rng.integers(1, 9))
            tau = int(rng.integers(0, 9))
            workers = random_workers(rng, n_w)
            recs = run_plain(workers, tau, 2000, seed=trial)
            assert len(recs) == 2000
            assert all(0 <= r.staleness <= tau for r in recs)

    def test_exactly_m_updates(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            workers = random_workers(rng, int(rng.integers(1, 6)))
            m = int(rng.integers(1, 300))
            assert len(run_plain(workers, int(rng.integers(0, 5)), m)) == m

    def test_deterministic_given_seeds(self):
        workers = [UniformLatency(1, 7)] * 5
        a = run_plain(workers, 3, 500, seed=9)
        b = run_plain(workers, 3, 500, seed=9)
        assert a == b
        c = run_plain(workers, 3, 500, seed=10)
        assert a != c

    def test_tasks_capture_dispatch_version(self):
        versions = []

        def make_task(worker_id, version):
            versions.append(version)
            return version

        def apply_result(t, payload, record):
            assert payload == record.version

        workers = [UniformLatency(1, 4)] * 3
        _, _, lat, _, _ = make_streams(1, 3)
        run_inner_loop(workers, 2, 100, make_task, lambda w, d: d, apply_result, lat)
        assert versions == sorted(versions)  # grants see nondecreasing versions

    def test_on_arrival_sees_every_applied_result(self):
        arrived = []
        workers = [UniformLatency(1, 5)] * 4
        _, _, lat, _, _ = make_streams(2, 4)
        recs = run_inner_loop(
            workers, 3, 200, lambda w, v: (w, v), lambda w, d: d,
            lambda t, p, r: None, lat,
            on_arrival=lambda clock, w, p: arrived.append(p),
        )
        assert len(arrived) >= len(recs)

    def test_validation_errors(self):
        w = [FixedLatency(1)]
        _, _, lat, _, _ = make_streams(0, 1)
        with pytest.raises(ValueError):
            run_inner_loop([], 0, 1, lambda w, v: None, lambda w, d: d, lambda t, p, r: None, [])
        with pytest.raises(ValueError):
            run_inner_loop(w, -1, 1, lambda w, v: None, lambda w, d: d, lambda t, p, r: None, lat)
        with pytest.raises(ValueError):
            run_inner_loop(w, 0, 0, lambda w, v: None, lambda w, d: d, lambda t, p, r: None, lat)
        with pytest.raises(ValueError, match="latency must be >= 1 tick"):
            FixedLatency(0)  # rejected where it is built, before any loop
        two = [FixedLatency(1)] * 2
        with pytest.raises(ValueError, match="2 workers need as many latency streams, got 1"):
            run_inner_loop(two, 0, 1, lambda w, v: None, lambda w, d: d, lambda t, p, r: None, lat)
        with pytest.raises(ValueError, match="need 1 <= low <= high"):
            UniformLatency(2, 1)
        with pytest.raises(ValueError, match="geometric p must be in"):
            GeometricLatency(0.0)

    def test_golden_schedule_digest(self):
        # The criterion-5 generator (same seed and draw order) at m=500; the
        # digest pins every record's update, version, worker and clock tick.
        rng = np.random.default_rng(105)
        digest = hashlib.sha256()
        for trial in range(200):
            n_w = int(rng.integers(1, 9))
            tau = int(rng.integers(0, 9))
            specs = []
            for _ in range(n_w):
                kind = int(rng.integers(0, 3))
                if kind == 0:
                    specs.append(FixedLatency(int(rng.integers(1, 7))))
                elif kind == 1:
                    specs.append(UniformLatency(1, int(rng.integers(2, 10))))
                else:
                    specs.append(GeometricLatency(float(rng.uniform(0.15, 0.9))))
            _, _, lat, _, _ = make_streams(trial, n_w)
            recs = run_inner_loop(
                specs, tau, 500, lambda w, v: None, lambda w, d: d,
                lambda t, p, r: None, lat
            )
            for r in recs:
                digest.update(f"{r.t},{r.version},{r.worker_id},{r.clock};".encode())
        assert digest.hexdigest() == (
            "e369e47ee6890f291f557552c97ec7115f75dbbfeec887690a3e03054375f814"
        )

    def test_trace_csv(self, tmp_path, monkeypatch):
        # trace.csv is projected from the metrics rows: D_t = t - staleness;
        # the run's writer gets these rows from a stand-in training run
        rows = [{"epoch": 0, "t": 0, "t_global": 0, "D_t": 0, "staleness": 0,
                 "worker_id": 1, "message_kind": "full", "bits": 64},
                {"epoch": 1, "t": 2, "t_global": 7, "D_t": 0, "staleness": 2,
                 "worker_id": 0, "message_kind": "quantized_dense", "bits": 40}]
        result = SimpleNamespace(
            metrics=rows, ledger=BitLedger(), final_loss=0.0, violations=0,
            search_failures=0, min_grad_mapping_sq=None, output=np.zeros(1))
        monkeypatch.setattr(harness, "run_training", lambda *args: result)
        config = harness.parse_config(
            {"run": {"out_dir": str(tmp_path), "loss_target": None}})
        report = harness.run_experiment(
            config, problem=SimpleNamespace(smoothness=None))
        path = tmp_path / "trace.csv"
        assert report.trace_csv == str(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,D_t,worker_id,epoch,message_kind,bits"
        assert lines[1] == "0,0,1,0,full,64"
        assert lines[2] == "7,5,0,1,quantized_dense,40"


class TestThreadedLoop:
    """Real-thread mode: nondeterministic ordering, same mechanical contract."""

    def test_runs_m_updates_within_staleness_bound(self):
        for tau, n_w in [(0, 1), (2, 3), (5, 4)]:
            workers = [FixedLatency(1)] * n_w
            applied = []
            recs = run_inner_loop_threads(
                workers, tau, 150,
                lambda w, v: v,
                lambda w, v: (w, v),
                lambda t, p, r: applied.append((t, p)),
            )
            assert len(recs) == 150
            assert all(0 <= r.staleness <= tau for r in recs)
            assert [t for t, _ in applied] == list(range(150))
            # the applied payload matches the dispatch version on record
            for (t, (w, v)), rec in zip(applied, recs):
                assert v == rec.version and w == rec.worker_id

    def test_worker_step_runs_off_master_thread(self):
        main = threading.get_ident()
        seen = set()

        def worker_step(worker_id, version):
            seen.add(threading.get_ident())
            return version

        workers = [FixedLatency(1)] * 2
        run_inner_loop_threads(
            workers, 1, 40, lambda w, v: v, worker_step, lambda t, p, r: None
        )
        assert main not in seen and len(seen) == 2

    def test_worker_error_reaches_master(self):
        class WorkerFailure(Exception):
            pass

        def worker_step(worker_id, model):
            raise WorkerFailure(worker_id)

        caught = []

        def run():
            try:
                run_inner_loop_threads(
                    [FixedLatency(1)], 1, 5,
                    lambda w, v: v, worker_step, lambda t, p, r: None,
                )
            except Exception as exc:
                caught.append(exc)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=10)
        assert not runner.is_alive()
        assert [type(exc) for exc in caught] == [WorkerFailure]

    @pytest.mark.parametrize(
        "failing", [None, "worker_step", "model_step", "apply_step"])
    def test_worker_threads_joined_however_the_run_ends(self, failing):
        class Failure(Exception):
            pass

        def step(name, count):
            if name == failing and count == 10:
                raise Failure(name)

        def model_step(worker_id, version):
            step("model_step", version)
            return version

        def worker_step(worker_id, version):
            step("worker_step", version)
            time.sleep(1e-3)  # other workers are mid-step when the run stops
            return version

        workers = [FixedLatency(1)] * 4
        before = threading.active_count()
        out = {}

        def run():
            try:
                out["recs"] = run_inner_loop_threads(
                    workers, 2, 40, model_step, worker_step,
                    lambda t, p, r: step("apply_step", t),
                )
            except Failure as exc:
                out["error"] = str(exc)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=10)
        assert not runner.is_alive()
        if failing is None:
            assert len(out["recs"]) == 40
        else:
            assert out == {"error": failing}
        assert threading.active_count() == before

    def test_stress_more_workers_than_cores(self):
        tau, m = 5, 2000
        workers = [FixedLatency(1)] * 16
        applied = []
        out = {}

        def run():
            out["recs"] = run_inner_loop_threads(
                workers, tau, m,
                lambda w, v: v,
                lambda w, v: (w, v),
                lambda t, p, r: applied.append((t, p)),
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        recs = out["recs"]
        assert len(recs) == m
        assert [t for t, _ in applied] == list(range(m))
        assert all(0 <= r.staleness <= tau for r in recs)
        for (t, (w, v)), rec in zip(applied, recs):
            assert v == rec.version and w == rec.worker_id

    def test_training_runs_end_to_end_in_thread_mode(self):
        from dqsim.optim import AlgoConfig, Algorithm, run_training

        prob = logistic_problem(synth_dataset(200, 10, seed=11), 1e-5, 1e-4)
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, epochs=2, m=20, eta=0.3,
                         b_x=8, b=8, tau=3, seed=5, batch_size=4,
                         execution="threads", track_grad_mapping=False)
        workers = [FixedLatency(1)] * 3
        res = run_training(prob, cfg, workers)
        assert len(res.metrics) == 40
        assert all(0 <= r["staleness"] <= 3 for r in res.metrics)
        assert np.isfinite(res.final_loss)
        assert res.ledger.total_bits > 0


class TestEpochBarrier:
    def make_problem(self):
        return logistic_problem(synth_dataset(101, 9, seed=4), 1e-4, 1e-3)

    def test_single_worker_matches_full_grad_bitwise(self):
        prob = self.make_problem()
        x = np.random.default_rng(0).normal(size=prob.d)
        np.testing.assert_array_equal(epoch_barrier(prob, x, 1, BitLedger()), prob.full_grad(x))

    def test_partitioned_matches_full_grad(self):
        prob = self.make_problem()
        x = np.random.default_rng(1).normal(size=prob.d)
        ref = prob.full_grad(x)
        for n_workers in (2, 3, 7):
            got = epoch_barrier(prob, x, n_workers, BitLedger())
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-15)

    def test_deterministic(self):
        prob = self.make_problem()
        x = np.random.default_rng(2).normal(size=prob.d)
        np.testing.assert_array_equal(
            epoch_barrier(prob, x, 4, BitLedger()), epoch_barrier(prob, x, 4, BitLedger())
        )

    def test_ledger_accounting(self):
        prob = self.make_problem()
        ledger = BitLedger()
        epoch_barrier(prob, np.zeros(prob.d), 5, ledger, step=3)
        assert ledger.total_bits == 32 * prob.d * (5 + 5)
        assert per_kind(ledger)["full_barrier"] == (10, 32 * prob.d * 10)
        assert ledger.down_bits == ledger.up_bits == 32 * prob.d * 5
