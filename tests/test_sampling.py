import math
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    DERANDOMIZED,
    random_block_diagonal_model,
    random_model,
    sampled_tiles,
    sampled_values,
    scalar_pair_model,
    standard_normal_block,
    two_pass_batch,
)

from infodensity import (
    BatchTooSmall,
    CumulantSequence,
    HomogeneousModel,
    cgf,
    homogeneous_covariance,
    k_statistics,
    kstat_sampling_variances,
    mc_validate,
    multiinformation,
    sample_density,
    validate_model,
)
from infodensity import _linalg, sampling
from infodensity.sampling import SampleBatch, _moment_sums


def sampler_bytes(threads, d):
    """The sampler's closed-form memory less the d x d set-up: per thread, two 2048 x d tiles and two of 2048 values.

    The value tiles hold y and, while a tile is reduced, its squares.
    """
    return threads * 8 * 2048 * (2 * d + 2)


def _exact_k_statistics(x):
    """k_1..k_4 of the float values x in exact rational arithmetic."""
    values = [Fraction(v) for v in x]
    n = Fraction(len(values))
    mean = sum(values) / n
    m2, m3, m4 = (sum((v - mean) ** p for v in values) / n for p in (2, 3, 4))
    k2 = n / (n - 1) * m2
    k3 = n * n / ((n - 1) * (n - 2)) * m3
    k4 = n * n * ((n + 1) * m4 - 3 * (n - 1) * m2 * m2) / ((n - 1) * (n - 2) * (n - 3))
    return tuple(float(k) for k in (mean, k2, k3, k4))


class TestSampleDensity:
    def test_block_diagonal_values_vanish(self):
        model = random_block_diagonal_model(np.random.default_rng(1), [2, 2])
        values = sampled_values(model, 1000, seed=3)
        assert np.max(np.abs(values)) < 1e-10

    # A kernel formed from the factors alone, L^T S_B^{-1} L - I, leaves rounding where K = 0.
    # At d = 200, the factor of S and those of its diagonal blocks also differ in their last bits.
    @pytest.mark.parametrize("sizes", [[2, 3, 1], [50, 50, 50, 50]], ids=["2+3+1", "4x50"])
    def test_block_diagonal_sums_and_z_scores_exactly_zero(self, set_chunk_size, sizes):
        set_chunk_size(1000)
        model = random_block_diagonal_model(np.random.default_rng(2), sizes)
        batch = sample_density(model, 5003, seed=4, threads=2)
        assert (batch.s1, batch.s2, batch.s3, batch.s4) == (0.0, 0.0, 0.0, 0.0)
        report = mc_validate(model, 5003, seed=4, threads=2)
        assert [row["z"] for row in report["rows"]] == [0.0] * 4

    def test_zero_standard_error_gives_signed_infinite_z(self, set_chunk_size):
        # Independent blocks: every standard error is 0, and raising the order-2 target gives z = -inf.
        set_chunk_size(1000)
        model = random_block_diagonal_model(np.random.default_rng(2), [2, 3, 1])
        report = mc_validate(model, 5003, seed=4, threads=2, corrupt_order=2)
        assert [row["z"] for row in report["rows"]] == [0.0, -math.inf, 0.0, 0.0]
        assert [row["ok"] for row in report["rows"]] == [True, False, True, True]

    @pytest.mark.parametrize("delay_seed", [None, 38], ids=["undelayed", "delayed"])
    def test_deterministic_across_thread_counts(self, monkeypatch, set_chunk_size, delay_seed):
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 4)
        if delay_seed is not None:
            # A seeded delay of 0-2 ms before each chunk varies which thread takes which chunk.
            delays = np.random.default_rng(delay_seed).uniform(0.0, 0.002, size=8)
            chunk_tiles = sampling._chunk_tiles

            def delayed(kernel, seed, chunk_index, rows):
                time.sleep(delays[chunk_index])
                return chunk_tiles(kernel, seed, chunk_index, rows)

            monkeypatch.setattr(sampling, "_chunk_tiles", delayed)
        model = scalar_pair_model(0.5)
        one = sample_density(model, 200_000, seed=11, threads=1)
        for threads in (2, 4):
            assert sample_density(model, 200_000, seed=11, threads=threads) == one
        # d = 20 over six chunks: one 1000-row tile per full chunk, then 3 rows.
        set_chunk_size(1000)
        model = random_model(np.random.default_rng(1520), d=20, sizes=[5, 5, 5, 5])
        one = sample_density(model, 5003, seed=5, threads=1)
        for threads in (2, 3, 4):
            assert sample_density(model, 5003, seed=5, threads=threads) == one

    def test_deterministic_rerun(self):
        model = scalar_pair_model(0.3)
        batch = sample_density(model, 5000, seed=9)
        assert batch == sample_density(model, 5000, seed=9)
        values = sampled_values(model, 5000, seed=9)
        assert np.array_equal(values, sampled_values(model, 5000, seed=9))
        assert np.all(np.isfinite(values))
        assert batch.n == 5000

    def test_seed_sensitivity(self):
        model = scalar_pair_model(0.5)
        means = {k_statistics(sample_density(model, 4000, seed=s)).kappa(1) for s in (1, 2, 3)}
        assert len(means) == 3

    def test_minimum_size(self):
        with pytest.raises(BatchTooSmall):
            sample_density(scalar_pair_model(0.5), 1, seed=0)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_thread_count_must_be_positive(self, threads):
        with pytest.raises(ValueError, match="threads"):
            sample_density(scalar_pair_model(0.5), 1000, seed=0, threads=threads)

    def test_integral_counts_of_any_type_accepted(self):
        # n, seed and threads by the package's integral rule: 2e4 is 20000, as cumulants reads its order.
        model = scalar_pair_model(0.5)
        batch = sample_density(model, 20_000, seed=7, threads=2)
        report = mc_validate(model, 20_000, seed=7, threads=2)
        for n, seed, threads in ((2e4, 7.0, 2.0), (np.int64(20_000), np.uint8(7), np.float32(2))):
            assert sample_density(model, n, seed=seed, threads=threads) == batch
            assert mc_validate(model, n, seed=seed, threads=threads) == report
        assert type(batch.n) is int
        assert [type(report[key]) for key in ("n", "seed", "threads")] == [int, int, int]
        # max_order and corrupt_order by the same rule: 2.0 is 2.
        corrupted = mc_validate(model, 20_000, seed=7, max_order=2, corrupt_order=2)
        assert mc_validate(model, 20_000, seed=7, max_order=2.0, corrupt_order=np.float64(2)) == corrupted
        assert type(corrupted["max_order"]) is int

    @pytest.mark.parametrize(
        "name, value", [("max_order", True), ("max_order", 2.5), ("corrupt_order", True), ("corrupt_order", 1.5)]
    )
    def test_non_integral_orders_rejected(self, name, value):
        # Read as an int, max_order=True would run order 1 alone, and corrupt_order=True would corrupt order 1.
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            mc_validate(scalar_pair_model(0.5), 1000, seed=0, **{name: value})

    @pytest.mark.parametrize("function", [sample_density, mc_validate])
    @pytest.mark.parametrize(
        "name, value",
        [("n", 2.5), ("n", True), ("n", "1000"), ("seed", 1.5), ("seed", False), ("threads", 2.5), ("threads", True)],
    )
    def test_non_integral_counts_rejected(self, function, name, value):
        arguments = {"n": 1000, "seed": 0, "threads": 1, name: value}
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$") as exc:
            function(scalar_pair_model(0.5), **arguments)
        assert not isinstance(exc.value, BatchTooSmall)

    def test_threads_capped_at_cpu_count(self, monkeypatch, set_chunk_size):
        # 10**9 draws are 15,259 chunks: uncapped, 100,000 threads would start
        # 15,259 workers. The recorder refuses to start any pool.
        class PoolNotStarted(Exception):
            pass

        requested = []

        def record(max_workers):
            requested.append(max_workers)
            raise PoolNotStarted

        monkeypatch.setattr(sampling, "ThreadPoolExecutor", record)
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 4)
        model = scalar_pair_model(0.5)
        with pytest.raises(PoolNotStarted):
            sample_density(model, 10**9, seed=0, threads=100_000)
        set_chunk_size(1000)
        with pytest.raises(PoolNotStarted):
            sample_density(model, 3000, seed=0, threads=100_000)
        assert requested == [4, 3]

    def test_unknown_cpu_count_runs_one_worker(self, monkeypatch, set_chunk_size):
        set_chunk_size(1000)
        model = scalar_pair_model(0.5)
        reference = sample_density(model, 5000, seed=3, threads=1)
        requested = []

        def record(max_workers):
            requested.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(sampling, "ThreadPoolExecutor", record)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert sample_density(model, 5000, seed=3, threads=4) == reference
        assert mc_validate(model, 5000, seed=3, threads=4)["threads"] == 1
        assert requested == [1, 1]

    def test_threads_capped_at_affinity(self, monkeypatch, set_chunk_size):
        # A process pinned to one CPU of four runs one thread.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        set_chunk_size(1000)
        model = scalar_pair_model(0.5)
        reference = sample_density(model, 5000, seed=3, threads=1)
        assert sample_density(model, 5000, seed=3, threads=4) == reference
        assert mc_validate(model, 5000, seed=3, threads=4)["threads"] == 1

    def test_mean_within_five_se(self):
        model = scalar_pair_model(0.5)
        batch = sample_density(model, 10**6, seed=42)
        info = -0.5 * math.log1p(-0.25)
        se = math.sqrt(0.25 / 10**6)
        assert abs(k_statistics(batch).kappa(1) - info) < 5 * se

    def test_variance_rescaling_matches_pointwise(self):
        rng = np.random.default_rng(21)
        model = random_model(rng, d=4, zero_mean=True)
        scales = np.exp(rng.uniform(-1.0, 1.0, 4))
        scaled = validate_model(
            model.mean, model.covariance * np.outer(scales, scales), model.partition.block_sizes
        )
        a = sampled_values(model, 20_000, seed=5)
        b = sampled_values(scaled, 20_000, seed=5)
        assert np.max(np.abs(a - b)) < 1e-9


class TestStop:
    """A failing chunk or an interrupt stops every thread after its current chunk.

    ``_held_run`` runs 100 chunks of 64 draws on 4 threads and holds each thread inside
    its first chunk (each thread's first chunk, one of 0..3) until the pool
    shuts down, which the calling thread reaches only once it has left its
    wait. Without a stop the three other threads would then draw every chunk
    left. The stop also leaves every other index untaken.
    """

    WORKERS = 4

    class ChunkFailed(Exception):
        pass

    def _held_run(self, monkeypatch, set_chunk_size, first_chunk, started, taken):
        """A 100-chunk run whose thread w calls ``first_chunk(w)`` in its first chunk.

        ``started`` gets each chunk run, and ``taken`` each entry the threads take from the chunk counter.
        """
        shutting_down = threading.Event()
        barrier = threading.Barrier(self.WORKERS, timeout=30)
        chunk_tiles = sampling._chunk_tiles

        class Pool(ThreadPoolExecutor):
            def shutdown(self, *args, **kwargs):
                shutting_down.set()
                super().shutdown(*args, **kwargs)

        class Chunks(sampling._Chunks):
            def take(self):
                entry = super().take()
                taken.append(entry)
                return entry

        def held(kernel, seed, chunk_index, rows):
            started.append(chunk_index)
            if chunk_index < self.WORKERS:
                barrier.wait()  # every thread is running before any chunk fails
                first_chunk(chunk_index)
                assert shutting_down.wait(timeout=30)
            return chunk_tiles(kernel, seed, chunk_index, rows)

        monkeypatch.setattr(sampling, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(sampling, "_Chunks", Chunks)
        monkeypatch.setattr(sampling, "_chunk_tiles", held)
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: self.WORKERS)
        set_chunk_size(64)
        sample_density(scalar_pair_model(0.5), 100 * 64, seed=0, threads=self.WORKERS)

    @pytest.mark.parametrize("failing", [0, WORKERS - 1])
    def test_failing_chunk_stops_every_thread(self, monkeypatch, set_chunk_size, failing):
        def fail(chunk_index):
            if chunk_index == failing:
                raise self.ChunkFailed

        started, taken = [], []
        with pytest.raises(self.ChunkFailed):
            self._held_run(monkeypatch, set_chunk_size, fail, started, taken)
        assert sorted(started) == list(range(self.WORKERS))
        assert sorted(c for c in taken if c is not None) == list(range(self.WORKERS))

    def test_interrupt_stops_every_thread(self, monkeypatch, set_chunk_size):
        # Once every thread is inside its first chunk, the calling thread's first
        # wait times out for real and its second raises KeyboardInterrupt, as a
        # Ctrl-C does when it lands as a wait begins. CI interrupts the console
        # script with a real SIGINT.
        in_first_chunk = threading.Barrier(self.WORKERS + 1, timeout=30)
        real_wait = sampling.wait
        timeouts = []

        def interrupted_wait(futures, timeout=None, return_when=None):
            timeouts.append(timeout)
            if len(timeouts) == 1:
                in_first_chunk.wait()
                waited = real_wait(futures, timeout=timeout, return_when=return_when)
                assert len(waited.not_done) == self.WORKERS  # timed out: every thread is held
                return waited
            raise KeyboardInterrupt

        monkeypatch.setattr(sampling, "wait", interrupted_wait)
        started, taken = [], []
        with pytest.raises(KeyboardInterrupt):
            self._held_run(monkeypatch, set_chunk_size, lambda chunk_index: in_first_chunk.wait(), started, taken)
        assert len(timeouts) == 2
        assert all(0.0 < timeout <= 0.25 for timeout in timeouts)
        assert sorted(started) == list(range(self.WORKERS))
        assert sorted(c for c in taken if c is not None) == list(range(self.WORKERS))


class TestWorkSharing:
    """Each thread takes the next chunk not yet started, so a free thread takes up a held one's share."""

    def test_free_thread_takes_every_chunk_a_held_thread_would_have_left(self, monkeypatch, set_chunk_size):
        # At a fixed stride of chunks w, w + 2, ... the thread held in chunk 0
        # would own chunks 2, 4 and 6, and the hold would time out.
        set_chunk_size(64)
        model = scalar_pair_model(0.5)
        reference = sample_density(model, 8 * 64, seed=6, threads=1)
        chunk_tiles = sampling._chunk_tiles
        others_returned = threading.Event()
        taken = []
        returned = []
        held = []

        def recorded(kernel, seed, chunk_index, rows):
            taken.append((chunk_index, threading.get_ident()))
            if chunk_index == 0:
                held.append(others_returned.wait(timeout=10))
            yield from chunk_tiles(kernel, seed, chunk_index, rows)
            if chunk_index > 0:
                returned.append(chunk_index)
                if len(returned) == 7:
                    others_returned.set()

        monkeypatch.setattr(sampling, "_chunk_tiles", recorded)
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 2)
        batch = sample_density(model, 8 * 64, seed=6, threads=2)
        assert held == [True]
        ran_on = dict(taken)
        assert sorted(index for index, _ in taken) == list(range(8))
        assert {ran_on[c] for c in range(1, 8)} == {ran_on[1]} != {ran_on[0]}
        assert batch == reference


    def test_every_index_taken_once_under_contention(self):
        # Eight threads on one counter, switching every microsecond. Where threads can
        # interleave inside ``take`` (free-threaded builds), an unguarded
        # read-modify-write would hand an index out twice or skip one.
        chunks = sampling._Chunks(20_000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                runs = [pool.submit(lambda: list(iter(chunks.take, None))) for _ in range(8)]
                taken = [run.result(timeout=60) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(index for indices in taken for index in indices) == list(range(20_000))
        assert all(indices == sorted(indices) for indices in taken)
        assert chunks.take() is None


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS thread-count (getter, setter); the count is put back after the test."""
    functions = _linalg._openblas_threads()
    if functions is None:
        pytest.skip("numpy's OpenBLAS was not found")
    get, set_ = functions
    before = get()
    yield get, set_
    set_(before)


class TestBlasHold:
    """While the chunk threads run, BLAS is held at one thread, then restored."""

    @staticmethod
    def _recording(monkeypatch, get, before_chunk=lambda seed: None):
        """Patch ``_chunk_tiles`` to call ``before_chunk(seed)`` and record the BLAS count in each chunk."""
        seen = []
        chunk_tiles = sampling._chunk_tiles

        def recorded(kernel, seed, chunk_index, rows):
            before_chunk(seed)
            seen.append(get())
            return chunk_tiles(kernel, seed, chunk_index, rows)

        monkeypatch.setattr(sampling, "_chunk_tiles", recorded)
        return seen

    @staticmethod
    def _cpus(monkeypatch, count):
        """Patch the usable CPUs for the worker count, and in ``_linalg``, where a hold that read them would."""
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: count)
        monkeypatch.setattr(_linalg, "_usable_cpus", lambda: count)

    def test_held_while_chunks_run_and_restored_on_return(self, monkeypatch, set_chunk_size, blas_threads):
        get, set_ = blas_threads
        set_(2)
        self._cpus(monkeypatch, 2)
        set_chunk_size(1000)
        seen = self._recording(monkeypatch, get)
        sample_density(scalar_pair_model(0.5), 4000, seed=1, threads=2)
        assert seen == [1] * 4
        assert get() == 2

    # Fewer sampler threads than CPUs: no share of the CPUs goes to BLAS.
    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_thread_whatever_the_cpus(self, monkeypatch, set_chunk_size, blas_threads, threads):
        get, set_ = blas_threads
        set_(2)
        self._cpus(monkeypatch, 4)
        set_chunk_size(1000)
        seen = self._recording(monkeypatch, get)
        sample_density(scalar_pair_model(0.5), 4000, seed=1, threads=threads)
        assert seen == [1] * 4
        assert get() == 2

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_restored_after_a_chunk_raises(self, monkeypatch, set_chunk_size, blas_threads, error):
        get, set_ = blas_threads
        set_(2)
        self._cpus(monkeypatch, 2)
        set_chunk_size(1000)

        def fail(kernel, seed, chunk_index, rows):
            assert get() == 1
            raise error

        monkeypatch.setattr(sampling, "_chunk_tiles", fail)
        with pytest.raises(error):
            sample_density(scalar_pair_model(0.5), 4000, seed=1, threads=2)
        assert get() == 2

    def test_overlapping_calls_restore_the_count_before_the_first(self, monkeypatch, set_chunk_size, blas_threads):
        # Both calls' chunks start together; the second call's chunks then
        # wait until the first call has returned, and must still be held.
        get, set_ = blas_threads
        set_(2)
        self._cpus(monkeypatch, 2)
        set_chunk_size(1000)
        all_started = threading.Barrier(4, timeout=30)
        first_returned = threading.Event()

        def before_chunk(seed):
            all_started.wait()
            if seed == 2:
                assert first_returned.wait(timeout=30)

        seen = self._recording(monkeypatch, get, before_chunk)
        model = scalar_pair_model(0.5)
        with ThreadPoolExecutor(2) as callers:
            first, second = (
                callers.submit(sample_density, model, 2000, seed, threads=2) for seed in (1, 2)
            )
            first.result(timeout=60)
            first_returned.set()
            second.result(timeout=60)
        assert seen == [1] * 4
        assert get() == 2

    def test_many_overlapping_calls(self, monkeypatch, set_chunk_size, blas_threads):
        # Eight callers of two chunk threads each on two CPUs, switching threads
        # every microsecond: every chunk runs held, and the count comes back.
        get, set_ = blas_threads
        set_(2)
        self._cpus(monkeypatch, 2)
        set_chunk_size(100)
        seen = self._recording(monkeypatch, get)
        model = scalar_pair_model(0.5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as callers:
                calls = [
                    callers.submit(sample_density, model, 200, seed, threads=2) for seed in range(200)
                ]
                batches = [call.result(timeout=60) for call in calls]
        finally:
            sys.setswitchinterval(interval)
        assert [batch.n for batch in batches] == [200] * 200
        assert seen == [1] * 400
        assert get() == 2

    def test_a_count_of_one_is_never_raised(self, monkeypatch, set_chunk_size, blas_threads):
        get, set_ = blas_threads
        set_(1)
        self._cpus(monkeypatch, 2)
        set_chunk_size(1000)
        seen = self._recording(monkeypatch, get)
        sample_density(scalar_pair_model(0.5), 4000, seed=1, threads=1)
        assert seen == [1] * 4
        assert get() == 1

    def test_same_batch_without_openblas(self, monkeypatch, set_chunk_size):
        set_chunk_size(1000)
        model = random_model(np.random.default_rng(1524), d=20, sizes=[5, 5, 5, 5])
        reference = sample_density(model, 5003, seed=6, threads=2)
        monkeypatch.setattr(_linalg, "_openblas_threads", lambda: None)
        assert sample_density(model, 5003, seed=6, threads=2) == reference

    def test_openblas_not_found(self, monkeypatch):
        # Neither directory can be listed; or a library is listed, but none loads with both symbols.
        def unlisted(directory):
            raise FileNotFoundError(directory)

        def unloadable(path):
            raise OSError(f"cannot load {path}")

        with monkeypatch.context() as patch:
            patch.setattr(_linalg.os, "listdir", unlisted)
            assert _linalg._openblas_threads.__wrapped__() is None
        with monkeypatch.context() as patch:
            patch.setattr(_linalg.os, "listdir", lambda directory: ["libscipy_openblas64_-0.so"])
            for load in (unloadable, lambda path: object()):
                patch.setattr(_linalg.ctypes, "CDLL", load)
                assert _linalg._openblas_threads.__wrapped__() is None


class TestKStatistics:
    def test_estimates_are_a_cumulant_sequence(self):
        ks = k_statistics(two_pass_batch([1.0, 2.0, 6.0, 7.0, 9.0]))
        assert type(ks) is CumulantSequence and ks.order == 4

    def test_constant_batch(self):
        ks = k_statistics(two_pass_batch(np.full(100, 3.25)))
        assert ks.kappa(1) == 3.25
        assert ks.kappa(2) == ks.kappa(3) == ks.kappa(4) == 0.0

    def test_three_values(self):
        ks = k_statistics(two_pass_batch([1.0, 2.0, 3.0]))
        assert ks.kappa(1) == 2.0
        assert ks.kappa(2) == pytest.approx(1.0, abs=1e-15)
        assert math.isnan(ks.kappa(4))

    def test_standard_normal_higher_orders(self):
        z = standard_normal_block(seed=7, chunk_index=0, count=10**6)
        ks = k_statistics(two_pass_batch(z))
        normal_kappa = CumulantSequence((0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        v1, v2, v3, v4 = kstat_sampling_variances(normal_kappa, 10**6)
        assert abs(ks.kappa(1)) < 5 * math.sqrt(v1)
        assert abs(ks.kappa(2) - 1.0) < 5 * math.sqrt(v2)
        assert abs(ks.kappa(3)) < 5 * math.sqrt(v3)
        assert abs(ks.kappa(4)) < 5 * math.sqrt(v4)

    def test_accepts_batch_object(self):
        model = scalar_pair_model(0.4)
        batch = sample_density(model, 1000, seed=1)
        assert k_statistics(batch).kappa(1) == pytest.approx(float(np.mean(sampled_values(model, 1000, seed=1))))

    def test_too_small(self):
        with pytest.raises(BatchTooSmall):
            k_statistics(SampleBatch(1, 0.0, 0.0, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_sampling_variances_need_four_draws(self, n):
        with pytest.raises(BatchTooSmall, match=f"need at least 4 draws, got {n}"):
            kstat_sampling_variances(CumulantSequence((1.0,) * 8), n)

    @pytest.mark.parametrize("n", [10.5, True, "100"])
    def test_sampling_variances_read_n_as_an_integer(self, n):
        kappa = CumulantSequence((1.0,) * 8)
        assert kstat_sampling_variances(kappa, 1e2) == kstat_sampling_variances(kappa, 100)
        with pytest.raises(ValueError, match=rf"^n must be an integer, got {n!r}$"):
            kstat_sampling_variances(kappa, n)

    def test_sampling_variances_need_order_eight(self):
        with pytest.raises(IndexError, match="order 8 outside 1..7"):
            kstat_sampling_variances(CumulantSequence((1.0,) * 7), 100)


class TestStreaming:
    def test_summaries_and_reports_identical_across_threads(self, monkeypatch, set_chunk_size):
        # At d = 200 each 2500-draw chunk runs as a 2048-row and a 452-row tile.
        # From d = 300 on, OpenBLAS rounds the tile products differently at 1
        # and 2 threads, so it runs on 2 here, also where OPENBLAS_NUM_THREADS=1
        # started it on one: the hold must set 1 at every sampler thread count.
        # A share of the 4 CPUs patched here would leave 2 at 1 and 2 sampler
        # threads and 1 at 3 and 4, and at d = 400 and 600 the batches differ.
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(_linalg, "_usable_cpus", lambda: 4)
        functions = _linalg._openblas_threads()
        before = functions[0]() if functions else None
        try:
            for d, chunk_size in ((20, 1000), (200, 2500), (300, 2500), (400, 2500), (600, 2500)):
                if d >= 300 and functions:
                    functions[1](2)
                set_chunk_size(chunk_size)
                model = random_model(np.random.default_rng(1520), d=d, sizes=[d // 4] * 4)
                threads = (1, 2, 3, 4)
                batches = [sample_density(model, 5003, 5, threads=t) for t in threads]
                reports = [mc_validate(model, 5003, 5, threads=t) for t in threads]
                assert all(batch == batches[0] for batch in batches), d
                # The report ends with the effective thread count: at most one per chunk.
                n_chunks = -(-5003 // chunk_size)
                assert [list(r)[-1] for r in reports] == ["threads"] * 4
                assert [r.pop("threads") for r in reports] == [min(t, n_chunks) for t in threads]
                assert all(report == reports[0] for report in reports)
        finally:
            if functions:
                functions[1](before)

    def test_batch_is_the_summary_of_its_draws(self, set_chunk_size):
        set_chunk_size(1000)
        model = random_model(np.random.default_rng(1521), d=6, sizes=[2, 4])
        batch = sample_density(model, 5003, seed=2, threads=2)
        values = sampled_values(model, 5003, seed=2)
        got, expected = k_statistics(batch), k_statistics(two_pass_batch(values))
        for order in (1, 2, 3, 4):
            a, b = got.kappa(order), expected.kappa(order)
            assert abs(a - b) <= 1e-12 * abs(b)

    # The n-length value array of earlier versions alone was 1.6 / 6.4 MB, and
    # each thread held 2 * 65536 * 20 * 8 bytes (21 MB) of chunk buffers. Here the
    # two threads' tiles and K come to 1,379,456 bytes, and the rest of the run
    # (the analytic cumulants, the pool, the exact totals) to under 32 kB.
    @pytest.mark.parametrize("n", [200_000, 800_000])
    def test_peak_memory_independent_of_n(self, n):
        model = random_model(np.random.default_rng(1522), d=20, sizes=[5, 5, 5, 5])
        mc_validate(model, 1000, seed=0, threads=2)
        tracemalloc.start()
        try:
            report = mc_validate(model, n, seed=1, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["n"] == n
        assert peak < sampler_bytes(2, 20) + 8 * 20**2 + 48 * 2**10

    # One thread, so its tiles are all live at the peak: the closed form, K, and
    # under 32 kB for the rest of the run.
    def test_peak_memory_of_one_thread_is_the_closed_form(self):
        model = random_model(np.random.default_rng(1522), d=20, sizes=[5, 5, 5, 5])
        sample_density(model, 1000, seed=0)
        tracemalloc.start()
        try:
            sample_density(model, 2 * 65536, seed=1, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        floor = sampler_bytes(1, 20) + 8 * 20**2
        assert floor <= peak < floor + 32 * 2**10

    # 200 and 2,000 chunks of 64 draws. A queue of the chunk indices and a
    # result per chunk kept to the end of the run added about 240 bytes per chunk,
    # and one Python int kept per chunk adds about 40.
    def test_peak_memory_independent_of_the_chunk_count(self, set_chunk_size):
        set_chunk_size(64)
        model = scalar_pair_model(0.5)
        sample_density(model, 1000, seed=0)
        peaks = []
        for chunks in (200, 2_000):
            tracemalloc.start()
            try:
                sample_density(model, chunks * 64, seed=1, threads=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 4 * 2**10

    # Two 65536-draw chunks at d = 200 on one thread: 2048-row tiles hold
    # 2 * 2048 * 200 * 8 bytes (6.6 MB); one chunk-wide product would hold 210 MB.
    def test_peak_memory_bounded_above_d_128(self):
        model = random_model(np.random.default_rng(1523), d=200, sizes=[50] * 4)
        mc_validate(model, 1000, seed=0, threads=1)
        tracemalloc.start()
        try:
            report = mc_validate(model, 2 * 65536, seed=1, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["n"] == 2 * 65536
        floor = sampler_bytes(1, 200) + 8 * 200**2
        assert floor <= peak < floor + 48 * 2**10


class TestExactSum:
    """The batch's sums are every tile's sums added exactly and rounded once: ``math.fsum`` of them, bit for bit."""

    # 20,003 draws in chunks of 4500: four chunks of 2048, 2048 and 404 rows, then one of 2003.
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_batch_is_the_fsum_of_the_tile_sums(self, monkeypatch, set_chunk_size, threads):
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 4)
        set_chunk_size(4500)
        model = random_model(np.random.default_rng(1525), d=20, sizes=[5, 5, 5, 5])
        tiles = sampled_tiles(model, 20_003, seed=12)
        assert [tile.size for tile in tiles] == [2048, 2048, 404] * 4 + [2003]
        columns = list(zip(*(_moment_sums(tile) for tile in tiles)))
        # Added in tile order, the terms round differently: the order must not matter.
        assert any(sum(column) != math.fsum(column) for column in columns)
        batch = sample_density(model, 20_003, seed=12, threads=threads)
        assert (batch.n, batch.center) == (20_003, multiinformation(model))
        got = [value.hex() for value in (batch.s1, batch.s2, batch.s3, batch.s4)]
        assert got == [math.fsum(column).hex() for column in columns]


SEEDS = st.one_of(st.sampled_from([-1, 2**64, 2**64 + 7]), st.integers(-(2**70), 2**70))


class TestSamplerProperties:
    @DERANDOMIZED
    @given(
        model_seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 24),
        seed=SEEDS,
        n=st.integers(2, 3000),
        chunk_size=st.integers(16, 1500),
    )
    def test_thread_invariance_and_two_pass_summary(self, model_seed, d, seed, n, chunk_size):
        model = random_model(np.random.default_rng(model_seed), d=d)
        # A function-scoped fixture would span every example, so each example patches its own.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sampling, "CHUNK_SIZE", chunk_size)
            # Three threads must run even on a host with fewer cores.
            patch.setattr(sampling, "_usable_cpus", lambda: 3)
            batches = [sample_density(model, n, seed, threads=t) for t in (1, 2, 3)]
            values = sampled_values(model, n, seed)
        assert batches[0] == batches[1] == batches[2]
        got = k_statistics(batches[0])
        expected = k_statistics(two_pass_batch(values))
        for order in (1, 2, 3, 4):
            a, b = got.kappa(order), expected.kappa(order)
            if math.isnan(b):
                assert math.isnan(a)
            else:
                assert abs(a - b) <= 1e-12 * max(abs(b), self._term_size(batches[0], order))

    @staticmethod
    def _term_size(batch, order):
        """The size of the terms k_order is formed from: its n-factor times a moment of y about I.

        The rounding of an estimate scales with these, not with the estimate,
        which can cancel far below them: two draws may lie much closer together
        than to I, and k_3, k_4 are differences of moments.
        """
        n, m2, m4 = batch.n, batch.s2 / batch.n, batch.s4 / batch.n
        if order == 1:
            return math.sqrt(m2)
        if order == 2:
            return n / (n - 1) * m2
        if order == 3:
            return n * n / ((n - 1) * (n - 2)) * math.sqrt(m2 * m4)
        return n * n * (n + 1) / ((n - 1) * (n - 2) * (n - 3)) * m4


class TestMerge:
    """Power sums of the pieces of a sample about a fixed center, added by ``math.fsum``.

    ``sample_density`` adds its tiles' sums to the same correctly rounded totals (``TestExactSum``).
    """

    SPLITS = {
        "ones": [1] * 9,
        "one_two_three": [1, 2, 3, 3, 2, 1, 5],
        "uneven": [1, 4000, 2, 3, 997, 1, 1500],
    }
    # The exact means of the two distributions: Gamma(2, 1.5) - 1 and 1e8 + N(0, 1).
    CENTERS = {"skewed": 2.0, "offset": 1e8}

    @staticmethod
    def _data(kind, n):
        rng = np.random.default_rng(1700)
        if kind == "skewed":
            return rng.gamma(2.0, 1.5, n) - 1.0
        return 1e8 + rng.standard_normal(n)  # mean 1e8, sd 1

    @staticmethod
    def _chunk_sums(x, sizes, center):
        edges = np.cumsum([0, *sizes])
        pieces = [x[a:b] - center for a, b in zip(edges[:-1], edges[1:])]
        return [_moment_sums(y) for y in pieces]

    @staticmethod
    def _batch(chunk_sums, n, center):
        return SampleBatch(n, center, *map(math.fsum, zip(*chunk_sums)))

    def _merged(self, kind, x, sizes):
        center = self.CENTERS[kind]
        return k_statistics(self._batch(self._chunk_sums(x, sizes, center), x.size, center))

    @pytest.mark.parametrize("kind", ["skewed", "offset"])
    @pytest.mark.parametrize("split", sorted(SPLITS))
    def test_chunk_order_merge_matches_two_pass(self, kind, split):
        sizes = self.SPLITS[split]
        x = self._data(kind, sum(sizes))
        merged = self._merged(kind, x, sizes)
        two_pass = k_statistics(two_pass_batch(x))
        assert merged.kappa(1) == pytest.approx(two_pass.kappa(1), rel=1e-15)
        for order in (2, 3, 4):
            a, b = merged.kappa(order), two_pass.kappa(order)
            assert abs(a - b) <= 1e-12 * abs(b)

    @pytest.mark.parametrize("kind", ["skewed", "offset"])
    def test_merge_matches_exact_arithmetic(self, kind):
        sizes = self.SPLITS["uneven"]
        x = self._data(kind, sum(sizes))
        merged = self._merged(kind, x, sizes)
        for order, exact in enumerate(_exact_k_statistics(x), start=1):
            assert abs(merged.kappa(order) - exact) <= 1e-12 * abs(exact)

    @pytest.mark.parametrize("kind", ["skewed", "offset"])
    def test_shuffled_chunk_sums_give_the_same_batch(self, kind):
        sizes = self.SPLITS["uneven"] * 3
        x = self._data(kind, sum(sizes))
        center = self.CENTERS[kind]
        chunk_sums = self._chunk_sums(x, sizes, center)
        in_order = self._batch(chunk_sums, x.size, center)
        for seed in range(5):
            np.random.default_rng(seed).shuffle(chunk_sums)
            assert self._batch(chunk_sums, x.size, center) == in_order

    def test_offset_data_defeat_raw_power_sums(self):
        # The case the fixed center must survive: from raw sums of x and x^2
        # the variance of 1e8 + N(0, 1) data cancels to nothing.
        x = self._data("offset", 6504)
        n = x.size
        naive_k2 = (np.sum(x * x) - np.sum(x) ** 2 / n) / (n - 1)
        exact_k2 = _exact_k_statistics(x)[1]
        assert abs(naive_k2 - exact_k2) > 0.1 * exact_k2
        assert abs(self._merged("offset", x, self.SPLITS["uneven"]).kappa(2) - exact_k2) <= 1e-12 * exact_k2

    def test_small_arrays_leave_higher_orders_nan(self):
        two = k_statistics(two_pass_batch([1.0, 4.0]))
        assert two.kappa(2) == 4.5
        assert math.isnan(two.kappa(3)) and math.isnan(two.kappa(4))
        three = k_statistics(two_pass_batch([1.0, 2.0, 6.0]))
        assert math.isfinite(three.kappa(3))
        assert math.isnan(three.kappa(4))


class TestMcValidate:
    def test_zero_coupling_passes_with_zeros(self):
        model = validate_model(None, np.eye(4), [2, 2])
        report = mc_validate(model, 1000, seed=0)
        assert report["ok"]
        for row in report["rows"]:
            assert row["analytic"] == 0.0 and row["z"] == 0.0

    def test_scalar_pair_passes(self):
        report = mc_validate(scalar_pair_model(0.5), 10**6, seed=42, max_order=2)
        assert report["ok"]
        assert report["rows"][0]["analytic"] == pytest.approx(0.143841, abs=1e-6)
        assert report["rows"][1]["analytic"] == pytest.approx(0.25)

    def test_third_order_of_two_block_is_zero(self):
        report = mc_validate(scalar_pair_model(0.5), 200_000, seed=8, max_order=3)
        row = report["rows"][2]
        assert row["analytic"] == 0.0
        assert abs(row["z"]) < 5

    def test_corrupt_order_fails(self):
        report = mc_validate(scalar_pair_model(0.5), 50_000, seed=42, corrupt_order=2)
        assert not report["ok"]
        assert not report["rows"][1]["ok"]

    def test_small_n_rejected(self):
        with pytest.raises(BatchTooSmall):
            mc_validate(scalar_pair_model(0.5), 1, seed=0)


class TestEmpiricalCgf:
    def test_log_mean_exponential_matches(self):
        model = scalar_pair_model(0.5)
        values = sampled_values(model, 10**6, seed=42)
        rng = np.random.default_rng(123)
        for t in (-0.5, 0.5):
            y = np.exp(t * values)
            estimate = math.log(float(np.mean(y)))
            resampled = [
                math.log(float(np.mean(y[rng.integers(0, len(y), len(y))])))
                for _ in range(60)
            ]
            se = float(np.std(resampled, ddof=1))
            assert abs(estimate - cgf(model, t)) < 5 * se


class TestHomogeneousMonteCarlo:
    def test_second_cumulant_within_five_se(self):
        model = homogeneous_covariance(HomogeneousModel(3, 0.5))
        report = mc_validate(model, 10**6, seed=7, max_order=2)
        assert report["ok"]
        assert report["rows"][1]["analytic"] == pytest.approx(0.75)
