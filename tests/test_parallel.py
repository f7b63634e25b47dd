"""Tests for the optional process-pool helper."""

import time

import pytest

from repro import MatrixValueError
from repro._parallel import WorkerFailure, _schedule, parallel_map, resolve_n_jobs


def _square(x):  # module-level: picklable
    return x * x


def _explode_on_three(x):
    if x == 3:
        raise ValueError("boom at 3")
    return x * x


def _sleep_then_square(args):
    x, seconds = args
    time.sleep(seconds)
    return x * x


def _sleep_until(task, attempt):
    """Every copy of a task ends at the same wall-clock instant."""
    end, value = task
    time.sleep(max(0.0, end - time.time()))
    return value


def _sleep_on_every_attempt(seconds, attempt):
    time.sleep(seconds)
    return attempt


class TestResolveNJobs:
    def test_defaults(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(4) == 4

    def test_all_cpus(self):
        assert resolve_n_jobs(-1) >= 1

    def test_invalid(self):
        with pytest.raises(MatrixValueError):
            resolve_n_jobs(0)
        with pytest.raises(MatrixValueError):
            resolve_n_jobs(-2)
        with pytest.raises(MatrixValueError):
            resolve_n_jobs(2.5)
        with pytest.raises(MatrixValueError):
            resolve_n_jobs(True)


class TestParallelMap:
    def test_serial(self):
        assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_parallel_matches_serial(self):
        items = list(range(20))
        assert parallel_map(_square, items, n_jobs=2) == parallel_map(
            _square, items
        )

    def test_order_preserved(self):
        items = list(range(30))[::-1]
        assert parallel_map(_square, items, n_jobs=3) == [
            x * x for x in items
        ]

    def test_empty(self):
        assert parallel_map(_square, []) == []
        assert parallel_map(_square, [], n_jobs=4) == []

    def test_single_item_stays_serial(self):
        assert parallel_map(_square, [7], n_jobs=8) == [49]


class TestWorkerFailure:
    def test_repr_is_readable(self):
        failure = WorkerFailure(index=3, error=ValueError("boom"))
        text = repr(failure)
        assert "3" in text and "boom" in text
        assert not failure.timed_out

    def test_exception_propagates_by_default(self):
        with pytest.raises(ValueError, match="boom at 3"):
            parallel_map(_explode_on_three, [1, 2, 3, 4])

    def test_return_failures_serial(self):
        results = parallel_map(
            _explode_on_three, [1, 2, 3, 4], return_failures=True
        )
        assert results[0] == 1 and results[1] == 4 and results[3] == 16
        assert isinstance(results[2], WorkerFailure)
        assert results[2].index == 2
        assert "boom at 3" in str(results[2].error)

    def test_return_failures_pooled(self):
        results = parallel_map(
            _explode_on_three, [1, 2, 3, 4], n_jobs=2, return_failures=True
        )
        healthy = [r for r in results if not isinstance(r, WorkerFailure)]
        failures = [r for r in results if isinstance(r, WorkerFailure)]
        assert healthy == [1, 4, 16]
        assert len(failures) == 1 and failures[0].index == 2


class TestTimeouts:
    def test_timeout_validation(self):
        with pytest.raises(MatrixValueError):
            parallel_map(_square, [1], timeout_s=0.0)
        with pytest.raises(MatrixValueError):
            parallel_map(_square, [1], timeout_s=-1.0)
        with pytest.raises(MatrixValueError):
            # A timeout cannot preempt an in-process worker.
            parallel_map(_square, [1, 2], n_jobs=1, timeout_s=1.0)

    @pytest.mark.slow
    def test_straggler_times_out_others_complete(self):
        items = [(1, 0.0), (2, 5.0), (3, 0.0)]
        start = time.monotonic()
        results = parallel_map(
            _sleep_then_square,
            items,
            n_jobs=2,
            timeout_s=0.75,
            return_failures=True,
        )
        assert time.monotonic() - start < 5.0
        assert results[0] == 1 and results[2] == 9
        assert isinstance(results[1], WorkerFailure)
        assert results[1].timed_out
        assert isinstance(results[1].error, TimeoutError)
        assert "timeout_s=0.75" in str(results[1].error)

    @pytest.mark.slow
    def test_timeout_without_return_failures_raises(self):
        with pytest.raises(TimeoutError):
            parallel_map(
                _sleep_then_square,
                [(1, 5.0), (2, 0.0)],
                n_jobs=2,
                timeout_s=0.5,
            )


class TestScheduler:
    def test_copies_finishing_together_have_one_winner(self):
        # Each primary runs past the timeout, gets a spare, and both
        # copies end at the same instant, so both usually land in one
        # wait: the task must still settle exactly once.
        spared = 0
        for _ in range(8):
            end = time.time() + 0.35
            results, log = _schedule(
                _sleep_until,
                [(end, "a"), (end, "b")],
                workers=4,
                timeout_s=0.2,
                spares=1,
            )
            assert results == ["a", "b"]
            for task in (0, 1):
                fates = [c.fate for c in log if c.task == task]
                assert fates.count("won") == 1
                assert set(fates) <= {"won", "lost"}
                spared += len(fates) - 1
        assert spared > 0

    def test_task_without_spares_left_times_out(self):
        timeout_s = 0.4
        start = time.monotonic()
        results, log = _schedule(
            _sleep_on_every_attempt,
            [5.0],
            workers=2,
            timeout_s=timeout_s,
            spares=1,
        )
        elapsed = time.monotonic() - start
        [failure] = results
        assert isinstance(failure, WorkerFailure) and failure.timed_out
        assert isinstance(failure.error, TimeoutError)
        assert elapsed < 2 * timeout_s + 0.5
        assert [(c.attempt, c.fate) for c in log] == [
            (0, "timed_out"),
            (1, "timed_out"),
        ]

    @pytest.mark.parametrize("spares", [0, 1])
    def test_stalled_copies_on_every_worker_do_not_block_the_rest(self, spares):
        # Two tasks stall on every copy and hold both workers once they
        # are past the timeout; the third still runs, on a fresh pool.
        hung = time.time() + 60.0
        start = time.monotonic()
        results, log = _schedule(
            _sleep_until,
            [(hung, "a"), (hung, "b"), (0.0, "c")],
            workers=2,
            timeout_s=0.3,
            spares=spares,
        )
        assert time.monotonic() - start < 5.0
        assert results[2] == "c"
        for failure in results[:2]:
            assert isinstance(failure, WorkerFailure) and failure.timed_out
        expected = [(task, spares, "timed_out") for task in (0, 1)] + [
            (2, 0, "won")
        ]
        if spares:  # the first copies were terminated for their spares
            expected = [(0, 0, "lost"), (1, 0, "lost")] + expected
        assert sorted((c.task, c.attempt, c.fate) for c in log) == sorted(expected)
