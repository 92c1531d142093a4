"""Tests for the scatter/gather process-pool helpers."""

import os
import pickle

import pytest

from repro.exceptions import ExperimentError
from repro.parallel import ParallelConfig, ParallelTaskError, parallel_map


def _square(x: int) -> int:
    return x * x


def _raise_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("boom")
    return x


class TestParallelConfig:
    def test_defaults(self):
        config = ParallelConfig()
        assert config.resolved_workers() == 1

    def test_none_uses_cpu_count(self):
        config = ParallelConfig(workers=None)
        assert config.resolved_workers() >= 1

    def test_invalid_workers(self):
        with pytest.raises(ExperimentError):
            ParallelConfig(workers=0).resolved_workers()


class TestParallelMap:
    def test_serial_matches_builtin_map(self):
        items = list(range(20))
        assert parallel_map(_square, items) == [x * x for x in items]

    def test_order_preserved_in_parallel(self):
        items = list(range(40))
        result = parallel_map(_square, items, config=ParallelConfig(workers=2))
        assert result == [x * x for x in items]

    def test_parallel_equals_serial(self):
        items = list(range(25))
        serial = parallel_map(_square, items, config=ParallelConfig(workers=1))
        parallel = parallel_map(_square, items, config=ParallelConfig(workers=2, chunk_size=4))
        assert serial == parallel

    def test_small_inputs_stay_serial(self):
        # Below min_items_for_parallel a lambda (unpicklable) must still work,
        # proving the serial fallback is used.
        result = parallel_map(lambda x: x + 1, [1, 2, 3], config=ParallelConfig(workers=4))
        assert result == [2, 3, 4]

    def test_invalid_chunk_size(self):
        with pytest.raises(ExperimentError):
            parallel_map(_square, list(range(30)), config=ParallelConfig(workers=2, chunk_size=0))

    def test_exceptions_propagate(self):
        with pytest.raises(ValueError):
            parallel_map(_raise_on_three, list(range(5)), config=ParallelConfig(workers=1))

    def test_empty_input(self):
        assert parallel_map(_square, []) == []


class TestWorkerExceptionIdentity:
    def test_pool_failure_names_the_failing_item(self):
        with pytest.raises(ParallelTaskError, match=r"item 3 \(3\).*boom") as info:
            parallel_map(
                _raise_on_three,
                list(range(10)),
                config=ParallelConfig(workers=2, chunk_size=2, min_items_for_parallel=2),
            )
        assert info.value.item_index == 3
        assert info.value.item_repr == "3"
        # The ExperimentError hierarchy is preserved for existing catchers.
        assert isinstance(info.value, ExperimentError)

    def test_error_survives_pickling(self):
        # The pool transports exceptions by pickle; keyword state must survive.
        error = ParallelTaskError("item 7 ({'x': 1}) failed", item_index=7, item_repr="{'x': 1}")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.item_index == 7
        assert clone.item_repr == "{'x': 1}"
        assert str(clone) == str(error)

    def test_serial_path_keeps_original_exception(self):
        # workers=1 stays a plain loop: callers still see the raw error type.
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_raise_on_three, list(range(5)), config=ParallelConfig(workers=1))
