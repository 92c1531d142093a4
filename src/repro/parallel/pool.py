"""Chunked process-pool map with a deterministic serial fallback."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from repro.exceptions import ExperimentError, ParallelTaskError

__all__ = ["ParallelConfig", "ParallelTaskError", "parallel_map"]

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class ParallelConfig:
    """Configuration of a parallel map.

    Attributes
    ----------
    workers:
        Number of worker processes; ``1`` (default) runs serially in-process,
        ``None`` uses ``os.cpu_count()``.
    chunk_size:
        Number of items per scattered chunk; ``None`` picks
        ``ceil(len(items) / (4 * workers))`` so each worker receives a few
        chunks (simple dynamic load balancing).
    min_items_for_parallel:
        Inputs smaller than this always run serially — spawning processes for
        a handful of items costs more than it saves.
    """

    workers: Optional[int] = 1
    chunk_size: Optional[int] = None
    min_items_for_parallel: int = 8

    def resolved_workers(self) -> int:
        if self.workers is None:
            return max(os.cpu_count() or 1, 1)
        if self.workers < 1:
            raise ExperimentError(f"workers must be >= 1 or None, got {self.workers}")
        return int(self.workers)


def _short_repr(item: object, limit: int = 200) -> str:
    text = repr(item)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _apply_chunk(function: Callable[[T], R], start_index: int, chunk: Sequence[T]) -> List[R]:
    """Worker-side chunk loop; failures name the item, not just the pool."""
    results: List[R] = []
    for offset, item in enumerate(chunk):
        try:
            results.append(function(item))
        except ParallelTaskError:
            raise  # already carries item identity (e.g. from a nested map)
        except Exception as error:
            raise ParallelTaskError(
                f"parallel_map item {start_index + offset} "
                f"({_short_repr(item)}) failed: {type(error).__name__}: {error}",
                item_index=start_index + offset,
                item_repr=_short_repr(item),
            ) from error
    return results


def parallel_map(
    function: Callable[[T], R],
    items: Iterable[T],
    *,
    config: Optional[ParallelConfig] = None,
) -> List[R]:
    """Apply ``function`` to every item, preserving input order.

    With ``config.workers > 1`` the items are split into chunks which are
    scattered over a :class:`concurrent.futures.ProcessPoolExecutor`; the
    per-chunk results are gathered and flattened back into input order.
    ``function`` and the items must be picklable in that case (module-level
    functions and plain data — the experiment worker functions satisfy this).
    """
    config = config or ParallelConfig()
    item_list = list(items)
    workers = config.resolved_workers()
    if workers <= 1 or len(item_list) < config.min_items_for_parallel:
        return [function(item) for item in item_list]

    if config.chunk_size is not None:
        if config.chunk_size < 1:
            raise ExperimentError(f"chunk_size must be >= 1, got {config.chunk_size}")
        chunk_size = config.chunk_size
    else:
        chunk_size = max(1, -(-len(item_list) // (4 * workers)))
    chunks = [item_list[i : i + chunk_size] for i in range(0, len(item_list), chunk_size)]

    starts = [i * chunk_size for i in range(len(chunks))]
    results: List[R] = []
    with ProcessPoolExecutor(max_workers=workers) as executor:
        for chunk_result in executor.map(
            _apply_chunk, [function] * len(chunks), starts, chunks
        ):
            results.extend(chunk_result)
    return results
