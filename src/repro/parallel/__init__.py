"""Process-based parallel execution helpers for experiment sweeps.

Experiment sweeps are embarrassingly parallel over (workload, seed, parameter)
tuples.  Following the scatter/gather collective style of the mpi4py tutorial
(without requiring MPI), :func:`~repro.parallel.pool.parallel_map` chunks the
work items, scatters the chunks over a process pool, and gathers the results
back in input order; ``workers=1`` (or very small inputs) falls back to a
plain serial loop so that tests and debugging stay deterministic and
picklability is never required in the common case.
"""

from repro.parallel.pool import ParallelConfig, ParallelTaskError, parallel_map

__all__ = ["parallel_map", "ParallelConfig", "ParallelTaskError"]
