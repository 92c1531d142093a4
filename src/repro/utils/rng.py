"""Deterministic random-number handling.

Every randomized component of the library (RAND-OMFLP, Meyerson's OFL, the
single-point adversary of Theorem 2, workload generators, experiment sweeps)
accepts either an integer seed, a :class:`numpy.random.Generator`, or ``None``
and normalizes it through :func:`ensure_rng`.  Experiments that fan out over
many (seed, parameter) combinations derive independent child streams through
:func:`spawn_seeds` / :func:`child_rngs` so that parallel and serial execution
produce bit-identical results (a requirement of the sweep-executor tests).
"""

from __future__ import annotations

from typing import Any, Dict, List, Union

import numpy as np

__all__ = [
    "ensure_rng",
    "spawn_child_seeds",
    "spawn_seeds",
    "child_rngs",
    "rng_state",
    "rng_from_state",
    "choose_distinct",
    "RandomState",
]

RandomState = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: RandomState = None) -> np.random.Generator:
    """Normalize ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int``, a ``SeedSequence`` or an
        existing ``Generator`` (returned unchanged so that callers can thread
        a single stream through nested calls).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(
        "seed must be None, an int, a numpy SeedSequence or a numpy Generator; "
        f"got {type(seed).__name__}"
    )


def _encode_state_value(value: Any) -> Any:
    """Recursively convert a bit-generator state entry to JSON-compatible data."""
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, dict):
        return {str(key): _encode_state_value(entry) for key, entry in value.items()}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _decode_state_value(value: Any) -> Any:
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.asarray(value["__ndarray__"], dtype=np.dtype(value["dtype"]))
        return {key: _decode_state_value(entry) for key, entry in value.items()}
    return value


def rng_state(generator: np.random.Generator) -> Dict[str, Any]:
    """The generator's exact bit-generator state as JSON-compatible data.

    The returned dictionary round-trips through JSON (numpy arrays inside
    MT19937-style states are tagged and listified) and restores the *identical*
    stream through :func:`rng_from_state` — the foundation of bit-identical
    session snapshot/resume.
    """
    return _encode_state_value(dict(generator.bit_generator.state))


def rng_from_state(state: Dict[str, Any]) -> np.random.Generator:
    """A fresh generator whose stream continues exactly from ``state``.

    ``state`` is the output of :func:`rng_state`; the bit-generator class is
    recreated by the name recorded in the state dictionary.
    """
    decoded = _decode_state_value(state)
    name = decoded.get("bit_generator")
    bit_generator_cls = getattr(np.random, str(name), None)
    if bit_generator_cls is None or not isinstance(name, str):
        raise ValueError(f"unknown bit generator {name!r} in rng state")
    bit_generator = bit_generator_cls()
    bit_generator.state = decoded
    return np.random.Generator(bit_generator)


def choose_distinct(generator: np.random.Generator, n: int, size: int) -> List[int]:
    """``size`` distinct integers of ``[0, n)``, drawn as ``generator.choice`` does.

    Equal in values and in the generator's end state to
    ``generator.choice(n, size=size, replace=False).tolist()``.  For one
    element it is a single ``integers(0, n)`` call: numpy's Floyd sampler
    makes exactly that one bounded draw, and its one-element shuffle draws
    nothing, so the result matches at a fraction of ``choice``'s cost.
    ``tests/test_utils_rng.py`` pins the equivalence.
    """
    if size == 1:
        return [int(generator.integers(0, n))]
    return generator.choice(n, size=size, replace=False).tolist()


def spawn_child_seeds(seed: RandomState, count: int) -> list[int]:
    """Derive ``count`` independent 63-bit integer child seeds from ``seed``.

    The derivation uses :class:`numpy.random.SeedSequence` spawning, which
    guarantees statistically independent child streams; passing the same
    ``seed`` always yields the same list, which is what makes parallel task
    execution reproducible regardless of worker count or scheduling.  The
    engine (:mod:`repro.engine`) seeds one child stream per task, so shard
    boundaries never shift results.

    Because each call spawns from a *fresh* sequence, the list is
    prefix-stable: ``spawn_child_seeds(s, n)[:k] == spawn_child_seeds(s, k)``
    for any ``k <= n`` — growing a case grid keeps the seeds of existing
    cases (and therefore their content-addressed store entries) unchanged.
    """
    if count < 0:
        raise ValueError(f"spawn_child_seeds requires count >= 0, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive a stable entropy source from the generator without consuming
        # much of its stream: a single 64-bit draw.
        entropy = int(seed.integers(0, 2**63 - 1))
        sequence = np.random.SeedSequence(entropy)
    elif isinstance(seed, np.random.SeedSequence):
        # Spawn from a pristine clone: SeedSequence.spawn() advances the
        # parent's spawn counter, which would make a second call with the
        # same object yield different children and break the determinism
        # and prefix-stability promises above.
        sequence = np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=seed.spawn_key
        )
    else:
        sequence = np.random.SeedSequence(seed)
    children = sequence.spawn(count)
    return [int(child.generate_state(1, dtype=np.uint64)[0] % (2**63 - 1)) for child in children]


def spawn_seeds(seed: RandomState, count: int) -> list[int]:
    """Alias of :func:`spawn_child_seeds`, kept for existing callers.

    Note one deliberate semantic change for ``SeedSequence`` inputs: calls no
    longer advance the sequence's spawn counter, so repeated calls with the
    same object return the *same* list (previously each call returned a
    fresh batch).  Derive distinct batches from distinct root seeds — or
    spawn child ``SeedSequence`` objects yourself — rather than relying on
    hidden counter state.
    """
    return spawn_child_seeds(seed, count)


def child_rngs(seed: RandomState, count: int) -> list[np.random.Generator]:
    """Return ``count`` independent generators derived from ``seed``."""
    return [np.random.default_rng(s) for s in spawn_seeds(seed, count)]
