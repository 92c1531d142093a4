"""Generic string-keyed component registries.

Every pluggable component family of the library (metrics, cost functions,
workload generators, online algorithms, offline solvers, experiments) is
indexed by a :class:`Registry`: a mapping from short stable names to builder
callables.  Registries make scenarios describable as plain data — a JSON file
naming ``"pd-omflp"`` or ``"power"`` is enough to assemble a run without
importing a single ``repro`` class — which is what the declarative
:class:`~repro.api.spec.RunSpec` layer is built on.

Builders are registered either with the decorator form::

    METRICS = Registry("metric")

    @METRICS.register("uniform-line")
    def _build(num_points, length=1.0):
        ...

or directly with :meth:`Registry.add` when the builder already exists (the
stock components in :mod:`repro.api.components` use this form).  ``build``
instantiates by name::

    metric = METRICS.build("uniform-line", num_points=8)

Unknown names raise :class:`~repro.exceptions.UnknownComponentError` with the
full list of registered names.
"""

from __future__ import annotations

import difflib
import inspect
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.exceptions import ReproError, UnknownComponentError

__all__ = ["Registry", "did_you_mean"]


def did_you_mean(name: str, candidates: List[str]) -> str:
    """``"; did you mean ...?"`` for close matches of ``name``, else ``""``.

    Shared by registry lookups and :meth:`repro.api.spec.RunSpec.mode` so the
    suggestion tuning and phrasing live in one place.
    """
    matches = difflib.get_close_matches(str(name), candidates, n=3, cutoff=0.6)
    if not matches:
        return ""
    return f"; did you mean {' or '.join(repr(m) for m in matches)}?"


class Registry:
    """A named mapping from string keys to component builder callables.

    With ``strict_params=True`` every :meth:`build` call first runs
    :meth:`check_params`, so an unknown keyword in a declarative spec raises
    :class:`ReproError` naming the offending key instead of surfacing as a
    bare ``TypeError`` from deep inside the builder.
    """

    def __init__(self, kind: str, *, strict_params: bool = False) -> None:
        #: What the registry holds (``"metric"``, ``"algorithm"``, ...);
        #: used in error messages.
        self.kind = kind
        self.strict_params = strict_params
        self._builders: Dict[str, Callable[..., Any]] = {}
        # inspect.signature per builder object (None: not introspectable),
        # keyed by id() and holding the builder, so a swapped builder is
        # introspected afresh.
        self._signatures: Dict[int, Tuple[Callable[..., Any], Optional[inspect.Signature]]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator form: register the decorated callable under ``name``."""

        def decorator(builder: Callable[..., Any]) -> Callable[..., Any]:
            self.add(name, builder)
            return builder

        return decorator

    def add(self, name: str, builder: Callable[..., Any]) -> None:
        """Register ``builder`` under ``name`` (names are unique per registry).

        Registration misuse raises plain :class:`ReproError`;
        :class:`UnknownComponentError` is reserved for failed lookups.
        """
        if not name or not isinstance(name, str):
            raise ReproError(f"{self.kind} registry keys must be non-empty strings")
        if name in self._builders:
            raise ReproError(
                f"{self.kind} {name!r} is already registered; names must be unique"
            )
        self._builders[name] = builder

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> Callable[..., Any]:
        """The builder registered under ``name``.

        Unknown names raise :class:`UnknownComponentError`; when the name is
        a near miss of a registered one (typo'd config file), the message
        leads with a did-you-mean suggestion.
        """
        try:
            return self._builders[name]
        except KeyError:
            raise UnknownComponentError(
                f"unknown {self.kind} {name!r}{did_you_mean(name, self.names())}; "
                f"registered: {', '.join(self.names()) or '(none)'}"
            ) from None

    def build(self, name: str, **params: Any) -> Any:
        """Instantiate the component registered under ``name``."""
        if self.strict_params:
            self.check_params(name, params)
        return self.get(name)(**params)

    def _signature(self, name: str) -> Optional[inspect.Signature]:
        """The signature of ``name``'s builder, introspected once per builder object."""
        builder = self.get(name)
        cached = self._signatures.get(id(builder))
        if cached is None or cached[0] is not builder:
            try:
                signature: Optional[inspect.Signature] = inspect.signature(builder)
            except (TypeError, ValueError):  # builtins without introspectable signatures
                signature = None
            cached = self._signatures[id(builder)] = (builder, signature)
        return cached[1]

    def accepted_params(self, name: str) -> Optional[List[str]]:
        """Keyword parameters the builder of ``name`` accepts.

        ``None`` when the builder takes ``**kwargs`` or its signature cannot
        be introspected (anything would be accepted / nothing can be checked).
        """
        signature = self._signature(name)
        if signature is None:
            return None
        parameters = signature.parameters.values()
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters):
            return None
        return [
            p.name
            for p in parameters
            if p.kind
            in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            )
        ]

    def check_params(self, name: str, params: Mapping[str, Any]) -> None:
        """Raise :class:`ReproError` naming any parameter ``name`` rejects.

        This is what makes a typo'd keyword in a workload/scenario spec fail
        with the offending key and the accepted list, rather than a
        ``TypeError`` from deep inside the generator.
        """
        accepted = self.accepted_params(name)
        if accepted is None:
            return
        unknown = sorted(key for key in params if key not in accepted)
        if unknown:
            keys = ", ".join(repr(key) for key in unknown)
            hint = did_you_mean(unknown[0], accepted)
            raise ReproError(
                f"unknown parameter(s) {keys} for {self.kind} {name!r}{hint}; "
                f"accepted: {', '.join(accepted) or '(none)'}"
            )

    def accepts(self, name: str, parameter: str) -> bool:
        """Whether the builder of ``name`` takes a ``parameter`` keyword.

        Used to thread the run's random generator into builders that want one
        (``rng=``) without forcing every builder to declare it.
        """
        signature = self._signature(name)
        if signature is None:
            return False
        if parameter in signature.parameters:
            return True
        return any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in signature.parameters.values()
        )

    def names(self) -> List[str]:
        """All registered names, in registration order."""
        return list(self._builders)

    # ------------------------------------------------------------------
    def __contains__(self, name: object) -> bool:
        return name in self._builders

    def __iter__(self) -> Iterator[str]:
        return iter(self._builders)

    def __len__(self) -> int:
        return len(self._builders)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry(kind={self.kind!r}, size={len(self._builders)})"
