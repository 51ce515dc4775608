"""Unified component registry.

Every pluggable component kind of the simulator — topologies, routing
mechanisms, flow-control policies, output arbiters and traffic
patterns/processes — is registered in one :class:`Registry` instance
with a name and a one-line description.  Third parties extend the
simulator by decorating their own class::

    from repro.registry import TOPOLOGY_REGISTRY

    @TOPOLOGY_REGISTRY.register("torus", description="3-D torus fabric")
    class Torus:
        config_fields = ("torus_rows", "torus_cols", "p")  # what it reads

        @classmethod
        def from_config(cls, config): ...

after which ``SimConfig(topology="torus")`` selects it like a built-in.
Registries are mappings (``name -> component``) with introspection
(:meth:`Registry.available`, :meth:`Registry.describe`) and
did-you-mean error messages on unknown names.
"""

from __future__ import annotations

import difflib
from collections.abc import Iterator, Mapping

_MISSING = object()


class UnknownComponentError(KeyError, ValueError):
    """Unknown component name.

    Subclasses both ``KeyError`` (mapping protocol) and ``ValueError``
    (the historical contract of ``routing_by_name`` & friends).
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:  # undo KeyError's repr-quoting
        return self.message


class DuplicateComponentError(ValueError):
    """A component name was registered twice without ``overwrite=True``."""


class Registry(Mapping):
    """A named collection of components of one kind.

    Supports decorator registration, direct registration, mapping
    access, and introspection.  Lookup failures raise
    :class:`UnknownComponentError` listing the known names and the
    closest match.  Introspection output is deterministic:
    :meth:`available` and :meth:`describe` are sorted by name
    regardless of registration order, so CLI listings and generated
    docs are stable across runs.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._components: dict[str, object] = {}
        self._descriptions: dict[str, str] = {}

    # ------------------------------------------------------------ registration
    def register(self, name: str, component=_MISSING, *, description: str | None = None,
                 overwrite: bool = False):
        """Register ``component`` under ``name``.

        Usable directly (``reg.register("x", obj)``) or as a class
        decorator (``@reg.register("x")``).  The description defaults to
        the first line of the component's docstring.
        """
        if not isinstance(name, str) or not name:
            raise ValueError(f"{self.kind} name must be a non-empty string, got {name!r}")

        def _add(obj):
            if name in self._components and not overwrite:
                raise DuplicateComponentError(
                    f"{self.kind} {name!r} is already registered "
                    f"(to {self._components[name]!r}); pass overwrite=True to replace"
                )
            self._components[name] = obj
            desc = description
            if desc is None:
                doc = getattr(obj, "__doc__", None) or ""
                desc = doc.strip().splitlines()[0] if doc.strip() else ""
            self._descriptions[name] = desc
            return obj

        if component is _MISSING:
            return _add  # decorator form
        return _add(component)

    def unregister(self, name: str) -> None:
        """Remove a registration (mainly for tests and plugin teardown)."""
        if name not in self._components:
            raise UnknownComponentError(self._unknown_message(name))
        del self._components[name]
        del self._descriptions[name]

    # ------------------------------------------------------------------ lookup
    def get(self, name: str, default=_MISSING):
        """Resolve ``name`` to its component.

        Unlike ``Mapping.get``, a lookup without ``default`` raises
        :class:`UnknownComponentError` (with the known names and a
        did-you-mean suggestion) — components are selected by explicit
        name and a silent ``None`` would only defer the failure.  With
        ``default`` given, Mapping semantics apply.
        """
        try:
            return self._components[name]
        except KeyError:
            if default is not _MISSING:
                return default
            raise UnknownComponentError(self._unknown_message(name)) from None

    def __getitem__(self, name: str):
        return self.get(name)

    def _unknown_message(self, name: str) -> str:
        known = sorted(self._components)
        msg = f"unknown {self.kind} {name!r}; known: {known}"
        close = difflib.get_close_matches(str(name), known, n=1, cutoff=0.5)
        if close:
            msg += f" — did you mean {close[0]!r}?"
        return msg

    # ------------------------------------------------------------ introspection
    def available(self) -> tuple[str, ...]:
        """All registered names, sorted."""
        return tuple(sorted(self._components))

    def describe(self) -> dict[str, str]:
        """``name -> one-line description`` for every registered component."""
        return {name: self._descriptions[name] for name in self.available()}

    # ------------------------------------------------------------------ mapping
    def __iter__(self) -> Iterator[str]:
        return iter(self._components)

    def __len__(self) -> int:
        return len(self._components)

    def __contains__(self, name) -> bool:
        return name in self._components

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {sorted(self._components)})"


#: network fabrics (`Topology` implementations with a ``from_config`` hook)
TOPOLOGY_REGISTRY = Registry("topology")
#: routing mechanism classes (the paper's OLM/RLM/PAR-6/2 and baselines)
ROUTING_REGISTRY = Registry("routing")
#: link-level flow-control policies (VCT, WH, ...)
FLOW_CONTROL_REGISTRY = Registry("flow control")
#: output-port arbitration strategies (rr, random, age, ...)
ARBITER_REGISTRY = Registry("arbitration")
#: traffic destination patterns (who talks to whom)
PATTERN_REGISTRY = Registry("traffic pattern")
#: traffic injection processes (when packets enter the network)
PROCESS_REGISTRY = Registry("traffic process")
#: simulation engines (wheel, auto = wheel + optional array core, frozen seed)
ENGINE_REGISTRY = Registry("engine")


def all_registries() -> dict[str, Registry]:
    """Every component registry by kind, for introspection and the CLI."""
    # imported lazily: the engine backends live in repro.network, which
    # imports SimConfig (and hence this module) at import time
    import repro.network  # noqa: F401  (registers the engine backends)

    return {
        "topology": TOPOLOGY_REGISTRY,
        "routing": ROUTING_REGISTRY,
        "flow-control": FLOW_CONTROL_REGISTRY,
        "arbitration": ARBITER_REGISTRY,
        "traffic-pattern": PATTERN_REGISTRY,
        "traffic-process": PROCESS_REGISTRY,
        "engine": ENGINE_REGISTRY,
    }


__all__ = [
    "Registry",
    "UnknownComponentError",
    "DuplicateComponentError",
    "TOPOLOGY_REGISTRY",
    "ROUTING_REGISTRY",
    "FLOW_CONTROL_REGISTRY",
    "ARBITER_REGISTRY",
    "PATTERN_REGISTRY",
    "PROCESS_REGISTRY",
    "ENGINE_REGISTRY",
    "all_registries",
]
