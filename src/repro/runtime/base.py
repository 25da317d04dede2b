"""The execution-engine interface and registry.

An :class:`ExecutionEngine` owns *how* the elements of a filter chain run —
it decouples the composition layer (:mod:`repro.core.control_thread`) from
the concurrency model, exactly as :mod:`repro.fec.backend` decouples the
erasure code from its field algebra.  Three engines ship with the repo:

* :class:`~repro.runtime.threaded.ThreadedEngine` — one thread per chain
  element, the paper's original model;
* :class:`~repro.runtime.event.EventEngine` — a single-threaded cooperative
  scheduler that pumps filters only when they report readiness, for
  proxies hosting hundreds of concurrent streams;
* :class:`~repro.runtime.asyncio_engine.AsyncioEngine` — the same
  cooperative scheduler core hosted on an ``asyncio`` event loop, for
  proxies embedded in asyncio applications.

Whatever the engine, an element runs one way: repeated calls of its
non-blocking :meth:`~repro.core.filter.Filter.pump` step, made when its
:meth:`~repro.core.filter.Filter.readiness` says a step would make
progress.  Engines differ only in which thread makes those calls and how
it waits in between.

Engines are held in a process-wide registry of factories.  Selection, in
priority order:

1. an explicit ``engine=`` argument (name or instance) on ``ControlThread``
   / ``Proxy`` / the composed proxies,
2. the ``REPRO_ENGINE`` environment variable,
3. the registry default (threaded).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Union

#: Environment variable consulted by :func:`get_engine` when no explicit
#: engine is requested.
ENGINE_ENV_VAR = "REPRO_ENGINE"


class EngineError(ValueError):
    """Raised for unknown engine names or invalid engine operations."""


class ExecutionEngine(ABC):
    """Interface for filter-chain execution strategies.

    An engine is handed chain elements (:class:`~repro.core.filter.Filter`
    instances, including EndPoints) one at a time by the ControlThread; it
    decides whether each runs on a dedicated thread or is pumped
    cooperatively.  One engine instance may serve many streams — sharing an
    instance across a proxy's streams is what lets the event engine
    multiplex hundreds of chains onto one scheduler thread.
    """

    #: Registry key; subclasses must override.
    name: str = ""

    @abstractmethod
    def start_element(self, element) -> None:
        """Begin executing ``element`` (exactly once per element)."""

    def stop_element(self, element, timeout: float = 5.0) -> None:
        """Stop ``element`` and wait up to ``timeout`` for it to finish."""
        element.stop(timeout=timeout)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Release engine-wide resources.

        Idempotent; elements must already be stopped by their
        ControlThreads.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


_REGISTRY: Dict[str, Callable[[], "ExecutionEngine"]] = {}
_DEFAULT_NAME: Optional[str] = None


def register_engine(name: str, factory: Callable[[], ExecutionEngine],
                    make_default: bool = False) -> None:
    """Add an engine factory to the registry (replacing any same name)."""
    if not name:
        raise EngineError("engine must have a non-empty name")
    _REGISTRY[name] = factory
    global _DEFAULT_NAME
    if make_default or _DEFAULT_NAME is None:
        _DEFAULT_NAME = name


def available_engines() -> List[str]:
    """Names of every registered engine."""
    return sorted(_REGISTRY)


def set_default_engine(name: str) -> None:
    """Make ``name`` the process-wide default engine."""
    if name not in _REGISTRY:
        raise EngineError(
            f"unknown engine {name!r}; available: {', '.join(available_engines())}"
        )
    global _DEFAULT_NAME
    _DEFAULT_NAME = name


def get_engine(name: Optional[str] = None) -> ExecutionEngine:
    """Instantiate an engine by name, environment variable, or default.

    ``None`` consults ``REPRO_ENGINE`` and falls back to the registry
    default (threaded).  Unknown names raise :class:`EngineError` so typos
    never silently select the wrong runtime.  Each call returns a *fresh*
    engine instance; share the instance explicitly (e.g. one per Proxy) to
    multiplex streams onto it.
    """
    if name is None:
        name = os.environ.get(ENGINE_ENV_VAR) or _DEFAULT_NAME
    if name is None:
        raise EngineError("no execution engine registered")
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise EngineError(
            f"unknown engine {name!r}; available: {', '.join(available_engines())}"
        ) from None
    return factory()


def resolve_engine(engine: Union[str, ExecutionEngine, None]) -> ExecutionEngine:
    """Normalise an ``engine=`` argument (instance, name, or None)."""
    if engine is None:
        return get_engine()
    if isinstance(engine, ExecutionEngine):
        return engine
    if isinstance(engine, str):
        return get_engine(engine)
    raise EngineError(
        f"engine must be a name, ExecutionEngine, or None: {engine!r}")
