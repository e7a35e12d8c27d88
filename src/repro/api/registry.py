"""Model / problem registry behind the :func:`repro.solve` front door.

The paper's central message is that ONE meta-algorithm instantiates in every
computation model; the registry is the API-level mirror of that statement.
Each computation model (sequential, streaming, coordinator, MPC, and the
baselines) registers a :class:`ModelSpec` describing

* how to run it (a ``runner(problem, config) -> SolveResult`` adapter over
  the model's driver),
* which typed configuration it accepts (a
  :class:`~repro.api.config.SolverConfig` subclass, whose fields double as
  the model's supported configuration keys), and
* the resource currencies its :class:`~repro.core.result.ResourceUsage`
  is measured in (passes, rounds, communication bits, machine load, ...).

Problem families (LP, MEB, SVM, QP) register a :class:`ProblemSpec` the same
way, and :func:`get_family` looks their descriptors up by wire name or
alias.  The built-in models and problems self-register when their defining
modules are imported; :func:`_ensure_builtins` lazily imports those modules
so the registry is complete even when ``repro.api`` is imported in
isolation.

Registering a new model or problem from user code::

    from repro.api import SolverConfig, register_model

    @register_model(
        "my-model",
        config_cls=SolverConfig,
        description="my substrate binding of the Clarkson engine",
        currencies=("rounds",),
    )
    def _run_my_model(problem, config):
        ...
        return SolveResult(...)

    result = repro.solve(problem, model="my-model")
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from .. import kernels
from ..core.exceptions import RegistryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.lptype import LPTypeProblem
    from ..core.result import SolveResult
    from ..problems.family import ProblemFamily
    from .config import SolverConfig

__all__ = [
    "ModelSpec",
    "ProblemSpec",
    "SessionSpec",
    "register_model",
    "register_problem",
    "unregister_model",
    "unregister_problem",
    "get_model",
    "get_problem",
    "get_family",
    "problem_families",
    "available_models",
    "available_problems",
    "describe_model",
    "describe_problem",
]


@dataclass(frozen=True)
class SessionSpec:
    """Session-level capabilities of one registered model.

    Derived from the :class:`ModelSpec` and surfaced by
    :func:`describe_model` under the ``"session"`` key, so callers can check
    *before* opening a session whether a model supports warm re-solves
    (``repro.session(...).resolve_with``), streaming ingestion handles, and
    which transports its driver can execute on.
    """

    warm_restart: bool
    ingest: bool
    transports: tuple[str, ...]

    def as_dict(self) -> dict[str, Any]:
        return {
            "warm_restart": self.warm_restart,
            "ingest": self.ingest,
            "transports": list(self.transports),
        }


@dataclass(frozen=True)
class ModelSpec:
    """One registered computation model.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"streaming"``.
    runner:
        ``runner(problem, config) -> SolveResult`` adapter that binds the
        model's driver to the typed config.
    config_cls:
        The :class:`~repro.api.config.SolverConfig` subclass the model
        accepts; its dataclass fields are the supported config keys.
    description:
        One-line human description (shown by :func:`describe_model`).
    currencies:
        The ``ResourceUsage`` fields that are meaningful for this model.
    transports:
        The :class:`~repro.api.config.TransportConfig` kinds the model's
        driver can execute on (every model runs in-process; the distributed
        models additionally run on real worker processes).
    warm_runner:
        Optional ``warm_runner(problem, config, warm_witnesses) ->
        SolveResult`` adapter: runs the driver with its weight state seeded
        from the given successful-iteration basis witnesses (Section 3.2's
        model-independent weight representation) and reports reuse stats in
        ``SolveResult.warm``.  Models without one cannot warm-restart.
    capabilities:
        Session-level capability tags (``"warm_restart"``, ``"ingest"``)
        surfaced through :class:`SessionSpec` / :func:`describe_model`.
    """

    name: str
    runner: Callable[["LPTypeProblem", "SolverConfig"], "SolveResult"]
    config_cls: type
    description: str = ""
    currencies: tuple[str, ...] = ()
    transports: tuple[str, ...] = ("inprocess",)
    warm_runner: Callable[..., "SolveResult"] | None = None
    capabilities: tuple[str, ...] = ()

    @property
    def config_keys(self) -> tuple[str, ...]:
        """Names of the configuration fields this model understands."""
        return tuple(f.name for f in dataclasses.fields(self.config_cls))

    @property
    def session_spec(self) -> SessionSpec:
        """The session-level capability record of this model."""
        return SessionSpec(
            warm_restart=self.warm_runner is not None
            and "warm_restart" in self.capabilities,
            ingest="ingest" in self.capabilities,
            transports=self.transports,
        )


@dataclass(frozen=True)
class ProblemSpec:
    """One registered LP-type problem family.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"linear_program"``.
    factory:
        The problem class (or a callable constructing instances).
    description:
        One-line human description.
    tags:
        Free-form labels (``"geometry"``, ``"learning"``, ...).
    family:
        The factory's own :class:`~repro.problems.family.ProblemFamily`, if
        it declares one (an inherited descriptor stays with its class).
    """

    name: str
    factory: Callable[..., Any]
    description: str = ""
    tags: tuple[str, ...] = ()
    family: "ProblemFamily | None" = None


_MODELS: dict[str, ModelSpec] = {}
_PROBLEMS: dict[str, ProblemSpec] = {}
_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    """Import the modules whose import side-effect registers the built-ins."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    for module in ("repro.api.builtin", "repro.algorithms", "repro.problems"):
        importlib.import_module(module)
    # Only flag success once every import landed, so a transient import
    # failure is retried instead of leaving the registry silently incomplete.
    _BUILTINS_LOADED = True


def register_model(
    name: str,
    runner: Callable[..., Any] | None = None,
    *,
    config_cls: type,
    description: str = "",
    currencies: tuple[str, ...] = (),
    transports: tuple[str, ...] = ("inprocess",),
    warm_runner: Callable[..., Any] | None = None,
    capabilities: tuple[str, ...] = (),
) -> Callable[..., Any]:
    """Register a computation model; usable as a decorator on its runner.

    Raises :class:`RegistryError` if ``name`` is already registered.
    Returns the runner unchanged so the decorated function stays usable.
    """

    def _register(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in _MODELS:
            raise RegistryError(f"model {name!r} is already registered")
        _MODELS[name] = ModelSpec(
            name=name,
            runner=fn,
            config_cls=config_cls,
            description=description,
            currencies=tuple(currencies),
            transports=tuple(transports),
            warm_runner=warm_runner,
            capabilities=tuple(capabilities),
        )
        return fn

    if runner is not None:
        return _register(runner)
    return _register


def register_problem(
    name: str,
    factory: Callable[..., Any] | None = None,
    *,
    description: str = "",
    tags: tuple[str, ...] = (),
) -> Callable[..., Any]:
    """Register a problem family; usable as a decorator on its factory/class.

    Raises :class:`RegistryError` if ``name`` is already registered.
    """

    def _register(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in _PROBLEMS:
            raise RegistryError(f"problem {name!r} is already registered")
        family = getattr(fn, "family", None)
        if family is not None and family.cls is not fn:
            family = None  # inherited: indexed under the class that declared it
        for other in _PROBLEMS.values():
            if family is None or other.family in (None, family):
                continue
            if set(family.names) & set(other.family.names):
                raise RegistryError(
                    f"problem family {family.name!r} shares a wire name or alias "
                    f"with problem {other.name!r}"
                )
        _PROBLEMS[name] = ProblemSpec(
            name, fn, description=description, tags=tuple(tags), family=family
        )
        return fn

    if factory is not None:
        return _register(factory)
    return _register


def unregister_model(name: str) -> None:
    """Remove a registered model (primarily for tests and plugins)."""
    if _MODELS.pop(name, None) is None:
        raise RegistryError(f"model {name!r} is not registered")


def unregister_problem(name: str) -> None:
    """Remove a registered problem family (primarily for tests and plugins)."""
    if _PROBLEMS.pop(name, None) is None:
        raise RegistryError(f"problem {name!r} is not registered")


def get_model(name: str) -> ModelSpec:
    """Look up a model by name.

    Raises :class:`RegistryError` listing the registered names on a miss.
    """
    _ensure_builtins()
    try:
        return _MODELS[name]
    except KeyError:
        raise RegistryError(
            f"unknown model {name!r}; available models: "
            f"{', '.join(available_models())}"
        ) from None


def get_problem(name: str) -> ProblemSpec:
    """Look up a problem family by name.

    Raises :class:`RegistryError` listing the registered names on a miss.
    """
    _ensure_builtins()
    try:
        return _PROBLEMS[name]
    except KeyError:
        raise RegistryError(
            f"unknown problem {name!r}; available problems: "
            f"{', '.join(available_problems())}"
        ) from None


def problem_families() -> tuple["ProblemFamily", ...]:
    """The registered family descriptors, in registration order."""
    _ensure_builtins()
    families = (spec.family for spec in _PROBLEMS.values() if spec.family is not None)
    return tuple(dict.fromkeys(families))


def get_family(name: Any) -> "ProblemFamily":
    """The registered family whose wire name or alias is ``name``.

    Raises :class:`RegistryError` listing the registered wire names on a miss.
    """
    for family in problem_families():
        if name in family.names:
            return family
    raise RegistryError(
        f"{name!r} names no registered problem family; available: "
        f"{', '.join(known.name for known in problem_families())}"
    )


def available_models() -> tuple[str, ...]:
    """Sorted names of every registered computation model."""
    _ensure_builtins()
    return tuple(sorted(_MODELS))


def available_problems() -> tuple[str, ...]:
    """Sorted names of every registered problem family."""
    _ensure_builtins()
    return tuple(sorted(_PROBLEMS))


def describe_model(name: str) -> Mapping[str, Any]:
    """Introspection record for one model: config keys, defaults, currencies."""
    spec = get_model(name)
    config_fields = {
        f.name: (None if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(spec.config_cls)
    }
    return {
        "name": spec.name,
        "description": spec.description,
        "currencies": list(spec.currencies),
        "config_class": spec.config_cls.__name__,
        "config_keys": config_fields,
        "transports": list(spec.transports),
        "capabilities": list(spec.capabilities),
        "kernel_backends": list(kernels.available_backends()),
        "session": spec.session_spec.as_dict(),
    }


def describe_problem(name: str) -> Mapping[str, Any]:
    """Introspection record for one problem family."""
    spec = get_problem(name)
    return {
        "name": spec.name,
        "description": spec.description,
        "factory": getattr(spec.factory, "__name__", repr(spec.factory)),
        "tags": list(spec.tags),
    }
