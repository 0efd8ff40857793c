"""First-class experiment registry: the :class:`ExperimentSpec` API.

Every reproducible artifact (each figure, Table II, future extensions)
is described by one :class:`ExperimentSpec` — its config class, its
sweep decomposition (``cells``), its ordered recombination (``reduce``)
and its paper-style renderer (``format``) — and registered by name.
The CLI (:mod:`repro.experiments.__main__`), the benchmark harness and
the parallel runner (:mod:`repro.runner`) all iterate this registry
instead of hard-coding per-figure triples.

Registering an experiment::

    @register_experiment(name="fig9", config_cls=Fig9Config,
                         reduce=reduce_fig9, format=format_fig9,
                         description="Figure 9: ...")
    def cells_fig9(config):
        return [Cell("fig9", (x,), _run_cell, (config, x)) for x in ...]

The decorated function is the spec's ``cells`` hook and is returned
unchanged.  ``spec.run(config, run_config=...)`` executes the full
sweep through :func:`repro.runner.run_cells`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Type

from ..errors import ConfigurationError, SweepError
from ..runner import Cell, FailedCell, RunConfig, run_cells

__all__ = [
    "ExperimentSpec",
    "register_experiment",
    "register",
    "unregister",
    "get_experiment",
    "experiment_names",
    "iter_experiments",
]

#: Signature of a spec's sweep-decomposition hook.
CellsFn = Callable[[Any], List[Cell]]

_REGISTRY: Dict[str, "ExperimentSpec"] = {}


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything the harness needs to run and render one experiment.

    Attributes
    ----------
    name:
        Registry key (``"fig2"`` ... ``"fig8"``, ``"tableII"``).
    config_cls:
        Frozen config dataclass exposing ``paper()`` / ``scaled()`` /
        ``smoke()`` constructors.
    cells:
        ``cells(config) -> List[Cell]`` — the sweep decomposition.
    reduce:
        ``reduce(config, results) -> result`` — recombines cell results
        (in cell order) into the experiment's result object.
    format:
        ``format(result) -> str`` — the paper-style text rendering.
    description:
        One-line summary shown by the CLI.
    """

    name: str
    config_cls: Type[Any]
    cells: CellsFn = field(compare=False)
    reduce: Callable[[Any, List[Any]], Any] = field(compare=False)
    format: Callable[[Any], str] = field(compare=False)
    description: str = ""

    def config(self, scale: str = "scaled") -> Any:
        """Instantiate the config at ``smoke``/``scaled``/``paper``."""
        try:
            ctor = getattr(self.config_cls, scale)
        except AttributeError:
            raise ConfigurationError(
                f"{self.config_cls.__name__} has no {scale!r} constructor")
        return ctor()

    def run(self, config: Any = None, *,
            run_config: Optional[RunConfig] = None) -> Any:
        """Run the full sweep and reduce it to the result object.

        ``config`` is the *experiment* config (what to compute);
        ``run_config`` is the :class:`~repro.runner.RunConfig` saying
        *how* to execute it — parallelism, store, retries, timeouts,
        queue-driven workers, telemetry.  With the defaults
        (``jobs=1``, no store, no retries) this is exactly the legacy
        sequential ``run_figN(config)`` behavior.

        Under ``keep_going`` a sweep that finishes with permanently
        failed cells raises :class:`~repro.errors.SweepError` instead
        of reducing — the error carries the
        :class:`~repro.runner.FailedCell` sentinels and the full
        partial result list, so callers that tolerate holes can still
        reduce over ``err.results`` themselves.
        """
        if run_config is None:
            run_config = RunConfig()
        if config is None:
            config = self.config("scaled")
        results = run_cells(self.cells(config), run_config)
        if run_config.keep_going:
            failures = [r for r in results if isinstance(r, FailedCell)]
            if failures:
                labels = ", ".join(f.label for f in failures)
                raise SweepError(
                    f"{len(failures)} of {len(results)} cells of "
                    f"{self.name} permanently failed ({labels}); every "
                    f"other cell completed and was cached",
                    failures=failures, results=results)
        return self.reduce(config, results)


def register(spec: ExperimentSpec, *, replace: bool = False) -> ExperimentSpec:
    """Add ``spec`` to the registry (``replace=True`` to overwrite)."""
    if not replace and spec.name in _REGISTRY:
        raise ConfigurationError(
            f"experiment {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove an experiment (primarily for tests and plugins)."""
    _REGISTRY.pop(name, None)


def register_experiment(*, name: str, config_cls: Type[Any],
                        reduce: Callable[[Any, List[Any]], Any],
                        format: Callable[[Any], str],
                        description: str = "",
                        replace: bool = False) -> Callable[[CellsFn], CellsFn]:
    """Decorator registering the decorated ``cells`` function as a spec."""
    def decorator(cells_fn: CellsFn) -> CellsFn:
        register(ExperimentSpec(
            name=name, config_cls=config_cls, cells=cells_fn,
            reduce=reduce, format=format, description=description),
            replace=replace)
        return cells_fn
    return decorator


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a registered experiment by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; registered: "
            f"{sorted(_REGISTRY)}") from None


def experiment_names() -> List[str]:
    """Sorted names of all registered experiments."""
    return sorted(_REGISTRY)


def iter_experiments() -> Iterator[ExperimentSpec]:
    """Iterate specs in sorted-name order."""
    for name in experiment_names():
        yield _REGISTRY[name]
