"""The stage registry: pipeline stages as pluggable plugins.

The campaign engine executes *stages* — traces, bundles, training,
evaluation — and, just like scenarios (:mod:`repro.api.registry`),
adding a new workload must not require editing core code.  A
:class:`Stage` declares everything the planner and the workers need:

* ``name`` — the stage's registry name (``repro sweep --stages <name>``);
* ``deps`` — names of upstream registered stages planned for the same
  spec (their results flow in through the ``inputs`` argument and, for
  heavy artifacts, through the shared artifact store);
* ``version`` — folded into the stage's cache keys, so bumping it after
  editing the stage's code invalidates exactly that stage's artifacts
  (and, through derived keys, its downstream dependents) instead of the
  global :data:`~repro.api.store.ARTIFACT_SCHEMA_VERSION` hammer;
* ``key_fn(spec, params)`` — the content-address of the stage's artifact
  (``None`` → the stage is not cacheable).  For the built-in stages it
  is the one derivation of their store keys, shared by the planner and
  ``Experiment`` (:mod:`repro.runtime.stages`);
* ``run(experiment, inputs, params)`` — the pure stage body, returning
  ``(cache_hit, result_dict)`` where the result is a small JSON-able
  dictionary (it crosses process boundaries and lands in the campaign
  manifest).

Registered stages gain the whole ``repro.runtime`` machinery for free:
content-addressed caching, deduplicated planning,
``ProcessPoolExecutor`` fan-out, retries, campaign manifests and the
``repro sweep --stages`` CLI.

Version semantics
-----------------
``version == 0`` (the default, and the seed value for every built-in
stage) leaves the stage's keys exactly as ``key_fn`` computed them —
keys planned before the stage API existed stay byte-identical, so no
existing artifact is invalidated.  Any non-zero version is mixed into
the key via :func:`~repro.api.hashing.stable_hash`; bump it whenever the
stage's code changes behaviour.

Forgetting the bump is the silent failure mode — old artifacts keep
being served under unchanged keys — so it is enforced statically: the
committed ``stage-fingerprints.json`` pins a normalized-AST fingerprint
of every registered stage's run function plus its transitive in-repo
callee closure, and ``repro lint --fingerprints`` (also folded into
plain ``repro lint`` and tier-1) fails when a stage's code drifts while
its ``version`` stands still.  After a deliberate change, bump
``version`` if behaviour changed and re-pin with
``repro lint --fingerprints-update`` (see :mod:`repro.lint.fingerprint`
for the full decision guide).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.api.hashing import stable_hash

__all__ = [
    "Stage",
    "StageRegistry",
    "STAGE_REGISTRY",
    "register_stage",
    "inputs_by_stage",
]


@dataclass
class Stage:
    """One registered pipeline stage (see the module docstring).

    ``default`` marks membership in the standard
    traces→bundle→pretrain→finetune→evaluate pipeline; ``sweepable``
    stages may be planned directly by ``plan_campaign`` /
    ``repro sweep --stages`` (table-only stages such as ``scratch``
    and ``baselines`` are not).  ``module`` records where ``run`` was
    defined so worker processes can import it before dispatch.
    """

    name: str
    run: Callable
    deps: tuple[str, ...] = ()
    version: int = 0
    kind: str | None = None
    key_fn: Callable | None = None
    description: str = ""
    default: bool = False
    sweepable: bool = True
    module: str = ""

    def versioned_key(self, base: str | None) -> str | None:
        """Mix :attr:`version` into a base content key.

        Version 0 is the identity, keeping every pre-stage-API key
        byte-identical (see the module docstring).
        """
        if base is None or not self.version:
            return base
        return stable_hash(
            {"stage": self.name, "stage_version": self.version, "base": base}
        )

    def task_key(self, spec, params: dict) -> str | None:
        """The content-address of this stage's artifact for one spec."""
        if self.key_fn is None:
            return None
        return self.versioned_key(self.key_fn(spec, params))


class StageRegistry:
    """Name → :class:`Stage` mapping with decorator registration."""

    def __init__(self):
        self._entries: dict[str, Stage] = {}

    def register(
        self,
        name: str,
        *,
        deps: tuple[str, ...] = (),
        version: int = 0,
        kind: str | None = None,
        key_fn: Callable | None = None,
        description: str = "",
        default: bool = False,
        sweepable: bool = True,
        replace_existing: bool = False,
    ):
        """Decorator: register ``fn(experiment, inputs, params)``."""

        def decorator(fn: Callable) -> Callable:
            if name in self._entries and not replace_existing:
                raise ValueError(f"stage {name!r} is already registered")
            self._entries[name] = Stage(
                name=name,
                run=fn,
                deps=tuple(deps),
                version=version,
                kind=kind,
                key_fn=key_fn,
                description=description,
                default=default,
                sweepable=sweepable,
                module=getattr(fn, "__module__", "") or "",
            )
            return fn

        return decorator

    def get(self, name: str) -> Stage:
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown stage {name!r}; registered stages: {self.names()}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def entries(self) -> list[Stage]:
        """Stages in registration order (dependency-friendly)."""
        return list(self._entries.values())

    def default_pipeline(self) -> tuple[str, ...]:
        """The standard pipeline: ``default`` stages, registration order."""
        return tuple(stage.name for stage in self._entries.values() if stage.default)

    def sweep_stages(self) -> tuple[str, ...]:
        """Every stage plannable by ``plan_campaign`` — the default
        pipeline first, then the other sweepable stages, both in
        registration order."""
        rest = tuple(
            stage.name
            for stage in self._entries.values()
            if stage.sweepable and not stage.default
        )
        return self.default_pipeline() + rest

    def all_stages(self) -> tuple[str, ...]:
        """Every registered stage name, in registration order."""
        return tuple(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self.all_stages())


#: The default (module-level) registry used by the planner, the campaign
#: workers and the CLI.  Built-in stages register on import of
#: :mod:`repro.runtime.stages`; extensions on import of
#: :mod:`repro.extensions` (both triggered by importing ``repro.api``).
STAGE_REGISTRY = StageRegistry()


def register_stage(name: str, **options):
    """Register a stage implementation in the default registry.

    Usage::

        from repro.api.hashing import stable_hash
        from repro.api.stages import register_stage

        def _digest_key(spec, params):
            return stable_hash({"artifact": "trace_digest",
                                "scenario": spec.scenario_config(),
                                "n_runs": spec.to_scale().n_runs})

        @register_stage("trace_digest", deps=("traces",), version=1,
                        kind="evaluations", key_fn=_digest_key,
                        description="per-run trace statistics")
        def run_trace_digest(experiment, inputs, params):
            ...
            return False, {"packets": ...}

    See :class:`StageRegistry.register` for the keyword options.
    """
    return STAGE_REGISTRY.register(name, **options)


def inputs_by_stage(inputs: dict | None) -> dict:
    """Regroup a task's ``inputs`` (keyed by dependency task id, e.g.
    ``"traces:8d9892dc3ea5"``) by stage name.

    Stages with several dependencies of the same stage get a list; the
    common single-dependency case gets the bare result dictionary.
    """
    grouped: dict[str, list] = {}
    for task_id, result in (inputs or {}).items():
        stage_name = task_id.split(":", 1)[0]
        grouped.setdefault(stage_name, []).append(result)
    return {
        name: results[0] if len(results) == 1 else results
        for name, results in grouped.items()
    }
