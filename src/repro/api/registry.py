"""The scenario registry: topologies/workloads as pluggable plugins.

The paper's pitch is *generalization* — one pre-trained NTT reused
across environments — so adding an environment must not require editing
core code.  A scenario is a named builder ``(scale, seed) ->
ScenarioConfig``; registering it makes it available to
:class:`~repro.api.spec.ExperimentSpec`, the CLI (``repro simulate
--scenario <name>``, ``repro scenarios``) and the experiment cache.

Builders receive the *scale name* (``smoke`` / ``small`` / ``paper``)
so each scenario can ship CPU-friendly and published-parameter presets,
mirroring :class:`~repro.netsim.scenarios.ScenarioConfig`'s own
classmethods.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.netsim.scenarios import ScenarioConfig, ScenarioKind

__all__ = [
    "ScenarioBuilder",
    "ScenarioEntry",
    "ScenarioRegistry",
    "SCENARIOS",
    "base_config",
    "register_scenario",
]

ScenarioBuilder = Callable[[str, int], ScenarioConfig]

#: Scale names every builder must understand.
SCALE_NAMES = ("smoke", "small", "paper")


@dataclass(frozen=True)
class ScenarioEntry:
    """One registered scenario."""

    name: str
    builder: ScenarioBuilder
    description: str = ""

    def build(self, scale: str = "small", seed: int = 0) -> ScenarioConfig:
        if scale not in SCALE_NAMES:
            raise ValueError(
                f"unknown scale {scale!r}; choose from {sorted(SCALE_NAMES)}"
            )
        return self.builder(scale, seed)


class ScenarioRegistry:
    """Name → scenario builder mapping with decorator registration."""

    def __init__(self):
        self._entries: dict[str, ScenarioEntry] = {}

    def register(self, name: str, description: str = "", replace_existing: bool = False):
        """Decorator: register ``fn(scale, seed) -> ScenarioConfig``."""

        def decorator(fn: ScenarioBuilder) -> ScenarioBuilder:
            if name in self._entries and not replace_existing:
                raise ValueError(f"scenario {name!r} is already registered")
            self._entries[name] = ScenarioEntry(name, fn, description)
            return fn

        return decorator

    def get(self, name: str) -> ScenarioEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown scenario {name!r}; choose from {self.names()}"
            ) from None

    def build(self, name: str, scale: str = "small", seed: int = 0) -> ScenarioConfig:
        """Build the named scenario's config at the given scale."""
        return self.get(name).build(scale, seed)

    def names(self) -> list[str]:
        return sorted(self._entries)

    def entries(self) -> list[ScenarioEntry]:
        return [self._entries[name] for name in self.names()]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self.names())


#: The default (module-level) registry used by specs, the CLI and
#: experiments.
SCENARIOS = ScenarioRegistry()


def register_scenario(name: str, description: str = "", replace_existing: bool = False):
    """Register a scenario builder in the default registry.

    Usage::

        @register_scenario("my_scenario", description="...")
        def build_my_scenario(scale: str, seed: int) -> ScenarioConfig:
            base = ScenarioConfig.small("case1", seed=seed)
            return replace(base, n_cross_flows=8)
    """
    return SCENARIOS.register(name, description, replace_existing=replace_existing)


# -- built-in scenarios ---------------------------------------------------------
#
# The four kinds that used to live behind hard-coded switches: the three
# Fig. 4 setups plus the §5 RED-discipline variant.

_PRESETS = {
    "smoke": ScenarioConfig.smoke,
    "small": ScenarioConfig.small,
    "paper": ScenarioConfig.paper,
}


def base_config(kind: str, scale: str, seed: int = 0) -> ScenarioConfig:
    """The built-in preset for ``kind`` at ``scale`` — the starting
    point for scenario builders that tweak a known topology."""
    if scale not in SCALE_NAMES:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALE_NAMES)}")
    return _PRESETS[scale](kind, seed=seed)


def _builtin(kind: str):
    def build(scale: str, seed: int) -> ScenarioConfig:
        return base_config(kind, scale, seed)

    return build


SCENARIOS.register(
    ScenarioKind.PRETRAIN,
    "Fig. 4 pre-training setup: N senders share one bottleneck, no cross-traffic",
)(_builtin(ScenarioKind.PRETRAIN))

SCENARIOS.register(
    ScenarioKind.CASE1,
    "Fig. 4 case 1: pre-training topology plus TCP cross-traffic",
)(_builtin(ScenarioKind.CASE1))

SCENARIOS.register(
    ScenarioKind.CASE2,
    "Fig. 4 case 2: larger topology, several receivers with distinct paths",
)(_builtin(ScenarioKind.CASE2))


@register_scenario(
    "pretrain_red",
    description="pre-training topology with a RED bottleneck queue (§5 disciplines)",
)
def _build_pretrain_red(scale: str, seed: int) -> ScenarioConfig:
    base = base_config(ScenarioKind.PRETRAIN, scale, seed)
    return replace(base, bottleneck_discipline="red")
