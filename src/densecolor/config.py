"""Run configuration: the odd-set enumeration cap and the search budget.

Every cap is enforced with an explicit error; no oracle ever degrades to an
approximate answer when an instance is too large.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# the odd-set walk recurses once per vertex of its set; the capped walks
# run on at most density_max_n vertices, so this keeps them under the
# interpreter's 1,000 frames
DENSITY_MAX_N_LIMIT = 500


@dataclass(frozen=True)
class RunConfig:
    density_max_n: int = 20          # odd-subset enumeration cap
    node_budget: int = 5_000_000     # backtracking nodes per oracle call

    def __post_init__(self) -> None:
        for name in ("density_max_n", "node_budget"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.density_max_n > DENSITY_MAX_N_LIMIT:
            raise ValueError(f"density_max_n is at most {DENSITY_MAX_N_LIMIT}")

    def with_overrides(self, **kwargs: object) -> "RunConfig":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


DEFAULT_CONFIG = RunConfig()
