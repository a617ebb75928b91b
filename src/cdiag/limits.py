"""Configurable size limits for the search engine.

The underlying mathematics has no size bounds; these keep desk-scale runs
fast and make every report say which policy produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Limits:
    chain_limit: int = 1_000_000   # max chains enumerated per level
    table_limit: int = 20_000      # max group order tabled, and stabilizer order listed
    iso_limit: int = 512           # max order for group-isomorphism testing

    def with_overrides(self, **kw) -> "Limits":
        for k, v in kw.items():
            if v is not None and v <= 0:
                raise ValueError(f"limit {k} must be positive")
        return replace(self, **{k: v for k, v in kw.items() if v is not None})


DEFAULT_LIMITS = Limits()
