"""The type and range rule of every config value.

A dataclass field carries its rule as ``field(metadata={"rule": ...})``,
and ``check_fields`` tests them all. This module imports nothing from the
package, so the modules that define config dataclasses can use it.
"""

import sys
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Rule:
    """An integer >= ``low``, or else a number > ``low``; below ``high``.

    A bool is never a number, a number must fit a float, and NaN fails
    every range test. Null passes only a ``nullable`` rule.
    """

    what: str  # completes "<field> must be ..."
    integer: bool
    low: float | None = None
    high: float | None = None
    nullable: bool = False

    def or_null(self) -> "Rule":
        return replace(self, what=f"null or {self.what}", nullable=True)

    def holds(self, v) -> bool:
        if v is None:
            return self.nullable
        if isinstance(v, bool) or not isinstance(v, int if self.integer else (int, float)):
            return False
        if not self.integer and isinstance(v, int) and abs(v) > sys.float_info.max:
            return False
        above = self.low is None or (v >= self.low if self.integer else v > self.low)
        return above and (self.high is None or v < self.high)

    def check(self, name: str, v, error=ValueError):
        """``v`` if it holds, else ``error("<name> must be <what>, got <v>")``."""
        if not self.holds(v):
            raise error(f"{name} must be {self.what}, got {v!r}")
        return v


POSITIVE_INT = Rule("an integer >= 1", integer=True, low=1)
NON_NEGATIVE_INT = Rule("an integer >= 0", integer=True, low=0)
POSITIVE = Rule("a positive finite number", integer=False, low=0, high=float("inf"))
FRACTION = Rule("a number in (0, 1)", integer=False, low=0, high=1)
NUMBER = Rule("a number", integer=False)
FINITE = Rule("a finite number", integer=False, low=-float("inf"), high=float("inf"))


def check_fields(obj) -> None:
    """Raise ValueError naming the first field of ``obj`` that breaks its rule."""
    for f in fields(obj):
        f.metadata["rule"].check(f.name, getattr(obj, f.name))
