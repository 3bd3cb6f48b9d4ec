"""Explicit constant hierarchies with machine-checked separation.

The asymptotic chains behind the guarantees ("chosen from right to left")
are replaced by user-supplied values plus declared ``a << b`` relations.
Each relation is satisfied when ``a * sigma <= b`` for its slack factor
(default 10, never below 2).  Nothing here silently fails: violations are
collected into a report the caller can inspect or raise on.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class HierarchyError(ValueError):
    """Raised when a hierarchy is structurally invalid or check() is strict."""


DEFAULT_SLACK = 10.0
MIN_SLACK = 2.0


@dataclass(frozen=True)
class Relation:
    small: str
    big: str
    slack: float = DEFAULT_SLACK


@dataclass
class ConstantsHierarchy:
    """Named constants in (0,1] plus declared separation relations."""

    values: dict[str, float] = field(default_factory=dict)
    relations: list[Relation] = field(default_factory=list)

    def set(self, name: str, value: float) -> "ConstantsHierarchy":
        if not 0 < value <= 1:
            raise HierarchyError(f"{name}={value} outside (0,1]")
        self.values[name] = float(value)
        return self

    def declare(self, small: str, big: str, slack: float = DEFAULT_SLACK) -> "ConstantsHierarchy":
        if slack < MIN_SLACK:
            raise HierarchyError(f"slack {slack} below minimum {MIN_SLACK}")
        self.relations.append(Relation(small, big, slack))
        return self

    def chain(self, names: list[str], slack: float = DEFAULT_SLACK) -> "ConstantsHierarchy":
        """Declare name[0] << name[1] << ... << name[-1]."""
        for a, b in zip(names, names[1:]):
            self.declare(a, b, slack)
        return self

    def __getitem__(self, name: str) -> float:
        return self.values[name]

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def get(self, name: str, default: float | None = None) -> float | None:
        return self.values.get(name, default)

    def violations(self) -> list[str]:
        """Human-readable list of failed relations (empty when separated)."""
        out = []
        for rel in self.relations:
            for name in (rel.small, rel.big):
                if name not in self.values:
                    out.append(f"undeclared constant {name!r} in {rel.small} << {rel.big}")
                    break
            else:
                a, b = self.values[rel.small], self.values[rel.big]
                if a * rel.slack > b:
                    out.append(
                        f"{rel.small} << {rel.big} fails: "
                        f"{a:g} * {rel.slack:g} > {b:g}"
                    )
        return out

    def check(self, strict: bool = True) -> list[str]:
        """Return violations; with strict=True raise if any exist."""
        out = self.violations()
        if strict and out:
            raise HierarchyError("; ".join(out))
        return out

    def to_json_dict(self) -> dict:
        return {
            "values": dict(self.values),
            "relations": [
                {"small": r.small, "big": r.big, "slack": r.slack}
                for r in self.relations
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ConstantsHierarchy":
        h = cls()
        for name, value in d.get("values", {}).items():
            h.set(name, value)
        for rel in d.get("relations", []):
            h.declare(rel["small"], rel["big"], rel.get("slack", DEFAULT_SLACK))
        return h


def default_hampower_constants(
    *,
    eta: float = 0.2,
    d: float = 0.4,
    eta3: float = 0.08,
    eta2: float = 0.1,
    eta0: float = 0.8,
    slack: float = MIN_SLACK,
) -> ConstantsHierarchy:
    """A desk-scale preset for the Hamilton-power constants.

    The values are chosen to make the greedy constructions feasible at a few
    dozen vertices; ``violations()`` reports honestly where the asymptotic
    chain cannot hold at this slack.
    """
    h = ConstantsHierarchy()
    h.set("eps", 0.02)
    h.set("delta", 0.05)
    h.set("rho", 0.02)
    h.set("eta3", eta3)
    h.set("eta2", eta2)
    h.set("eta1", 0.3)
    h.set("eta0", eta0)
    h.set("d1", 0.3)
    h.set("d", d)
    h.set("eta", eta)
    h.chain(["eps", "delta", "rho"], slack)
    h.declare("eta3", "eta2", slack)
    h.declare("eta2", "eta1", slack)
    return h
