"""The one serializer of the library's frozen result records, and the one
record of a certified inequality."""

from dataclasses import dataclass, fields

# Every certified inequality lhs <= rhs holds when rhs - lhs >= -SLACK_TOL.
SLACK_TOL = 1e-8


class Record:
    """Mixin for result dataclasses. `to_dict` lists the fields in
    declaration order, then the properties named in `_DERIVED`, each under
    its `_RENAME` entry if it has one. Nested records become dicts and
    tuples lists."""

    _RENAME: dict = {}
    _DERIVED: tuple = ()

    def to_dict(self) -> dict:
        names = [f.name for f in fields(self)] + list(self._DERIVED)
        return {self._RENAME.get(name, name): _plain(getattr(self, name)) for name in names}


def _plain(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class InequalityRecord(Record):
    """One certified step lhs <= rhs with its numerical slack."""

    _DERIVED = ("slack", "holds")

    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return bool(self.slack >= -SLACK_TOL)
