"""The one serializer of the library's frozen result records."""

from dataclasses import fields


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
