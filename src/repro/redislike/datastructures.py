"""Redis value types with Redis-style type discipline.

A key holds one of: string, hash, list, set.  Counters are strings
holding integer text, exactly like Redis (INCR on a non-integer string
errors; INCR on a missing key starts from 0).  Commands hitting a key
of the wrong type raise :class:`WrongTypeError` (Redis's WRONGTYPE).
"""

from __future__ import annotations

import typing


class WrongTypeError(Exception):
    """WRONGTYPE Operation against a key holding the wrong kind of value."""

    def __init__(self, key: str, expected: str, actual: str):
        super().__init__(
            f"WRONGTYPE key {key!r} holds {actual}, not {expected}")
        self.key = key


TYPE_NAMES = {str: "string", dict: "hash", list: "list", set: "set"}


class RedisStore:
    """The keyspace: key → string | hash | list | set."""

    def __init__(self) -> None:
        self._data: dict[str, typing.Any] = {}

    # ------------------------------------------------------------------
    # generic
    # ------------------------------------------------------------------
    def exists(self, key: str) -> bool:
        return key in self._data

    def delete(self, key: str) -> bool:
        return self._data.pop(key, None) is not None

    def type_of(self, key: str) -> str | None:
        value = self._data.get(key)
        return None if value is None else TYPE_NAMES[type(value)]

    def _typed(self, key: str, expected_type: type, create=None):
        value = self._data.get(key)
        if value is None:
            if create is None:
                return None
            value = create()
            self._data[key] = value
            return value
        if not isinstance(value, expected_type) or (
                expected_type is str and not isinstance(value, str)):
            raise WrongTypeError(key, TYPE_NAMES[expected_type],
                                 TYPE_NAMES[type(value)])
        return value

    # ------------------------------------------------------------------
    # strings / counters
    # ------------------------------------------------------------------
    def set_string(self, key: str, value: str) -> None:
        existing = self._data.get(key)
        if existing is not None and not isinstance(existing, str):
            # Redis SET overwrites any type.
            pass
        self._data[key] = value

    def get_string(self, key: str) -> str | None:
        return self._typed(key, str)

    def incr(self, key: str, delta: int = 1) -> int:
        current = self._typed(key, str)
        if current is None:
            new = delta
        else:
            try:
                new = int(current) + delta
            except ValueError:
                raise WrongTypeError(key, "integer string", "string") from None
        self._data[key] = str(new)
        return new

    # ------------------------------------------------------------------
    # hashes
    # ------------------------------------------------------------------
    def hset(self, key: str, mapping: dict[str, str]) -> int:
        value = self._typed(key, dict, create=dict)
        added = sum(1 for field in mapping if field not in value)
        value.update(mapping)
        return added

    def hget(self, key: str, field: str) -> str | None:
        value = self._typed(key, dict)
        return None if value is None else value.get(field)

    def hgetall(self, key: str) -> dict[str, str]:
        value = self._typed(key, dict)
        return {} if value is None else dict(value)

    # ------------------------------------------------------------------
    # lists
    # ------------------------------------------------------------------
    def lpush(self, key: str, *items: str) -> int:
        value = self._typed(key, list, create=list)
        for item in items:
            value.insert(0, item)
        return len(value)

    def rpush(self, key: str, *items: str) -> int:
        value = self._typed(key, list, create=list)
        value.extend(items)
        return len(value)

    def lrange(self, key: str, start: int, stop: int) -> list[str]:
        value = self._typed(key, list)
        if value is None:
            return []
        # Redis LRANGE stop is inclusive; -1 means end.
        if stop == -1:
            return list(value[start:])
        return list(value[start:stop + 1])

    def llen(self, key: str) -> int:
        value = self._typed(key, list)
        return 0 if value is None else len(value)

    # ------------------------------------------------------------------
    # sets
    # ------------------------------------------------------------------
    def sadd(self, key: str, *members: str) -> int:
        value = self._typed(key, set, create=set)
        added = 0
        for member in members:
            if member not in value:
                value.add(member)
                added += 1
        return added

    def smembers(self, key: str) -> set[str]:
        value = self._typed(key, set)
        return set() if value is None else set(value)

    def sismember(self, key: str, member: str) -> bool:
        value = self._typed(key, set)
        return False if value is None else member in value
