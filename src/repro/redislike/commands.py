"""The Redis command table.

Every command declares whether it writes and which key it touches —
exactly the property CURP needs (§5.4: "Since each data structure is
assigned to a specific key, CURP can execute many update operations on
different keys without blocking on syncs").  A :class:`Command` is an
:class:`~repro.kvstore.operations.Operation`: it reads its key, and a
write also mutates it, so witnesses record its ``touched_hashes()`` and
``commutative`` decides conflicts exactly as for the kvstore
vocabulary — commands on different keys commute, a write conflicts
with every other command on its key.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.kvstore.operations import Operation
from repro.redislike.datastructures import RedisStore


class CommandError(Exception):
    """Bad arity / unknown command / type error surfaced to the client."""


@dataclasses.dataclass(frozen=True)
class Command(Operation):
    """One parsed client command: name + arguments."""

    name: str
    args: tuple

    @property
    def key(self) -> str:
        if not self.args:
            raise CommandError(f"{self.name} requires a key")
        return self.args[0]

    @property
    def is_write(self) -> bool:
        return REGISTRY[self.name].is_write

    is_update = is_write

    def read_keys(self) -> tuple[str, ...]:
        return (self.key,)

    def mutated_keys(self) -> tuple[str, ...]:
        return (self.key,) if self.is_write else ()


@dataclasses.dataclass(frozen=True)
class CommandSpec:
    name: str
    is_write: bool
    arity: tuple[int, int | None]  # (min args, max args or None)
    handler: typing.Callable[[RedisStore, tuple], typing.Any]


def _spec(name, is_write, arity, handler):
    return name, CommandSpec(name=name, is_write=is_write, arity=arity,
                             handler=handler)


REGISTRY: dict[str, CommandSpec] = dict([
    _spec("SET", True, (2, 2), lambda s, a: (s.set_string(a[0], a[1]), "OK")[1]),
    _spec("GET", False, (1, 1), lambda s, a: s.get_string(a[0])),
    _spec("DEL", True, (1, 1), lambda s, a: int(s.delete(a[0]))),
    _spec("EXISTS", False, (1, 1), lambda s, a: int(s.exists(a[0]))),
    _spec("TYPE", False, (1, 1), lambda s, a: s.type_of(a[0])),
    _spec("INCR", True, (1, 1), lambda s, a: s.incr(a[0])),
    _spec("INCRBY", True, (2, 2), lambda s, a: s.incr(a[0], int(a[1]))),
    _spec("HMSET", True, (2, 2), lambda s, a: (s.hset(a[0], a[1]), "OK")[1]),
    _spec("HSET", True, (3, 3),
          lambda s, a: s.hset(a[0], {a[1]: a[2]})),
    _spec("HGET", False, (2, 2), lambda s, a: s.hget(a[0], a[1])),
    _spec("HGETALL", False, (1, 1), lambda s, a: s.hgetall(a[0])),
    _spec("LPUSH", True, (2, None), lambda s, a: s.lpush(a[0], *a[1:])),
    _spec("RPUSH", True, (2, None), lambda s, a: s.rpush(a[0], *a[1:])),
    _spec("LRANGE", False, (3, 3),
          lambda s, a: s.lrange(a[0], int(a[1]), int(a[2]))),
    _spec("LLEN", False, (1, 1), lambda s, a: s.llen(a[0])),
    _spec("SADD", True, (2, None), lambda s, a: s.sadd(a[0], *a[1:])),
    _spec("SMEMBERS", False, (1, 1), lambda s, a: s.smembers(a[0])),
    _spec("SISMEMBER", False, (2, 2),
          lambda s, a: int(s.sismember(a[0], a[1]))),
])


def execute(store: RedisStore, command: Command) -> typing.Any:
    """Validate and run one command against the store."""
    spec = REGISTRY.get(command.name)
    if spec is None:
        raise CommandError(f"unknown command {command.name!r}")
    low, high = spec.arity
    if len(command.args) < low or (high is not None
                                   and len(command.args) > high):
        raise CommandError(
            f"wrong number of arguments for {command.name}: "
            f"{len(command.args)}")
    return spec.handler(store, command.args)
