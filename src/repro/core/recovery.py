"""Master crash recovery (§3.3, §4.6).

Two phases, exactly as the paper orders them:

1. **Restore from backups** — fetch the ordered log from any backup and
   rebuild object state *and* RIFL completion records (they ride inside
   log entries, giving the atomic durability §3.3 requires).
2. **Replay from one witness** — ``getRecoveryData`` irreversibly
   freezes the chosen witness (so no client can complete an update
   against it afterwards), then every saved request is replayed through
   the RIFL filter: already-recovered requests are skipped, the rest
   execute in arbitrary order — safe because a single witness only ever
   holds mutually commutative requests.  Piggybacked acks are ignored
   for the duration (§4.8).  Finally the new master syncs to backups.

Fencing happens *before* restore: the coordinator bumps the master
epoch on every backup, so a zombie of the old master can never again
complete a sync (§4.7).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.config import CurpConfig
from repro.core.master import CurpMaster
from repro.core.messages import GetRecoveryDataArgs, RecordedRequest
from repro.rpc import AppError, RpcTimeout

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.rifl.lease import LeaseServer


class RecoveryFailed(Exception):
    """No backup (or no witness) could be reached."""


@dataclasses.dataclass(frozen=True)
class RecoveryPartition:
    """One recovery master's share of a dead master's data: the hash
    ranges it will absorb plus the witness-recovered requests that hash
    into them."""

    ranges: tuple[tuple[int, int], ...]
    requests: tuple[RecordedRequest, ...]

    @property
    def span(self) -> int:
        return sum(hi - lo for lo, hi in self.ranges)


def plan_partitions(owned_ranges: typing.Sequence[tuple[int, int]],
                    n: int,
                    requests: typing.Sequence[RecordedRequest] = (),
                    ) -> list[RecoveryPartition]:
    """Split a dead master's tablets into ≤ ``n`` recovery partitions.

    The hash span is cut into ``n`` near-equal contiguous chunks (the
    load-balancing half of RAMCloud's partitioned recovery), then
    chunks spanned by a single witnessed multi-key request are merged:
    a speculative ``MultiWrite`` must be replayed by *one* recovery
    master that owns every key it touches, or the ``owns_hashes`` replay
    filter would drop it everywhere.  Each witness request is assigned
    to the partition holding its keys; requests whose keys fall outside
    every partition (recorded for since-migrated keys) ride with the
    first partition, whose replay filter discards them.
    """
    if n < 1:
        raise ValueError("need at least one partition")
    spans = sorted((lo, hi) for lo, hi in owned_ranges if hi > lo)
    if not spans:
        return []
    total = sum(hi - lo for lo, hi in spans)
    # -- cut the cumulative span at total*k/n ---------------------------
    chunks: list[list[tuple[int, int]]] = [[]]
    cum = 0
    for lo, hi in spans:
        start = lo
        while start < hi:
            k = len(chunks)  # chunks completed so far + 1 == current
            next_cut = total if k >= n else (total * k) // n
            room = next_cut - cum
            if hi - start <= room or k >= n:
                chunks[-1].append((start, hi))
                cum += hi - start
                start = hi
            else:
                if room > 0:
                    chunks[-1].append((start, start + room))
                cum += room
                start += room
                chunks.append([])
    chunks = [c for c in chunks if c]

    # -- merge chunks spanned by one multi-key request ------------------
    parent = list(range(len(chunks)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def chunk_of(h: int) -> int | None:
        for i, chunk in enumerate(chunks):
            if any(lo <= h < hi for lo, hi in chunk):
                return i
        return None

    request_chunks: list[tuple[RecordedRequest, int]] = []
    for request in requests:
        touched = {chunk_of(h) for h in request.op.touched_hashes()}
        touched.discard(None)
        if not touched:
            request_chunks.append((request, 0))  # filtered at replay
            continue
        first, *rest = sorted(touched)
        for other in rest:
            parent[find(other)] = find(first)
        request_chunks.append((request, first))

    groups: dict[int, list[int]] = {}
    for i in range(len(chunks)):
        groups.setdefault(find(i), []).append(i)
    partitions = []
    for root in sorted(groups):
        members = groups[root]
        ranges = tuple(sorted(r for i in members for r in chunks[i]))
        reqs = tuple(request for request, i in request_chunks
                     if find(i) == root)
        partitions.append(RecoveryPartition(ranges=ranges, requests=reqs))
    return partitions


def build_recovery_master(host: "Host", master_id: str, config: CurpConfig,
                          backups: typing.Sequence[str],
                          epoch: int,
                          lease_server: "LeaseServer | None" = None,
                          owned_ranges=None, **master_kwargs) -> CurpMaster:
    """A not-yet-active master that will take over ``master_id``."""
    kwargs = dict(master_kwargs)
    if owned_ranges is not None:
        kwargs["owned_ranges"] = owned_ranges
    return CurpMaster(host, master_id, config, backups=backups,
                      witnesses=(), epoch=epoch, lease_server=lease_server,
                      active=False, **kwargs)


def recover(master: CurpMaster, backups: typing.Sequence[str],
            witnesses: typing.Sequence[str],
            rpc_timeout: float = 2_000.0):
    """Generator: run both recovery phases on ``master`` (inactive).

    ``witnesses`` is the *crashed* master's witness list; any single
    reachable one suffices (each individually holds every completed-but-
    unsynced operation).  Returns a dict of recovery statistics.
    """
    if master.active:
        raise RuntimeError("recover() requires an inactive master")

    # ------------------------------------------------------------ phase 1
    entries = None
    for backup in backups:
        try:
            entries = yield master.transport.call(
                backup, "get_backup_data", None, timeout=rpc_timeout)
            break
        except (RpcTimeout, AppError):
            continue
    if entries is None:
        raise RecoveryFailed(f"no backup reachable among {list(backups)}")
    restored = master.store.rebuild_from_entries(entries)
    for entry in master.store.log.all_entries():
        if entry.rpc_id is not None:
            master.registry.record(entry.rpc_id, entry.result,
                                   log_position=entry.index)
    master.synced_position = restored  # backup data is synced by definition
    # Anti-ABA (RAMCloud's safeVersion): speculative writes lost in the
    # crash consumed versions beyond what the backups saw; never reissue
    # them.  The margin safely exceeds any unsynced window.
    master.store.raise_version_floor(master.store.max_version_seen + 10_000)

    # ------------------------------------------------------------ phase 2
    requests: tuple[RecordedRequest, ...] | None = None
    for witness in witnesses:
        try:
            requests = yield master.transport.call(
                witness, "get_recovery_data",
                GetRecoveryDataArgs(master_id=master.master_id),
                timeout=rpc_timeout)
            break
        except (RpcTimeout, AppError):
            continue
    if requests is None and witnesses:
        # §3.3: if none of the f witnesses are reachable the new master
        # must wait — losing witness data would lose completed updates.
        raise RecoveryFailed(f"no witness reachable among {list(witnesses)}")

    replayed, filtered = master.replay_witness_requests(requests or ())

    # Final sync: install the recovered log on every (reachable) backup
    # via reset_log — a crash mid-sync can leave backup tails diverged,
    # and none of that unacknowledged tail was ever externalized, so the
    # recovered log wholesale-replaces it.
    if master.config.uses_backups:
        from repro.kvstore.backup import ReplicateArgs
        args = ReplicateArgs(master_id=master.master_id, epoch=master.epoch,
                             entries=tuple(master.store.log.all_entries()))
        for backup in master.backups:
            delivered = False
            for _ in range(10):
                try:
                    yield master.transport.call(backup, "reset_log", args,
                                                timeout=rpc_timeout)
                    delivered = True
                    break
                except RpcTimeout:
                    continue
            if not delivered:
                raise RecoveryFailed(f"backup {backup} unreachable during "
                                     f"recovery final sync")
        master.synced_position = master.store.log.end

    return {"restored_entries": restored, "replayed": replayed,
            "filtered": filtered}
