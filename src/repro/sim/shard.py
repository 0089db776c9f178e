"""Durable sharded experiment grids: one directory, many hosts.

The batch engine's process pool tops out at one machine.  This module
turns an experiment grid into a *filesystem-backed work queue* that any
number of independent hosts (or processes) can drain concurrently —
the ROADMAP's "shard ``ExperimentRunner`` grids across machines" item.
A shard directory is the entire coordination state; there is no
server, no locks beyond atomic renames, and nothing machine-specific
inside it:

``manifest.json``
    The grid itself — every :class:`~repro.sim.engine.ExperimentCase`
    serialised loss-free (see :meth:`Scenario.to_json_dict`), in
    collation order.  Any host rebuilds bit-identical cases from it.
``queue/pending/`` and ``queue/leases/``
    One JSON ticket per unfinished *work item*.  A worker *claims* an
    item by renaming its ticket from ``pending/`` into ``leases/`` —
    ``os.rename`` is atomic on POSIX and NFS, so exactly one claimant
    wins — then stamps the lease with its identity, claim time and
    TTL.  A lease that outlives its TTL (crashed or wedged worker) is
    renamed back into ``pending/`` by whichever worker notices first.
    Work items come in two sizes: ``case-*`` tickets carry one case
    through :func:`~repro.sim.engine.run_case`, and ``group-*``
    tickets carry a whole *fused group* — cases the manifest grouped
    at init time because they share a physics fingerprint, policy and
    kernel shape (see :func:`~repro.sim.gridstack.fusable_reason`) —
    through one grid-stacked pass
    (:func:`~repro.sim.gridstack.run_grid_stacked`), publishing each
    member case's artifacts.  A fused group is *done* when every
    member case has its artifacts, so a mid-group crash resumes by
    re-running the (idempotent, bit-identical) group.
``results/``
    Per-case artifacts: a loss-free npz series
    (:func:`~repro.sim.export.result_to_npz`) plus a JSON summary.
    Both are written atomically, and the summary is written last, so
    its presence marks the case done.
``cache/``
    The warmed on-disk :class:`~repro.sim.cache.PhysicsCache` artifact
    store (content fingerprints are machine-independent), so workers
    load the thermal-boundary solves instead of recomputing them.

Determinism and crash-safety contract (pinned in
``tests/test_sim_shard.py``): every case is fully seeded, so execution
is *idempotent* — if a lease expires mid-run and the case is executed
twice, both workers produce bit-identical artifacts and the atomic
writes make the duplicate invisible.  Hence the queue only has to
guarantee at-least-once execution, and the collated result equals the
serial :class:`~repro.sim.engine.ExperimentRunner` run bit-for-bit,
for any worker count, including interrupted-and-resumed runs.

Lease expiry compares the claim timestamp against the local clock, so
hosts sharing a directory should have loosely synchronised clocks
(ordinary NTP skew is harmless next to the default 15-minute TTL).
The configured TTL lives in the manifest — one init-time choice
governs every worker — and the unstamped-lease mtime fallback adds a
clock-skew margin because filesystem mtimes cross the NFS clock
domain (see :func:`_lease_expired`).
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SimulationError
from repro.sim._atomic import atomic_write
from repro.sim.cache import PhysicsCache
from repro.sim.engine import (
    ExperimentCase,
    ExperimentCollation,
    _json_safe,
    _worker_cache,
    run_case,
)
from repro.sim.export import result_from_npz, result_to_npz
from repro.sim.gridstack import _group_key, fusable_reason, run_grid_stacked
from repro.sim.results import SimulationResult, summary_row

#: Bumped whenever the shard directory layout changes.  v2 adds the
#: manifest ``"groups"`` list — fused-group work items drained through
#: one grid-stacked pass each.
SHARD_FORMAT_VERSION = 2

#: Default lease time-to-live.  Generous on purpose: an expired lease
#: only costs a duplicate (idempotent) execution, while a too-short
#: TTL makes healthy long cases look dead.
DEFAULT_LEASE_TTL_S = 900.0

#: Grace added to the *mtime fallback* expiry check only.  An unstamped
#: lease's mtime comes from the claiming host's filesystem clock, which
#: on NFS can disagree with the observer's wall clock; without a margin
#: a skewed observer would steal a lease claimed milliseconds ago.
#: Stamped leases are unaffected — their claim time is authoritative.
LEASE_CLOCK_SKEW_MARGIN_S = 30.0

MANIFEST_NAME = "manifest.json"


def _write_json_atomic(path: Path, payload: dict) -> None:
    """Write JSON via the shared crash-safe publish protocol."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    atomic_write(path, lambda tmp: tmp.write_text(text))


def _read_json(path: Path) -> Optional[dict]:
    """Parse a JSON file; ``None`` for missing/corrupt (racing) files."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


class _ShardPaths:
    """Resolved layout of one shard directory."""

    def __init__(self, shard_dir: Union[str, Path]) -> None:
        self.root = Path(shard_dir)
        self.manifest = self.root / MANIFEST_NAME
        self.pending = self.root / "queue" / "pending"
        self.leases = self.root / "queue" / "leases"
        self.results = self.root / "results"

    def create(self) -> None:
        for directory in (self.pending, self.leases, self.results):
            directory.mkdir(parents=True, exist_ok=True)

    def ticket(self, case_id: str) -> Path:
        return self.pending / f"{case_id}.json"

    def lease(self, case_id: str) -> Path:
        return self.leases / f"{case_id}.json"

    def series_artifact(self, case_id: str) -> Path:
        return self.results / f"{case_id}.npz"

    def summary_artifact(self, case_id: str) -> Path:
        return self.results / f"{case_id}.json"

    def case_done(self, case_id: str) -> bool:
        # The summary is written after the npz, so it is the marker.
        return (
            self.summary_artifact(case_id).is_file()
            and self.series_artifact(case_id).is_file()
        )


@dataclass(frozen=True)
class ShardManifest:
    """Parsed ``manifest.json``: the grid in collation order.

    ``lease_ttl_s`` is the shard's *configured* lease TTL — every
    worker and every expiry scan reads it from here, so one init-time
    choice governs the whole fleet (old manifests without the key
    resolve to :data:`DEFAULT_LEASE_TTL_S`).

    ``groups`` records the fused-group work items as
    ``(group_id, member_case_ids)`` pairs, in ticket order.
    """

    case_ids: Tuple[str, ...]
    cases: Tuple[ExperimentCase, ...]
    cache_dir: Path
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S
    groups: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()

    def __len__(self) -> int:
        return len(self.case_ids)

    def by_id(self) -> Dict[str, ExperimentCase]:
        return dict(zip(self.case_ids, self.cases))

    def groups_by_id(self) -> Dict[str, Tuple[str, ...]]:
        return dict(self.groups)

    def grouped_case_ids(self) -> frozenset:
        """Every case id owned by some fused-group ticket."""
        return frozenset(
            case_id for _, member_ids in self.groups for case_id in member_ids
        )


@dataclass(frozen=True)
class LeaseInfo:
    """Identity and age of one outstanding lease.

    A lease the claimant has not stamped yet carries the worker label
    ``"<unstamped>"`` and ages from the file mtime.
    """

    case_id: str
    worker: str
    age_s: float
    ttl_s: float

    def describe(self) -> str:
        return (
            f"{self.case_id} held by {self.worker} "
            f"for {self.age_s:.0f}s (ttl {self.ttl_s:.0f}s)"
        )


@dataclass(frozen=True)
class GroupInfo:
    """One fused-group work item: identity, size and claim state.

    ``state`` is ``"done"`` (every member case published),
    ``"pending"`` (ticket waiting), ``"leased"`` (live claim) or
    ``"expired"`` (claim outlived its TTL, re-queueable); ``worker``
    names the claimant while a lease exists.
    """

    group_id: str
    case_ids: Tuple[str, ...]
    state: str
    worker: str = ""

    @property
    def n_cases(self) -> int:
        return len(self.case_ids)

    def describe(self) -> str:
        held = f" by {self.worker}" if self.worker else ""
        return f"{self.group_id} [{self.n_cases} cases] {self.state}{held}"


@dataclass(frozen=True)
class ShardStatus:
    """Queue accounting of one shard directory.

    ``leased`` counts live (unexpired) leases; ``expired`` leases are
    re-queueable and will be picked up by the next worker scan.  The
    per-lease detail answers the operational questions the aggregates
    cannot: *which* cases are stuck and *whose* worker went dark.
    ``stale_leases`` are still live but past half their TTL — the ones
    to watch.  The aggregates stay *case* counts — a leased fused
    group counts each unfinished member case as leased — while
    ``fused_groups`` reports the group work items themselves (id,
    member count, claim state).
    """

    total: int
    done: int
    pending: int
    leased: int
    expired: int
    expired_leases: Tuple[LeaseInfo, ...] = ()
    stale_leases: Tuple[LeaseInfo, ...] = ()
    fused_groups: Tuple[GroupInfo, ...] = ()

    @property
    def complete(self) -> bool:
        """True when every case has its result artifacts."""
        return self.done == self.total

    def describe(self) -> str:
        return (
            f"{self.done}/{self.total} done, {self.pending} pending, "
            f"{self.leased} leased, {self.expired} expired"
        )

    def detail_lines(self) -> List[str]:
        """Per-lease trouble report (empty when nothing is stuck)."""
        lines = [
            f"expired: {info.describe()}" for info in self.expired_leases
        ]
        lines.extend(
            f"stale:   {info.describe()}" for info in self.stale_leases
        )
        return lines

    def group_lines(self) -> List[str]:
        """One line per fused-group work item (empty without groups)."""
        return [f"fused: {info.describe()}" for info in self.fused_groups]


def _case_id(index: int) -> str:
    return f"case-{index:05d}"


def _group_id(index: int) -> str:
    return f"group-{index:05d}"


def _compute_groups(
    case_ids: Sequence[str], cases: Sequence[ExperimentCase]
) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
    """Partition a grid into fused-group work items.

    Only groups of two or more fusable cases become ``group-*``
    tickets — a singleton gains nothing from the stacked pass and
    stays an ordinary case ticket.  Group ids are assigned in
    first-member order, so the same grid always yields the same
    manifest bytes.
    """
    members: Dict[Tuple, List[str]] = {}
    order: List[Tuple] = []
    for case_id, case in zip(case_ids, cases):
        if fusable_reason(case) is not None:
            continue
        # Object identity cannot cross the JSON manifest: key on content.
        key = _group_key(case, case.scenario.physics_fingerprint())
        if key not in members:
            members[key] = []
            order.append(key)
        members[key].append(case_id)
    groups: List[Tuple[str, Tuple[str, ...]]] = []
    for key in order:
        ids = members[key]
        if len(ids) < 2:
            continue
        groups.append((_group_id(len(groups)), tuple(ids)))
    return tuple(groups)


def _default_worker_id() -> str:
    return f"{socket.gethostname()}-pid{os.getpid()}"


# ----------------------------------------------------------------------
# init
# ----------------------------------------------------------------------
def init_shard(
    shard_dir: Union[str, Path],
    cases: Sequence[ExperimentCase],
    cache_dir: Union[str, Path, None] = None,
    warm: bool = True,
    lease_ttl_s: Optional[float] = None,
) -> ShardManifest:
    """Create (or resume) a shard directory for an experiment grid.

    Writes the case manifest, enqueues a ticket per unfinished case and
    warms the shared physics-cache artifact store (one boundary solve
    per unique scenario fingerprint, skipped for already-present
    artifacts).  Calling ``init`` again on an existing shard with the
    *same* grid is the resume path: finished cases keep their results,
    live leases are left alone, and only orphaned cases are re-queued.
    A different grid under the same directory is refused.

    Parameters
    ----------
    shard_dir:
        The shared directory (typically on a filesystem all
        participating hosts mount).
    cases:
        The grid, in the order collation will use; names must be
        unique (enforced by :class:`~repro.sim.engine.ExperimentRunner`
        and re-checked here for direct callers).
    cache_dir:
        Physics artifact store location; defaults to ``cache/`` inside
        the shard so the whole run is one self-contained directory.
    warm:
        Precompute/load the physics artifacts now (recommended — every
        worker then starts with a warm store).
    lease_ttl_s:
        Configured lease TTL recorded in the manifest, governing every
        worker and expiry scan on this shard (default
        :data:`DEFAULT_LEASE_TTL_S`).  As with ``cache_dir``, the
        recorded value is authoritative on resume; only an explicitly
        different request is an error.
    """
    paths = _ShardPaths(shard_dir)
    if lease_ttl_s is not None and lease_ttl_s <= 0.0:
        raise SimulationError(f"lease_ttl_s must be > 0, got {lease_ttl_s}")
    names = [case.name for case in cases]
    if len(set(names)) != len(names):
        raise SimulationError("shard cases must have unique names")
    if not cases:
        raise SimulationError("a shard needs at least one case")

    paths.create()
    cache_value = None if cache_dir is None else str(cache_dir)
    ttl_value = None if lease_ttl_s is None else float(lease_ttl_s)
    ids = [_case_id(i) for i in range(len(cases))]
    payload = {
        "version": SHARD_FORMAT_VERSION,
        "cache_dir": cache_value,
        "lease_ttl_s": ttl_value,
        "cases": [
            {"id": case_id, "case": case.to_json_dict()}
            for case_id, case in zip(ids, cases)
        ],
        "groups": [
            {"id": group_id, "case_ids": list(member_ids)}
            for group_id, member_ids in _compute_groups(ids, cases)
        ],
    }
    existing = _read_json(paths.manifest) if paths.manifest.is_file() else None
    if existing is not None:
        if (
            existing.get("version") != SHARD_FORMAT_VERSION
            or existing.get("cases") != payload["cases"]
        ):
            raise SimulationError(
                f"shard directory {paths.root} already holds a different "
                f"grid; collating mixed grids would be meaningless — "
                f"use a fresh directory"
            )
        # Same grid: this is a resume.  The recorded physics store is
        # authoritative (workers read it from the manifest); only an
        # *explicitly different* store request is an error.
        if cache_value is not None and existing.get("cache_dir") != cache_value:
            recorded = existing.get("cache_dir") or "<shard>/cache"
            raise SimulationError(
                f"shard {paths.root} already records its physics store "
                f"({recorded}); omit cache_dir to resume with it"
            )
        if ttl_value is not None and existing.get("lease_ttl_s") != ttl_value:
            recorded_ttl = existing.get("lease_ttl_s") or DEFAULT_LEASE_TTL_S
            raise SimulationError(
                f"shard {paths.root} already records its lease TTL "
                f"({recorded_ttl}s); omit lease_ttl_s to resume with it"
            )
    else:
        _write_json_atomic(paths.manifest, payload)

    manifest = _load_manifest(paths)

    # Enqueue every work item that is not finished and not currently
    # claimed: one group ticket per unfinished fused group, one case
    # ticket per remaining (ungrouped) case.
    grouped = manifest.grouped_case_ids()
    for group_id, member_ids in manifest.groups:
        if all(paths.case_done(case_id) for case_id in member_ids):
            continue
        if paths.lease(group_id).exists() or paths.ticket(group_id).exists():
            continue
        _write_json_atomic(paths.ticket(group_id), {"group_id": group_id})
    for case_id in manifest.case_ids:
        if case_id in grouped or paths.case_done(case_id):
            continue
        if paths.lease(case_id).exists() or paths.ticket(case_id).exists():
            continue
        _write_json_atomic(paths.ticket(case_id), {"case_id": case_id})

    if warm:
        cache = PhysicsCache(cache_dir=manifest.cache_dir)
        seen = set()
        unique = []
        for case in manifest.cases:
            fingerprint = case.scenario.physics_fingerprint()
            if fingerprint not in seen:
                seen.add(fingerprint)
                unique.append(case.scenario)
        cache.warm(unique)
    return manifest


def _load_manifest(paths: _ShardPaths) -> ShardManifest:
    data = _read_json(paths.manifest)
    if data is None:
        raise SimulationError(
            f"{paths.root} is not a shard directory (no readable "
            f"{MANIFEST_NAME}); run 'repro shard init' first"
        )
    version = data.get("version")
    if version != SHARD_FORMAT_VERSION:
        raise SimulationError(
            f"shard manifest version {version!r} is not supported "
            f"(this library reads version {SHARD_FORMAT_VERSION})"
        )
    case_ids = tuple(entry["id"] for entry in data["cases"])
    cases = tuple(
        ExperimentCase.from_json_dict(entry["case"]) for entry in data["cases"]
    )
    cache_value = data.get("cache_dir")
    cache_dir = (
        paths.root / "cache" if cache_value is None else Path(cache_value)
    )
    ttl_value = data.get("lease_ttl_s")
    groups = tuple(
        (str(entry["id"]), tuple(str(c) for c in entry["case_ids"]))
        for entry in data["groups"]
    )
    return ShardManifest(
        case_ids=case_ids,
        cases=cases,
        cache_dir=cache_dir,
        lease_ttl_s=(
            DEFAULT_LEASE_TTL_S if ttl_value is None else float(ttl_value)
        ),
        groups=groups,
    )


def load_shard_manifest(shard_dir: Union[str, Path]) -> ShardManifest:
    """Read and rebuild a shard's case manifest."""
    return _load_manifest(_ShardPaths(shard_dir))


# ----------------------------------------------------------------------
# the queue protocol
# ----------------------------------------------------------------------
def _manifest_ttl(paths: _ShardPaths) -> float:
    """The shard's configured lease TTL (light manifest read).

    Reads just the top-level key — no case rebuilding — so claim scans
    stay cheap.  Missing manifest or key resolves to the default.
    """
    data = _read_json(paths.manifest)
    ttl = None if data is None else data.get("lease_ttl_s")
    return DEFAULT_LEASE_TTL_S if ttl is None else float(ttl)


def _manifest_groups(paths: _ShardPaths) -> Dict[str, Tuple[str, ...]]:
    """Fused-group membership (light manifest read, no case rebuild)."""
    data = _read_json(paths.manifest)
    if data is None:
        return {}
    return {
        str(entry["id"]): tuple(str(c) for c in entry["case_ids"])
        for entry in data.get("groups", [])
    }


def _item_done(
    paths: _ShardPaths, item_id: str, groups: Dict[str, Tuple[str, ...]]
) -> bool:
    """Whether a work item — case or fused group — has its artifacts."""
    member_ids = groups.get(item_id)
    if member_ids is not None:
        return all(paths.case_done(case_id) for case_id in member_ids)
    return paths.case_done(item_id)


def _lease_expired(
    lease: Path, now: float, default_ttl_s: float = DEFAULT_LEASE_TTL_S
) -> bool:
    """Whether a lease file has outlived its TTL.

    The claim timestamp and TTL inside the file are authoritative; a
    lease that cannot be parsed yet (the claimant renamed it but has
    not stamped it — a millisecond window) falls back to the file
    mtime and the *shard's configured* ``default_ttl_s`` — previously
    this path hard-coded the module default, so a shard configured
    with a long TTL saw its unstamped leases stolen early (and a short
    TTL waited the full 15 minutes).  The mtime comparison also adds
    :data:`LEASE_CLOCK_SKEW_MARGIN_S`, because mtimes come from the
    claiming host's filesystem clock (NFS skew), unlike the stamped
    claim time which the claimant took from the same ``time.time``
    domain every observer compares against.
    """
    data = _read_json(lease)
    if data is not None and "claimed_at" in data:
        claimed_at = float(data["claimed_at"])
        ttl = float(data.get("lease_ttl_s", default_ttl_s))
        return (now - claimed_at) > ttl
    try:
        claimed_at = lease.stat().st_mtime
    except OSError:
        return False  # vanished: completed or already re-queued
    return (now - claimed_at) > default_ttl_s + LEASE_CLOCK_SKEW_MARGIN_S


def _requeue_expired(
    paths: _ShardPaths,
    now: Optional[float] = None,
    default_ttl_s: Optional[float] = None,
) -> int:
    """Move expired leases back to pending; returns how many moved.

    A lease whose case already has result artifacts (worker crashed
    after publishing, before releasing) is released instead of
    re-queued.
    """
    now = time.time() if now is None else now
    if default_ttl_s is None:
        default_ttl_s = _manifest_ttl(paths)
    groups = _manifest_groups(paths)
    moved = 0
    for lease in sorted(paths.leases.glob("*.json")):
        item_id = lease.stem
        if _item_done(paths, item_id, groups):
            lease.unlink(missing_ok=True)
            continue
        if not _lease_expired(lease, now, default_ttl_s):
            continue
        try:
            os.rename(lease, paths.ticket(item_id))
        except OSError:
            continue  # another worker re-queued or the owner finished
        moved += 1
    return moved


def claim_case(
    shard_dir: Union[str, Path],
    worker_id: Optional[str] = None,
    lease_ttl_s: Optional[float] = None,
) -> Optional[str]:
    """Claim the next available work item; returns its id, or ``None``.

    The claim is one atomic rename of the ticket into ``leases/`` —
    exactly one of any number of racing workers wins it — followed by
    stamping the lease with the worker identity, claim time and TTL.
    Fused-group tickets (``group-*``) are offered before case tickets:
    they carry the most work, so starting them first keeps the fleet's
    tail short.  ``lease_ttl_s=None`` (the default) stamps the shard's
    configured TTL from the manifest, so the whole fleet agrees
    without every worker invocation repeating the number.  ``None``
    return means nothing is claimable right now: every remaining item
    is finished or held by a live lease.
    """
    paths = _ShardPaths(shard_dir)
    worker_id = worker_id or _default_worker_id()
    if lease_ttl_s is None:
        lease_ttl_s = _manifest_ttl(paths)
    scanned_expired = False
    while True:
        claimed = None
        tickets = sorted(paths.pending.glob("group-*.json")) + sorted(
            paths.pending.glob("case-*.json")
        )
        for ticket in tickets:
            target = paths.leases / ticket.name
            try:
                os.rename(ticket, target)
            except OSError:
                continue  # another worker won this ticket
            claimed = target
            break
        if claimed is not None:
            _write_json_atomic(
                claimed,
                {
                    "case_id": claimed.stem,
                    "worker": worker_id,
                    "claimed_at": time.time(),
                    "lease_ttl_s": float(lease_ttl_s),
                },
            )
            return claimed.stem
        if scanned_expired:
            return None
        scanned_expired = True
        if _requeue_expired(paths) == 0:
            return None


def release_case(shard_dir: Union[str, Path], case_id: str) -> None:
    """Drop a lease (after completion, or to hand the case back)."""
    _ShardPaths(shard_dir).lease(case_id).unlink(missing_ok=True)


def publish_result(
    shard_dir: Union[str, Path],
    case_id: str,
    case: ExperimentCase,
    result: SimulationResult,
) -> None:
    """Write one case's artifacts (npz series, then the JSON summary).

    Both writes are atomic and the summary lands last, so a case is
    observably *done* only once both artifacts are complete.
    """
    paths = _ShardPaths(shard_dir)
    result_to_npz(result, paths.series_artifact(case_id))
    row = {key: _json_safe(value) for key, value in summary_row(result).items()}
    _write_json_atomic(
        paths.summary_artifact(case_id),
        {"case": case.name, "policy": case.policy, "summary": row},
    )


def _run_fused_group(
    members: Sequence[ExperimentCase], manifest: ShardManifest
) -> List[SimulationResult]:
    """Run one fused group through a single grid-stacked pass.

    Every member shares one physics fingerprint (that is what grouped
    them), so one artifact load from the shard's warm store serves the
    whole group; handing the *same* physics object to every slot is
    what lets :func:`~repro.sim.gridstack.run_grid_stacked` re-derive
    the fused grouping on the worker side.
    """
    scenario = members[0].scenario
    cache = _worker_cache(str(manifest.cache_dir))
    physics = cache.get_or_compute(
        scenario.trace, scenario.boundary, scenario.module, scenario.n_modules
    )
    return run_grid_stacked(members, [physics] * len(members))


def work_shard(
    shard_dir: Union[str, Path],
    worker_id: Optional[str] = None,
    lease_ttl_s: Optional[float] = None,
    max_cases: Optional[int] = None,
) -> List[str]:
    """Drain the shard queue from this process; returns completed case ids.

    Claims work items one at a time: a case ticket runs through the
    engine's single :func:`~repro.sim.engine.run_case` code path (with
    the shard's warm physics store); a fused-group ticket runs every
    member case through **one** grid-stacked pass
    (:func:`~repro.sim.gridstack.run_grid_stacked`) and publishes each
    member's artifacts — bit-identical to the per-case path, so the
    collation cannot tell which route produced an artifact.
    ``lease_ttl_s=None`` uses the shard's configured TTL.  Returns
    when nothing is claimable — the queue is drained or every
    remaining item is held by a live lease on another worker — or
    once at least ``max_cases`` cases completed (a fused group counts
    every member it publishes, so the bound may be overshot by group
    members).
    """
    paths = _ShardPaths(shard_dir)
    manifest = _load_manifest(paths)
    cases_by_id = manifest.by_id()
    groups_by_id = manifest.groups_by_id()
    worker_id = worker_id or _default_worker_id()
    completed: List[str] = []
    while max_cases is None or len(completed) < max_cases:
        item_id = claim_case(paths.root, worker_id, lease_ttl_s)
        if item_id is None:
            break
        if item_id not in cases_by_id and item_id not in groups_by_id:
            raise SimulationError(
                f"queue ticket {item_id!r} is not in the shard manifest"
            )
        finished: List[str] = []
        try:
            if item_id in groups_by_id:
                member_ids = groups_by_id[item_id]
                if not all(paths.case_done(c) for c in member_ids):
                    members = [cases_by_id[c] for c in member_ids]
                    results = _run_fused_group(members, manifest)
                    for case_id, case, result in zip(
                        member_ids, members, results
                    ):
                        publish_result(paths.root, case_id, case, result)
                finished.extend(member_ids)
            elif not paths.case_done(item_id):
                case = cases_by_id[item_id]
                result = run_case(case, cache_dir=str(manifest.cache_dir))
                publish_result(paths.root, item_id, case, result)
                finished.append(item_id)
            else:
                finished.append(item_id)
        except BaseException:
            # This process is still alive to hand the item back —
            # waiting out the lease TTL is for *crashed* workers, and
            # holding the lease here would stall the work (and every
            # 'shard work' retry) for the full TTL for no reason.
            try:
                os.rename(paths.lease(item_id), paths.ticket(item_id))
            except OSError:
                pass  # lease already expired/re-queued by someone else
            raise
        release_case(paths.root, item_id)
        completed.extend(finished)
    return completed


# ----------------------------------------------------------------------
# status + collation
# ----------------------------------------------------------------------
def _lease_info(
    lease: Path, now: float, default_ttl_s: float
) -> Optional[LeaseInfo]:
    """Identity/age snapshot of one lease file (``None`` if vanished)."""
    data = _read_json(lease)
    if data is not None and "claimed_at" in data:
        return LeaseInfo(
            case_id=lease.stem,
            worker=str(data.get("worker", "<unknown>")),
            age_s=now - float(data["claimed_at"]),
            ttl_s=float(data.get("lease_ttl_s", default_ttl_s)),
        )
    try:
        mtime = lease.stat().st_mtime
    except OSError:
        return None
    return LeaseInfo(
        case_id=lease.stem,
        worker="<unstamped>",
        age_s=now - mtime,
        ttl_s=default_ttl_s,
    )


def shard_status(shard_dir: Union[str, Path]) -> ShardStatus:
    """Count done/pending/leased/expired cases of a shard.

    Beyond the aggregates, the returned status names each expired
    lease (work-item id + worker identity) and each *stale* one —
    still live but past half its TTL — so an operator can see which
    worker went dark without grepping the queue directory.  Fused
    groups are reported distinctly (:attr:`ShardStatus.fused_groups`):
    group id, member-case count and claim state, with the unfinished
    members folded into the case aggregates under the group's state.
    """
    paths = _ShardPaths(shard_dir)
    manifest = _load_manifest(paths)
    now = time.time()
    default_ttl_s = manifest.lease_ttl_s
    done = pending = leased = expired = 0
    expired_leases: List[LeaseInfo] = []
    stale_leases: List[LeaseInfo] = []
    fused_groups: List[GroupInfo] = []
    group_of: Dict[str, str] = {}
    group_state: Dict[str, str] = {}
    # Fused groups first: each group's single ticket/lease decides the
    # state its unfinished member cases count under.
    for group_id, member_ids in manifest.groups:
        for case_id in member_ids:
            group_of[case_id] = group_id
        worker = ""
        if all(paths.case_done(case_id) for case_id in member_ids):
            state = "done"
        elif paths.ticket(group_id).exists():
            state = "pending"
        elif paths.lease(group_id).exists():
            lease = paths.lease(group_id)
            info = _lease_info(lease, now, default_ttl_s)
            if _lease_expired(lease, now, default_ttl_s):
                state = "expired"
                if info is not None:
                    expired_leases.append(info)
            else:
                state = "leased"
                if info is not None and info.age_s > 0.5 * info.ttl_s:
                    stale_leases.append(info)
            if info is not None:
                worker = info.worker
        else:
            # Orphaned (e.g. interrupted init): re-queued next pass.
            state = "pending"
        group_state[group_id] = state
        fused_groups.append(
            GroupInfo(
                group_id=group_id,
                case_ids=member_ids,
                state=state,
                worker=worker,
            )
        )
    for case_id in manifest.case_ids:
        if paths.case_done(case_id):
            done += 1
            continue
        group_id = group_of.get(case_id)
        if group_id is not None:
            state = group_state[group_id]
            if state == "leased":
                leased += 1
            elif state == "expired":
                expired += 1
            else:
                pending += 1
        elif paths.ticket(case_id).exists():
            pending += 1
        elif paths.lease(case_id).exists():
            lease = paths.lease(case_id)
            info = _lease_info(lease, now, default_ttl_s)
            if _lease_expired(lease, now, default_ttl_s):
                expired += 1
                if info is not None:
                    expired_leases.append(info)
            else:
                leased += 1
                if info is not None and info.age_s > 0.5 * info.ttl_s:
                    stale_leases.append(info)
        else:
            # Orphaned (e.g. interrupted init): counts as pending work
            # that the next init/work pass will re-queue.
            pending += 1
    return ShardStatus(
        total=len(manifest),
        done=done,
        pending=pending,
        leased=leased,
        expired=expired,
        expired_leases=tuple(expired_leases),
        stale_leases=tuple(stale_leases),
        fused_groups=tuple(fused_groups),
    )


def watch_shard(
    shard_dir: Union[str, Path],
    interval_s: float = 2.0,
    max_ticks: Optional[int] = None,
    stream=None,
) -> ShardStatus:
    """Poll and print shard progress until the shard completes.

    The live mode behind ``repro shard status --watch``: one
    :meth:`ShardStatus.describe` line per tick — plus one line per
    fused-group work item and per-lease trouble detail when anything
    is expired or stale — stopping when every case is done or after
    ``max_ticks`` polls.  Returns the final status.
    """
    import sys

    out = sys.stdout if stream is None else stream
    if interval_s <= 0.0:
        raise SimulationError(f"interval_s must be > 0, got {interval_s}")
    ticks = 0
    while True:
        status = shard_status(shard_dir)
        ticks += 1
        print(status.describe(), file=out, flush=True)
        for line in status.group_lines():
            print(f"  {line}", file=out, flush=True)
        for line in status.detail_lines():
            print(f"  {line}", file=out, flush=True)
        if status.complete:
            return status
        if max_ticks is not None and ticks >= max_ticks:
            return status
        time.sleep(interval_s)


def collate_shard(shard_dir: Union[str, Path]) -> ExperimentCollation:
    """Reassemble the full collation from a finished shard.

    Results are loaded in manifest order, so the collation is
    bit-identical to the serial :class:`ExperimentRunner` run over the
    same grid regardless of which worker produced which artifact.
    """
    paths = _ShardPaths(shard_dir)
    manifest = _load_manifest(paths)
    missing = [
        case_id
        for case_id in manifest.case_ids
        if not paths.case_done(case_id)
    ]
    if missing:
        status = shard_status(paths.root)
        raise SimulationError(
            f"shard is not complete ({status.describe()}); "
            f"missing: {', '.join(missing[:5])}"
            + ("..." if len(missing) > 5 else "")
        )
    results = tuple(
        result_from_npz(paths.series_artifact(case_id))
        for case_id in manifest.case_ids
    )
    return ExperimentCollation(cases=manifest.cases, results=results)


# ----------------------------------------------------------------------
# the ExperimentRunner executor="shard" entry point
# ----------------------------------------------------------------------
def run_sharded(
    cases: Sequence[ExperimentCase],
    shard_dir: Union[str, Path, None] = None,
    n_workers: Optional[int] = None,
    cache_dir: Union[str, Path, None] = None,
) -> Tuple[SimulationResult, ...]:
    """Init a shard, drain it with worker processes, collate.

    The in-process convenience wrapper behind
    ``ExperimentRunner(executor="shard")``: the exact protocol
    independent hosts speak via the CLI, exercised with local worker
    processes.  With ``shard_dir=None`` the shard lives in a temporary
    directory that is removed after collation; a named directory is
    left in place (durable — more hosts can join, crashes resume).
    """
    cleanup = shard_dir is None
    root = Path(
        tempfile.mkdtemp(prefix="repro-shard-") if cleanup else shard_dir
    )
    try:
        init_shard(root, cases, cache_dir=cache_dir)
        workers = n_workers or min(4, os.cpu_count() or 2)
        if workers <= 1:
            work_shard(root)
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(work_shard, str(root)) for _ in range(workers)
                ]
                for future in futures:
                    future.result()
        return collate_shard(root).results
    finally:
        if cleanup:
            shutil.rmtree(root, ignore_errors=True)
