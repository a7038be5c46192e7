"""Runtime shard-isolation sanitizer: write-barrier proxies over the
datapath's view of control-plane state.

archlint (``tools/archlint``) enforces the share-nothing discipline at the
AST level, but static analysis cannot see mutations through aliased
references (``table = self.stream_table; table.install(...)``).  This module
is the dynamic half of the same invariant: an opt-in debug mode that wraps
each :class:`~repro.dataplane.pipeline.PipelineDatapath`'s read-mostly
control-plane bindings (``pre``, the four hot tables, and ``control``
itself) in :class:`WriteBarrierProxy` objects.  Reads forward transparently
— ``lookup``/``peek``/``read``/``replicate`` and the PRE's sanctioned
data-plane accounting behave identically, so sanitized runs stay
byte-identical to unsanitized ones — while any mutating method call or
attribute store from datapath-held references raises
:class:`ShardIsolationError` and lands in a per-shard
:class:`IsolationLog` consumable by tests.

Enable it with ``REPRO_SANITIZE=1`` in the environment or explicitly via
``ShardedScallopPipeline(..., sanitize=True)`` /
``ScallopPipeline(..., sanitize=True)``.  The engines' own control handles
stay unwrapped — the control plane mutating its own state is the sanctioned
path — so the whole existing control API works unchanged under the
sanitizer.

Why this matters: shards run one after another, so a stray cross-shard
write is silent — it simply leaks state from one modelled switch pipe into
another.  The sanitizer makes such writes loud.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List

__all__ = [
    "IsolationLog",
    "IsolationViolation",
    "ShardIsolationError",
    "WriteBarrierProxy",
    "resolve_sanitize",
    "sanitize_datapath",
]


class ShardIsolationError(RuntimeError):
    """A datapath-held reference attempted a control-plane mutation."""


@dataclass(frozen=True)
class IsolationViolation:
    """One blocked mutation attempt, as recorded in the access log."""

    shard_id: int
    target: str  # e.g. "stream_table.install"
    operation: str  # "call" | "setattr" | "setitem" | "delitem" | "delattr"
    detail: str

    def render(self) -> str:
        return f"shard {self.shard_id}: {self.operation} {self.target} ({self.detail})"


@dataclass
class IsolationLog:
    """Per-shard cross-shard access log.

    ``read_counts`` tallies every method fetched through a write barrier
    (the datapath's traffic into shared control-plane structures — cheap to
    record, and enough for tests to assert the barrier actually sits on the
    hot path), ``violations`` records every blocked mutation attempt before
    the :class:`ShardIsolationError` is raised.
    """

    shard_id: int
    read_counts: Dict[str, int] = field(default_factory=dict)
    violations: List[IsolationViolation] = field(default_factory=list)

    def note_read(self, target: str) -> None:
        self.read_counts[target] = self.read_counts.get(target, 0) + 1

    def violation(self, target: str, operation: str, detail: str) -> ShardIsolationError:
        """Record a blocked mutation and mint the error for the caller to
        raise (record-then-raise, so the log survives the exception)."""
        record = IsolationViolation(
            shard_id=self.shard_id, target=target, operation=operation, detail=detail
        )
        self.violations.append(record)
        return ShardIsolationError(
            f"shard isolation violated: {record.render()} — datapath code must "
            "not mutate control-plane state; route the write through a "
            "PipelineControlPlane method"
        )


#: Method names blocked by the write barrier.  A *superset* of archlint's
#: ``MUTATING_METHODS`` (tools/archlint/rules.py): every control-plane write
#: API plus the generic container mutators.  Conspicuously absent: ``lookup``,
#: ``peek``, ``read``, ``entries``, ``replicate``,
#: ``note_replication``, ``write_stamp`` — the sanctioned data-plane surface.
BLOCKED_METHODS = frozenset(
    {
        "install",
        "install_many",
        "remove",
        "write",
        "clear",
        "allocate",
        "release",
        "create_tree",
        "destroy_tree",
        "add_node",
        "remove_node",
        "install_stream",
        "remove_stream",
        "install_replica_target",
        "remove_replica_target",
        "install_adaptation",
        "update_adaptation_templates",
        "remove_adaptation",
        "install_feedback_rule",
        "remove_feedback_rule",
        "install_placement",
        "remove_placement",
        "remove_placements_for",
        "attach_datapath",
        "_write_tracker",
        "allocate_stream_state",
        "release_stream_state",
        "allocate_tree",
        "release_tree",
        "defer_version_bumps",
        "commit_version_bumps",
        "defer_generation_bumps",
        "commit_generation_bumps",
        "batched_writes",
        "pop",
        "popitem",
        "update",
        "setdefault",
        "append",
        "extend",
    }
)


class WriteBarrierProxy:
    """Transparent read proxy that raises on mutation.

    Attribute reads and non-mutating method calls forward to the wrapped
    object (its internal counters — table ``lookups``/``hits``, PRE tallies —
    advance exactly as without the proxy, which is what keeps sanitized runs
    byte-identical).  Mutating method calls, attribute stores, and item
    stores raise :class:`ShardIsolationError` after logging.
    """

    __slots__ = ("_wbp_target", "_wbp_label", "_wbp_log")

    def __init__(self, target: object, label: str, log: IsolationLog) -> None:
        object.__setattr__(self, "_wbp_target", target)
        object.__setattr__(self, "_wbp_label", label)
        object.__setattr__(self, "_wbp_log", log)

    # -- reads forward -------------------------------------------------------

    def __getattr__(self, name: str):
        target = object.__getattribute__(self, "_wbp_target")
        value = getattr(target, name)
        if callable(value):
            label = object.__getattribute__(self, "_wbp_label")
            log = object.__getattribute__(self, "_wbp_log")
            qualified = f"{label}.{name}"
            if name in BLOCKED_METHODS:
                def _blocked(*args, **kwargs):
                    raise log.violation(
                        qualified,
                        "call",
                        f"args={args!r}"[:200],
                    )

                return _blocked
            log.note_read(qualified)
        return value

    def __getitem__(self, key):
        return object.__getattribute__(self, "_wbp_target")[key]

    def __contains__(self, key) -> bool:
        return key in object.__getattribute__(self, "_wbp_target")

    def __len__(self) -> int:
        return len(object.__getattribute__(self, "_wbp_target"))

    def __iter__(self):
        return iter(object.__getattribute__(self, "_wbp_target"))

    def __repr__(self) -> str:
        target = object.__getattribute__(self, "_wbp_target")
        label = object.__getattribute__(self, "_wbp_label")
        return f"<sanitized {label}: {target!r}>"

    # -- writes raise --------------------------------------------------------

    def __setattr__(self, name: str, value) -> None:
        log = object.__getattribute__(self, "_wbp_log")
        label = object.__getattribute__(self, "_wbp_label")
        raise log.violation(f"{label}.{name}", "setattr", f"value={value!r}"[:200])

    def __delattr__(self, name: str) -> None:
        log = object.__getattribute__(self, "_wbp_log")
        label = object.__getattribute__(self, "_wbp_label")
        raise log.violation(f"{label}.{name}", "delattr", "")

    def __setitem__(self, key, value) -> None:
        log = object.__getattribute__(self, "_wbp_log")
        label = object.__getattribute__(self, "_wbp_label")
        raise log.violation(f"{label}[{key!r}]", "setitem", f"value={value!r}"[:200])

    def __delitem__(self, key) -> None:
        log = object.__getattribute__(self, "_wbp_log")
        label = object.__getattribute__(self, "_wbp_label")
        raise log.violation(f"{label}[{key!r}]", "delitem", "")


def resolve_sanitize(flag) -> bool:
    """Resolve the tri-state sanitize switch: an explicit ``True``/``False``
    wins; ``None`` defers to the ``REPRO_SANITIZE`` environment variable."""
    if flag is not None:
        return bool(flag)
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


#: The datapath attributes wrapped by :func:`sanitize_datapath` — the
#: read-mostly control-plane bindings established in
#: ``PipelineDatapath.__init__`` (``trackers`` stays raw: it is the shard's
#: own register view, and control-plane fan-out writes to it through the raw
#: datapath attribute, not through the shard's proxy).
SANITIZED_BINDINGS = ("control", "pre", "stream_table", "replica_table", "adaptation_table", "feedback_table")


def sanitize_datapath(datapath) -> IsolationLog:
    """Install write barriers over a datapath's control-plane bindings.

    Called from ``PipelineDatapath.__init__`` after the read-mostly aliases
    are bound; returns the shard's :class:`IsolationLog`.  Only the
    *datapath-held* references are wrapped — the engine facade and the
    control plane keep raw handles, so the sanctioned write path is
    untouched.
    """
    log = IsolationLog(shard_id=datapath.shard_id)
    for name in SANITIZED_BINDINGS:
        setattr(datapath, name, WriteBarrierProxy(getattr(datapath, name), name, log))
    return log
