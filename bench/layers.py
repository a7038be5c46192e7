"""Layer map and ``cProfile`` attribution.

A profiled frame belongs to a layer by the path of its source file under
``src/repro``.  Standard-library and builtin frames (``heappush``,
``dataclasses.replace``, generated ``__lt__``/``__init__`` in ``<string>``)
have no layer of their own: their self time is charged to the nearest
``repro`` frame above them, found through the profile's caller edges, so the
cost of what a layer asks the interpreter to do lands on that layer.  Only
time with no ``repro`` ancestor at all (the harness loop, interpreter
start-up) stays ``unattributed``.
"""

from __future__ import annotations

from pathlib import PurePath
from typing import Dict, Optional, Tuple

LAYERS: Tuple[str, ...] = (
    "netsim",
    "webrtc",
    "rtp",
    "dataplane",
    "sharding",
    "seqrewrite",
    "core",
    "cluster",
    "obs",
    "scenario",
    "unattributed",
)

#: Packages whose every module is one layer.  ``scenario`` also takes the
#: code that drives or post-processes runs and never sits on the Scallop
#: packet path (signaling, STUN, experiment drivers, analysis, trace tools,
#: the software-SFU baseline, the package root).
_PACKAGE_LAYER = {
    "netsim": "netsim",
    "webrtc": "webrtc",
    "rtp": "rtp",
    "cluster": "cluster",
    "obs": "obs",
    "scenario": "scenario",
    "signaling": "scenario",
    "stun": "scenario",
    "experiments": "scenario",
    "analysis": "scenario",
    "trace": "scenario",
    "baseline": "scenario",
}

#: Packages split across layers name every module, so a new file there has
#: no layer until someone decides (the smoke test fails on it).
_MODULE_LAYER = {
    "dataplane": {
        "__init__": "dataplane",
        "pipeline": "dataplane",
        "parser": "dataplane",
        "pre": "dataplane",
        "tables": "dataplane",
        "resources": "dataplane",
        "sanitize": "dataplane",
        "sharding": "sharding",
        "shardcodec": "sharding",
        "loadstats": "sharding",
        "rebalance": "sharding",
    },
    "core": {
        "__init__": "core",
        "seqrewrite": "seqrewrite",
        "scallop": "core",
        "switch_agent": "core",
        "controller": "core",
        "replication": "core",
        "rate_control": "core",
        "capacity": "core",
    },
}


#: Charged like the standard library, to the layer that called in: the
#: ``Datagram``/``Address`` record types every layer constructs.  Building a
#: replica datagram is a cost of the dataplane, not of the network simulator.
CALLER = "caller"
_CALLER_CHARGED = {"netsim/datagram.py"}


def layer_of_module(relative: str) -> Optional[str]:
    """Layer of a module given its path relative to ``src/repro``
    (``CALLER`` for the shared record types, ``None`` if unmapped)."""
    if relative in _CALLER_CHARGED:
        return CALLER
    parts = PurePath(relative).parts
    if len(parts) == 1:
        return "scenario" if parts[0] == "__init__.py" else None
    package, stem = parts[0], PurePath(parts[-1]).stem
    if package in _MODULE_LAYER:
        return _MODULE_LAYER[package].get(stem)
    return _PACKAGE_LAYER.get(package)


FuncKey = Tuple[str, int, str]


def attribute(stats: Dict[FuncKey, tuple], repro_root: str) -> Dict[str, Dict[str, float]]:
    """Fold ``pstats.Stats(...).stats`` into ``{layer: {self_s, calls}}``.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``
    where ``callers`` maps a caller to the ``(cc, nc, tt, ct)`` of that edge.
    """
    prefix = repro_root.rstrip("/") + "/"
    own: Dict[FuncKey, Optional[str]] = {}
    for func in stats:
        filename = func[0]
        layer = layer_of_module(filename[len(prefix):]) if filename.startswith(prefix) else None
        own[func] = None if layer == CALLER else layer

    memo: Dict[FuncKey, Dict[str, float]] = {}

    def inherited(func: FuncKey, stack: frozenset) -> Dict[str, float]:
        """How a frame's invocations split across layers (fractions sum <= 1;
        the remainder has no ``repro`` ancestor)."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in stack or func not in stats:
            return {}
        callers = stats[func][4]
        # weigh edges by cumulative time through them; recursion can zero
        # that out, so fall back to call counts
        weights = {caller: edge[3] for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            weights = {caller: float(edge[1]) for caller, edge in callers.items()}
            total = sum(weights.values())
        split: Dict[str, float] = {}
        if total > 0.0:
            deeper = stack | {func}
            for caller, weight in weights.items():
                for name, fraction in inherited(caller, deeper).items():
                    split[name] = split.get(name, 0.0) + fraction * weight / total
        memo[func] = split
        return split

    out = {layer: {"self_s": 0.0, "calls": 0.0} for layer in LAYERS}
    for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
        layer = own[func]
        if layer is not None:
            out[layer]["self_s"] += tottime
            out[layer]["calls"] += ncalls
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        charged = 0.0
        if edge_total > 0.0:
            for caller, edge in callers.items():
                share = tottime * edge[2] / edge_total
                for name, fraction in inherited(caller, frozenset((func,))).items():
                    out[name]["self_s"] += share * fraction
                    charged += share * fraction
        out["unattributed"]["self_s"] += tottime - charged
    return out


def with_shares(layers: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Add each layer's ``share`` of the total self time (sums to 1)."""
    total = sum(row["self_s"] for row in layers.values())
    return {
        name: dict(row, share=(row["self_s"] / total if total > 0.0 else 0.0))
        for name, row in layers.items()
    }
