"""The machine-readable layer map of the THINC reproduction.

The translation architecture depends on strict layering: the protocol
layer knows nothing of the server core, display drivers never reach
around the translation layer, and the simulation/benchmark shells sit
strictly above the system they measure.  This module is the single
source of truth the import checker (:mod:`repro.analysis.layering`)
enforces; ``docs/ANALYSIS.md`` renders the same map for humans.

Each top-level package under ``repro`` is assigned a *rank*.  A module
may import from its own package freely, and from any package of
**strictly lower** rank.  Packages sharing a rank are peers and may not
import each other (e.g. ``protocol`` and ``display`` are independent
views of the same geometry; ``baselines`` and ``workloads`` are
independent consumers of the system).

The resulting DAG, low to high::

    region                                  (pure geometry; imports nothing)
    net | video | audio                     (foundation models)
    codec                                   (batched pixel codecs + encoder
                                             policy; below protocol so command
                                             objects may call its kernels)
    protocol | display                      (wire commands | raster + drivers)
    core                                    (translation, queues, delivery)
    baselines | workloads                   (comparison systems | app models)
    cluster                                 (shard fabric over core servers)
    fuzz                                    (protocol fuzzing harness)
    bench                                   (measurement harness)
    <top-level modules: cli, __main__>      (entry points)
    analysis                                (this tooling; imports anything,
                                             imported by nothing at runtime)

``repro.core.sanitizer`` intentionally lives in ``core`` rather than
here so the runtime invariant checks obey the very layering they help
protect.

``repro.core.fanout`` (the broadcast fan-out plane) likewise takes
core's rank (THL100: rank 30): it is membership plus the dispatch
path's route stage, *beside* the buffer/flush stages, and touches only
the session units beside it.  The cluster fabric (rank 42) may drive
it — a subscriber can attach through any shard's relay — but the plane
itself never imports upward.

``repro.cluster.scenario`` (one description of a test run, one
convergence oracle over it) takes cluster's rank, 42, so that ``fuzz``,
``bench``, the entry points, the examples and ``tests/`` may all build
their rigs from it; it imports ``workloads`` (40) for the scripted
draws and nothing above itself.

``repro.core.link_health`` (the server's one link probe) is core-rank
too and the lowest module in it: it imports only ``codec`` (rank 15,
for the posture policy) and is imported by ``core.qos`` and
``core.server``.  It reads the transport endpoint and packet monitor
(``net``, rank 10) through the session it is handed, never by import.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["PACKAGE", "TOPLEVEL_RANK", "LAYER_RANKS", "rank_of",
           "import_allowed", "explain"]

#: The root package every rule applies to.
PACKAGE = "repro"

#: Rank of modules living directly in ``repro/`` (cli, __main__, __init__).
TOPLEVEL_RANK = 60

#: package name -> rank.  Lower ranks are lower layers.
LAYER_RANKS: Dict[str, int] = {
    "region": 0,
    "net": 10,
    "video": 10,
    "audio": 10,
    "codec": 15,
    "protocol": 20,
    "display": 20,
    "core": 30,
    "baselines": 40,
    "workloads": 40,
    "cluster": 42,
    "fuzz": 45,
    "bench": 50,
    "analysis": 100,
}


def rank_of(package: Optional[str]) -> int:
    """Rank for a top-level subpackage name (None = repro top level)."""
    if not package:
        return TOPLEVEL_RANK
    try:
        return LAYER_RANKS[package]
    except KeyError:
        raise KeyError(
            f"package {package!r} is not in the layer map; add it to "
            f"repro.analysis.layermap.LAYER_RANKS") from None


def import_allowed(importer: Optional[str], imported: Optional[str]) -> bool:
    """May a module in package *importer* import package *imported*?"""
    if importer == imported:
        return True
    return rank_of(imported) < rank_of(importer)


def explain(importer: Optional[str], imported: Optional[str]) -> str:
    """Human-readable reason an import violates the layer map."""
    iname = imported or "<top-level>"
    oname = importer or "<top-level>"
    ri, ro = rank_of(imported), rank_of(importer)
    if ri == ro:
        return (f"repro.{oname} and repro.{iname} are peer layers "
                f"(rank {ri}) and must not import each other")
    return (f"repro.{oname} (rank {ro}) may not import repro.{iname} "
            f"(rank {ri}): imports must flow strictly downward")
