"""The paper's contribution: low-congestion shortcuts for dense-minor-free graphs.

Public entry points:

* :func:`repro.core.partial.build_partial_shortcut` — Theorem 3.1: the
  bottom-up overcongestion marking that yields tree-restricted
  ``8δD``-congestion ``8δ``-block partial shortcuts.
* :func:`repro.core.full.build_full_shortcut` — Observation 2.7: iterate
  partial shortcuts into a full shortcut (congestion × log₂ k), on one
  tree, for the centralized and the simulated constructions alike.
* :func:`repro.core.certifying.certify_or_shortcut` — the certifying
  variant: a shortcut or a dense-minor witness (case II of the proof).
* :func:`repro.core.baseline.bfs_tree_shortcut` — the folklore ``D + √n``
  shortcut for general graphs (Section 1.3).
* :func:`repro.core.distributed.distributed_partial_shortcut` — Theorem
  1.5: the CONGEST construction with measured round complexity.
* :mod:`repro.core.providers` — the **ShortcutProvider registry**, the
  single entry point every application routes through:
  ``build_shortcut(ShortcutRequest(graph, partition, ...))`` dispatches to
  a registered provider (``baseline``, ``theorem31-centralized``,
  ``theorem31-simulated``, ``greedy``, ``certifying``, ``none``) and
  memoizes deterministic constructions per ``(graph, partition)``.
"""

from repro.core.baseline import bfs_tree_shortcut
from repro.core.certifying import certify_or_shortcut, sample_dense_minor
from repro.core.full import FullShortcutResult, build_full_shortcut
from repro.core.partial import (
    ConflictGraph,
    PartialShortcutResult,
    build_partial_shortcut,
    mark_overcongested_edges,
)
from repro.core.providers import (
    ShortcutOutcome,
    ShortcutProvenance,
    ShortcutProvider,
    ShortcutRequest,
    available_providers,
    build_shortcut,
    clear_shortcut_cache,
    get_provider,
    register_provider,
    resolve_delta,
    resolve_provider,
    resolve_tree,
    shortcut_cache_info,
)
from repro.core.shortcut import Shortcut, ShortcutQuality, TreeRestrictedShortcut

__all__ = [
    "Shortcut",
    "ShortcutQuality",
    "TreeRestrictedShortcut",
    "ConflictGraph",
    "PartialShortcutResult",
    "build_partial_shortcut",
    "mark_overcongested_edges",
    "FullShortcutResult",
    "build_full_shortcut",
    "certify_or_shortcut",
    "sample_dense_minor",
    "bfs_tree_shortcut",
    "ShortcutRequest",
    "ShortcutOutcome",
    "ShortcutProvenance",
    "ShortcutProvider",
    "build_shortcut",
    "register_provider",
    "get_provider",
    "available_providers",
    "resolve_delta",
    "resolve_provider",
    "resolve_tree",
    "shortcut_cache_info",
    "clear_shortcut_cache",
]
