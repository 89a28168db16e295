"""The Lemma 3.2 lower-bound topology (Figure 3.2 of the paper).

For parameters ``δ'`` and ``D'`` the paper constructs a graph with diameter
at most ``D'`` and minor density below ``δ'`` on which *every* (partial)
shortcut for a specific family of path parts has quality at least
``(δ' - 3)·D'/6 = Θ(δ'·D')`` — matching Theorem 3.1 up to constants.

Construction (with ``δ = δ' - 2``, ``k = floor(D'/(2δ))``, ``D = k·δ``):

* a *top path* of ``(δ-1)k + 1`` ``p``-nodes;
* ``(δ-1)D + 1`` *rows*, each a path of ``(δ-1)D + 1`` ``v``-nodes — the
  rows are the parts;
* ``δ`` fully-connected *special columns* (every ``D``-th column);
* in each special column, every ``D``-th row node connects to one dedicated
  top-path node ("green" edges; ``δ²`` of them).

Every row can only be shortcut through the top path, but the top path is
short, so some edge of it must be shared by Ω(δD) rows — the congestion/
dilation tradeoff of the lemma.

Two parameter-range deviations from the paper (recorded in the
faithfulness notes of ``docs/architecture.md``):

* the paper picks ``k = floor(D'/(2δ))`` and claims diameter ``1.5D + 1``;
  routing between two far-apart row nodes actually costs up to
  ``3D - k + 2`` hops (row → column → top path → column → row; the paper's
  arithmetic appears to bound only the one-sided trip). We therefore pick
  the largest ``k`` with ``3kδ - k + 2 <= D'``, i.e.
  ``k = floor((D' - 2)/(3δ - 1))``, so the advertised diameter budget
  *actually* holds — Lemma 3.2's quality bound then reads
  ``(δ' - 3)(D' - 2)/6``, identical up to the additive constant;
* the paper asserts ``k >= 2`` for ``δ' <= D'/2``; with the corrected
  ``k`` this needs ``D' >= 6(δ' - 2)``, which we require.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.graphs.partition import Partition
from repro.graphs.properties import diameter
from repro.util.errors import GraphStructureError

__all__ = ["LowerBoundInstance", "lower_bound_graph"]


@dataclass(frozen=True)
class LowerBoundInstance:
    """A fully-assembled Lemma 3.2 instance.

    Attributes:
        graph: the topology ``G``.
        partition: the row-path parts (the hard part collection).
        delta_prime: the δ' parameter (minor-density budget, exclusive).
        diameter_prime: the D' parameter (diameter budget).
        delta: the internal δ = δ' - 2.
        k: the internal k = floor(D' / 2δ).
        depth: the internal D = k·δ.
        top_path: node ids of the top path, in path order.
        quality_lower_bound: the *true* bound for this instance from the
            proof's counting argument: any (partial) shortcut for the rows
            has quality at least ``(δ-1)·D/2``.
        paper_form_bound: the paper's closed form ``(δ'-3)(D'-2)/6`` for
            reporting (can differ from the true bound by rounding of ``k``).
    """

    graph: nx.Graph
    partition: Partition
    delta_prime: int
    diameter_prime: int
    delta: int
    k: int
    depth: int
    top_path: tuple[int, ...]
    quality_lower_bound: float
    paper_form_bound: float

    def verify(self, exact_diameter: bool = True) -> dict[str, object]:
        """Check the instance's advertised properties; return the measurements.

        Verifies:
          * the diameter is at most ``D'`` (paper: at most ``1.5·D + 1``);
          * the graph becomes planar after deleting the green edges that do
            not go to the first special row — the structural fact behind the
            paper's ``density < δ'`` argument (Euler's formula then gives
            ``density < 3 + δ(δ-1)/s <= δ' `` for any minor on
            ``s >= δ + 1`` nodes);
          * every part is a path of the advertised length.

        Raises:
            GraphStructureError: if any property fails.
        """
        measured_diameter = diameter(self.graph, exact=exact_diameter)
        if measured_diameter > self.diameter_prime:
            raise GraphStructureError(
                f"diameter {measured_diameter} exceeds budget {self.diameter_prime}"
            )
        reduced = self.graph.copy()
        removed = 0
        for u, v, data in self.graph.edges(data=True):
            if data.get("green") and not data.get("first_row"):
                reduced.remove_edge(u, v)
                removed += 1
        expected_removed = self.delta * (self.delta - 1)
        if removed != expected_removed:
            raise GraphStructureError(
                f"expected to remove {expected_removed} green edges, removed {removed}"
            )
        is_planar, _ = nx.check_planarity(reduced)
        if not is_planar:
            raise GraphStructureError("reduced graph is not planar; density argument fails")
        row_length = (self.delta - 1) * self.depth + 1
        for index, part in enumerate(self.partition):
            if len(part) != row_length:
                raise GraphStructureError(
                    f"row {index} has {len(part)} nodes, expected {row_length}"
                )
        return {
            "diameter": measured_diameter,
            "diameter_budget": self.diameter_prime,
            "green_edges_removed": removed,
            "reduced_planar": True,
            "rows": len(self.partition),
            "row_length": row_length,
        }


def lower_bound_graph(delta_prime: int, diameter_prime: int) -> LowerBoundInstance:
    """Build the Lemma 3.2 / Figure 3.2 instance for ``(δ', D')``.

    Raises:
        GraphStructureError: if ``δ' < 5`` or ``D' < 4(δ' - 2)`` (see module
            docstring for why the range is slightly narrower than stated in
            the paper).
    """
    if delta_prime < 5:
        raise GraphStructureError("delta_prime must be at least 5")
    delta = delta_prime - 2
    if diameter_prime < 6 * delta:
        raise GraphStructureError(
            f"diameter_prime must be at least 6*(delta_prime - 2) = {6 * delta} "
            f"so that k >= 2; got {diameter_prime}"
        )
    # Largest k with worst-case routing cost 3kδ - k + 2 <= D' (see module
    # docstring; the paper's k = floor(D'/2δ) overshoots the budget).
    k = (diameter_prime - 2) // (3 * delta - 1)
    depth = k * delta

    top_count = (delta - 1) * k + 1  # p-nodes
    row_length = (delta - 1) * depth + 1  # v-nodes per row
    num_rows = row_length

    def p_node(i: int) -> int:
        """Top-path node i (0-indexed, i in [0, top_count))."""
        return i

    def v_node(row: int, col: int) -> int:
        """Row-grid node (0-indexed row and column)."""
        return top_count + row * row_length + col

    graph = nx.Graph()
    graph.add_nodes_from(range(top_count + num_rows * row_length))

    # Top path.
    for i in range(top_count - 1):
        graph.add_edge(p_node(i), p_node(i + 1))

    # Row paths (the parts).
    for row in range(num_rows):
        for col in range(row_length - 1):
            graph.add_edge(v_node(row, col), v_node(row, col + 1))

    # Special columns: every depth-th column is fully vertically connected.
    special_cols = [j * depth for j in range(delta)]
    for col in special_cols:
        for row in range(num_rows - 1):
            graph.add_edge(v_node(row, col), v_node(row + 1, col))

    # Green edges: in special column j, every depth-th row connects to the
    # dedicated top node p_{j*k} (paper: p_{(j-1)k+1}, 1-indexed).
    for j, col in enumerate(special_cols):
        top = p_node(j * k)
        for jp in range(delta):
            row = jp * depth
            graph.add_edge(v_node(row, col), top, green=True, first_row=(jp == 0))

    parts = [
        [v_node(row, col) for col in range(row_length)] for row in range(num_rows)
    ]
    partition = Partition(graph, parts, validate=False)

    graph.graph.update(
        family="lemma32_lower_bound",
        delta_prime=delta_prime,
        diameter_prime=diameter_prime,
        # Minor density is strictly below delta_prime by the planarity
        # argument in the paper (Euler formula + delta*(delta-1) extra edges).
        delta_upper=float(delta_prime),
    )
    return LowerBoundInstance(
        graph=graph,
        partition=partition,
        delta_prime=delta_prime,
        diameter_prime=diameter_prime,
        delta=delta,
        k=k,
        depth=depth,
        top_path=tuple(range(top_count)),
        quality_lower_bound=(delta - 1) * depth / 2.0,
        paper_form_bound=(delta_prime - 3) * (diameter_prime - 2) / 6.0,
    )
