"""Neighbourhood extraction — the "zoom" primitive of the interactive scenario.

When GPS proposes a node to the user it does not show the whole graph:
it shows the *neighbourhood* of the node, i.e. the subgraph induced by all
nodes and edges at distance at most ``k`` from it (initially ``k = 2``,
Figure 3(a)).  The user may *zoom out*, which increases ``k`` by one
(Figure 3(b)); the newly revealed nodes and edges are highlighted.

The neighbourhood also records its *frontier*: the nodes of the fragment
that still have edges leaving the fragment.  The front-end renders those
as ``...`` continuations, exactly as in the figures of the paper.

Since the zoom-index PR the module is incremental: a
:class:`NeighborhoodIndex` caches BFS **layers** per
``(graph.version, center, directed)``, so zooming out extends the last
frontier by ``step`` layers instead of re-running BFS from radius 0, the
zoom delta is read off the layer structure instead of diffing full
fragment snapshots, and :func:`eccentricity_bound` shares the same
layers.  :class:`Neighborhood` materialises its induced subgraph (and
edge set) lazily — a simulated session that only asks "is this witness
node visible?" never pays for fragment construction at all.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple


from repro.exceptions import NodeNotFoundError
from repro.graph.labeled_graph import Edge, LabeledGraph, Node


class Neighborhood:
    """A bounded fragment of the graph centred on a node.

    Attributes
    ----------
    center:
        The node the fragment is centred on (the node proposed to the user).
    radius:
        The distance bound used to build the fragment.
    graph:
        The induced subgraph (a :class:`LabeledGraph`), materialised on
        first access.
    distances:
        Mapping node -> distance from the centre (ignoring edge direction
        unless the fragment was extracted with ``directed=True``).
    frontier:
        Nodes of the fragment that have at least one edge (in either
        direction; outgoing only for directed fragments) to a node
        outside the fragment; rendered as ``...``.

    The fragment is a value snapshot of the graph at extraction time:
    the node set, distances and frontier are fixed eagerly, while the
    induced subgraph and edge set are derived lazily from the base graph
    and raise a :class:`RuntimeError` if the base graph was mutated
    before their first access (materialise before mutating).
    """

    __slots__ = (
        "center",
        "radius",
        "frontier",
        "_layers",
        "_directed",
        "_source",
        "_source_version",
        "_distances",
        "_node_set",
        "_graph",
        "_edge_set",
    )

    def __init__(
        self,
        center: Node,
        radius: int,
        *,
        layers: Tuple[Tuple[Node, ...], ...],
        directed: bool,
        source: LabeledGraph,
        source_version: int,
        frontier: FrozenSet[Node],
    ):
        self.center = center
        self.radius = radius
        self.frontier = frontier
        self._layers = layers
        self._directed = directed
        self._source: Optional[LabeledGraph] = source
        # repro-lint: disable=REP302 -- value snapshot, not a cache: staleness is surfaced by _check_fresh() on access and fragments are re-extracted, never refreshed in place
        self._source_version = source_version
        self._distances: Optional[Dict[Node, int]] = None
        self._node_set: Optional[FrozenSet[Node]] = None
        self._graph: Optional[LabeledGraph] = None
        self._edge_set: Optional[FrozenSet[Edge]] = None

    # ------------------------------------------------------------------
    # derived views (lazy, cached)
    # ------------------------------------------------------------------
    @property
    def distances(self) -> Dict[Node, int]:
        """Node -> distance-from-centre for every fragment node."""
        distances = self._distances
        if distances is None:
            distances = {
                node: distance
                for distance, layer in enumerate(self._layers)
                for node in layer
            }
            self._distances = distances
        return distances

    @property
    def nodes(self) -> FrozenSet[Node]:
        """The node set of the fragment."""
        node_set = self._node_set
        if node_set is None:
            node_set = frozenset(node for layer in self._layers for node in layer)
            self._node_set = node_set
        return node_set

    def _check_fresh(self) -> None:
        if self._source.version != self._source_version:
            raise RuntimeError(
                "the base graph mutated since this neighbourhood was extracted; "
                "materialise `.graph` / `.edges` before mutating, or re-extract"
            )

    @property
    def graph(self) -> LabeledGraph:
        """The induced subgraph, built on first access.

        Materialising releases the reference to the base graph: a
        retained fragment then pins only itself, not the full graph.
        """
        fragment = self._graph
        if fragment is None:
            self._check_fresh()
            fragment = self._source.subgraph(
                self.nodes, name=f"{self._source.name}:N({self.center},{self.radius})"
            )
            self._graph = fragment
            self._source = None
        return fragment

    @property
    def edges(self) -> FrozenSet[Edge]:
        """The edge set of the fragment."""
        edge_set = self._edge_set
        if edge_set is None:
            if self._graph is None:
                self._check_fresh()
                node_set = self.nodes
                succ = self._source._succ
                edge_set = frozenset(
                    (node, label, target)
                    for node in node_set
                    for label, targets in succ[node].items()
                    for target in targets
                    if target in node_set
                )
            else:
                edge_set = frozenset(self._graph.edges())
            self._edge_set = edge_set
        return edge_set

    def contains(self, node: Node) -> bool:
        """True when ``node`` belongs to the fragment."""
        return node in self.nodes

    def __repr__(self) -> str:
        return (
            f"<Neighborhood center={self.center!r} radius={self.radius} "
            f"nodes={len(self.nodes)}>"
        )


@dataclass(frozen=True)
class NeighborhoodDelta:
    """The difference between two nested neighbourhoods (zoom out).

    The front-end highlights ``new_nodes`` and ``new_edges`` (drawn in blue
    in Figure 3(b) of the paper).
    """

    previous: Neighborhood
    current: Neighborhood
    new_nodes: FrozenSet[Node]
    new_edges: FrozenSet[Edge]

    @property
    def grew(self) -> bool:
        """True when zooming out actually revealed something new."""
        return bool(self.new_nodes or self.new_edges)


def _induced_edges(graph: LabeledGraph, nodes: FrozenSet[Node]) -> FrozenSet[Edge]:
    """Edges of ``graph`` with both endpoints in ``nodes`` (missing nodes skipped)."""
    succ = graph._succ
    return frozenset(
        (node, label, target)
        for node in nodes
        if node in succ
        for label, targets in succ[node].items()
        for target in targets
        if target in nodes
    )


class _BfsState:
    """Append-only BFS layer structure for one ``(center, directed)`` pair.

    ``layers[d]`` holds the nodes at distance exactly ``d``; the structure
    only ever *extends* (one layer at a time), so every
    :class:`Neighborhood` built from a prefix of the layers stays valid
    as later zooms deepen the BFS.
    """

    __slots__ = ("center", "directed", "layers", "distances", "exhausted")

    def __init__(self, center: Node, directed: bool):
        self.center = center
        self.directed = directed
        self.layers: List[Tuple[Node, ...]] = [(center,)]
        self.distances: Dict[Node, int] = {center: 0}
        self.exhausted = False

    def ensure_radius(self, graph: LabeledGraph, radius: int) -> None:
        """Extend the layer structure until it covers ``radius`` (or the component)."""
        succ = graph._succ
        pred = graph._pred
        distances = self.distances
        layers = self.layers
        directed = self.directed
        while not self.exhausted and len(layers) - 1 < radius:
            depth = len(layers)
            next_layer: List[Node] = []
            append = next_layer.append
            for node in layers[-1]:
                for targets in succ[node].values():
                    for other in targets:
                        if other not in distances:
                            distances[other] = depth
                            append(other)
                if not directed:
                    for sources in pred[node].values():
                        for other in sources:
                            if other not in distances:
                                distances[other] = depth
                                append(other)
            if next_layer:
                layers.append(tuple(next_layer))
            else:
                self.exhausted = True

    def ensure_exhausted(self, graph: LabeledGraph) -> None:
        """Run the BFS to the end of the component."""
        while not self.exhausted:
            self.ensure_radius(graph, len(self.layers))

    def boundary(self, graph: LabeledGraph, radius: int) -> FrozenSet[Node]:
        """Fragment nodes with an edge leaving the radius-``radius`` fragment.

        Only nodes at distance exactly ``radius`` can have outside
        neighbours (an outside neighbour of a depth-``d`` node would be
        at depth ``d + 1 <= radius``), and their outside neighbours sit
        exactly in layer ``radius + 1`` — so the boundary falls out of
        the layer structure without scanning the fragment.  Requires the
        layers to cover ``radius + 1`` (call ``ensure_radius`` first).
        """
        layers = self.layers
        if len(layers) <= radius + 1:
            return frozenset()
        outside_depth = radius + 1
        distances = self.distances
        succ = graph._succ
        pred = graph._pred
        boundary: List[Node] = []
        for node in layers[radius]:
            found = False
            for targets in succ[node].values():
                for other in targets:
                    if distances.get(other) == outside_depth:
                        found = True
                        break
                if found:
                    break
            if not found and not self.directed:
                for sources in pred[node].values():
                    for other in sources:
                        if distances.get(other) == outside_depth:
                            found = True
                            break
                    if found:
                        break
            if found:
                boundary.append(node)
        return frozenset(boundary)


class NeighborhoodIndex:
    """Incremental neighbourhood/zoom index of one :class:`LabeledGraph`.

    Caches BFS layer structures per ``(graph.version, center, directed)``
    so that, within one graph version:

    * zooming out from radius ``r`` to ``r + step`` explores only the new
      layers (the seed path re-ran the whole BFS from radius 0);
    * the zoom delta (new nodes / new edges) is read off the layer
      structure instead of diffing full fragment snapshots;
    * :meth:`eccentricity_bound` and every later extraction around the
      same centre share one BFS.

    The index holds the graph weakly: it dies with the graph.  On a
    structural mutation (version bump) it consults the graph's delta
    journal and drops **only** the layer structures whose explored region
    contains a touched node (see :meth:`refresh`); when the journal
    cannot bridge the gap it falls back to dropping everything, exactly
    the pre-journal behaviour.  Layer states are kept in a bounded LRU
    (like the engine's plan cache), so a long session proposing many
    distinct centres cannot retain O(n) BFS state per centre
    indefinitely.
    """

    #: retained (center, directed) layer structures; a session's zoom
    #: ladder touches one centre at a time, so a small bound loses
    #: nothing while capping memory at ~bound x component size
    MAX_STATES = 64

    __slots__ = ("_graph_ref", "_version", "_states", "__weakref__")

    #: delta-refreshed (or cleared) via refresh(), which both _state()
    #: and GraphWorkspace.refresh() drive.
    __workspace_hook__ = "workspace.neighborhoods"

    def __init__(self, graph: LabeledGraph):
        self._graph_ref = weakref.ref(graph)
        self._version = graph.version
        self._states: "OrderedDict[Tuple[Node, bool], _BfsState]" = OrderedDict()

    @property
    def graph(self) -> LabeledGraph:
        graph = self._graph_ref()
        if graph is None:
            raise RuntimeError("the graph of this NeighborhoodIndex was garbage-collected")
        return graph

    def owns(self, graph: LabeledGraph) -> bool:
        """True when this index was built for ``graph`` (and it is alive)."""
        return self._graph_ref() is graph

    def refresh(self, graph: LabeledGraph) -> Tuple[int, int]:
        """Catch up with ``graph``, dropping only delta-reachable states.

        A cached layer structure is still exact after a mutation when no
        touched node (changed-edge endpoint, added or removed node) lies
        in its explored region: every path of length ≤ explored depth
        runs entirely through explored nodes, so a change with both
        endpoints outside cannot alter any recorded distance, layer or
        boundary.  When :meth:`LabeledGraph.deltas_since
        <repro.graph.labeled_graph.LabeledGraph.deltas_since>` cannot
        bridge the gap, every state is dropped (the pre-journal
        behaviour).

        Returns ``(kept, dropped)``.
        """
        if graph.version == self._version:
            return (len(self._states), 0)
        deltas = graph.deltas_since(self._version)
        self._version = graph.version
        states = self._states
        if deltas is None:
            dropped = len(states)
            states.clear()
            return (0, dropped)
        touched = set()
        for delta in deltas:
            touched.update(delta.touched_nodes)
        kept = 0
        dropped = 0
        for key in list(states):
            if touched.isdisjoint(states[key].distances):
                kept += 1
            else:
                del states[key]
                dropped += 1
        return (kept, dropped)

    def cached_ball(
        self, center: Node, radius: int, *, version: int
    ) -> Optional[FrozenSet[Node]]:
        """The undirected radius-``radius`` ball around ``center``, if cached.

        Only answers from a layer structure built at exactly ``version``
        (the caller's own snapshot version) that already covers
        ``radius`` (or exhausted its component); returns ``None``
        otherwise instead of running any BFS.  Used by
        :meth:`LanguageIndex.refreshed
        <repro.learning.language_index.LanguageIndex.refreshed>` to seed
        affected-node sets from work a session already paid for.
        """
        if version != self._version:
            return None
        state = self._states.get((center, False))
        if state is None:
            return None
        if not state.exhausted and len(state.layers) - 1 < radius:
            return None
        return frozenset(
            node for layer in state.layers[: radius + 1] for node in layer
        )

    def _state(self, graph: LabeledGraph, center: Node, directed: bool) -> _BfsState:
        if center not in graph:
            raise NodeNotFoundError(center)
        if graph.version != self._version:
            self.refresh(graph)
        key = (center, directed)
        state = self._states.get(key)
        if state is None:
            state = _BfsState(center, directed)
            self._states[key] = state
            while len(self._states) > self.MAX_STATES:
                self._states.popitem(last=False)
        else:
            self._states.move_to_end(key)
        return state

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def neighborhood(self, center: Node, radius: int, *, directed: bool = False) -> Neighborhood:
        """The neighbourhood of ``center`` at distance at most ``radius``."""
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        graph = self.graph
        state = self._state(graph, center, directed)
        # +1 so the boundary frontier is known from the layer structure
        state.ensure_radius(graph, radius + 1)
        return Neighborhood(
            center,
            radius,
            layers=tuple(state.layers[: radius + 1]),
            directed=directed,
            source=graph,
            source_version=graph.version,
            frontier=state.boundary(graph, radius),
        )

    def zoom(self, neighborhood: Neighborhood, *, step: int = 1, directed: bool = False) -> NeighborhoodDelta:
        """Grow ``neighborhood`` by ``step`` layers and report what appeared.

        The enlarged fragment reuses the cached layers; the delta is the
        slice of layers beyond the previous radius plus the induced edges
        incident to it.
        """
        if step < 1:
            raise ValueError(f"zoom step must be positive, got {step}")
        graph = self.graph
        previous_radius = neighborhood.radius
        enlarged = self.neighborhood(
            neighborhood.center, previous_radius + step, directed=directed
        )
        if (
            neighborhood._source is not graph
            or neighborhood._source_version != graph.version
            or neighborhood._directed != directed
        ):
            # `previous` snapshots a different structure (another graph,
            # an older version, a released source, or the other
            # directedness): fall back to the generic full-diff delta so
            # the contract still holds
            try:
                previous_edges = neighborhood.edges
            except RuntimeError:
                # the previous fragment was never materialised and its
                # base graph has mutated: its exact edge snapshot is
                # unrecoverable, so diff against its nodes as they stand
                # in the current graph (what the user's stale view would
                # show after a refresh)
                previous_edges = _induced_edges(graph, neighborhood.nodes)
            new_nodes = enlarged.nodes - neighborhood.nodes
            new_edges = enlarged.edges - previous_edges
            return NeighborhoodDelta(
                previous=neighborhood,
                current=enlarged,
                new_nodes=frozenset(new_nodes),
                new_edges=frozenset(new_edges),
            )
        new_layers = enlarged._layers[previous_radius + 1 :]
        new_nodes = frozenset(node for layer in new_layers for node in layer)
        node_set = enlarged.nodes
        succ = graph._succ
        pred = graph._pred
        new_edges = set()
        add = new_edges.add
        # walk the new BFS layers (ordered tuples) rather than the
        # frozenset above: same nodes, deterministic order
        for layer in new_layers:
            for node in layer:
                for label, targets in succ[node].items():
                    for target in targets:
                        if target in node_set:
                            add((node, label, target))
                for label, sources in pred[node].items():
                    for source in sources:
                        if source in node_set:
                            add((source, label, node))
        return NeighborhoodDelta(
            previous=neighborhood,
            current=enlarged,
            new_nodes=new_nodes,
            new_edges=frozenset(new_edges),
        )

    def eccentricity_bound(self, center: Node, *, directed: bool = False) -> int:
        """Smallest radius whose neighbourhood covers everything reachable."""
        graph = self.graph
        state = self._state(graph, center, directed)
        state.ensure_exhausted(graph)
        return len(state.layers) - 1


def _shared_index(graph: LabeledGraph) -> NeighborhoodIndex:
    """The process workspace's index (no deprecation warning: internal)."""
    from repro.serving.workspace import default_workspace

    return default_workspace().neighborhoods(graph)




def extract_neighborhood(
    graph: LabeledGraph,
    center: Node,
    radius: int,
    *,
    directed: bool = False,
) -> Neighborhood:
    """Build the neighbourhood of ``center`` at distance at most ``radius``.

    By default distance is measured ignoring edge direction (as in the
    paper's figures, where incoming and outgoing context both help the
    user decide); pass ``directed=True`` to only follow outgoing edges.

    Served from the shared :class:`NeighborhoodIndex` of ``graph``, so
    repeated extractions around the same centre (a zoom ladder, the
    eccentricity probe of the session) pay one BFS between them.
    """
    return _shared_index(graph).neighborhood(center, radius, directed=directed)


def zoom_out(
    graph: LabeledGraph,
    neighborhood: Neighborhood,
    *,
    step: int = 1,
    directed: bool = False,
) -> NeighborhoodDelta:
    """Grow a neighbourhood by ``step`` and report what became visible.

    Returns a :class:`NeighborhoodDelta` whose ``current`` field is the
    enlarged neighbourhood and whose ``new_nodes`` / ``new_edges`` are the
    elements absent from the previous fragment (the blue elements of
    Figure 3(b)).  Incremental: only the new layers are explored.
    """
    return _shared_index(graph).zoom(neighborhood, step=step, directed=directed)


def neighborhood_chain(
    graph: LabeledGraph,
    center: Node,
    radii: Tuple[int, ...] = (2, 3),
    *,
    directed: bool = False,
) -> Tuple[Neighborhood, ...]:
    """Convenience: build neighbourhoods of ``center`` at each radius in ``radii``.

    Used by the figure-reproduction harness to produce the Figure 3(a)
    and 3(b) fragments in one call; the shared index runs one BFS for
    the whole chain.
    """
    index = _shared_index(graph)
    if center not in graph:
        raise NodeNotFoundError(center)
    return tuple(index.neighborhood(center, radius, directed=directed) for radius in radii)


def eccentricity_bound(graph: LabeledGraph, center: Node, *, directed: bool = False) -> int:
    """Smallest radius whose neighbourhood covers every node reachable from ``center``.

    Zooming out beyond this radius never reveals anything new, so the
    interactive session uses it to disable the zoom action.
    """
    return _shared_index(graph).eccentricity_bound(center, directed=directed)
