"""The CFL subgraph matcher (Bi et al., SIGMOD 2016), as modified by the
paper for subgraph query processing.

Filter phase — the CPI-style candidate construction (Section III-B "CFL"):

1. Pick a BFS root minimising ``|C_ini(u)| / d(u)`` (few seed candidates,
   high degree — CFL's root selection rule).
2. *Top-down generation* along the BFS tree ``q_t``: candidates of ``u``
   are data vertices with label ``L(u)`` adjacent to a candidate of ``u``'s
   tree parent, degree-feasible, and — *backward pruning* — adjacent to at
   least one candidate of every already-visited neighbor of ``u`` (this is
   where non-tree edges prune).
3. *Bottom-up refinement* in reverse BFS order: ``v`` stays in Φ(u) only if
   for every neighbor ``u'`` of ``u`` visited after ``u``, ``N(v) ∩ Φ(u')``
   is non-empty.

Both rules instantiate the paper's completeness observation — a candidate
may be dropped only when some query neighbor has no adjacent candidate —
so Φ stays complete (Definition III.1).

Enumeration phase: path-based, core-first ordering + the shared
backtracking enumerator.

Candidate sets are int bitmaps throughout (see :mod:`repro.utils.bitset`):
the "adjacent to at least one candidate" tests of both pruning rules are
single AND instructions against the data graph's memoized per-vertex
adjacency bitmaps.

Complexities match the paper: O(|E(q)|·|E(G)|) time, O(|V(q)|·|E(G)|)
space.
"""

from __future__ import annotations

from repro.graph.algorithms import bfs_tree, two_core
from repro.graph.labeled_graph import Graph
from repro.matching.base import PreprocessingMatcher
from repro.matching.candidates import CandidateSets, ldf_candidate_bits
from repro.matching.ordering import path_based_order
from repro.matching.plan import QueryPlan
from repro.utils.timing import Deadline

__all__ = ["CFLMatcher"]


def _adjacent_to_some(data: Graph, v: int, phi_u2: set[int]) -> bool:
    """Whether N(v) intersects Φ(u'), iterating the smaller side."""
    nbrs = data.neighbor_set(v)
    if len(nbrs) <= len(phi_u2):
        return any(w in phi_u2 for w in nbrs)
    return any(w in nbrs for w in phi_u2)


class CFLMatcher(PreprocessingMatcher):
    """Preprocessing-enumeration matcher with CFL's filter and order."""

    name = "CFL"

    # ------------------------------------------------------------------
    # Filter phase
    # ------------------------------------------------------------------

    def build_candidates(
        self,
        query: Graph,
        data: Graph,
        deadline: Deadline | None = None,
        plan: QueryPlan | None = None,
    ) -> CandidateSets | None:
        seeds = ldf_candidate_bits(query, data, deadline=deadline)
        if not all(seeds):
            return None
        root = self._select_root(query, [b.bit_count() for b in seeds])
        tree = plan.bfs_tree(root) if plan is not None else bfs_tree(query, root)
        visit_rank = {u: i for i, u in enumerate(tree.order)}

        phi: list[int] = [0] * query.num_vertices
        phi[root] = seeds[root]

        # ``v`` is adjacent to some candidate of ``u2`` iff ``v`` lies in
        # the union of the neighbor bitmaps of Φ(u2)'s members, so both
        # pruning rules below are one AND against that union — computed
        # once per query neighbor, not once per candidate.  Unions are
        # memoized per phase (Φ(u2) is final when a phase reads it).
        def adjacency_union(bits: int) -> int:
            mask = 0
            while bits:
                low = bits & -bits
                bits ^= low
                mask |= data.neighbor_bitmap(low.bit_length() - 1)
            return mask

        # Top-down generation with backward pruning.
        union_memo: dict[int, int] = {}
        for u in tree.order[1:]:
            if deadline is not None:
                deadline.check()
            parent = tree.parent[u]
            label_u = query.label(u)
            pool = 0
            bits = phi[parent]
            while bits:
                low = bits & -bits
                bits ^= low
                pool |= data.neighbor_label_bitmap(low.bit_length() - 1, label_u)
            pool &= data.degree_bitmap(query.degree(u))
            for u2 in query.neighbors(u):
                if not pool:
                    break
                if visit_rank[u2] < visit_rank[u] and u2 != parent:
                    mask = union_memo.get(u2)
                    if mask is None:
                        mask = union_memo[u2] = adjacency_union(phi[u2])
                    pool &= mask
            if not pool:
                return None
            phi[u] = pool

        # Bottom-up refinement.
        union_memo = {}
        for u in reversed(tree.order):
            if deadline is not None:
                deadline.check()
            kept = phi[u]
            for u2 in query.neighbors(u):
                if visit_rank[u2] > visit_rank[u]:
                    mask = union_memo.get(u2)
                    if mask is None:
                        mask = union_memo[u2] = adjacency_union(phi[u2])
                    kept &= mask
                    if not kept:
                        return None
            phi[u] = kept

        # Remember the tree for the ordering phase of this same query.
        self._last_tree = (query, tree)
        return CandidateSets.from_bitmaps(phi)

    @staticmethod
    def _select_root(query: Graph, seed_sizes: list[int]) -> int:
        """argmin over u of |C_ini(u)| / d(u) (CFL's root rule)."""
        return min(
            query.vertices(),
            key=lambda u: (seed_sizes[u] / max(query.degree(u), 1), u),
        )

    # ------------------------------------------------------------------
    # Ordering phase
    # ------------------------------------------------------------------

    def matching_order(
        self,
        query: Graph,
        data: Graph,
        candidates: CandidateSets,
        plan: QueryPlan | None = None,
    ) -> tuple[int, ...]:
        cached = getattr(self, "_last_tree", None)
        if cached is not None and cached[0] is query:
            tree = cached[1]
        else:
            # Ordering requested without a preceding filter run on this
            # query: rebuild the BFS tree from the same root rule.
            root = self._select_root(query, list(candidates.sizes()))
            tree = plan.bfs_tree(root) if plan is not None else bfs_tree(query, root)
        core = plan.two_core() if plan is not None else two_core(query)
        return path_based_order(query, tree, candidates, core=core)
