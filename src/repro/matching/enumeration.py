"""Generic backtracking enumeration over a candidate space.

This is the "enumeration phase" shared by all preprocessing-enumeration
matchers (GraphQL, CFL, CFQL).  Given complete candidate vertex sets Φ and
a matching order, it extends partial embeddings depth by depth; for the
vcFV verification step it is invoked with ``limit=1`` so it "returns
immediately after finding the first subgraph isomorphism" (Section III-B).

Two kernels implement the same contract, both walking the int bitmaps of
Φ (:mod:`repro.utils.bitset`) directly:

:func:`enumerate_embeddings_iterative` (the default)
    An explicit-stack kernel over the flat arrays of a compiled order
    (:class:`repro.matching.plan.CompiledOrder`).  The used-vertex set is
    an int bitmap, deadline polls are strided over units of work rather
    than per frame, the partial intersection Φ(u) ∩ N(...) over backward
    neighbors *below the parent* is memoized per stack frame and shared by
    sibling subtrees (GraphMini-style reuse), and the deepest level is
    counted with a single popcount instead of a per-candidate loop.

:func:`enumerate_embeddings_recursive`
    The original recursive kernel, kept verbatim as the reference
    implementation for the randomized parity suite.

The matching order must be *connected*: every vertex except the first needs
at least one neighbor earlier in the order.  All orders produced in this
library satisfy that for connected query graphs, and the precondition is
checked eagerly — once per compiled plan rather than once per data graph
when a :class:`~repro.matching.plan.QueryPlan` is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.labeled_graph import Graph
from repro.matching.candidates import CandidateSets
from repro.matching.plan import QueryPlan, compile_order
from repro.utils.bitset import bit_list
from repro.utils.timing import Deadline

__all__ = [
    "EnumerationResult",
    "enumerate_embeddings",
    "enumerate_embeddings_iterative",
    "enumerate_embeddings_recursive",
]

#: Units of enumeration work between deadline polls.  One unit is one
#: candidate considered (popped from a pool or counted at the deepest
#: level), so expiry is detected within ~`_CHECK_STRIDE` candidates just
#: like the recursive kernel's per-call polling, at a fraction of the cost.
_ENUM_STRIDE = 64


@dataclass
class EnumerationResult:
    """Outcome of one enumeration run.

    ``completed`` is ``False`` when the search stopped early because
    ``limit`` embeddings were found; a deadline expiry raises
    :class:`~repro.utils.errors.TimeLimitExceeded` instead of returning.
    """

    num_embeddings: int = 0
    embeddings: list[dict[int, int]] = field(default_factory=list)
    recursion_calls: int = 0
    completed: bool = True

    @property
    def found(self) -> bool:
        return self.num_embeddings > 0


def _validate_order(query: Graph, order: tuple[int, ...]) -> list[list[int]]:
    """Check the order covers all vertices connectedly; return, for each
    position, the query neighbors that appear earlier in the order.

    Compat shim: plan compilation (:func:`repro.matching.plan.compile_order`)
    performs this validation once per query; this wrapper remains for the
    recursive reference kernel and any external callers.
    """
    compiled = compile_order(query, tuple(order))
    return [
        [compiled.order[p] for p in positions] for positions in compiled.backward
    ]


def enumerate_embeddings_iterative(
    query: Graph,
    data: Graph,
    candidates: CandidateSets,
    order: tuple[int, ...] | list[int],
    limit: int | None = None,
    collect: bool = False,
    deadline: Deadline | None = None,
    plan: QueryPlan | None = None,
    prefix_cache: bool = True,
) -> EnumerationResult:
    """Iterative explicit-stack enumeration kernel (the default).

    Parameters match :func:`enumerate_embeddings`; additionally ``plan``
    supplies a pre-validated compiled order (skipping per-graph
    validation) and ``prefix_cache=False`` disables the sibling-shared
    intersection memo (used by bench-micro to isolate its effect).
    """
    order = tuple(order)
    result = EnumerationResult()
    if not order:
        # The empty query has exactly one (empty) embedding.
        result.num_embeddings = 1
        if collect:
            result.embeddings.append({})
        return result
    compiled = (
        plan.compiled_order(order) if plan is not None else compile_order(query, order)
    )
    ordv = compiled.order
    prefixes = compiled.prefix_positions
    extends = compiled.extends_previous
    n = len(ordv)
    result.recursion_calls = 1
    nbr = data.neighbor_bitmap

    if n == 1:
        pool = candidates.bits(ordv[0])
        cnt = pool.bit_count()
        if deadline is not None:
            deadline.check_every(cnt + 1)
        take = cnt if limit is None else min(cnt, limit)
        result.num_embeddings = take
        if limit is not None and cnt >= limit:
            result.completed = False
        if collect and take:
            u0 = ordv[0]
            result.embeddings = [{u0: v} for v in bit_list(pool)[:take]]
        return result

    last = n - 1
    cand_bits = [candidates.bits(u) for u in ordv]
    mapping_v = [0] * n  # data vertex committed at each depth
    pools = [0] * n  # un-tried candidate bits per live frame
    # Sibling-shared prefix memo: child_prefix[d] caches
    # Φ(order[d]) ∩ ~used ∩ ⋂ N(image of backward positions < d-1),
    # valid for the lifetime of frame d-1 (everything it reads is fixed
    # until that frame is popped and re-created).
    child_prefix = [0] * n
    child_prefix_ok = [False] * n
    used = 0
    work = 0

    pools[0] = cand_bits[0]
    depth = 0
    while depth >= 0:
        pool = pools[depth]
        if not pool:
            depth -= 1
            if depth >= 0:
                used ^= 1 << mapping_v[depth]
            continue
        low = pool & -pool
        pools[depth] = pool ^ low
        work += 1
        child = depth + 1
        if prefix_cache and child_prefix_ok[child]:
            pref = child_prefix[child]
        else:
            pref = cand_bits[child] & ~used
            for p in prefixes[child]:
                pref &= nbr(mapping_v[p])
            if prefix_cache:
                child_prefix[child] = pref
                child_prefix_ok[child] = True
        if extends[child]:
            cpool = pref & nbr(low.bit_length() - 1) & ~low
        else:
            cpool = pref & ~low
        if child == last:
            # Deepest level: the pool *is* the embedding set — count it
            # with one popcount instead of materialising each extension.
            result.recursion_calls += 1
            cnt = cpool.bit_count()
            if cnt:
                work += cnt
                if collect:
                    base = {ordv[i]: mapping_v[i] for i in range(depth)}
                    base[ordv[depth]] = low.bit_length() - 1
                    u_last = ordv[last]
                    take = cnt
                    if limit is not None:
                        take = min(cnt, limit - result.num_embeddings)
                    for w in bit_list(cpool)[:take]:
                        emb = dict(base)
                        emb[u_last] = w
                        result.embeddings.append(emb)
                if limit is not None and result.num_embeddings + cnt >= limit:
                    result.num_embeddings = limit
                    result.completed = False
                    break
                result.num_embeddings += cnt
            if deadline is not None and work >= _ENUM_STRIDE:
                deadline.check_every(work)
                work = 0
            continue
        if cpool:
            mapping_v[depth] = low.bit_length() - 1
            used |= low
            pools[child] = cpool
            child_prefix_ok[child + 1] = False
            depth = child
            result.recursion_calls += 1
        if deadline is not None and work >= _ENUM_STRIDE:
            deadline.check_every(work)
            work = 0
    return result


def enumerate_embeddings_recursive(
    query: Graph,
    data: Graph,
    candidates: CandidateSets,
    order: tuple[int, ...] | list[int],
    limit: int | None = None,
    collect: bool = False,
    deadline: Deadline | None = None,
    plan: QueryPlan | None = None,
) -> EnumerationResult:
    """The original recursive kernel, kept as the parity-test reference.

    ``plan`` is accepted for signature compatibility; the reference always
    re-validates the order itself.
    """
    del plan  # the reference deliberately takes the slow, obvious path
    order = tuple(order)
    result = EnumerationResult()
    if not order:
        # The empty query has exactly one (empty) embedding.
        result.num_embeddings = 1
        if collect:
            result.embeddings.append({})
        return result
    backward = _validate_order(query, order)
    n = len(order)
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def candidates_at(i: int) -> list[int]:
        """Data vertices consistent with the partial embedding at depth i.

        The pool is Φ(u) ∩ N(image) over every already-mapped query
        neighbor — one bitmap AND per neighbor, decoded once at the end.
        """
        u = order[i]
        if i == 0:
            return list(candidates[u])
        pool = candidates.bits(u)
        for u2 in backward[i]:
            pool &= data.neighbor_bitmap(mapping[u2])
            if not pool:
                return []
        return bit_list(pool)

    def recurse(i: int) -> bool:
        """Extend the embedding at depth ``i``; returns False to abort."""
        result.recursion_calls += 1
        if deadline is not None:
            deadline.check()
        u = order[i]
        for v in candidates_at(i):
            if v in used:
                continue
            if i + 1 == n:
                result.num_embeddings += 1
                if collect:
                    final = dict(mapping)
                    final[u] = v
                    result.embeddings.append(final)
                if limit is not None and result.num_embeddings >= limit:
                    result.completed = False
                    return False
            else:
                mapping[u] = v
                used.add(v)
                keep_going = recurse(i + 1)
                del mapping[u]
                used.discard(v)
                if not keep_going:
                    return False
        return True

    recurse(0)
    return result


def enumerate_embeddings(
    query: Graph,
    data: Graph,
    candidates: CandidateSets,
    order: tuple[int, ...] | list[int],
    limit: int | None = None,
    collect: bool = False,
    deadline: Deadline | None = None,
    plan: QueryPlan | None = None,
) -> EnumerationResult:
    """Enumerate subgraph isomorphisms from ``query`` to ``data``.

    Parameters
    ----------
    candidates:
        A *complete* candidate vertex set (Definition III.1).  Correctness
        only needs completeness; tighter sets just prune more.
    order:
        Connected matching order over the query vertices.
    limit:
        Stop after this many embeddings (``1`` = the verification step).
    collect:
        Keep the embeddings themselves (as ``{query vertex: data vertex}``
        dicts) rather than only counting.
    plan:
        Optional compiled :class:`~repro.matching.plan.QueryPlan`; when
        given, the order's validation and backward structure come from the
        plan's memo instead of being rebuilt for this data graph.
    """
    return enumerate_embeddings_iterative(
        query,
        data,
        candidates,
        order,
        limit=limit,
        collect=collect,
        deadline=deadline,
        plan=plan,
    )
