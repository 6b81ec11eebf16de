"""Deterministic topological sort shared by circuits and computation graphs."""

from __future__ import annotations

import heapq


def topo_sort(preds: dict) -> list | None:
    """Kahn's algorithm over ``{id: ids it depends on}``, or None on a cycle.

    Every id comes after all of its predecessors; among the ids that are
    ready at a step, the smallest is taken first, so the order is a pure
    function of the graph.
    """
    indeg = {nid: len(refs) for nid, refs in preds.items()}
    succs: dict = {nid: [] for nid in preds}
    for nid, refs in preds.items():
        for ref in refs:
            succs[ref].append(nid)
    ready = [nid for nid, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for s in succs[nid]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, s)
    return order if len(order) == len(preds) else None
