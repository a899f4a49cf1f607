"""A lattice plan's operator on every node, assembled from its row blocks,
and traced memory in units of whole arrays.

Lattice plans keep ``s``, ``b`` and ``h`` on level 1 of the image chain and
evaluate them on level 0 one row block at a time; these helpers stack the
blocks, so tests can state the operator on every node.  Memory tests state
their bounds in float arrays of ``R²`` nodes or of level 1's nodes, the units
of the README.
"""
import tracemalloc

import numpy as np


def full_fields(plan):
    """``s``, ``b`` and ``h`` on every node of a lattice plan."""
    blocks = list(plan.rows())
    return tuple(np.vstack([block[k] for block in blocks]) for k in (1, 2, 3))


def full_apply(plan, phi):
    """``T phi`` on every node: ``s * phi[P] + b`` on lattice plans, ``apply`` otherwise."""
    if not plan.lattice:
        return plan.apply(phi)
    s, b, _ = full_fields(plan)
    return s * phi[np.ix_(plan.px, plan.py)] + b


def stack_into(heights):
    """A row-block consumer that writes each block into ``heights``."""
    def put(r0, rows):
        heights[r0:r0 + len(rows)] = rows
    return put


def traced_peak(run, nodes: int):
    """``run()``'s result and its traced peak in float arrays of ``nodes`` nodes.

    Only what ``run`` allocates counts, not the arrays alive at the call.
    """
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / (nodes * np.dtype(float).itemsize)


def level_nodes(plan) -> int:
    """The nodes of level 1, ``image(P)``, of a lattice plan."""
    return len(plan.x_level) * len(plan.y_level)
