"""A plan's operator on every node, assembled from its row blocks, a plan
forced onto the bilinear branch, and traced memory in units of whole arrays.

Both plans apply ``T phi = s * B phi + b``.  Lattice plans keep ``s`` and
``b`` on level 1 of the image chain and evaluate them on level 0 one row
block at a time; these helpers stack the blocks, so tests
can state the operator on every node, with the gather ``B`` written out as
a reference.
Memory tests state their bounds in float arrays of ``R²`` nodes or of level
1's nodes, the units of the README.
"""
import tracemalloc

import numpy as np

from fractsurf import ifs


def full_fields(plan):
    """``s`` and ``b`` on every node of a plan."""
    blocks = list(plan.rows())
    return tuple(np.vstack([block[k] for block in blocks]) for k in (1, 2))


def four_corner_gather(values, ix, wx, iy, wy):
    """Reference bilinear gather: all four corners at once."""
    wx = wx[:, None]
    wy = wy[None, :]
    v00 = values[np.ix_(ix, iy)]
    v10 = values[np.ix_(ix + 1, iy)]
    v01 = values[np.ix_(ix, iy + 1)]
    v11 = values[np.ix_(ix + 1, iy + 1)]
    return ((1 - wx) * ((1 - wy) * v00 + wy * v01)
            + wx * ((1 - wy) * v10 + wy * v11))


def full_apply(plan, phi):
    """``T phi = s * B phi + b`` on every node.

    ``B phi`` is ``phi[P]`` on lattice plans and the four-corner formula
    with the plan's indices and weights otherwise.
    """
    s, b = full_fields(plan)
    if plan.lattice:
        return s * phi[np.ix_(plan.px, plan.py)] + b
    return s * four_corner_gather(phi, plan.ix, plan.wx, plan.iy, plan.wy) + b


def force_bilinear(monkeypatch):
    """From here on ``ifs.OperatorGrid`` builds bilinear plans on every grid.

    On a lattice grid the plan then keeps the weights of 0 and 1 that the
    pull-back gives and gathers them bilinearly, as on a non-uniform grid.
    """
    class BilinearPlan(ifs.OperatorGrid):
        lattice = property(lambda self: False, lambda self, decided: None)

    monkeypatch.setattr(ifs, "OperatorGrid", BilinearPlan)


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
