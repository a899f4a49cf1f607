"""A plan's operator on every node, assembled from its row blocks, a plan
forced onto the bilinear branch, and traced memory in units of whole arrays.

Both plans apply ``T phi = s * B phi + b``.  Lattice plans keep ``s`` and
``b`` on level 2 of the image chain, ``image(P)`` of level 1, and evaluate
them on levels 1 and 0 one row block at a time; these helpers stack the
blocks, so tests can state the operator on every node, with the gather
``B`` written out as a reference.  A plan's levels are the products of
its axes' (``plan.axes``, :class:`fractsurf.grid.Axis`).
Memory tests state their bounds in float arrays of ``R²`` nodes or of level
1's nodes, the units of the README.
"""
import math
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
        return s * phi[np.ix_(*(a.p for a in plan.axes))] + b
    return s * four_corner_gather(phi, *weights(plan)) + b


def weights(plan):
    """``(ix, wx, iy, wy)``: each axis's pull-back, the bilinear gather's indices and weights."""
    ax, ay = plan.axes
    return ax.ix, ax.w, ay.ix, ay.w


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
    return math.prod(len(a.level(1)) for a in plan.axes)


def level_2(plan):
    """Level 2 of a lattice plan, where it holds ``s`` and ``b``, as ``np.ix_`` node indices."""
    return np.ix_(*(a.level(2) for a in plan.axes))


def level_2_nodes(plan) -> int:
    """The nodes of level 2, ``image(P)`` of level 1, of a lattice plan."""
    return math.prod(len(a.level(2)) for a in plan.axes)
