"""A lattice plan's operator on every node, assembled from its row blocks.

Lattice plans keep ``s``, ``b`` and ``h`` on level 1 of the image chain and
evaluate them on level 0 one row block at a time; these helpers stack the
blocks, so tests can state the operator on every node.
"""
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
