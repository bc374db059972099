"""Dense oracles for the arccos space: the N x N distance table, the open-ball
mask it gives, and the O(N m) greedy net over it.

The program never forms these tables; the tests compare its sorted-run
volumes and its net, which walks ``node_distances`` one center at a time,
against them.
"""
import numpy as np


def distance_table(space):
    """d(x_i, x_j) = |arccos x_i - arccos x_j| for every node pair."""
    theta = np.arccos(space.points)
    return np.abs(theta[:, None] - theta[None, :])


def dense_volumes(space, r):
    """sigma(B(x_i, r)) at every node, as the mask (D < r) @ w."""
    return (distance_table(space) < r) @ space.weights


def greedy_net_centers(space, delta):
    """Admit a point iff it is at least delta from every admitted center."""
    theta = np.arccos(space.points)
    centers = np.empty(space.n, dtype=int)
    m = 0
    for idx in range(space.n):
        if np.all(np.abs(theta[idx] - theta[centers[:m]]) >= delta):
            centers[m] = idx
            m += 1
    return centers[:m]
