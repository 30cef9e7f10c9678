"""Random shapes for the tests: hulls of uniform points in the unit ball and disk,
and interior points."""

import math

import numpy as np
from scipy.spatial import ConvexHull

from isolab.polytope import StarPolyhedron


def random_convex_polytope(rng: np.random.Generator, npoints: int = 12) -> StarPolyhedron:
    """Convex hull of uniform points in the unit ball, apex at the centroid."""
    if npoints < 8:
        raise ValueError("need at least 8 points")
    g = rng.standard_normal((npoints, 3))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    pts = g * rng.uniform(0.0, 1.0, (npoints, 1)) ** (1.0 / 3.0)
    hull = ConvexHull(pts)
    verts = pts[hull.vertices]
    remap = {old: new for new, old in enumerate(hull.vertices)}
    centroid = verts.mean(axis=0)
    facets = []
    for simplex, eq in zip(hull.simplices, hull.equations):
        tri = [remap[i] for i in simplex]
        a, b, c = (pts[i] for i in simplex)
        n = np.cross(b - a, c - a)
        if n @ eq[:3] < 0:  # orient counterclockwise seen from outside
            tri[1], tri[2] = tri[2], tri[1]
        facets.append(tuple(tri))
    return StarPolyhedron(3, verts, tuple(facets), centroid)


def random_convex_polygon(rng: np.random.Generator, npoints: int = 10) -> np.ndarray:
    """CCW vertex array of the hull of uniform points in the unit disk."""
    ang = rng.uniform(0.0, 2.0 * math.pi, npoints)
    rad = np.sqrt(rng.uniform(0.0, 1.0, npoints))
    pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    hull = ConvexHull(pts)
    return pts[hull.vertices]  # scipy returns 2D hull vertices in CCW order


def random_interior_point(p: StarPolyhedron, rng: np.random.Generator) -> np.ndarray:
    """A strictly interior point: a random convex combination of the vertices."""
    w = rng.dirichlet(np.ones(len(p.vertices)))
    return w @ p.vertices
