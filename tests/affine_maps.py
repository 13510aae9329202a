"""Per-cell affine maps and facet lookups that tests check the package against."""

from dataclasses import dataclass

import numpy as np

from brinkhdg.mesh import cell_geometry


@dataclass(frozen=True)
class AffineMap:
    """Affine cell map x = offset + jacobian @ x_ref with constant jacobian."""

    offset: np.ndarray
    jacobian: np.ndarray
    det: float
    inverse_jacobian: np.ndarray

    def apply(self, ref_points):
        return self.offset + np.asarray(ref_points, float) @ self.jacobian.T

    def pull_back(self, points):
        return (np.asarray(points, float) - self.offset) @ self.inverse_jacobian.T


def affine_map(mesh, c):
    """Affine map of cell c; raises ValueError on degenerate/non-affine cells."""
    offset, jac, det, inv = cell_geometry(mesh, [c])
    return AffineMap(offset=offset[0], jacobian=jac[0], det=float(det[0]),
                     inverse_jacobian=inv[0])


def local_facet(mesh, c, f):
    """Position of facet f in the facet list of cell c."""
    hits = np.nonzero(mesh.cell_facets[c] == f)[0]
    if hits.size == 0:
        raise ValueError(f"facet {f} is not a facet of cell {c}")
    return int(hits[0])
