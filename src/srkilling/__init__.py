"""Contact sub-Riemannian structures from orthonormal frames: normalized
contact form and Reeb field, the canonical metric torsion-free connection
and its curvature, isometry generator spaces, and numerical transport and
reconstruction of infinitesimal isometries."""

__version__ = "0.1.0"
