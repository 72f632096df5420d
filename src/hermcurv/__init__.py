"""Hermitian curvature engine and constant-scalar-curvature solvers."""

__version__ = "0.1.0"
