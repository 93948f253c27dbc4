"""Spectral solvers and phase diagnostics for dispersive propagation through
highly oscillatory potentials.  Import each name from its module."""

__version__ = "0.1.0"
