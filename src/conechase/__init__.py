"""Exact 2-local homotopy groups of mapping cones.

The package models the cell filtration of the fiber of a pinch map,
evaluates connecting maps through a small certified fact catalog, runs
the long-exact-sequence chases as replayable derivation scripts, and
resolves the final extensions with order-matching lift certificates.
"""

__version__ = "0.1.0"
