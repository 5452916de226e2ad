"""Exact toolkit for the Lagrangian fibration on the cotangent bundle of a
degree-4 del Pezzo surface: section-space reconstruction, involutivity
certificates, quadric-pencil combinatorics, and level-surface probes.

All arithmetic is exact rational; nothing here ever rounds.
"""

from .pencil import PointConfig
from .sections import assemble_system, kernel_basis

__version__ = "0.1.0"
