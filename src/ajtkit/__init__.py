"""Toolkit for progression-closed subsets of prime fields, group-ring
vanishing identities, polynomial coefficient dualities, and nowhere-zero
solvability properties of matrices over F_p."""

__version__ = "0.1.0"
