"""Incremental reliability maintenance under database updates.

The Gray-code kernel (Theorem 4.2) already exploits the one-flip
observation — consecutive worlds differ in one atom, so one flip costs
one multiply.  This package lifts the same idea from *worlds* to
*databases*: when an atom's error probability changes or a tuple is
inserted/deleted, :class:`DeltaSession` updates the reliability answer
in time proportional to the change, not ``2 ** k`` — regrounding only
the clauses the touched atom can occur in, re-evaluating only the
compiled-diagram nodes above the atom's level.

Answers are bit-identical :class:`~fractions.Fraction` values: after
any update stream, ``session.probability()`` equals a from-scratch
``truth_probability`` on the current database (the Hypothesis suite in
``tests/delta/`` checks exactly this).
"""

from repro.delta.reground import DeltaGrounding
from repro.delta.session import DeltaSession

__all__ = ["DeltaSession", "DeltaGrounding"]
