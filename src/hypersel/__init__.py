"""Selection structures on finite hyperspaces.

Total choice functions on n-subsets, their scores and
regularity obstructions, the small-class extension pipeline, exact
rational Vietoris models, and chain transfer machinery.
"""

__version__ = "0.1.0"
