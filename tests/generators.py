"""Hypothesis strategies for continuous interval models with near twins.

A lifted model is built from a selection on clusters of sample points.
Cluster centres lie at least 3/8 apart, and each cluster is one point or
a twin pair j * 2^-50 apart (j in 1..8).  Fix an up-to selection F on the
clusters.  A subset with at most one point per cluster picks its point in
the cluster that F picks; any other subset holds both twins of a pair and
picks at random.

Around a subset of the first kind the floor members (half its least gap
over 2^40, far above 8 * 2^-50) hold their own clusters and nothing
else, so every transversal picks in F's cluster.  Around a subset of the
second kind each floor member holds its own point alone.  Every lifted
model is therefore continuous, and its twins are twinned points, so the
continuity check has subsets to test.  A subset of the first kind that
holds a twin is *constrained*: flipping its pick to another of its
points makes the model non-continuous.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from hypersel.extension import make_partial
from hypersel.structures import GroundSet, rotational_tournament
from hypersel.vietoris import model_space

EPS = Fraction(1, 2**50)


def _cluster_selection(draw, clusters: int, bound: int, rotational: bool) -> dict:
    """F as {ascending cluster tuple: picked cluster}, random on every
    size, or the rotational tournament on pairs when asked for."""
    pairs = rotational_tournament(clusters).picks if rotational else None
    table = {}
    for k in range(1, bound + 1):
        for rank, s in enumerate(combinations(range(clusters), k)):
            table[s] = pairs[rank] if k == 2 and pairs else draw(st.sampled_from(s))
    return table


@st.composite
def lifted_models(draw, clusters=st.integers(3, 5), bounds=st.integers(2, 3),
                  twins=st.booleans(), rotational=st.booleans()):
    """(model, constrained): a lifted up-to model with at least one twin
    pair, and its constrained subsets as ascending point tuples.

    clusters and bounds draw the number of clusters and the bound, twins
    whether each cluster is a pair, and rotational whether F is the
    rotational tournament on pairs (drawn only for an odd cluster count).
    """
    c = draw(clusters)
    bound = draw(bounds)
    pattern = draw(st.lists(twins, min_size=c, max_size=c).filter(any))
    gaps = draw(st.lists(st.fractions(Fraction(3, 8), 2, max_denominator=8), min_size=c, max_size=c))
    f = _cluster_selection(draw, c, bound, c % 2 == 1 and draw(rotational))
    cluster_of = {}
    twinned = set()
    centre = Fraction(0)
    for k, (gap, pair) in enumerate(zip(gaps, pattern)):
        centre += gap
        cluster_of[centre] = k
        if pair:
            twin = centre + draw(st.integers(1, 8)) * EPS
            cluster_of[twin] = k
            twinned |= {centre, twin}
    pts = sorted(cluster_of)
    table = {}
    constrained = []
    for k in range(1, bound + 1):
        for s in combinations(pts, k):
            cs = tuple(cluster_of[p] for p in s)
            if len(set(cs)) < k:
                table[frozenset(s)] = draw(st.sampled_from(s))
                continue
            table[frozenset(s)] = s[cs.index(f[cs])]
            if k >= 2 and twinned.intersection(s):
                constrained.append(s)
    return model_space(pts, make_partial(GroundSet(tuple(pts)), "upto", bound, table)), constrained
