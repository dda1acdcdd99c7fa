"""Serre-Frobenius groups, angle ranks and Frobenius trace distributions of
Weil polynomials over finite fields."""

from .anglerank import RelationLattice, angle_rank_numeric
from .classify import (GeometricDecomposition, Partial, SerreFrobeniusGroup,
                       classify, report, sf_of_product)
from .newton import NewtonPolygonData, Stratum, newton_polygon, stratify
from .polyarith import (IsogenyFactorization, SupersingularMatch, base_change,
                        factor, supersingular_match,
                        supersingular_torsion_order)
from .weilpoly import (DEFAULT_PRECISION, RootSystem, WeilError,
                       WeilPolynomial, _lazy, format_label, from_middle,
                       parse_label, roots, validate)

__version__ = "0.1.0"

# The trace layer is the only user of numpy.  weilsf.distribution is bound
# and registered in sys.modules now, but its code (and numpy) runs on the
# first access to one of its attributes, so the classifier, the oracle and
# the CLI start without numpy; its names here resolve through __getattr__.
distribution = _lazy(__name__ + ".distribution")

_DISTRIBUTION_NAMES = frozenset({
    "MomentReport", "TraceHistogram", "empirical_moments", "exact_moments",
    "histogram", "moment_report", "trace_sequence",
})


def __getattr__(name):
    if name in _DISTRIBUTION_NAMES:
        return getattr(distribution, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "DEFAULT_PRECISION", "GeometricDecomposition", "IsogenyFactorization",
    "MomentReport", "NewtonPolygonData", "Partial", "RelationLattice",
    "RootSystem", "SerreFrobeniusGroup", "Stratum", "SupersingularMatch",
    "TraceHistogram", "WeilError", "WeilPolynomial", "angle_rank_numeric",
    "base_change", "classify", "empirical_moments", "exact_moments",
    "factor", "format_label", "from_middle", "histogram", "moment_report",
    "newton_polygon", "parse_label", "report", "roots", "sf_of_product",
    "stratify", "supersingular_match", "supersingular_torsion_order",
    "trace_sequence", "validate",
]
