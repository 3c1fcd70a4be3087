"""Exact computation with discrete valuations on function fields of conics.

Given a quaternion algebra (a, b) over a base field E carrying a discrete
nondyadic valuation v, this package decides whether v extends to the conic
function field F = E(x)(sqrt(a*x^2 + b)) with a residue field that is
transcendental but not ruled, and computes every constructive object on the
way: Gauss extensions, value groups, explicit residue fields, values and
residues of elements of F, and the infinite families of rational-residue
extensions in the negative case.
"""

from .conic import (AnalysisReport, ConicFieldElement, ConicFunctionField,
                    DistinguishedExtension, RationalFamilyMember,
                    ResidueConicDesc, ResidueRationalDesc, analyze,
                    distinguished_value_group, rational_residue_family)
from .fields import (FF, FFElement, FlatQuotient, FunctionField, GF, Poly,
                     PolyRing, QQ, RatFunc, RationalField, factor,
                     is_irreducible, is_square, poly_gcd,
                     square_class_reduce, squarefree_decomposition,
                     sqrt_exact)
from .gauss import (GaussExtension, INERT, QuadraticExtensionAnalysis,
                    RAMIFIED, SPLIT_PAIR, gauss_extension, gauss_residue,
                    quadratic_extension_analysis, subfield_degree)
from .oracle import (OracleReport, degree_oracle, hensel_count,
                     isotropy_search, valuation_axiom_fuzz)
from .quaternion import (ExtensionVerdict, NO_EXTENSION_ALGEBRA_SPLIT,
                         NO_EXTENSION_SPLIT_RESIDUE, NormalizedPresentation,
                         ODD_UNIT, QuaternionAlgebra, RAMIFIED_ONLY,
                         SplitResult, UNIT_UNIT, UNRAMIFIED_EXTENSION,
                         decide_unramified_extension, hilbert_symbol,
                         is_split, normalize, quaternion_isomorphic,
                         replay_transcript, residue_algebra)
from .value import INFINITY, Value, ValueGroup
from .valuation import (InfinitePlaceValuation, PAdicValuation,
                        PlaceValuation, Valuation)

__version__ = "0.1.0"
