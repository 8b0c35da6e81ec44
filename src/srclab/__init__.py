"""srclab: numerical tensor calculus on sub-Riemannian frames.

Builds the horizontal (metric, torsion-free) connection and its
semi-symmetric transformation on user-specified manifolds, evaluates the
Schouten curvature tensors and derived invariants, and verifies the
identities relating them as residual checks over sampled points.
"""
from .catalog import CatalogEntry, PiVariant, builtin, catalog_names
from .connections import (ConnectionField, OneFormData, covariant_derivative_T,
                          koszul_connection, nabla_oneform, oneform_derivative,
                          semi_connection, torsion)
from .curvature import (CharacteristicTensor, CurvatureBundle,
                        characteristic_tensor, conformal_difference_formula,
                        conformal_tensor, curvature_relation_terms,
                        projective_difference_formula, projective_tensor,
                        s_tensor, schouten_curvature)
from .errors import (DimensionMismatch, DomainError, MetricNotSPD, ParseError,
                     RankTooSmall, SingularFrame, SrclabError, UnknownEntry,
                     ValidationError)
from .jets import Expression, Jet, fd_crosscheck, jet_eval
from .manifold import (FrameSnapshot, ManifoldSpec, VectorFieldSpec, project_h,
                       sample_points, snapshot)
from .parser import (SpecDocument, parse_document, parse_manifold,
                     parse_scalar_expression, serialize_document,
                     serialize_manifold)
from .verifier import (CheckRecord, CheckSpec, Report, SuiteConfig,
                       check_flatness_criterion, check_group_manifold, run_suite)

__version__ = "0.1.0"
