"""srclab: numerical tensor calculus on sub-Riemannian frames.

Builds the horizontal (metric, torsion-free) connection and its
semi-symmetric transformation on user-specified manifolds, evaluates the
Schouten curvature tensors and derived invariants, and verifies the
identities relating them as residual checks over sampled points.
"""
from .catalog import CatalogEntry, PiVariant, builtin, catalog_names
from .connections import OneFormData
from .curvature import (CharacteristicTensor, CurvatureBundle, Evaluation,
                        conformal_difference_formula, conformal_tensor,
                        curvature_relation_terms, projective_difference_formula,
                        projective_tensor, s_tensor)
from .errors import (DimensionMismatch, DomainError, MetricNotSPD, ParseError,
                     RankTooSmall, SingularFrame, SrclabError, UnknownEntry,
                     ValidationError)
from .jets import Expression, fd_crosscheck
from .manifold import ManifoldSpec, VectorFieldSpec, sample_points
from .parser import (SpecDocument, parse_document, parse_manifold,
                     parse_scalar_expression, serialize_document,
                     serialize_manifold)
from .verifier import (CheckRecord, CheckSpec, Report, SuiteConfig,
                       check_flatness_criterion, check_group_manifold, run_suite)

__version__ = "0.1.0"
