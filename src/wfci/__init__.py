"""Exact combinatorial certificates for weighted complete intersections:
well-formedness, quasi-smoothness of general members, Fano/adjunction data,
and cylindricity verdicts with machine-checkable certificates."""

from .intarith import bezout, gcd_many, lcm_many, unimodular_complete
from .poly import (Coeff, GradedPolynomial, eligible_partners, generic_member,
                   representable, substitute, weighted_degree)
from .wps import (ChartDescription, NormalizationTrace, SingularStratum,
                  WeightVector, canonical_degree, is_well_formed, normalize,
                  singular_strata, torus_chart, wps_cylinder)
from .wci import (AdjunctionData, QsVerdict, WciDescriptor, adjunction,
                  general_qs, intersection_number, linear_cone_flags,
                  well_formed_ci)
from .cylinder import (CylinderVerdict, NormalFormResult,
                       check_codimc_generalized, check_nonexistence,
                       cylinder_chart, normal_form, replay_changes, verdict,
                       wps_verdict)

__version__ = "0.1.0"
