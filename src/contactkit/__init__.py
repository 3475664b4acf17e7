"""Numerical toolkit for closed contact manifolds.

Explicit contact forms on a small zoo of manifolds, pointwise Reeb and
contact-Hamiltonian structure, Reeb-flow integration with ergodicity
diagnostics, and invariant polynomials of torus and unitary actions,
including their behavior under prequantization of the 2-sphere.
"""

from .dual import Dual, value, epsilon
from .fields import (ScalarField, OneForm, VectorField, constant_field,
                     lie_bracket, split_point)
from .manifold import (ContactManifold, GeometryError, DegenerateFrameError,
                       ContactDegeneracyError, ProjectionError)
from .zoo import (standard_sphere, torus3, degenerate_torus, weighted_sphere,
                  unit_cotangent_sphere, catalog, sphere_reeb_closed_form,
                  torus_reeb_closed_form, weighted_reeb_closed_form,
                  weighted_flow_closed_form, round_geodesic_closed_form,
                  hopf_projection)
from .integrate import IntegralResult, contact_volume, default_threads
from .hamiltonian import (Hamiltonian, constant_hamiltonian,
                          field_to_hamiltonian, hamiltonian_to_field,
                          is_reeb_invariant, bracket, bracket_hamiltonian,
                          adjoint, NestedDualError)
from .flows import (FlowTrajectory, IntegrationError, integrate_flow,
                    flow_points, transported_flow, conformal_factor,
                    strictness_check, birkhoff_average, space_average,
                    orbit_coverage, min_return_distance)
from .chernweil import (GroupAction, PositivityError, torus_shift_action,
                        diagonal_torus_action, unitary_action, moment,
                        moment_field, action_strictness, invariant_polynomial_I,
                        pullback_polynomial, even_positivity_check,
                        reeb_circle_pullback)
from .prequant import (Prequantization, FiberError, hopf_prequantization,
                       base_integral, section, lift, descend,
                       normalize_hamiltonian, random_base_function,
                       fiber_integration_check, prequantization_relation_check,
                       euler_number)

__version__ = "0.1.0"

__all__ = [
    "Dual", "value", "epsilon",
    "ScalarField", "OneForm", "VectorField", "constant_field", "lie_bracket",
    "split_point",
    "ContactManifold", "GeometryError", "DegenerateFrameError",
    "ContactDegeneracyError", "ProjectionError",
    "standard_sphere", "torus3", "degenerate_torus", "weighted_sphere",
    "unit_cotangent_sphere", "catalog", "sphere_reeb_closed_form",
    "torus_reeb_closed_form", "weighted_reeb_closed_form",
    "weighted_flow_closed_form", "round_geodesic_closed_form", "hopf_projection",
    "IntegralResult", "contact_volume", "default_threads",
    "Hamiltonian", "constant_hamiltonian", "field_to_hamiltonian",
    "hamiltonian_to_field", "is_reeb_invariant", "bracket", "bracket_hamiltonian",
    "adjoint", "NestedDualError",
    "FlowTrajectory", "IntegrationError", "integrate_flow", "flow_points",
    "transported_flow", "conformal_factor", "strictness_check",
    "birkhoff_average", "space_average", "orbit_coverage", "min_return_distance",
    "GroupAction", "PositivityError", "torus_shift_action",
    "diagonal_torus_action", "unitary_action", "moment", "moment_field",
    "action_strictness", "invariant_polynomial_I", "pullback_polynomial",
    "even_positivity_check", "reeb_circle_pullback",
    "Prequantization", "FiberError", "hopf_prequantization", "base_integral",
    "section", "lift", "descend", "normalize_hamiltonian",
    "random_base_function", "fiber_integration_check",
    "prequantization_relation_check", "euler_number",
]
