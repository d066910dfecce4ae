"""Exact arithmetic for an odd-order family of linearizable rational recurrences.

The recurrence x[n+2k+1] x[n] = x[n+2k] x[n+1] + a (x[n+k] + x[n+k+1]) is
iterated exactly (rational seeds) or symbolically (Laurent polynomials in
generic seeds); its conserved quantity K is computed by four independent
routes, and the linearization, determinant, reversibility and Chebyshev
closed-form identities are verified with zero tolerance.
"""

from .closed_form import (
    ClosedFormCoeffs,
    chebyshev_tu,
    eval_closed_form,
    extract_coeffs,
)
from .engine import (
    RecurrenceSpec,
    SequenceWindow,
    apply_sigma,
    check_reversibility,
    phi,
    phi_inverse,
    raw_window,
    xi_residual,
)
from .errors import HHRecError
from .invariants import (
    ExplicitIterates,
    KBreakdown,
    PeriodicCoeffs,
    abg_coeffs,
    delta,
    explicit_iterates,
    inhom_coeffs,
    k_breakdown,
    k_cramer,
    k_formula,
    k_prime,
    k_ratio,
    linear_relation_residual,
    monodromy_k,
    nu_invariant,
    operator_identity_residual,
    periodic_coeffs,
    wronskian4_det,
)
from .laurent import LaurentPolynomial, RationalFunction, format_laurent, parse_laurent
from .matrix import det_bareiss, matrix_det
from .rational import format_rational, parse_rational
from .verifier import (
    TrialConfig,
    VerificationReport,
    detect_linear_recurrence,
    random_spec,
    run_campaign,
)

__version__ = "0.1.0"
