"""Exact symbolic kernel for the surface algebras k[x,y,z]/(x^n y - z^2 - h(x) z)."""

from .autgroup import (
    Automorphism,
    GroupStructure,
    compose,
    decompose,
    from_images,
    group_structure,
    identity,
    inverse,
    involution,
    parse_aut_word,
    recompose,
    scaling,
    shear,
)
from .cancellation import (
    CancellationWitness,
    build_witness,
    restrict_to_surface,
    verify_witness,
)
from .errors import (
    AlgebraError,
    InputError,
    NotCanonicalShape,
    NotDivisible,
    ParseError,
)
from .expmaps import (
    ExponentialMap,
    VerificationReport,
    build_exponential,
    degree,
    derivation,
    evaluate_at_one,
    expand_in_slice,
    is_invariant,
    make_exponential,
    solve_generator_images,
    verify_exponential,
)
from .grading import Homogenization, homogenize, parameter_weight
from .ioformats import (
    format_generator_map,
    format_relem,
    parse_generator_map,
    parse_poly,
    parse_ring_spec,
    parse_weights,
)
from .isoclass import IsoVerdict, classify, witness
from .polyring import Poly, WeightVector
from .scalars import FieldSpec, Scalar, binom, nth_roots
from .surface import (
    RElem,
    RingSpec,
    forced_y,
    normal_form,
    r_x_divide,
    reduce_presentation,
    substitute_poly,
)

__all__ = [name for name in dir() if not name.startswith("_")]
