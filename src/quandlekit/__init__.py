"""Finite quandles, groups with distinguished generating sets, and the
functors that make the two sides equivalent categories.
"""

from .perm import (
    CapExceeded,
    DEFAULT_CAP,
    Perm,
    PermGroup,
    all_transpositions,
    close_group,
    compose,
    conjugate,
    cyclic_group,
    dihedral_group,
    dihedral_reflections,
    find_dihedral_presentation,
    group_from_lines,
    group_to_lines,
    identity,
    inverse,
    perm_from_text,
    perm_order,
    perm_to_text,
    symmetric_group,
)
from .quandle import (
    Quandle,
    SubquandleWitness,
    alexander_quandle,
    check_axioms,
    conjugation_quandle,
    dihedral,
    inn,
    inn_relative,
    is_faithful,
    is_fixed_point_free,
    quandle_from_text,
    quandle_to_text,
    subquandle_closure,
    trivial_quandle,
)
from .homs import (
    QuandleHom,
    check_hom,
    compose_homs,
    enumerate_homs,
    homs_to_dict,
    identity_hom,
    induced_injective,
    induced_surjective,
)
from .grpgen import (
    GenPair,
    StarMorphism,
    SurjMorphism,
    check_star_morphism,
    check_surj_morphism,
    compose_star,
    compose_surj,
    enumerate_group_homs,
    enumerate_star_morphisms,
    enumerate_surj_morphisms,
    extend_hom,
    genpair_from_text,
    genpair_to_text,
    identity_star,
    identity_surj,
    is_star_isomorphism,
    make_genpair,
    make_star_morphism,
    make_surj_morphism,
)
from .functors import (
    EquivalenceReport,
    G_inj_mor,
    G_surj_mor,
    eta_star,
    eta_surj,
    theta,
    to_pair,
    to_quandle,
    verify_equivalence,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
