"""Exact tope-space filtrations, homology maps, and cosheaves for oriented matroids.

The package works entirely over the integers and GF(2).  Build an oriented
matroid from covectors or from a rational hyperplane arrangement, or load a
builtin example; then compute the three filtrations of its tope space, push
chains to the homology of the Salvetti complex, and verify the stalk-level
structure over the matroid fan.
"""

from .algebras import cordovil_dual, epsilon, nbc_sets, projectivize
from .corpus import load, names
from .cosheaf import (
    FanCone,
    cosheaf_map,
    fan_cones,
    flag_lift,
    impossibility_check,
    stalk_matroid,
    verify_naturality,
    verify_ses,
    verify_theorem_C,
)
from .filtrations import (
    KalininCertificate,
    asymptotic,
    brick,
    brick_certificate,
    kalinin_K,
    prefix_chain,
    qbv,
    quillen_Q,
    quillen_Z_demo,
    tilde_a,
    verify_theorem_A,
    verify_theorem_B,
    vg_lower,
    viro_bv,
)
from .om import (
    Arrangement,
    Flag,
    NotCovectors,
    OrientedMatroid,
    ParseError,
    SignVector,
    check_covector_axioms,
    enumerate_flags,
    initial_matroid,
    make_flag,
    om_from_arrangement,
    om_from_covectors,
    parse_arrangement,
    tope_flag_set,
)
from .salvetti import get_salvetti, homology_mod2, homology_Z

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "FanCone",
    "Flag",
    "KalininCertificate",
    "NotCovectors",
    "OrientedMatroid",
    "ParseError",
    "SignVector",
    "asymptotic",
    "brick",
    "brick_certificate",
    "check_covector_axioms",
    "cordovil_dual",
    "cosheaf_map",
    "enumerate_flags",
    "epsilon",
    "fan_cones",
    "flag_lift",
    "get_salvetti",
    "homology_Z",
    "homology_mod2",
    "impossibility_check",
    "initial_matroid",
    "kalinin_K",
    "load",
    "make_flag",
    "names",
    "nbc_sets",
    "om_from_arrangement",
    "om_from_covectors",
    "parse_arrangement",
    "prefix_chain",
    "projectivize",
    "qbv",
    "quillen_Q",
    "quillen_Z_demo",
    "stalk_matroid",
    "tilde_a",
    "tope_flag_set",
    "verify_naturality",
    "verify_ses",
    "verify_theorem_A",
    "verify_theorem_B",
    "verify_theorem_C",
    "vg_lower",
    "viro_bv",
]
