"""Rigid derivations of simply-typed terms and their polarized symmetries.

The package interprets a simply-typed term at a point (a multiset context
and result type), enumerates the rigid derivations witnessing the point,
reading a redex's back from those of its beta-normal form, partitions
them into symmetry classes by the multiset collapse of the normal form's
derivations, counts each class's endomorphisms, and checks that the
resulting counts agree with the weighted-relational coefficient.  Every
count is taken without building a morphism: symmetry counts the
symmetries of types and derivation those of derivations.  The listing of
type hom-sets (groupoid) takes factorial time and no query calls it; the
rest of both listed groupoids, with their polarity, is a test oracle in
tests/reference.py.
"""

from .syntax import (
    ParseError, TypeCheckError, TypingContext,
    annotate, beta_normalize, parse_context, parse_simple_type, parse_term,
    term_to_text, type_to_text,
)
from .rigidtypes import (
    PointSpec, RefinementError, ResourceContext, Subject,
    canonicalize_point, parse_itype, parse_mit, parse_mset, point_from_json,
)
from .symmetry import MorphismError, sym_degrees_ctx, sym_degrees_it
from .derivation import (
    DerivationError, WitnessSet,
    enumerate_witnesses, multiset_collapse_term, partition_by_symmetry,
    resource_to_text, rt_context, rt_type,
)
from .wrel import NatInf, wrel_coefficient
from .collapse import (
    WitnessReport, positive_witnesses, prepare, verify_identities, weight_by_classes,
)

__version__ = "0.1.0"
