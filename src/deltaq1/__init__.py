"""Exact-arithmetic expansions of the Delta operator image of e_n at q=1.

Combinatorial models (M-sequences, decorated Dyck paths and labeled
diagrams with a sign-reversing involution, listed object by object;
ordered set partition and tableau sequences, counted) are cross-checked
against an independent Macdonald eigenoperator computation, and that
against the forgotten-basis series (Haglund's identity), all over exact
integer and rational polynomial arithmetic in t.  The oracle imports
no other route's answer; ``verify`` holds every comparison.
"""

from .partitions import (
    Partition,
    distinct_orderings,
    padded_rearrangements,
    partitions_of,
    rearrangement_count,
    zee,
)
from .tarith import TPoly, TRat
from .symfunc import (
    BASES,
    SymFuncExpr,
    character,
    degree_bound,
    hall_inner,
    plethysm_geometric,
)
from .specialize import (
    forgotten_at_one,
    forgotten_at_one_minus_t,
    forgotten_coefficient,
    monomial_eval,
)
from .dyck import (
    DecoratedDyckPath,
    DyckPath,
    enumerate_decorated,
    enumerate_paths,
)
from .msequences import (
    MSequence,
    generic_polynomial,
    msequence_polynomial,
    msequences,
    osp_polynomial,
    ssyt_polynomial,
)
from .diagrams import (
    ColumnStack,
    LabeledDiagram,
    diagrams_of_weight,
    fixed_to_msequence,
    involution,
)
from .bijection import decorated_to_msequence, msequence_to_decorated
from .oracle import delta_e, delta_general, elementary_eigenvalue
from .verify import run_suite

__version__ = "0.1.0"
