"""idealforge: a finite-scale workbench for Ramsey-type ideals.

Membership-positivity oracles, finite-sums and sparse-basis machinery,
canonical coloring classifiers, counterexample construction engines with
exact rational certificates, and a micro-scale reduction-map search.
"""

__version__ = "0.1.0"

from .adversary import (
    GammaMap,
    RnhCase1Bundle,
    RnhCase2Bundle,
    SearchBudget,
    Transcript,
    check_hnr_conditions,
    check_rnh_conditions,
    defeat_h_summable,
    defeat_r_hindman,
    defeat_r_summable,
    defeat_w_summable,
    fin2_to_h_map,
    fin2_to_r_map,
    replay_final_contradiction,
    verify_transcript,
)
from .canonical import (
    BlockBasis,
    CanonicalCase,
    NatColoring,
    PairColoring,
    classify_fs_on,
    classify_pairs_on,
    find_block_basis,
    find_canonical_subset,
)
from .ideals import (
    EdgeSet,
    IdealId,
    NatSet,
    ScaleParams,
    find_ap,
    find_clique,
    heavy_columns,
    is_positive,
    longest_ap,
    reciprocal_sum,
    tall_witness,
)
from .reduction import (
    FiniteIdealSpec,
    SearchOutcome,
    positive_family,
    search_reduction,
    verify_reduction,
)
from .report import Report, rational_str
from .sparse import (
    SparseBasis,
    VerySparseFlag,
    conflict_set,
    find_fs_subset,
    fs,
    is_sparse,
    is_very_sparse,
    very_sparse_subset,
)
