"""Exact census of dihedral octic extensions ordered by multi-invariants,
with the closed-form leading constant and its local decomposition."""

__version__ = "0.1.0"

from .arith import (
    CapacityError,
    DecomposedTriple,
    InvalidTripleError,
    SieveTables,
    SignedSquarefreeTriple,
    build_sieve,
    decompose_triple,
    kronecker,
    load_sieve_cache,
    primes_up_to,
    save_sieve_cache,
)
from .asymptotic import (
    EulerProductSpec,
    TamagawaParts,
    c_constant,
    c_tilde,
    constant_identity,
    leading_constant,
    lemma432_sums,
    predicted_count,
    tamagawa_constant,
)
from .census import (
    BoundBox,
    CensusReport,
    InertiaClass,
    InvariantVector,
    exact_census,
    inertia_class,
    invariants_of,
    splitting_rows,
)
from .charsum import (
    CharacterSpec,
    character_sum_f,
)
from .localsolve import (
    ClassKey,
    Place,
    REAL_PLACE,
    TWO_PLACE,
    find_conic_point,
    hilbert_symbol,
    hilbert_symbol_rows,
    in_E_set,
    local_conditions_rows,
    padic_oracle_rows,
    satisfies_local_conditions,
    u_weight,
)
