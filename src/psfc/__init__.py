"""Order-private sequential evaluation of public linear functions.

A client evaluates a secret composition order of K public invertible
matrices on M inputs using N non-colluding servers, keeping the order
hidden from every server.  The package contains the protocol engine
(scheduler, client, servers, transports), a brute-force correctness
oracle, and an audit suite that checks correctness, privacy, query
counts, and rate against the exact formulas.
"""

from .field import (
    DEFAULT_MODULUS,
    DimensionMismatch,
    InversionOfZero,
    mat_vec_mul,
    rank,
    sample_invertible_matrix,
    sample_uniform_vector,
    vec_add,
    vec_sub,
)
from .protocol import (
    InvalidPermutation,
    KTooLarge,
    MarginalQueryList,
    Permutation,
    RunConfig,
    compose_reference,
    enumerate_permutations,
    random_permutation,
)
from .rand import Rng
from .scheduler import (
    DependencyViolation,
    InvalidRegime,
    MissingValue,
    QueryPlan,
    build_plan,
    query_count,
    rate_bounds,
    run_plan,
)
from .runtime import (
    ChannelClosed,
    MalformedFrame,
    NonCanonicalElement,
    Server,
    SimTransport,
    TcpServerHost,
    TcpTransport,
    UnknownFunction,
    encode_message,
    generate_functions,
    generate_inputs,
    marginal_fingerprint,
)
from .client import (
    RunReport,
    outputs_to_bytes,
    run_protocol,
    unmask,
)
from .audit import (
    AttackCampaignResult,
    ConverseResult,
    FingerprintResult,
    GuardExceeded,
    RankDecayResult,
    RateVerdict,
    UniformityResult,
    attack_campaign,
    converse_counts,
    fingerprint_invariance,
    naive_chain_run,
    rank_decay_experiment,
    rate_report,
    sigma_attack,
    uniformity_test,
)

__version__ = "0.1.0"
