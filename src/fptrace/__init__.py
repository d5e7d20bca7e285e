"""Finite-blocklength fingerprinting workbench.

Builds randomized constant-composition fingerprint codes, simulates
collusion attacks under marking/distortion/fairness constraints, decodes
with empirical-information scores, and solves the small-alphabet capacity
and error-exponent games that calibrate them.
"""

__version__ = "0.1.0"

from .types_core import (  # noqa: F401
    InfoQuery,
    JointType,
    entropy,
    joint_type,
    log_type_class_size,
    multi_info,
    mutual_info,
    quantize_pmf,
)
from .codec import (  # noqa: F401
    CodeParams,
    Codebook,
    build_codebook,
    read_codebook,
    write_codebook,
)
from .collusion import (  # noqa: F401
    AttackResult,
    ChannelSpec,
    apply_memoryless,
    interleave,
)
from .decoders import (  # noqa: F401
    DecodeConfig,
    DecodeOutcome,
    guilt_indices,
    mpmi_decode,
    threshold_decode,
    verify_significance,
)
from .games import (  # noqa: F401
    Distortion,
    FairMarking,
    GameProblem,
    Hull,
    InputLaw,
    Marking,
    check_fair_inequalities,
    exponent_sweep,
    inner_min_channel,
    memoryless_exponent_variant,
    pseudo_sphere_packing,
    solve_capacity,
    solve_exponent_program,
)
