"""Max-min information games and exponent programs at small alphabets."""

from .capacity import inner_min_channel, solve_capacity
from .exponents import (
    exponent_sweep,
    memoryless_exponent_variant,
    pseudo_sphere_packing,
    solve_exponent_program,
)
from .inequalities import FairInequalityReport, check_fair_inequalities
from .problems import (
    ChannelFamily,
    Distortion,
    FairMarking,
    GameProblem,
    GameSolution,
    Hull,
    InputLaw,
    Marking,
    channel_family_from_dict,
)

__all__ = [
    "ChannelFamily",
    "Distortion",
    "FairInequalityReport",
    "FairMarking",
    "GameProblem",
    "GameSolution",
    "Hull",
    "InputLaw",
    "Marking",
    "channel_family_from_dict",
    "check_fair_inequalities",
    "exponent_sweep",
    "inner_min_channel",
    "memoryless_exponent_variant",
    "pseudo_sphere_packing",
    "solve_capacity",
    "solve_exponent_program",
]
