"""The paper's algorithms: Strong Select, Harmonic Broadcast, baselines,
and the strongly-selective-family machinery they are built on."""

from repro.core.decay import DecayProcess, make_decay_processes, phase_length
from repro.core.harmonic import (
    HarmonicProcess,
    busy_round_bound,
    completion_bound,
    default_T,
    harmonic_number,
    make_harmonic_processes,
    sending_probability,
)
from repro.core.round_robin import (
    RoundRobinProcess,
    make_round_robin_processes,
    round_robin_bound,
)
from repro.core.runner import (
    algorithm_names,
    broadcast,
    make_processes,
    register_algorithm,
    suggested_round_limit,
)
from repro.core.ssf import (
    SelectiveFamily,
    find_violation,
    full_family,
    kautz_singleton_ssf,
    random_ssf,
    round_robin_family,
    verify_ssf,
)
from repro.core.strong_select import (
    StrongSelectProcess,
    StrongSelectSchedule,
    build_schedule,
    default_s_max,
    make_strong_select_processes,
)

__all__ = [
    "DecayProcess",
    "HarmonicProcess",
    "RoundRobinProcess",
    "SelectiveFamily",
    "StrongSelectProcess",
    "StrongSelectSchedule",
    "algorithm_names",
    "broadcast",
    "build_schedule",
    "busy_round_bound",
    "completion_bound",
    "default_T",
    "default_s_max",
    "find_violation",
    "full_family",
    "harmonic_number",
    "kautz_singleton_ssf",
    "make_decay_processes",
    "make_harmonic_processes",
    "make_processes",
    "make_round_robin_processes",
    "make_strong_select_processes",
    "phase_length",
    "random_ssf",
    "register_algorithm",
    "round_robin_bound",
    "round_robin_family",
    "sending_probability",
    "suggested_round_limit",
    "verify_ssf",
]
