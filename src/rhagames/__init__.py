"""Reachability games on recursive state machines and recursive hybrid
automata, exact rational semantics, and counter-machine gadget compilation."""

from .arith import Rational, Valuation, fmt, rat, zero_valuation
from .games import FiniteArena, Player, Run, attractor, play, stop_index
from .rsm import (
    Location,
    RsmConfiguration,
    RsmModel,
    call,
    node,
    parse_location,
    reachable,
    ret,
    rsm_step,
    solve_reachability_game,
    solve_termination_game,
    terminates,
    validate,
)
from .rha import (
    RhaConfiguration,
    RhaModel,
    StepTable,
    TimedAction,
    TimedRun,
    classify,
    enabled_delays,
    is_glitch_free,
    is_hierarchical,
    run_duration,
    timed_step,
    validate_rha,
)
from .tcm import (
    Dec,
    Halt,
    Inc,
    MachineConfig,
    TwoCounterMachine,
    ZeroCheck,
    tcm_run,
    tcm_step,
)
from .compiler import (
    CompiledArena,
    build_div,
    build_instruction,
    compile,
    expected_valuation,
    host_arena,
)
from .harness import (
    Position,
    Verdict,
    check_encoding,
    check_time_ledger,
    deviated_achilles,
    enumerate_verify_addresses,
    export_trace,
    faithful_achilles,
    playout,
    reachable_final_bounded,
    tortoise_auditor,
    tortoise_skip_all,
    tortoise_verify_at,
)

__version__ = "0.1.0"
