"""Strategies and playout machinery over compiled arenas.

The faithful Achilles strategy simulates the counter machine: at every
free delay it supplies the contract delay of the enclosing gadget
(read off the current exact valuation), at branch points it follows the
machine's unique run, and everywhere else it takes the single forced
move.  Tortoise strategies either skip every verification or verify at
one addressed decision; after verifying they play delay 0 and the first
available action, which inside check components is the only move anyway.

Playouts are deterministic pure functions of their inputs.  Push and pop
moves are forced by the semantics and are executed without consulting
the strategies (with delay 0).
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .arith import Rational, fmt
from .compiler import (
    BRANCH,
    CERT,
    CERT_TESTS,
    CHECK1,
    CHECK2,
    FIRST,
    POSITIVE,
    SECOND,
    TORTOISE_ROLES,
    ZERO,
    CompiledArena,
    Role,
)
from .errors import HarnessError, MoveError, StrategyError
from .games import Player
from .rha import (
    Interval,
    RhaConfiguration,
    TimedAction,
    TimedRun,
    available_moves,
    config_key,
    initial_rha_config,
    is_exit,
    run_duration,
    timed_step,
)
from .rsm import Location, call
from .tcm import TwoCounterMachine, ZeroCheck, tcm_run

TimedStrategy = Callable[[TimedRun], TimedAction]

DEFAULT_STEP_BOUND = 10_000
DEFAULT_TIME_BOUND = Fraction(4)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a playout: the final classified event plus the trace."""

    outcome: str  # "final" | "stuck" | "exhausted"
    trace: TimedRun
    location: Optional[Location] = None
    elapsed: Rational = Fraction(0)
    steps: int = 0

    def reached_final(self) -> bool:
        return self.outcome == "final"


# ---------------------------------------------------------------------------
# Arena inspection: lookups in the compiler's role and slot tables
# ---------------------------------------------------------------------------


def role_at(arena: CompiledArena, config: RhaConfiguration) -> Optional[Role]:
    """The compiler-declared role of the configuration's location.  A node
    shared by all callers (the rta3 delay cell's entry) takes its role from
    the call port it was entered through.  Call ports themselves are forced
    and play no role."""
    loc = config.location
    if loc.kind == "call":
        return None
    role = arena.roles.get(loc)
    if role is None and loc.kind == "node" and config.context:
        role = arena.roles.get(call(config.context[-1][0], loc.name))
    return role


def free_delay_role(arena: CompiledArena, config: RhaConfiguration):
    """If the configuration is a free-delay node of a scaler gadget,
    return (role, (kind, operand, n)) with role "first" or "second"."""
    role = role_at(arena, config)
    if role is None or role.kind not in (FIRST, SECOND):
        return None
    return role.kind, role.gadget


def decision_slot(arena: CompiledArena, config: RhaConfiguration) -> Optional[Tuple[int, str]]:
    """If the configuration is an addressable Tortoise decision, return
    (instruction index, slot) with slot like "div1.check1" or "branch".
    Verification decisions inside certificate sub-gadgets are not
    addressable and yield None."""
    role = role_at(arena, config)
    if role is None:
        return None
    if role.kind in (POSITIVE, ZERO):
        return arena.slots.get(config.location.name)
    if role.kind not in (CHECK1, CHECK2) or not config.context:
        return None
    owner = arena.slots.get(config.context[-1][0])
    if owner is None:
        return None
    return owner[0], f"{owner[1]}.{role.kind}"


def anchors_hit(arena: CompiledArena, run: TimedRun) -> int:
    anchor_set = arena.anchor_locations()
    return sum(1 for cfg in run.configs if cfg.location in anchor_set)


def current_step(arena: CompiledArena, run: TimedRun) -> int:
    """Machine step the playout is currently executing (0-based)."""
    return max(0, anchors_hit(arena, run) - 1)


# ---------------------------------------------------------------------------
# Achilles strategies
# ---------------------------------------------------------------------------


def _forced_move(arena: CompiledArena, config: RhaConfiguration) -> TimedAction:
    moves = available_moves(arena.model, config)
    if not moves:
        raise HarnessError(f"no move available at {config.location}")
    action, intervals = moves[0]
    ivl = intervals[0]
    if ivl.contains(Fraction(0)):
        return TimedAction(Fraction(0), action)
    if ivl.lo_closed:
        return TimedAction(ivl.lo, action)
    # open lower bound: any interior point works; compiled arenas only
    # produce closed bounds, so this is a fallback for hand-built models
    hi = ivl.hi if ivl.hi is not None else ivl.lo + 2
    return TimedAction((ivl.lo + hi) / 2, action)


def faithful_achilles(machine: Optional[TwoCounterMachine], arena: CompiledArena) -> TimedStrategy:
    """The simulating strategy: contract delays at every measurement,
    machine-run branch assertions at zero-checks, forced moves elsewhere.
    ``machine`` may be None for arenas without branch assertions."""
    machine_trace = None
    if machine is not None:
        if len(arena.instruction_anchor) not in (0, len(machine.instructions)):
            raise HarnessError(
                "arena/machine mismatch: "
                f"{len(arena.instruction_anchor)} anchors for {len(machine.instructions)} instructions"
            )
        machine_trace, _halted = tcm_run(machine, DEFAULT_STEP_BOUND)

    def strategy(run: TimedRun) -> TimedAction:
        config = run.last()
        v = config.valuation
        role = role_at(arena, config)
        if role is None:
            return _forced_move(arena, config)
        if role.kind in (FIRST, SECOND):
            kind, operand, n = role.gadget
            if role.kind == FIRST:
                delay = v[operand] / n if kind == "div" else v[operand] * n
            else:
                delay = v[role.holder]
            return TimedAction(delay, available_moves(arena.model, config)[0][0])
        if role.kind == BRANCH:
            if machine_trace is None:
                raise HarnessError("branch assertion reached but no machine was supplied")
            step = current_step(arena, run)
            if step >= len(machine_trace):
                raise HarnessError("playout ran past the machine trace")
            mcfg = machine_trace[step]
            ins = machine.instructions[mcfg.pc]
            if not isinstance(ins, ZeroCheck):
                raise HarnessError(f"machine step {step} is not a zero-check")
            positive = mcfg.counter(ins.counter) > 0
            return TimedAction(Fraction(0), role.actions[0 if positive else 1])
        if role.kind == CERT:
            x, y = v["x"], v["y"]
            tests = zip(role.actions, role.rule)
            return TimedAction(Fraction(0), next((a for a, t in tests if CERT_TESTS[t](x, y)), role.actions[-1]))
        return _forced_move(arena, config)

    return strategy


def deviated_achilles(
    machine: Optional[TwoCounterMachine],
    arena: CompiledArena,
    ordinal: int,
    offset: Rational,
) -> TimedStrategy:
    """The faithful strategy with ``offset`` added to the delay of the
    ordinal-th free-delay decision (0-based, counted along the playout)."""
    base = faithful_achilles(machine, arena)

    def strategy(run: TimedRun) -> TimedAction:
        move = base(run)
        if free_delay_role(arena, run.last()) is None:
            return move
        seen = sum(
            1
            for i in range(len(run.configs) - 1)
            if free_delay_role(arena, run.configs[i]) is not None
        )
        if seen == ordinal:
            deviated = move.delay + offset
            if deviated < 0:
                raise HarnessError(f"deviation at ordinal {ordinal} yields a negative delay")
            return TimedAction(deviated, move.action)
        return move

    return strategy


# ---------------------------------------------------------------------------
# Tortoise strategies
# ---------------------------------------------------------------------------


def _first_zero_move(arena: CompiledArena, config: RhaConfiguration) -> TimedAction:
    moves = available_moves(arena.model, config)
    if not moves:
        raise HarnessError(f"no move available at {config.location}")
    for action, intervals in moves:
        if intervals[0].contains(Fraction(0)):
            return TimedAction(Fraction(0), action)
    action, intervals = moves[0]
    return TimedAction(intervals[0].lo, action)


def tortoise_skip_all(arena: CompiledArena) -> TimedStrategy:
    """Never verify: always continue the simulation with delay 0.  The
    continue action is listed first at every Tortoise decision."""

    def strategy(run: TimedRun) -> TimedAction:
        return _first_zero_move(arena, run.last())

    return strategy


def parse_slot(slot: str) -> Tuple[str, str]:
    """Normalize a slot address: "div1" means "div1.check1"."""
    if slot == "branch":
        return "branch", ""
    if "." in slot:
        prefix, which = slot.split(".", 1)
    else:
        prefix, which = slot, "check1"
    if not prefix.startswith("div") or which not in ("check1", "check2"):
        raise HarnessError(f"bad verification slot {slot!r}")
    return prefix, which


def canonical_slot(slot: str) -> str:
    """The slot as ``decision_slot`` reports it: "div1" -> "div1.check1"."""
    prefix, which = parse_slot(slot)
    return "branch" if prefix == "branch" else f"{prefix}.{which}"


def known_slots(arena: CompiledArena) -> List[str]:
    prefixes = {prefix for _instruction, prefix in arena.slots.values()}
    return sorted({p if p == "branch" else f"{p}.{check}" for p in prefixes for check in (CHECK1, CHECK2)})


def check_decision(arena: CompiledArena, config: RhaConfiguration):
    """If the configuration is a scaler verification decision (inside or
    outside certificates), return (which, params) with which in
    {"check1", "check2"} and params the gadget's (kind, operand, n)."""
    role = role_at(arena, config)
    if role is None or role.kind not in (CHECK1, CHECK2):
        return None
    return role.kind, role.gadget


def decode_encoding(valuation) -> Optional[Tuple[int, int, int]]:
    """Recover (k, c1, c2) from an exact encoding valuation, or None when
    the values are not of the encoded shape."""
    x, y = valuation.get("x"), valuation.get("y")
    if not x or not y or x.numerator != 1 or y.numerator != 1:
        return None

    def split(n: int) -> Optional[Tuple[int, int]]:
        twos = threes = 0
        while n % 2 == 0:
            n //= 2
            twos += 1
        while n % 3 == 0:
            n //= 3
            threes += 1
        return (twos, threes) if n == 1 else None

    ypart = split(y.denominator)
    xpart = split(x.denominator)
    if ypart is None or xpart is None or ypart[1] != 0:
        return None
    k = ypart[0]
    c, d = xpart[0] - k, xpart[1] - k
    if c < 0 or d < 0:
        return None
    return k, c, d


def tortoise_auditor(arena: CompiledArena) -> TimedStrategy:
    """The adaptive verifier: audit a measurement exactly when the
    measured delay is off-contract, and challenge a branch assertion
    exactly when it contradicts the encoded counter values.  Against
    this strategy a faithful Achilles is never interrupted, while any
    unfaithful move runs into a check it cannot complete."""

    def strategy(run: TimedRun) -> TimedAction:
        config = run.last()
        v = config.valuation
        role = role_at(arena, config)
        if role is None or role.kind not in TORTOISE_ROLES:
            return _first_zero_move(arena, config)
        if role.kind in (CHECK1, CHECK2):
            kind, operand, n = role.gadget
            holder = role.holder
            if role.kind == CHECK1:
                cheated = (n * v[holder] != v[operand]) if kind == "div" else (v[holder] != n * v[operand])
            else:
                cheated = v[operand] != v[holder]
        else:
            decoded = decode_encoding(v)
            cheated = True
            if decoded is not None:
                _k, c, d = decoded
                value = c if role.counter == "c1" else d
                cheated = not (value > 0 if role.kind == POSITIVE else value == 0)
        if cheated:
            return _zero_move(arena, config, role.actions[0])
        return _first_zero_move(arena, config)

    return strategy


def _zero_move(arena: CompiledArena, config: RhaConfiguration, action: str) -> TimedAction:
    """``action`` with delay 0 if it is available so, else the first move
    that is."""
    for available, intervals in available_moves(arena.model, config):
        if available == action and intervals[0].contains(Fraction(0)):
            return TimedAction(Fraction(0), action)
    return _first_zero_move(arena, config)


def tortoise_verify_at(arena: CompiledArena, step: int, slot: str) -> TimedStrategy:
    """Skip every verification until the addressed decision of machine
    step ``step`` (0-based), then enter the addressed check component;
    afterwards play delay 0 and the first available action."""
    if step < 0:
        raise HarnessError("verification step must be nonnegative")
    target_slot = canonical_slot(slot)
    universe = known_slots(arena)
    if target_slot not in universe:
        raise HarnessError(f"slot {slot!r} does not exist in this arena (known: {universe})")
    verify_actions = frozenset(r.actions[0] for r in arena.roles.values() if r.kind in TORTOISE_ROLES)

    def strategy(run: TimedRun) -> TimedAction:
        config = run.last()
        if not any(m.action in verify_actions for m in run.moves):
            here = decision_slot(arena, config)
            if here is not None and here[1] == target_slot and current_step(arena, run) == step:
                return _zero_move(arena, config, role_at(arena, config).actions[0])
        return _first_zero_move(arena, config)

    return strategy


# ---------------------------------------------------------------------------
# Playout
# ---------------------------------------------------------------------------


def playout(
    arena: CompiledArena,
    achilles: TimedStrategy,
    tortoise: TimedStrategy,
    step_bound: int = DEFAULT_STEP_BOUND,
    time_bound: Optional[Rational] = DEFAULT_TIME_BOUND,
) -> Verdict:
    """Deterministic playout from the arena's entry configuration.

    A final location is reported as soon as it is entered, provided the
    elapsed time does not exceed ``time_bound`` (None disables the
    bound).  ``stuck`` means the mover has no legal move; ``exhausted``
    means the step bound was hit first.
    """
    config = initial_rha_config(arena.model, arena.entry.name, arena.initial_valuation)
    run = TimedRun((config,))
    elapsed = Fraction(0)
    for step in range(step_bound):
        config = run.last()
        if config.location in arena.finals and (time_bound is None or elapsed <= time_bound):
            return Verdict("final", run, location=config.location, elapsed=elapsed, steps=step)
        loc = config.location
        if loc.kind == "call" or is_exit(arena.model, loc):
            moves = available_moves(arena.model, config)
            if not moves:
                return Verdict("stuck", run, elapsed=elapsed, steps=step)
            move = TimedAction(Fraction(0), moves[0][0])
            try:
                nxt = timed_step(arena.model, config, move)
            except MoveError:
                # push/pop rejected by the target invariant: no legal move
                return Verdict("stuck", run, elapsed=elapsed, steps=step)
        else:
            if not available_moves(arena.model, config):
                return Verdict("stuck", run, elapsed=elapsed, steps=step)
            owner = arena.partition.get(loc, Player.ACHILLES)
            mover = achilles if owner is Player.ACHILLES else tortoise
            move = mover(run)
            try:
                nxt = timed_step(arena.model, config, move)
            except MoveError as exc:
                raise StrategyError(f"step {step}: illegal move {move} at {loc}: {exc}") from exc
        elapsed += move.delay
        run = TimedRun(run.configs + (nxt,), run.moves + (move,))
    config = run.last()
    if config.location in arena.finals and (time_bound is None or elapsed <= time_bound):
        return Verdict("final", run, location=config.location, elapsed=elapsed, steps=step_bound)
    return Verdict("exhausted", run, elapsed=elapsed, steps=step_bound)


def enumerate_verify_addresses(arena: CompiledArena, machine: TwoCounterMachine) -> List[Tuple[int, str]]:
    """All (step, slot) verification addresses crossed by the faithful
    unverified playout, in order of first occurrence."""
    verdict = playout(arena, faithful_achilles(machine, arena), tortoise_skip_all(arena), time_bound=None)
    seen: List[Tuple[int, str]] = []
    run = verdict.trace
    for i, config in enumerate(run.configs):
        here = decision_slot(arena, config)
        if here is None:
            continue
        prefix_run = TimedRun(run.configs[: i + 1], run.moves[:i])
        address = (current_step(arena, prefix_run), here[1])
        if address not in seen:
            seen.append(address)
    return seen


def count_free_delays(arena: CompiledArena, machine: TwoCounterMachine) -> int:
    """Number of free-delay decisions along the faithful unverified playout."""
    verdict = playout(arena, faithful_achilles(machine, arena), tortoise_skip_all(arena), time_bound=None)
    return sum(1 for cfg in verdict.trace.configs[:-1] if free_delay_role(arena, cfg) is not None)


def delay_ordinal_addresses(arena: CompiledArena, machine: TwoCounterMachine) -> List[Tuple[int, Tuple[int, str], Rational]]:
    """For each free-delay ordinal of the faithful playout: the ordinal,
    the (step, slot) address of the same-gadget decision that audits it,
    and the faithful delay value."""
    verdict = playout(arena, faithful_achilles(machine, arena), tortoise_skip_all(arena), time_bound=None)
    run = verdict.trace
    out = []
    ordinal = 0
    for i, config in enumerate(run.configs[:-1]):
        role = free_delay_role(arena, config)
        if role is None:
            continue
        which, _params = role
        # The auditing decision is the next Tortoise decision after the delay.
        for j in range(i + 1, len(run.configs)):
            here = decision_slot(arena, run.configs[j])
            if here is not None:
                prefix_run = TimedRun(run.configs[: j + 1], run.moves[:j])
                check = CHECK1 if which == FIRST else CHECK2
                slot_prefix, _which = parse_slot(here[1])
                out.append(
                    (ordinal, (current_step(arena, prefix_run), f"{slot_prefix}.{check}"), run.moves[i].delay)
                )
                break
        ordinal += 1
    return out


# ---------------------------------------------------------------------------
# Bounded exhaustive continuation search
# ---------------------------------------------------------------------------


def _candidate_delays(intervals: List[Interval]) -> List[Rational]:
    """Sample delays from an enabled set: endpoints plus a midpoint.  In
    the compiled arenas every reachable choice behind a verification is a
    point or [0, inf), so endpoint sampling is exhaustive there."""
    out: List[Rational] = []
    for ivl in intervals:
        if ivl.lo_closed:
            out.append(ivl.lo)
        if ivl.hi is not None and ivl.hi_closed and ivl.hi != ivl.lo:
            out.append(ivl.hi)
        if ivl.hi is not None and ivl.hi > ivl.lo:
            out.append((ivl.lo + ivl.hi) / 2)
        if ivl.hi is None:
            out.append(ivl.lo + 1)
    unique = []
    for d in out:
        if d not in unique:
            unique.append(d)
    return unique


def reachable_final_bounded(arena: CompiledArena, config: RhaConfiguration, depth: int) -> bool:
    """Can any continuation (either player moving arbitrarily) reach a
    final location within ``depth`` moves?  Used to certify punishment of
    deviations: after a failed check no final location remains reachable."""
    frontier = [(config, 0)]
    visited = {config_key(config)}
    while frontier:
        current, d = frontier.pop()
        if current.location in arena.finals:
            return True
        if d >= depth:
            continue
        for action, intervals in available_moves(arena.model, current):
            for delay in _candidate_delays(intervals):
                try:
                    nxt = timed_step(arena.model, current, TimedAction(delay, action))
                except MoveError:
                    continue
                key = config_key(nxt)
                if key not in visited:
                    visited.add(key)
                    frontier.append((nxt, d + 1))
    return False


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class Report:
    ok: bool
    entries: List[dict] = field(default_factory=list)
    failure: Optional[str] = None

    def to_json(self) -> dict:
        return {"ok": self.ok, "failure": self.failure, "entries": self.entries}


def check_encoding(verdict: Verdict, machine: TwoCounterMachine, arena: CompiledArena) -> Report:
    """Compare the valuation at every instruction entry against the
    exact encoding of the machine run (rational equality on x, y, z;
    the rsa4 scratch u carries no meaning and is not compared)."""
    from .compiler import expected_valuation

    machine_trace, _ = tcm_run(machine, DEFAULT_STEP_BOUND)
    anchor_set = arena.anchor_locations()
    entries: List[dict] = []
    hit = 0
    ok = True
    failure = None
    for config in verdict.trace.configs:
        if config.location not in anchor_set:
            continue
        if hit >= len(machine_trace):
            ok = False
            failure = f"anchor {hit} has no matching machine step"
            break
        mcfg = machine_trace[hit]
        expected_loc = arena.instruction_anchor.get(mcfg.pc)
        expected = expected_valuation(hit, mcfg.c1, mcfg.c2)
        actual = {k: config.valuation[k] for k in ("x", "y", "z")}
        match = actual == expected and config.location == expected_loc
        entries.append(
            {
                "step": hit,
                "instruction": mcfg.pc,
                "location": str(config.location),
                "expected": {k: fmt(v) for k, v in expected.items()},
                "actual": {k: fmt(v) for k, v in actual.items()},
                "ok": match,
            }
        )
        if not match and ok:
            ok = False
            failure = f"encoding mismatch at step {hit} ({config.location})"
        hit += 1
    return Report(ok, entries, failure)


def check_time_ledger(verdict: Verdict, arena: CompiledArena) -> Report:
    """Assert the duration ledger: instruction k takes strictly less
    than 2 * 2^-k, and the total stays below 4."""
    anchor_set = arena.anchor_locations()
    marks: List[Rational] = []
    elapsed = Fraction(0)
    for i, config in enumerate(verdict.trace.configs):
        if config.location in anchor_set:
            marks.append(elapsed)
        if i < len(verdict.trace.moves):
            elapsed += verdict.trace.moves[i].delay
    total = run_duration(verdict.trace)
    entries: List[dict] = []
    ok = True
    failure = None
    boundaries = marks + [total]
    for k in range(len(marks)):
        spent = boundaries[k + 1] - boundaries[k]
        budget = Fraction(2, 2 ** k)
        fine = spent < budget
        entries.append(
            {"step": k, "elapsed": fmt(spent), "budget": fmt(budget), "ok": fine}
        )
        if not fine and ok:
            ok = False
            failure = f"instruction {k} took {fmt(spent)} >= {fmt(budget)}"
    if total >= 4:
        ok = False
        failure = failure or f"total duration {fmt(total)} >= 4"
    entries.append({"total": fmt(total), "bound": "4/1", "ok": total < 4})
    return Report(ok, entries, failure)


# ---------------------------------------------------------------------------
# Trace export
# ---------------------------------------------------------------------------


def trace_records(verdict: Verdict) -> List[dict]:
    """One JSON record per move of the trace."""
    records = []
    elapsed = Fraction(0)
    for i, move in enumerate(verdict.trace.moves):
        config = verdict.trace.configs[i]
        elapsed += move.delay
        records.append(
            {
                "step": i,
                "location": str(config.location),
                "context_depth": config.depth(),
                "valuation": {k: fmt(v) for k, v in config.valuation.items()},
                "delay": fmt(move.delay),
                "action": move.action,
                "elapsed_total": fmt(elapsed),
            }
        )
    return records


def export_trace(verdict: Verdict, path: str) -> None:
    """Write the trace as JSON lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in trace_records(verdict):
            handle.write(json.dumps(record) + "\n")
