"""Strategies and playout machinery over compiled arenas.

A strategy maps a ``Position`` to a timed move.  The position holds the
current configuration, its compiler-declared role, the moves available
there, and the counters ``playout`` keeps as it goes: the machine step
being simulated, the free delays already taken and whether Tortoise has
verified.  No strategy looks at the run behind it, so the cost of one
decision does not grow with the length of the run.

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
    StepTable,
    TimedAction,
    TimedRun,
    available_moves,
    config_key,
    initial_rha_config,
    run_duration,
    timed_step,
)
from .rsm import CALL_ACTION, RET_ACTION, Location, call
from .tcm import INITIAL, TwoCounterMachine, ZeroCheck, tcm_run, tcm_step

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


@dataclass(frozen=True)
class Position:
    """What a strategy sees at a decision: the configuration, its role
    (``role_at``), the available moves (``StepTable.moves``), the machine
    step being simulated (instruction anchors entered so far minus one,
    at least 0), the number of free-delay decisions already taken, and
    whether a Tortoise role's verify action has been played."""

    config: RhaConfiguration
    role: Optional[Role]
    moves: List[Tuple[str, Interval]]
    step: int
    delays: int
    verified: bool


TimedStrategy = Callable[[Position], TimedAction]


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


def _is_free_delay(role: Optional[Role]) -> bool:
    """Is this the role of one of Achilles' two free delays of a scaler?"""
    return role is not None and role.kind in (FIRST, SECOND)


def decision_slot(arena: CompiledArena, position: Position) -> Optional[str]:
    """If the position is an addressable Tortoise decision, return its
    slot, like "div1.check1" or "branch".  Verification decisions inside
    certificate sub-gadgets are not addressable and yield None."""
    role, config = position.role, position.config
    if role is None:
        return None
    if role.kind in (POSITIVE, ZERO):
        return arena.slots.get(config.location.name)
    if role.kind not in (CHECK1, CHECK2) or not config.context:
        return None
    owner = arena.slots.get(config.context[-1][0])
    return None if owner is None else f"{owner}.{role.kind}"


# ---------------------------------------------------------------------------
# Achilles strategies
# ---------------------------------------------------------------------------


def _default_move(position: Position, prefer: Optional[str] = None) -> TimedAction:
    """The move of a decision no strategy rule covers: ``prefer`` at delay
    0 if it is offered so, else the first move offered at delay 0, else
    the first move at its earliest delay, or inside its interval when the
    lower bound is open (only hand-built models have one)."""
    if not position.moves:
        raise HarnessError(f"no move available at {position.config.location}")
    zero = Fraction(0)
    for action, ivl in position.moves:
        if (prefer is None or action == prefer) and ivl.contains(zero):
            return TimedAction(zero, action)
    if prefer is not None:
        return _default_move(position)
    action, ivl = position.moves[0]
    if ivl.lo_closed:
        return TimedAction(ivl.lo, action)
    return TimedAction(ivl.lo + 1 if ivl.hi is None else (ivl.lo + ivl.hi) / 2, action)


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
        # the prefix of tcm_run(machine, DEFAULT_STEP_BOUND) read so far
        machine_trace = [INITIAL]

    def machine_config(step: int):
        while len(machine_trace) <= min(step, DEFAULT_STEP_BOUND) and (nxt := tcm_step(machine, machine_trace[-1])):
            machine_trace.append(nxt)
        if step >= len(machine_trace):
            raise HarnessError("playout ran past the machine trace")
        return machine_trace[step]

    def strategy(position: Position) -> TimedAction:
        v = position.config.valuation
        role = position.role
        if role is None:
            return _default_move(position)
        if role.kind in (FIRST, SECOND):
            kind, operand, n = role.gadget
            if role.kind == FIRST:
                delay = v[operand] / n if kind == "div" else v[operand] * n
            else:
                delay = v[role.holder]
            return TimedAction(delay, position.moves[0][0])
        if role.kind == BRANCH:
            if machine_trace is None:
                raise HarnessError("branch assertion reached but no machine was supplied")
            mcfg = machine_config(position.step)
            ins = machine.instructions[mcfg.pc]
            if not isinstance(ins, ZeroCheck):
                raise HarnessError(f"machine step {position.step} is not a zero-check")
            positive = mcfg.counter(ins.counter) > 0
            return TimedAction(Fraction(0), role.actions[0 if positive else 1])
        if role.kind == CERT:
            x, y = v["x"], v["y"]
            tests = zip(role.actions, role.rule)
            return TimedAction(Fraction(0), next((a for a, t in tests if CERT_TESTS[t](x, y)), role.actions[-1]))
        return _default_move(position)

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

    def strategy(position: Position) -> TimedAction:
        move = base(position)
        if position.delays != ordinal or not _is_free_delay(position.role):
            return move
        deviated = move.delay + offset
        if deviated < 0:
            raise HarnessError(f"deviation at ordinal {ordinal} yields a negative delay")
        return TimedAction(deviated, move.action)

    return strategy


# ---------------------------------------------------------------------------
# Tortoise strategies
# ---------------------------------------------------------------------------


def tortoise_skip_all(arena: CompiledArena) -> TimedStrategy:
    """Never verify: always continue the simulation with delay 0.  The
    continue action is listed first at every Tortoise decision."""

    return _default_move


def canonical_slot(slot: str) -> str:
    """The slot as ``decision_slot`` reports it: "div1" -> "div1.check1"."""
    return slot if slot == "branch" or "." in slot else f"{slot}.{CHECK1}"


def known_slots(arena: CompiledArena) -> List[str]:
    """Every slot ``decision_slot`` can report in the arena."""
    return sorted({s if s == "branch" else f"{s}.{check}" for s in arena.slots.values() for check in (CHECK1, CHECK2)})


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

    def strategy(position: Position) -> TimedAction:
        v = position.config.valuation
        role = position.role
        if role is None or role.kind not in TORTOISE_ROLES:
            return _default_move(position)
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
        return _default_move(position, role.actions[0] if cheated else None)

    return strategy


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

    def strategy(position: Position) -> TimedAction:
        if not position.verified and position.step == step:
            here = decision_slot(arena, position)
            if here == target_slot:
                return _default_move(position, position.role.actions[0])
        return _default_move(position)

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

    A final location is reported as soon as it is entered.  ``stuck``
    means the mover has no legal move; ``exhausted`` means that the step
    bound was hit first or that the elapsed time exceeded ``time_bound``
    (None disables it), in which case the run stops at once and ``steps``
    counts the moves played.  The counters of ``Position`` are kept
    here, one update per move.
    """
    if step_bound < 0:
        raise HarnessError(f"step bound must be nonnegative, not {step_bound}")
    if time_bound is not None and time_bound < 0:
        raise HarnessError(f"time bound must be nonnegative, not {fmt(time_bound)}")
    model, anchors = arena.model, arena.anchor_locations()
    table = StepTable(model)
    config = initial_rha_config(model, arena.entry.name, arena.initial_valuation)
    configs, played = [config], []
    zero = elapsed = Fraction(0)
    late = False  # elapsed > time_bound
    anchors_hit = int(config.location in anchors)
    delays, verified = 0, False
    outcome = "exhausted"
    for step in range(step_bound + 1):
        if late:
            break
        if config.location in arena.finals:
            outcome = "final"
            break
        if step == step_bound:
            break
        loc = config.location
        moves = table.moves(config)
        if not moves:
            outcome = "stuck"
            break
        if moves[0][0] in (CALL_ACTION, RET_ACTION):
            move = TimedAction(zero, moves[0][0])
            nxt = table.step(config, move)
        else:
            role = role_at(arena, config)
            position = Position(config, role, moves, max(0, anchors_hit - 1), delays, verified)
            mover = achilles if arena.partition.get(loc, Player.ACHILLES) is Player.ACHILLES else tortoise
            move = mover(position)
            try:
                nxt = table.step(config, move)
            except MoveError as exc:
                raise StrategyError(f"step {step}: illegal move {move} at {loc}: {exc}") from exc
            delays += _is_free_delay(role)
            verified = verified or (role is not None and role.kind in TORTOISE_ROLES and move.action == role.actions[0])
        if move.delay:
            elapsed += move.delay
            late = time_bound is not None and elapsed > time_bound
        configs.append(nxt)
        played.append(move)
        config = nxt
        anchors_hit += config.location in anchors
    run = TimedRun(tuple(configs), tuple(played))
    location = config.location if outcome == "final" else None
    return Verdict(outcome, run, location=location, elapsed=elapsed, steps=step)


def _faithful_decisions(
    arena: CompiledArena, machine: TwoCounterMachine, step_bound: int = DEFAULT_STEP_BOUND
) -> List[Tuple[Position, TimedAction]]:
    """Every (position, move) decision of the faithful unverified playout
    of at most ``step_bound`` moves, in order."""
    decisions: List[Tuple[Position, TimedAction]] = []

    def recorded(strategy: TimedStrategy) -> TimedStrategy:
        def play(position: Position) -> TimedAction:
            move = strategy(position)
            decisions.append((position, move))
            return move

        return play

    playout(arena, recorded(faithful_achilles(machine, arena)), recorded(tortoise_skip_all(arena)), step_bound, None)
    return decisions


def _faithful_addresses(
    arena: CompiledArena, machine: TwoCounterMachine, step_bound: int = DEFAULT_STEP_BOUND
) -> Tuple[int, List[Tuple[int, str]]]:
    """The number of free delays and the (step, slot) verification
    addresses, in order of first occurrence, of one faithful unverified
    playout of at most ``step_bound`` moves."""
    decisions = _faithful_decisions(arena, machine, step_bound)
    slots = ((position.step, decision_slot(arena, position)) for position, _move in decisions)
    addresses = list(dict.fromkeys((step, here) for step, here in slots if here is not None))
    return sum(_is_free_delay(position.role) for position, _move in decisions), addresses


def enumerate_verify_addresses(arena: CompiledArena, machine: TwoCounterMachine) -> List[Tuple[int, str]]:
    """All (step, slot) verification addresses crossed by the faithful
    unverified playout, in order of first occurrence."""
    return _faithful_addresses(arena, machine)[1]


def delay_ordinal_addresses(arena: CompiledArena, machine: TwoCounterMachine) -> List[Tuple[int, Tuple[int, str], Rational]]:
    """For each free-delay ordinal of the faithful playout: the ordinal,
    the (step, slot) address of the same-gadget decision that audits it,
    and the faithful delay value.  The auditing decision is the next
    addressable Tortoise decision after the delay."""
    out, pending = [], []  # pending: (ordinal, check, delay) of free delays not audited yet
    for position, move in _faithful_decisions(arena, machine):
        if _is_free_delay(position.role):
            check = CHECK1 if position.role.kind == FIRST else CHECK2
            pending.append((position.delays, check, move.delay))
            continue
        here = decision_slot(arena, position)
        if here is not None:
            prefix = here.split(".")[0]
            out.extend((ordinal, (position.step, f"{prefix}.{check}"), delay) for ordinal, check, delay in pending)
            pending = []
    return out


# ---------------------------------------------------------------------------
# Bounded exhaustive continuation search
# ---------------------------------------------------------------------------


def _candidate_delays(ivl: Interval) -> List[Rational]:
    """Sample delays from an enabled interval: its closed endpoints plus
    a midpoint, or ``lo + 1`` when it is unbounded.  In the compiled
    arenas every reachable choice behind a verification is a point or
    [0, inf), so endpoint sampling is exhaustive there."""
    out = [ivl.lo] if ivl.lo_closed else []
    if ivl.hi is None:
        return out + [ivl.lo + 1]
    if ivl.hi > ivl.lo:
        out += [ivl.hi] if ivl.hi_closed else []
        out.append((ivl.lo + ivl.hi) / 2)
    return out


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
        for action, ivl in available_moves(arena.model, current):
            for delay in _candidate_delays(ivl):
                nxt = timed_step(arena.model, current, TimedAction(delay, action))
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
