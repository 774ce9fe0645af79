"""Recursive hybrid automata: rectangular constraints, flows, guards,
invariants, pass-by-value call semantics, and the exact timed interpreter.

The interpreter works over exact rationals only.  Flows are constant per
location, so over a delay every variable moves linearly; a rectangular
(hence convex) invariant therefore holds along ``[0, t]`` iff it holds
at both endpoints, and the set of delays enabling a guard is a single
rational interval.

A timed move is the RSM step of ``rhagames.rsm`` (``move_target``
decides where an action leads and whether it pushes or pops) plus time.
Call ports and exit nodes take their push/pop move with delay 0, under
the distinguished pseudo actions ``CALL_ACTION`` / ``RET_ACTION``.  On
pop, variables passed by value at the box are restored from the stack
frame; all others keep the callee's final value (pass-by-reference).

Every move must leave the target location's invariant satisfied: after
the reset on a local transition, at the callee entry on a push and at
the return port on a pop.  ``StepTable.moves`` (``available_moves``)
offers exactly the delays ``StepTable.step`` (``timed_step``) accepts, so
a push or pop whose target invariant fails is not offered at all.
"""

import operator
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from .arith import Rational, Valuation, fmt, rat
from .errors import ModelError, MoveError, ParseError
from .games import Player
from .rsm import (
    CALL_ACTION,
    RET_ACTION,
    Location,
    RsmComponent,
    RsmModel,
    callee_first_order,
    component_from_json,
    component_to_json,
    game_from_json,
    game_to_json,
    is_exit,
    move_target,
    node,
    parse_location,
    validate,
)

# The comparison each relation of an atom stands for.
_COMPARE = {"<": operator.lt, "<=": operator.le, "=": operator.eq, ">=": operator.ge, ">": operator.gt}
RELATIONS = tuple(_COMPARE)


@dataclass(frozen=True)
class Atom:
    """A single comparison ``variable <rel> bound`` with an integer bound."""

    var: str
    rel: str
    bound: int

    def holds(self, value: Rational) -> bool:
        # value = p/q with q > 0: value <rel> bound iff p <rel> bound*q, exactly
        compare = _COMPARE.get(self.rel)
        if compare is None:
            raise ModelError(f"unknown relation {self.rel!r}")
        return compare(value.numerator, self.bound * value.denominator)


@dataclass(frozen=True)
class RectConstraint:
    """A conjunction of atoms; ``TRUE`` is the empty conjunction and
    ``FALSE`` the distinguished unsatisfiable constraint."""

    atoms: Tuple[Atom, ...] = ()
    unsat: bool = False

    def holds(self, valuation: Valuation) -> bool:
        if self.unsat:
            return False
        return all(atom.holds(valuation[atom.var]) for atom in self.atoms)


TRUE = RectConstraint()
FALSE = RectConstraint(unsat=True)


def conj(*atoms: Tuple[str, str, int]) -> RectConstraint:
    """Build a constraint from (var, rel, bound) triples."""
    return RectConstraint(tuple(Atom(v, r, int(b)) for v, r, b in atoms))


@dataclass(frozen=True)
class Interval:
    """A rational interval of delays; ``hi`` of None means unbounded."""

    lo: Rational
    hi: Optional[Rational]
    lo_closed: bool = True
    hi_closed: bool = True

    def contains(self, t: Rational) -> bool:
        if t < self.lo or (t == self.lo and not self.lo_closed):
            return False
        if self.hi is not None and (t > self.hi or (t == self.hi and not self.hi_closed)):
            return False
        return True


ZERO = Rational(0)
ZERO_DELAY = Interval(ZERO, ZERO)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass
class RhaComponent(RsmComponent):
    """An RSM component whose boxes pass variable sets by value and whose
    transitions and locations carry guards, resets, invariants and flows."""

    pass_by_value: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    guards: Dict[Tuple[Location, str], RectConstraint] = field(default_factory=dict)
    invariants: Dict[Location, RectConstraint] = field(default_factory=dict)
    resets: Dict[Tuple[Location, str], FrozenSet[str]] = field(default_factory=dict)
    flows: Dict[Location, Dict[str, Rational]] = field(default_factory=dict)

    def guard(self, loc: Location, action: str) -> RectConstraint:
        return self.guards.get((loc, action), TRUE)

    def invariant(self, loc: Location) -> RectConstraint:
        return self.invariants.get(loc, TRUE)

    def reset_set(self, loc: Location, action: str) -> FrozenSet[str]:
        return self.resets.get((loc, action), frozenset())


class RhaModel(RsmModel):
    """A variable set plus components; structurally an RSM whose
    locations carry invariants, flows, guards, and resets."""

    def __init__(self, variables: Iterable[str], components: Iterable[RhaComponent]):
        super().__init__(components)
        self.variables: Tuple[str, ...] = tuple(variables)
        # Shared by every location without a declared flow; callers only read it.
        self._unit_flow: Dict[str, Rational] = {x: Rational(1) for x in self.variables}

    def flow_at(self, loc: Location) -> Dict[str, Rational]:
        return self.component_of_location(loc).flows.get(loc, self._unit_flow)


def validate_rha(model: RhaModel) -> List[str]:
    """Structural RSM checks plus hybrid-specific ones (pass sets,
    flow totality and nonnegativity, guard/invariant variables and
    relations)."""
    errors = validate(model)
    varset = set(model.variables)
    for comp in model.components:
        for b, passed in comp.pass_by_value.items():
            if b not in comp.boxes:
                errors.append(f"{comp.name}: pass-by-value for unknown box {b}")
            if not set(passed) <= varset:
                errors.append(f"{comp.name}: box {b} passes unknown variables {sorted(set(passed) - varset)}")
        for loc, flow in comp.flows.items():
            if set(flow) != varset:
                errors.append(f"{comp.name}: flow at {loc} is not total on the variable set")
            for x, r in flow.items():
                if r < 0:
                    errors.append(f"{comp.name}: negative flow {x}={r} at {loc}")
        for constraint in list(comp.invariants.values()) + list(comp.guards.values()):
            for atom in constraint.atoms:
                if atom.var not in varset:
                    errors.append(f"{comp.name}: constraint on unknown variable {atom.var}")
                if atom.rel not in RELATIONS:
                    errors.append(f"{comp.name}: unknown relation {atom.rel!r} in a constraint on {atom.var}")
        for (src, action), cleared in comp.resets.items():
            if not set(cleared) <= varset:
                errors.append(f"{comp.name}: reset of unknown variables {sorted(set(cleared) - varset)} on {action} at {src}")
    return errors


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def is_glitch_free(model: RhaModel) -> bool:
    """True iff every box passes either all variables by value or none."""
    varset = frozenset(model.variables)
    for comp in model.components:
        for b in comp.boxes:
            passed = comp.pass_by_value.get(b, frozenset())
            if passed and frozenset(passed) != varset:
                return False
    return True


def is_hierarchical(model: RhaModel) -> bool:
    """True iff the component call graph admits a strict topological order."""
    return callee_first_order(model) is not None


def classify(model: RhaModel) -> Tuple[str, Dict[str, str]]:
    """Classify the automaton as timed / stopwatch / general, along with
    a per-variable tag: a clock has rate 1 everywhere, a stopwatch rate
    0 or 1 everywhere."""
    flows = [model.flow_at(loc) for loc in model.all_locations()]
    tags: Dict[str, str] = {}
    for x in model.variables:
        rates = {flow[x] for flow in flows}
        if rates <= {Rational(1)}:
            tags[x] = "clock"
        elif rates <= {Rational(0), Rational(1)}:
            tags[x] = "stopwatch"
        else:
            tags[x] = "general"
    if all(tag == "clock" for tag in tags.values()):
        kind = "timed"
    elif all(tag in ("clock", "stopwatch") for tag in tags.values()):
        kind = "stopwatch"
    else:
        kind = "general"
    return kind, tags


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimedAction:
    delay: Rational
    action: str


@dataclass(frozen=True)
class RhaConfiguration:
    """Stack of (box, valuation-at-call) frames, current location, valuation."""

    context: Tuple[Tuple[str, Tuple[Rational, ...]], ...]
    location: Location
    valuation: Valuation

    def depth(self) -> int:
        return len(self.context)


def config_key(config: RhaConfiguration):
    """A hashable key for visited-set bookkeeping in searches."""
    return (config.context, config.location, tuple(sorted(config.valuation.items())))


def initial_rha_config(model: RhaModel, start_node: str, valuation: Valuation) -> RhaConfiguration:
    loc = node(start_node)
    comp = model.component_of_location(loc)
    if not comp.invariant(loc).holds(valuation):
        raise ModelError(f"initial valuation violates the invariant at {loc}")
    return RhaConfiguration((), loc, dict(valuation))


def _clip(window: tuple, constraint: RectConstraint, rates: Mapping[str, Rational], valuation: Valuation,
          cleared: FrozenSet[str] = frozenset()) -> Optional[tuple]:
    """The delays t in ``window`` (an ``Interval``'s fields, nonempty and
    nonnegative) after which the constraint holds, the ``cleared``
    variables being 0; None when empty.  A variable moves as
    ``value + rate*t``; ``rates`` has the nonzero rates."""
    if constraint.unsat:
        return None
    lo, hi, lo_closed, hi_closed = window
    for atom in constraint.atoms:
        var = atom.var
        rate = None if var in cleared else rates.get(var)
        if rate is None:  # constant over the delay
            if atom.holds(ZERO if var in cleared else valuation[var]):
                continue
            return None
        crossing = atom.bound - valuation[var]
        if rate != 1:
            crossing /= rate
        # It grows through the bound (flows are >= 0); at an equal end an open one wins.
        rel = atom.rel
        if rel == "=":  # one delay: keep it if the window has it
            if crossing < lo or (crossing == lo and not lo_closed) or (
                    hi is not None and (crossing > hi or (crossing == hi and not hi_closed))):
                return None
            lo, hi, lo_closed, hi_closed = crossing, crossing, True, True
            continue
        if rel in ("<", "<="):  # an upper bound on t
            if hi is None or crossing < hi or (crossing == hi and hi_closed):
                hi, hi_closed = crossing, rel == "<="
        elif crossing > lo or (crossing == lo and lo_closed):  # a lower bound on t
            lo, lo_closed = crossing, rel == ">="
        if hi is not None and (lo > hi or (lo == hi and not (lo_closed and hi_closed))):
            return None
    return lo, hi, lo_closed, hi_closed


class _Edge(NamedTuple):  # a local move
    target: Location
    guard: RectConstraint
    cleared: FrozenSet[str]
    target_invariant: RectConstraint


class _Local(NamedTuple):  # a location with local moves
    invariant: RectConstraint
    rates: Dict[str, Rational]  # the nonzero rates of its flow, the int 1 for rate 1
    edges: Dict[str, _Edge]  # by action, in definition order


class _Push(NamedTuple):  # a call port; target None when its push is not available
    target: Optional[Location]
    invariant: RectConstraint


class StepTable:
    """The timed move semantics of a model, with what each location
    contributes (flow, invariant, guards, resets, targets and their
    invariants) looked up on its first visit; an exit's entry maps each
    innermost box to its return port, the (frame index, variable) pairs
    it restores and the port's invariant.  The model is read only then, so
    a table must not outlive an edit to it: ``playout`` builds one per run."""

    def __init__(self, model: RhaModel):
        self.model = model
        self._entries: Dict[Location, object] = {}

    def __len__(self) -> int:
        """Entries filled so far: one per location plus one per (box, exit) return."""
        return len(self._entries) + sum(len(e) for e in self._entries.values() if type(e) is dict)

    def _entry(self, loc: Location):
        entry = self._entries.get(loc)
        if entry is None:
            entry = self._entries[loc] = self._fill(loc)
        return entry

    def _fill(self, loc: Location):
        model = self.model
        if loc.kind == "call":
            try:
                target, _push = move_target(model, loc, CALL_ACTION, None)
            except ModelError:
                return _Push(None, FALSE)
            return _Push(target, model.component_of_location(target).invariant(target))
        comp = model.component_of_location(loc)
        if is_exit(comp, loc):
            return {}
        edges = {}
        for action in comp.actions_at(loc):
            target, _local = move_target(model, loc, action, None)
            target_invariant = model.component_of_location(target).invariant(target)
            edges[action] = _Edge(target, comp.guard(loc, action), comp.reset_set(loc, action), target_invariant)
        rates = {x: 1 if r == 1 else r for x, r in model.flow_at(loc).items() if r != 0}
        return _Local(comp.invariant(loc), rates, edges)

    def _frame_step(self, entry, config: RhaConfiguration, action: str):
        """The (context, target, valuation, target invariant) after the push
        or pop ``action`` at a call port or exit, or None when not available.
        A push saves the valuation in a new frame, a pop restores the box's
        by-value variables from the innermost frame."""
        valuation = config.valuation
        if type(entry) is _Push:
            if action != CALL_ACTION or entry.target is None:
                return None
            frame = (config.location.box, tuple(valuation[x] for x in self.model.variables))
            return config.context + (frame,), entry.target, dict(valuation), entry.invariant
        if action != RET_ACTION or not config.context:
            return None
        box, saved = config.context[-1]
        if box not in entry:
            model = self.model
            target, _pop = move_target(model, config.location, RET_ACTION, box)
            passed = model.component_of_box(box).pass_by_value.get(box, frozenset())
            restored = tuple((i, x) for i, x in enumerate(model.variables) if x in passed)
            entry[box] = (target, restored, model.component_of_location(target).invariant(target))
        target, restored, invariant = entry[box]
        resulting = dict(valuation)
        for i, x in restored:
            resulting[x] = saved[i]
        return config.context[:-1], target, resulting, invariant

    def moves(self, config: RhaConfiguration) -> List[Tuple[str, Interval]]:
        """The RSM's available actions at a configuration, in definition
        order, each with its nonempty interval of delays t: the invariant
        holds along [0, t], the guard at t and the target's invariant after
        the move.  Push/pop moves admit exactly delay 0, and only when the
        target invariant holds for the pushed or restored valuation."""
        entry = self._entry(config.location)
        if type(entry) is not _Local:
            action = CALL_ACTION if type(entry) is _Push else RET_ACTION
            moved = self._frame_step(entry, config, action)
            return [(action, ZERO_DELAY)] if moved is not None and moved[3].holds(moved[2]) else []
        valuation, rates = config.valuation, entry.rates
        # Constant flows, convex invariant: it holds along [0, t] iff its window has 0 and t.
        window = _clip((ZERO, None, True, True), entry.invariant, rates, valuation)
        if window is None or not window[2] or window[0] != 0:
            return []
        out = []
        for action, edge in entry.edges.items():
            # Reset variables are 0 at the target, others moved: still one interval.
            delays = _clip(window, edge.guard, rates, valuation)
            if delays is not None:
                delays = _clip(delays, edge.target_invariant, rates, valuation, edge.cleared)
            if delays is not None:
                out.append((action, Interval(*delays)))
        return out

    def delays(self, config: RhaConfiguration, action: str) -> Optional[Interval]:
        """The interval of delays ``moves`` offers ``action`` at, or None."""
        return dict(self.moves(config)).get(action)

    def step(self, config: RhaConfiguration, move: TimedAction) -> RhaConfiguration:
        """Apply one timed move: the RSM step of its action plus its delay.
        Raises ``MoveError`` for an action not available (the RSM step's own
        error), a nonzero delay on push/pop, an invariant violated along the
        delay, a guard unsatisfied after it, or the target's invariant
        rejecting the valuation after the move."""
        loc, delay, action = config.location, move.delay, move.action
        if delay < 0:
            raise MoveError(f"negative delay {delay} at {loc}")
        entry = self._entry(loc)
        local = type(entry) is _Local
        moved = entry.edges.get(action) if local else self._frame_step(entry, config, action)
        if moved is None:
            move_target(self.model, loc, action, config.context[-1][0] if config.context else None, MoveError)
        if not local:
            if delay != 0:
                raise MoveError(f"{'call' if type(entry) is _Push else 'return'} at {loc} must take zero time")
            context, target, resulting, target_inv = moved
        else:
            valuation = config.valuation
            after = dict(valuation)
            if delay:
                for x, rate in entry.rates.items():
                    after[x] += delay if rate == 1 else rate * delay
            inv = entry.invariant
            if not inv.holds(valuation) or (delay and not inv.holds(after)):
                failing = (a for a in inv.atoms if not (a.holds(valuation[a.var]) and a.holds(after[a.var])))
                culprit = next(failing, None)
                bound = f" (first violated bound: {culprit.var} {culprit.rel} {culprit.bound})" if culprit else ""
                raise MoveError(f"delay {delay} violates the invariant at {loc}{bound}")
            if not moved.guard.holds(after):
                raise MoveError(f"guard of {action!r} unsatisfied after delay {delay} at {loc}")
            for x in moved.cleared:
                after[x] = ZERO
            context, target, resulting, target_inv = config.context, moved.target, after, moved.target_invariant
        if not target_inv.holds(resulting):
            raise MoveError(f"invariant at {target} rejects the post-move valuation")
        return RhaConfiguration(context, target, resulting)


# The table's methods on a fresh table, for one-off calls.


def enabled_delays(model: RhaModel, config: RhaConfiguration, action: str) -> Optional[Interval]:
    return StepTable(model).delays(config, action)


def available_moves(model: RhaModel, config: RhaConfiguration) -> List[Tuple[str, Interval]]:
    return StepTable(model).moves(config)


def timed_step(model: RhaModel, config: RhaConfiguration, move: TimedAction) -> RhaConfiguration:
    return StepTable(model).step(config, move)


@dataclass(frozen=True)
class TimedRun:
    """Alternating configurations and timed moves; duration is the delay sum."""

    configs: Tuple[RhaConfiguration, ...]
    moves: Tuple[TimedAction, ...] = ()

    def __post_init__(self):
        if len(self.configs) != len(self.moves) + 1:
            raise ModelError("timed run must have one more configuration than moves")

    def last(self) -> RhaConfiguration:
        return self.configs[-1]

    def __len__(self) -> int:
        return len(self.moves)


def run_duration(run: TimedRun) -> Rational:
    """Total time elapsed along the run."""
    return sum((m.delay for m in run.moves), Rational(0))


# ---------------------------------------------------------------------------
# JSON model format (extends the RSM schema)
# ---------------------------------------------------------------------------


def constraint_to_json(constraint: RectConstraint):
    if constraint.unsat:
        return "false"
    return [{"var": a.var, "rel": a.rel, "bound": a.bound} for a in constraint.atoms]


def constraint_from_json(data) -> RectConstraint:
    if data == "false":
        return FALSE
    atoms = tuple(Atom(a["var"], a["rel"], int(a["bound"])) for a in data)
    for atom in atoms:
        if atom.rel not in RELATIONS:
            raise ParseError(f"unknown relation {atom.rel!r}; expected one of {RELATIONS}")
    return RectConstraint(atoms)


def rha_component_to_json(comp: RhaComponent) -> dict:
    data = component_to_json(comp)
    for box in data["boxes"]:
        box["passByValue"] = sorted(comp.pass_by_value.get(box["name"], frozenset()))
    for record, (src, action) in zip(data["transitions"], comp.transitions):
        record["guard"] = constraint_to_json(comp.guard(src, action))
        record["resets"] = sorted(comp.reset_set(src, action))
    data["invariants"] = {str(loc): constraint_to_json(c) for loc, c in comp.invariants.items()}
    data["flows"] = {
        str(loc): {x: fmt(r) for x, r in flow.items()} for loc, flow in comp.flows.items()
    }
    return data


def rha_component_from_json(data: dict) -> RhaComponent:
    # Parse the RSM fields once, then add the hybrid annotations to them.
    comp = RhaComponent(**vars(component_from_json(data)))
    try:
        for b in data.get("boxes", []):
            comp.pass_by_value[b["name"]] = frozenset(b.get("passByValue", []))
        for t in data.get("transitions", []):
            key = (parse_location(t["from"]), t["action"])
            guard = constraint_from_json(t.get("guard", []))
            if guard != TRUE:
                comp.guards[key] = guard
            resets = frozenset(t.get("resets", []))
            if resets:
                comp.resets[key] = resets
        for loc_text, c in data.get("invariants", {}).items():
            comp.invariants[parse_location(loc_text)] = constraint_from_json(c)
        for loc_text, flow in data.get("flows", {}).items():
            comp.flows[parse_location(loc_text)] = {x: rat(r) for x, r in flow.items()}
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad component record: {exc}") from exc
    return comp


def rha_model_to_json(
    model: RhaModel,
    start: str = None,
    partition: Dict[Location, Player] = None,
    finals: Iterable[Location] = None,
) -> dict:
    data = {
        "variables": list(model.variables),
        "components": [rha_component_to_json(c) for c in model.components],
    }
    return game_to_json(data, start, partition, finals)


def rha_model_from_json(data: dict):
    """Parse the extended schema; returns (model, start, partition, finals)."""
    try:
        model = RhaModel(
            tuple(data["variables"]),
            [rha_component_from_json(c) for c in data["components"]],
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad model record: {exc}") from exc
    start, partition, finals = game_from_json(data)
    return model, start, partition, finals
