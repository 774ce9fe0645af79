"""Recursive hybrid automata: rectangular constraints, flows, guards,
invariants, pass-by-value call semantics, and the exact timed interpreter.

The interpreter works over exact rationals only.  Flows are constant per
location, so over a delay every variable moves linearly; a rectangular
(hence convex) invariant therefore holds along ``[0, t]`` iff it holds
at both endpoints, and the set of delays enabling a guard is a single
rational interval.

Call ports and exit nodes take their push/pop move with delay 0, under
the distinguished pseudo actions ``CALL_ACTION`` / ``RET_ACTION``.  On
pop, variables passed by value at the box are restored from the stack
frame; all others keep the callee's final value (pass-by-reference).
"""

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from .arith import Rational, Valuation, advance, fmt, rat, reset, restore
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
    node,
    parse_location,
    ret,
    validate,
)

RELATIONS = ("<", "<=", "=", ">=", ">")


@dataclass(frozen=True)
class Atom:
    """A single comparison ``variable <rel> bound`` with an integer bound."""

    var: str
    rel: str
    bound: int

    def holds(self, value: Rational) -> bool:
        if self.rel == "<":
            return value < self.bound
        if self.rel == "<=":
            return value <= self.bound
        if self.rel == "=":
            return value == self.bound
        if self.rel == ">=":
            return value >= self.bound
        if self.rel == ">":
            return value > self.bound
        raise ModelError(f"unknown relation {self.rel!r}")


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

    def is_empty(self) -> bool:
        if self.hi is None:
            return False
        if self.lo < self.hi:
            return False
        return not (self.lo == self.hi and self.lo_closed and self.hi_closed)

    def is_point(self) -> bool:
        return self.hi is not None and self.lo == self.hi and self.lo_closed and self.hi_closed

    def contains(self, t: Rational) -> bool:
        if t < self.lo or (t == self.lo and not self.lo_closed):
            return False
        if self.hi is not None and (t > self.hi or (t == self.hi and not self.hi_closed)):
            return False
        return True


def _intersect(a: Interval, b: Interval) -> Interval:
    if a.lo > b.lo or (a.lo == b.lo and not a.lo_closed):
        lo, lo_closed = a.lo, a.lo_closed
    else:
        lo, lo_closed = b.lo, b.lo_closed
    if a.hi is None:
        hi, hi_closed = b.hi, b.hi_closed
    elif b.hi is None:
        hi, hi_closed = a.hi, a.hi_closed
    elif a.hi < b.hi or (a.hi == b.hi and not a.hi_closed):
        hi, hi_closed = a.hi, a.hi_closed
    else:
        hi, hi_closed = b.hi, b.hi_closed
    return Interval(lo, hi, lo_closed, hi_closed)


def _atom_delay_interval(atom: Atom, value: Rational, rate: Rational) -> Optional[Interval]:
    """Delays t >= 0 with ``value + rate*t <rel> bound``; None when empty."""
    nonneg = Interval(Rational(0), None)
    if rate == 0:
        return nonneg if atom.holds(value) else None
    crossing = (Rational(atom.bound) - value) / rate
    # rate > 0: the variable grows through the bound (all gadget flows are >= 0)
    if atom.rel in ("<", "<="):
        ivl = Interval(Rational(0), crossing, True, atom.rel == "<=")
    elif atom.rel == "=":
        ivl = Interval(crossing, crossing)
    else:
        ivl = Interval(crossing, None, atom.rel == ">=", True)
    out = _intersect(ivl, nonneg)
    return None if out.is_empty() else out


def constraint_delays(constraint: RectConstraint, valuation: Valuation, flow: Mapping[str, Rational]) -> Optional[Interval]:
    """The interval of delays after which the constraint holds; None when empty."""
    if constraint.unsat:
        return None
    current = Interval(Rational(0), None)
    for atom in constraint.atoms:
        piece = _atom_delay_interval(atom, valuation[atom.var], flow[atom.var])
        if piece is None:
            return None
        current = _intersect(current, piece)
        if current.is_empty():
            return None
    return current


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

    def pass_set(self, box: str) -> FrozenSet[str]:
        return self.component_of_box(box).pass_by_value.get(box, frozenset())


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
                errors.append(f"{comp.name}: reset of unknown variables on {action} at {src}")
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


def _freeze(model: RhaModel, valuation: Valuation) -> Tuple[Rational, ...]:
    return tuple(valuation[x] for x in model.variables)


def _thaw(model: RhaModel, frozen: Tuple[Rational, ...]) -> Valuation:
    return {x: v for x, v in zip(model.variables, frozen)}


def config_key(config: RhaConfiguration):
    """A hashable key for visited-set bookkeeping in searches."""
    return (config.context, config.location, tuple(sorted(config.valuation.items())))


def initial_rha_config(model: RhaModel, start_node: str, valuation: Valuation) -> RhaConfiguration:
    loc = node(start_node)
    comp = model.component_of_location(loc)
    if not comp.invariant(loc).holds(valuation):
        raise ModelError(f"initial valuation violates the invariant at {loc}")
    return RhaConfiguration((), loc, dict(valuation))


def is_exit(model: RhaModel, loc: Location) -> bool:
    return loc.kind == "node" and loc.name in model.component_of_location(loc).exits


def enabled_delays(model: RhaModel, config: RhaConfiguration, action: str) -> List[Interval]:
    """The set of delays t after which ``action`` can fire: the invariant
    must hold along [0, t] (endpoints suffice: constant flows, convex
    invariant) and the guard at t.  Push/pop moves admit exactly delay 0."""
    loc = config.location
    if loc.kind == "call":
        if action != CALL_ACTION:
            return []
        return [Interval(Rational(0), Rational(0))]
    if is_exit(model, loc):
        if action != RET_ACTION or not config.context:
            return []
        return [Interval(Rational(0), Rational(0))]
    comp = model.component_of_location(loc)
    if (loc, action) not in comp.transitions:
        return []
    flow = model.flow_at(loc)
    inv = constraint_delays(comp.invariant(loc), config.valuation, flow)
    # The invariant must hold along the whole prefix [0, t].  Its
    # satisfaction set is one interval (convexity), so this is membership
    # of t provided the interval starts at 0; a legal configuration
    # always satisfies its invariant at delay 0.
    if inv is None or not inv.contains(Rational(0)):
        return []
    guard = constraint_delays(comp.guard(loc, action), config.valuation, flow)
    if guard is None:
        return []
    joint = _intersect(inv, guard)
    return [] if joint.is_empty() else [joint]


def available_moves(model: RhaModel, config: RhaConfiguration) -> List[Tuple[str, List[Interval]]]:
    """Actions with nonempty delay sets at a configuration, in definition order."""
    loc = config.location
    if loc.kind == "call":
        return [(CALL_ACTION, enabled_delays(model, config, CALL_ACTION))]
    if is_exit(model, loc):
        if not config.context:
            return []
        return [(RET_ACTION, enabled_delays(model, config, RET_ACTION))]
    comp = model.component_of_location(loc)
    out = []
    for action in comp.actions_at(loc):
        delays = enabled_delays(model, config, action)
        if delays:
            out.append((action, delays))
    return out


def timed_step(model: RhaModel, config: RhaConfiguration, move: TimedAction) -> RhaConfiguration:
    """Apply one timed move.  Raises ``MoveError`` when the move is not
    legal: nonzero delay on push/pop, invariant violated along the delay,
    guard unsatisfied at the chosen delay, or pop at empty context."""
    loc = config.location
    valuation = config.valuation
    if move.delay < 0:
        raise MoveError(f"negative delay {move.delay} at {loc}")

    if loc.kind == "call":
        if move.action != CALL_ACTION:
            raise MoveError(f"only {CALL_ACTION!r} is available at call port {loc}")
        if move.delay != 0:
            raise MoveError(f"call at {loc} must take zero time")
        callee = model.callee_of_box(loc.box)
        target = node(loc.name)
        if not callee.invariant(target).holds(valuation):
            raise MoveError(f"invariant at callee entry {target} rejects the valuation")
        frame = (loc.box, _freeze(model, valuation))
        return RhaConfiguration(config.context + (frame,), target, dict(valuation))

    if is_exit(model, loc):
        if not config.context:
            raise MoveError(f"exit {loc.name} with empty context is terminal")
        if move.action != RET_ACTION:
            raise MoveError(f"only {RET_ACTION!r} is available at exit {loc.name}")
        if move.delay != 0:
            raise MoveError(f"return at {loc} must take zero time")
        box, saved = config.context[-1]
        target = ret(box, loc.name)
        restored = restore(valuation, model.pass_set(box), _thaw(model, saved))
        caller = model.component_of_location(target)
        if not caller.invariant(target).holds(restored):
            raise MoveError(f"invariant at return port {target} rejects the valuation")
        return RhaConfiguration(config.context[:-1], target, restored)

    comp = model.component_of_location(loc)
    if (loc, move.action) not in comp.transitions:
        raise MoveError(f"no transition for action {move.action!r} at {loc}")
    flow = model.flow_at(loc)
    after = advance(valuation, flow, move.delay)
    inv = comp.invariant(loc)
    if not (inv.holds(valuation) and inv.holds(after)):
        culprit = next(
            (a for a in inv.atoms if not (a.holds(valuation[a.var]) and a.holds(after[a.var]))),
            None,
        )
        bound = f" (first violated bound: {culprit.var} {culprit.rel} {culprit.bound})" if culprit else ""
        raise MoveError(f"delay {move.delay} violates the invariant at {loc}{bound}")
    if not comp.guard(loc, move.action).holds(after):
        raise MoveError(f"guard of {move.action!r} unsatisfied after delay {move.delay} at {loc}")
    resulting = reset(after, comp.reset_set(loc, move.action))
    target = comp.transitions[(loc, move.action)]
    target_comp = model.component_of_location(target)
    if not target_comp.invariant(target).holds(resulting):
        raise MoveError(f"invariant at {target} rejects the post-move valuation")
    return RhaConfiguration(config.context, target, resulting)


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
