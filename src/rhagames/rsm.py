"""Recursive state machines: syntax, call/return semantics, reachability,
and the exit-set-summary solver for reachability and termination games.

A machine is a collection of components.  Each component has nodes
(among them disjoint entry and exit sets) and boxes mapped to callee
components.  A box ``b`` calling component ``M`` contributes call ports
``(b, en)`` for each entry ``en`` of ``M`` and return ports ``(b, ex)``
for each exit.  Locations are nodes plus ports; call ports and exit
nodes carry no outgoing transitions because their successor is fixed by
the call/return discipline: a call port pushes the box and jumps to the
callee entry, an exit pops the innermost box and jumps to the matching
return port (or terminates the run when the context is empty).

The push and pop moves are labelled with the distinguished pseudo
actions ``CALL_ACTION`` and ``RET_ACTION``.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

from .errors import ModelError, ParseError
from .games import Player

CALL_ACTION = "call"
RET_ACTION = "ret"


@dataclass(frozen=True, order=True)
class Location:
    """A node ``node:n``, call port ``call:b:en``, or return port ``ret:b:ex``."""

    kind: str  # "node" | "call" | "ret"
    box: Optional[str]
    name: str  # node name; for ports, the callee entry/exit node name

    def __str__(self) -> str:
        if self.kind == "node":
            return f"node:{self.name}"
        return f"{self.kind}:{self.box}:{self.name}"


def node(name: str) -> Location:
    return Location("node", None, name)


def call(box: str, entry: str) -> Location:
    return Location("call", box, entry)


def ret(box: str, exit_: str) -> Location:
    return Location("ret", box, exit_)


def parse_location(text: str) -> Location:
    parts = text.split(":") if isinstance(text, str) else []
    if len(parts) == 2 and parts[0] == "node":
        return node(parts[1])
    if len(parts) == 3 and parts[0] in ("call", "ret"):
        return Location(parts[0], parts[1], parts[2])
    raise ParseError(f"bad location {text!r}")


@dataclass
class RsmComponent:
    name: str
    nodes: Tuple[str, ...]
    entries: Tuple[str, ...]
    exits: Tuple[str, ...]
    boxes: Dict[str, str]  # box name -> callee component name
    transitions: Dict[Tuple[Location, str], Location] = field(default_factory=dict)

    def actions_at(self, loc: Location) -> Tuple[str, ...]:
        """Component-local actions available at a location, in insertion order."""
        return tuple(a for (src, a) in self.transitions if src == loc)


class RsmModel:
    """An ordered collection of components; the first is not special,
    queries name their start node explicitly."""

    def __init__(self, components: Iterable[RsmComponent]):
        self.components: Tuple[RsmComponent, ...] = tuple(components)
        self.by_name: Dict[str, RsmComponent] = {c.name: c for c in self.components}
        self._node_home: Dict[str, str] = {}
        self._box_home: Dict[str, str] = {}
        for comp in self.components:
            for n in comp.nodes:
                self._node_home.setdefault(n, comp.name)
            for b in comp.boxes:
                self._box_home.setdefault(b, comp.name)

    def component_of_box(self, box: str) -> RsmComponent:
        return self.by_name[self._box_home[box]]

    def callee_of_box(self, box: str) -> RsmComponent:
        return self.by_name[self.component_of_box(box).boxes[box]]

    def component_of_location(self, loc: Location) -> RsmComponent:
        if loc.kind == "node":
            return self.by_name[self._node_home[loc.name]]
        return self.component_of_box(loc.box)

    def locations(self, comp: RsmComponent) -> List[Location]:
        locs = [node(n) for n in comp.nodes]
        for b, callee_name in comp.boxes.items():
            callee = self.by_name[callee_name]
            locs.extend(call(b, en) for en in callee.entries)
            locs.extend(ret(b, ex) for ex in callee.exits)
        return locs

    def all_locations(self) -> List[Location]:
        out: List[Location] = []
        for comp in self.components:
            out.extend(self.locations(comp))
        return out


def validate(model: RsmModel) -> List[str]:
    """Check structural invariants; the returned list is empty when the
    model is well formed, otherwise it names every violation."""
    errors: List[str] = []
    seen_nodes: Set[str] = set()
    seen_boxes: Set[str] = set()
    names = set(model.by_name)
    duplicates = sorted({comp.name for comp in model.components if model.by_name[comp.name] is not comp})
    if duplicates:
        errors.append(f"duplicate component names: {duplicates}")
    for comp in model.components:
        node_set = set(comp.nodes)
        if set(comp.entries) & set(comp.exits):
            errors.append(
                f"{comp.name}: entries and exits overlap: "
                f"{sorted(set(comp.entries) & set(comp.exits))}"
            )
        for n in list(comp.entries) + list(comp.exits):
            if n not in node_set:
                errors.append(f"{comp.name}: entry/exit {n} is not a node")
        dup_nodes = node_set & seen_nodes
        if dup_nodes:
            errors.append(f"{comp.name}: node names reused across components: {sorted(dup_nodes)}")
        seen_nodes |= node_set
        dup_boxes = set(comp.boxes) & seen_boxes
        if dup_boxes:
            errors.append(f"{comp.name}: box names reused across components: {sorted(dup_boxes)}")
        seen_boxes |= set(comp.boxes)
        unknown_callees = False
        for b, callee in comp.boxes.items():
            if callee not in names:
                errors.append(f"{comp.name}: box {b} calls unknown component {callee}")
                unknown_callees = True
        # The ports of a box are only known when its callee is.
        valid_locs = None if unknown_callees else set(model.locations(comp))
        for (src, action), dst in comp.transitions.items():
            if src.kind == "call":
                errors.append(f"{comp.name}: call port {src} has an outgoing transition")
            if src.kind == "node" and src.name in comp.exits:
                errors.append(f"{comp.name}: exit node {src.name} has an outgoing transition")
            if action in (CALL_ACTION, RET_ACTION):
                errors.append(f"{comp.name}: transition at {src} is labelled with the pseudo action {action!r}")
            for loc in (src, dst):
                if valid_locs is not None and loc not in valid_locs:
                    errors.append(f"{comp.name}: transition uses unknown location {loc}")
    return errors


@dataclass(frozen=True)
class RsmConfiguration:
    """A stack of pending boxes plus the current location."""

    context: Tuple[str, ...]
    location: Location


def initial_config(start_node: str) -> RsmConfiguration:
    return RsmConfiguration((), node(start_node))


def is_exit(comp: RsmComponent, loc: Location) -> bool:
    """Is ``loc`` an exit node of its component ``comp``?"""
    return loc.kind == "node" and loc.name in comp.exits


def available_actions(model: RsmModel, config: RsmConfiguration) -> Tuple[str, ...]:
    """Actions available at a configuration, pseudo actions included.
    Only the location and whether the context is empty matter, so a
    timed configuration is read the same way."""
    loc = config.location
    if loc.kind == "call":
        return (CALL_ACTION,)
    comp = model.component_of_location(loc)
    if is_exit(comp, loc):
        return (RET_ACTION,) if config.context else ()
    return comp.actions_at(loc)


PUSH, LOCAL, POP = 1, 0, -1  # the stack effect of a move


def move_target(
    model: RsmModel, loc: Location, action: str, top: Optional[str], error: type = ModelError
) -> Tuple[Location, int]:
    """Where ``action`` leads from ``loc`` when ``top`` is the innermost
    pending box (None at empty context): the target location and the
    stack effect, ``PUSH`` (of ``loc.box``), ``POP`` (of ``top``) or
    ``LOCAL``.  Raises ``error`` when the action is not available; an exit
    with empty context is terminal."""
    if loc.kind == "call":
        if action != CALL_ACTION:
            raise error(f"only {CALL_ACTION!r} is available at call port {loc}")
        callee = model.callee_of_box(loc.box)
        if loc.name not in callee.entries:
            raise error(f"{loc} does not name an entry of {callee.name}")
        return node(loc.name), PUSH
    comp = model.component_of_location(loc)
    if is_exit(comp, loc):
        if top is None:
            raise error(f"exit {loc.name} with empty context is terminal")
        if action != RET_ACTION:
            raise error(f"only {RET_ACTION!r} is available at exit {loc.name}")
        return ret(top, loc.name), POP
    dst = comp.transitions.get((loc, action))
    if dst is None:
        raise error(f"no transition for action {action!r} at {loc}")
    return dst, LOCAL


def rsm_step(model: RsmModel, config: RsmConfiguration, action: str) -> RsmConfiguration:
    """The unique successor under ``action``; raises ``ModelError`` when
    the action is not available (exit with empty context is terminal)."""
    context = config.context
    target, effect = move_target(model, config.location, action, context[-1] if context else None)
    if effect == PUSH:
        context = context + (config.location.box,)
    elif effect == POP:
        context = context[:-1]
    return RsmConfiguration(context, target)


# ---------------------------------------------------------------------------
# Reachability / termination (single player, polynomial summaries)
# ---------------------------------------------------------------------------


def _start_component(model: RsmModel, start_node: str) -> RsmComponent:
    if start_node not in model._node_home:
        raise ModelError(f"unknown start node {start_node!r}")
    return model.by_name[model._node_home[start_node]]


class SuccessorGraph(NamedTuple):
    """The locations of a model numbered 0..n-1 in the solvers' sweep
    order: components callees first (declaration order when the call
    graph has cycles), then ``str(loc)``.  ``succ`` holds the targets of
    an internal location's component-local transitions, and None at call
    ports and exits, whose moves the call/return discipline fixes;
    transitions out of a call port, an exit or another component's
    location are ignored, and one into another component or nowhere is
    a ``ModelError``, as is a call port whose entry is not a node of its
    callee.  ``calls`` maps a call port to its callee entry
    and one return port per callee exit, ``exit_bits`` an exit to its
    bits in its component's exit mask (bit j for ``exits[j]``).  A
    location's ``preds`` are the locations whose rule reads it: the
    sources of transitions into it and, at a callee entry or a return
    port, the call port."""

    locations: List[Location]
    index: Dict[Location, int]
    components: List[RsmComponent]
    succ: List[Optional[List[int]]]
    calls: Dict[int, Tuple[int, List[int]]]
    exit_bits: Dict[int, int]
    preds: List[List[int]]


def _successor_graph(model: RsmModel) -> SuccessorGraph:
    home: Dict[Location, RsmComponent] = {}
    for comp in model.components:
        for loc in model.locations(comp):
            home[loc] = comp
    rank = {name: i for i, name in enumerate(callee_first_order(model) or [c.name for c in model.components])}
    order = sorted(home.items(), key=lambda item: (rank[item[1].name], str(item[0])))
    locations = [loc for loc, _comp in order]
    components = [comp for _loc, comp in order]
    index = {loc: i for i, loc in enumerate(locations)}
    succ: List[Optional[List[int]]] = [None] * len(locations)
    preds: List[List[int]] = [[] for _ in locations]
    calls: Dict[int, Tuple[int, List[int]]] = {}
    exit_bits: Dict[int, int] = {}
    for i, (loc, comp) in enumerate(zip(locations, components)):
        if loc.kind == "call":
            callee = model.by_name[comp.boxes[loc.box]]
            entry = index.get(node(loc.name))
            if entry is None or components[entry] is not callee:
                raise ModelError(f"{loc} does not name an entry of {callee.name}")
            rets = [index[ret(loc.box, ex)] for ex in callee.exits]
            calls[i] = (entry, rets)
            for j in [entry, *rets]:
                preds[j].append(i)
        elif is_exit(comp, loc):
            exit_bits[i] = sum(1 << j for j, ex in enumerate(comp.exits) if ex == loc.name)
        else:
            succ[i] = []
    for comp in model.components:
        for (src, _a), dst in comp.transitions.items():
            i = index.get(src)
            if i is None or components[i] is not comp or succ[i] is None:
                continue
            j = index.get(dst)
            if j is None or components[j] is not comp:
                raise ModelError(f"{comp.name}: transition at {src} leads to {dst}, which is not one of its locations")
            succ[i].append(j)
            preds[j].append(i)
    return SuccessorGraph(locations, index, components, succ, calls, exit_bits, preds)


def _check_known(index: Dict[Location, int], locs: Iterable[Location], what: str) -> None:
    unknown = sorted(str(loc) for loc in locs if loc not in index)
    if unknown:
        raise ModelError(f"{what} names locations the model lacks: {unknown}")


def _least_fixpoint(graph: SuccessorGraph, value: List[int], evaluate: Callable[[int], int]) -> List[int]:
    """Grow ``value`` to the least fixpoint of ``value[i] |= evaluate(i)``,
    where ``evaluate`` is monotone and reads only ``i``'s successors,
    callee entry and return ports.  A location is evaluated only after
    one of those has grown (Liu & Smolka's predecessor worklist), so the
    starting values must be the rules' values on all-zero inputs.
    Returns how many times each location was popped."""
    preds = graph.preds
    queued = bytearray(len(value))
    work: List[int] = []
    for i, v in enumerate(value):
        if v:
            for p in preds[i]:
                if not queued[p]:
                    queued[p] = 1
                    work.append(p)
    pops = [0] * len(value)
    while work:
        i = work.pop()
        queued[i] = 0
        pops[i] += 1
        old = value[i]
        new = old | evaluate(i)
        if new != old:
            value[i] = new
            for p in preds[i]:
                if not queued[p]:
                    queued[p] = 1
                    work.append(p)
    return pops


def _summaries(model: RsmModel, finals: FrozenSet[Location]) -> Tuple[SuccessorGraph, List[int]]:
    """For every location compute whether a final location is reachable
    (in any context), bit 0 of its value, and which same-level exits are
    reachable, bit j + 1 for its component's ``exits[j]``.  Least
    fixpoint over all components at once."""
    graph = _successor_graph(model)
    _check_known(graph.index, finals, "finals")
    succ, calls = graph.succ, graph.calls
    value = [0] * len(graph.locations)
    for i, bits in graph.exit_bits.items():
        value[i] = bits << 1
    for loc in finals:
        value[graph.index[loc]] |= 1

    def evaluate(i: int) -> int:
        targets = succ[i]
        if targets is not None:
            v = 0
            for j in targets:
                v |= value[j]
            return v
        entry, rets = calls[i]
        at_entry = value[entry]
        v = at_entry & 1
        at_entry >>= 1
        for r in rets:
            if at_entry & 1:
                v |= value[r]
            at_entry >>= 1
        return v

    _least_fixpoint(graph, value, evaluate)
    return graph, value


def reachable(model: RsmModel, start_node: str, finals: Iterable[Location]) -> bool:
    """True iff some configuration with a final location is reachable
    from ``(<empty>, start_node)``."""
    _start_component(model, start_node)
    graph, value = _summaries(model, frozenset(finals))
    return bool(value[graph.index[node(start_node)]] & 1)


def terminates(model: RsmModel, start_node: str) -> bool:
    """True iff an exit of the start component is reachable with empty context."""
    _start_component(model, start_node)
    graph, value = _summaries(model, frozenset())
    return value[graph.index[node(start_node)]] >> 1 != 0


# ---------------------------------------------------------------------------
# Games (exit-set allowance summaries)
# ---------------------------------------------------------------------------

GamePartition = Dict[Location, Player]


@dataclass
class SummaryTable:
    """``wins[(loc, E)]`` records whether Achilles forces, from ``loc``
    (any context), either a final location or a same-level exit in the
    allowance ``E``.  ``minimal_allowances`` is the antichain of minimal
    winning allowances per location (the winning family is upward closed).
    ``stats`` counts the solver's work: ``locations``, worklist ``pops``
    and ``evaluations``, the (location, allowance) pairs those pops
    decided."""

    wins: Dict[Tuple[Location, FrozenSet[str]], bool]
    minimal_allowances: Dict[Location, List[FrozenSet[str]]]
    stats: Dict[str, int] = field(default_factory=dict)


def _all_subsets(items: Tuple[str, ...]) -> List[FrozenSet[str]]:
    return [frozenset(x for i, x in enumerate(items) if mask >> i & 1) for mask in range(1 << len(items))]


def callee_first_order(model: RsmModel) -> Optional[List[str]]:
    """Component names ordered so that every callee precedes its callers,
    or None when the call graph has a cycle (the machine is recursive)."""
    calls = {c.name: sorted({callee for callee in c.boxes.values()}) for c in model.components}
    order: List[str] = []
    state: Dict[str, int] = {}  # 0 visiting, 1 done

    def visit(name: str) -> bool:
        mark = state.get(name)
        if mark == 0:
            return False  # cycle
        if mark == 1:
            return True
        state[name] = 0
        for callee in calls[name]:
            if not visit(callee):
                return False
        state[name] = 1
        order.append(name)
        return True

    for comp in model.components:
        if not visit(comp.name):
            return None
    return order


def _game_fixpoint(model: RsmModel, partition: GamePartition, finals: FrozenSet[Location]) -> SummaryTable:
    """Allowance ``m`` of a component is the exit set ``_all_subsets``
    lists at position ``m``, the exits ``j`` with bit j of m set; a
    location's value has bit m set when Achilles wins it for allowance m."""
    graph = _successor_graph(model)
    locations, index, succ, calls = graph.locations, graph.index, graph.succ, graph.calls
    _check_known(index, finals, "finals")
    _check_known(index, partition, "partition")
    owners = [partition.get(loc) for loc in locations]
    missing = [str(loc) for loc, owner in zip(locations, owners) if owner is None]
    if missing:
        raise ModelError(f"partition is not total; missing {missing}")
    achilles = [owner is Player.ACHILLES for owner in owners]
    allowances = {comp.name: _all_subsets(comp.exits) for comp in model.components}
    widths = [len(allowances[comp.name]) for comp in graph.components]
    full = [(1 << width) - 1 for width in widths]

    value = [0] * len(locations)
    for i, bits in graph.exit_bits.items():  # an exit wins the allowances that contain it
        value[i] = sum(1 << m for m in range(widths[i]) if m & bits)
    for loc in finals:
        value[index[loc]] = full[index[loc]]

    def evaluate(i: int) -> int:
        targets = succ[i]
        if targets is not None:
            if not targets:
                return 0  # dead end: the reachability objective fails
            if achilles[i]:
                v = 0
                for j in targets:
                    v |= value[j]
            else:
                v = full[i]
                for j in targets:
                    v &= value[j]
            return v
        # A call port wins allowance m when the callee entry wins some
        # exit set s and every return port of s wins m.
        entry, rets = calls[i]
        at_entry, s, v = value[entry], 0, 0
        while at_entry:
            if at_entry & 1:
                w = full[i]
                for j, r in enumerate(rets):
                    if s >> j & 1:
                        w &= value[r]
                v |= w
            at_entry >>= 1
            s += 1
        return v

    pops = _least_fixpoint(graph, value, evaluate)

    # below[m]: the allowances strictly inside allowance m, its proper submasks
    below = {name: [sum(1 << s for s, F in enumerate(allowed) if F < E) for E in allowed]
             for name, allowed in allowances.items()}
    wins: Dict[Tuple[Location, FrozenSet[str]], bool] = {}
    minimal: Dict[Location, List[FrozenSet[str]]] = {}
    for loc, comp, v in zip(locations, graph.components, value):
        allowed, smaller = allowances[comp.name], below[comp.name]
        for m, E in enumerate(allowed):
            wins[(loc, E)] = v >> m & 1 == 1
        # m is minimal when it wins and no allowance below it does
        minimal[loc] = [E for m, E in enumerate(allowed) if v >> m & 1 and not v & smaller[m]]
    stats = {
        "locations": len(locations),
        "pops": sum(pops),
        "evaluations": sum(p * width for p, width in zip(pops, widths)),
    }
    return SummaryTable(wins, minimal, stats)


def solve_reachability_game(
    model: RsmModel,
    partition: GamePartition,
    start_node: str,
    finals: Iterable[Location],
) -> Tuple[Player, SummaryTable]:
    """Decide the reachability game from ``(<empty>, start_node)`` with
    final locations ``finals`` interpreted in every context.

    At the top level the allowance is empty: exiting the start component
    with empty context ends the run without reaching a final location.
    """
    _start_component(model, start_node)
    table = _game_fixpoint(model, partition, frozenset(finals))
    return (Player.ACHILLES if table.wins[(node(start_node), frozenset())] else Player.TORTOISE), table


def solve_termination_game(
    model: RsmModel,
    partition: GamePartition,
    start_node: str,
) -> Tuple[Player, SummaryTable]:
    """Decide the termination game: Achilles must reach an exit of the
    start component with empty context, so the top-level allowance is
    the full exit set and there are no final locations."""
    top = frozenset(_start_component(model, start_node).exits)
    table = _game_fixpoint(model, partition, frozenset())
    return (Player.ACHILLES if table.wins[(node(start_node), top)] else Player.TORTOISE), table


# ---------------------------------------------------------------------------
# JSON model format
# ---------------------------------------------------------------------------


def component_to_json(comp: RsmComponent) -> dict:
    return {
        "name": comp.name,
        "nodes": list(comp.nodes),
        "entries": list(comp.entries),
        "exits": list(comp.exits),
        "boxes": [{"name": b, "callee": callee} for b, callee in comp.boxes.items()],
        "transitions": [
            {"from": str(src), "action": action, "to": str(dst)}
            for (src, action), dst in comp.transitions.items()
        ],
    }


def component_from_json(data: dict) -> RsmComponent:
    try:
        comp = RsmComponent(
            name=data["name"],
            nodes=tuple(data["nodes"]),
            entries=tuple(data["entries"]),
            exits=tuple(data["exits"]),
            boxes={b["name"]: b["callee"] for b in data.get("boxes", [])},
        )
        for t in data.get("transitions", []):
            comp.transitions[(parse_location(t["from"]), t["action"])] = parse_location(t["to"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad component record: {exc}") from exc
    return comp


def game_to_json(
    data: dict,
    start: str = None,
    partition: GamePartition = None,
    finals: Iterable[Location] = None,
) -> dict:
    """Add the game fields that are given to a model record and return it."""
    if start is not None:
        data["start"] = start
    if partition is not None:
        data["partition"] = {
            "achilles": sorted(str(l) for l, p in partition.items() if p is Player.ACHILLES),
            "tortoise": sorted(str(l) for l, p in partition.items() if p is Player.TORTOISE),
        }
    if finals is not None:
        data["finals"] = sorted(str(l) for l in finals)
    return data


def game_from_json(data: dict):
    """The game fields of a model record: (start, partition, finals),
    each None when absent.  A location listed for both players is a
    ``ParseError``."""
    start = data.get("start")
    partition = None
    finals = None
    both = set()
    try:
        if "partition" in data:
            partition = {}
            for key, player in (("achilles", Player.ACHILLES), ("tortoise", Player.TORTOISE)):
                for text in data["partition"].get(key, []):
                    loc = parse_location(text)
                    if partition.setdefault(loc, player) is not player:
                        both.add(str(loc))
        if "finals" in data:
            finals = frozenset(parse_location(text) for text in data["finals"])
    except (AttributeError, TypeError) as exc:
        raise ParseError(f"bad game fields: {exc}") from exc
    if both:
        raise ParseError("partition lists locations for both achilles and tortoise: " + ", ".join(sorted(both)))
    return start, partition, finals


def model_to_json(
    model: RsmModel,
    start: str = None,
    partition: GamePartition = None,
    finals: Iterable[Location] = None,
) -> dict:
    data = {"components": [component_to_json(c) for c in model.components]}
    return game_to_json(data, start, partition, finals)


def model_from_json(data: dict):
    """Parse the JSON model format; returns (model, start, partition, finals)
    where the game fields are None when absent."""
    try:
        model = RsmModel([component_from_json(c) for c in data["components"]])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad model record: {exc}") from exc
    start, partition, finals = game_from_json(data)
    return model, start, partition, finals
