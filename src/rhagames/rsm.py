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
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

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
    if len(names) != len(model.components):
        errors.append("duplicate component names")
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


def available_actions(model: RsmModel, config: RsmConfiguration) -> Tuple[str, ...]:
    """Actions available at a configuration, pseudo actions included."""
    loc = config.location
    if loc.kind == "call":
        return (CALL_ACTION,)
    comp = model.component_of_location(loc)
    if loc.kind == "node" and loc.name in comp.exits:
        return (RET_ACTION,) if config.context else ()
    return comp.actions_at(loc)


def rsm_step(model: RsmModel, config: RsmConfiguration, action: str) -> RsmConfiguration:
    """The unique successor under ``action``; raises ``ModelError`` when
    the action is not available (exit with empty context is terminal)."""
    loc = config.location
    if loc.kind == "call":
        if action != CALL_ACTION:
            raise ModelError(f"only {CALL_ACTION!r} is available at call port {loc}")
        callee = model.callee_of_box(loc.box)
        if loc.name not in callee.entries:
            raise ModelError(f"{loc} does not name an entry of {callee.name}")
        return RsmConfiguration(config.context + (loc.box,), node(loc.name))
    comp = model.component_of_location(loc)
    if loc.kind == "node" and loc.name in comp.exits:
        if not config.context:
            raise ModelError(f"exit {loc.name} with empty context is terminal")
        if action != RET_ACTION:
            raise ModelError(f"only {RET_ACTION!r} is available at exit {loc.name}")
        box = config.context[-1]
        return RsmConfiguration(config.context[:-1], ret(box, loc.name))
    dst = comp.transitions.get((loc, action))
    if dst is None:
        raise ModelError(f"no transition for action {action!r} at {loc}")
    return RsmConfiguration(config.context, dst)


# ---------------------------------------------------------------------------
# Reachability / termination (single player, polynomial summaries)
# ---------------------------------------------------------------------------


def _start_component(model: RsmModel, start_node: str) -> RsmComponent:
    if start_node not in model._node_home:
        raise ModelError(f"unknown start node {start_node!r}")
    return model.by_name[model._node_home[start_node]]


SuccessorGraph = Dict[Location, Tuple[RsmComponent, Optional[List[Location]]]]


def _successor_graph(model: RsmModel) -> SuccessorGraph:
    """Every location with its component and the targets of its
    component-local transitions, or None at call ports and exits, whose
    moves the call/return discipline fixes.  Transitions out of a call
    port, an exit or another component's location are ignored.  The
    order is the solvers' sweep order: components callees first
    (declaration order when the call graph has cycles), then ``str(loc)``."""
    graph: SuccessorGraph = {}
    for comp in model.components:
        for loc in model.locations(comp):
            fixed = loc.kind == "call" or (loc.kind == "node" and loc.name in comp.exits)
            graph[loc] = (comp, None if fixed else [])
    for comp in model.components:
        for (src, _a), dst in comp.transitions.items():
            home, succ = graph.get(src, (None, None))
            if home is comp and succ is not None:
                succ.append(dst)
    rank = {name: i for i, name in enumerate(callee_first_order(model) or [c.name for c in model.components])}
    return dict(sorted(graph.items(), key=lambda item: (rank[item[1][0].name], str(item[0]))))


def _summaries(model: RsmModel, finals: FrozenSet[Location]):
    """For every location compute (a) whether a final location is
    reachable (in any context) and (b) the set of same-level exits
    reachable.  Least fixpoint over all components at once."""
    graph = _successor_graph(model)
    hit = {loc: loc in finals for loc in graph}
    exits_reach = {
        loc: {loc.name} if loc.kind == "node" and succ is None else set() for loc, (_c, succ) in graph.items()
    }
    changed = True
    while changed:
        changed = False
        for loc, (_comp, succ) in graph.items():
            new_hit = hit[loc]
            new_exits = set(exits_reach[loc])
            if loc.kind == "call":
                en = node(loc.name)
                new_hit = new_hit or hit[en]
                for ex in exits_reach[en]:
                    rp = ret(loc.box, ex)
                    new_hit = new_hit or hit[rp]
                    new_exits |= exits_reach[rp]
            for dst in succ or ():
                new_hit = new_hit or hit[dst]
                new_exits |= exits_reach[dst]
            if new_hit != hit[loc] or new_exits != exits_reach[loc]:
                hit[loc], exits_reach[loc] = new_hit, new_exits
                changed = True
    return hit, exits_reach


def reachable(model: RsmModel, start_node: str, finals: Iterable[Location]) -> bool:
    """True iff some configuration with a final location is reachable
    from ``(<empty>, start_node)``."""
    _start_component(model, start_node)
    hit, _ = _summaries(model, frozenset(finals))
    return hit[node(start_node)]


def terminates(model: RsmModel, start_node: str) -> bool:
    """True iff an exit of the start component is reachable with empty context."""
    _start_component(model, start_node)
    _, exits_reach = _summaries(model, frozenset())
    return bool(exits_reach[node(start_node)])


# ---------------------------------------------------------------------------
# Games (exit-set allowance summaries)
# ---------------------------------------------------------------------------

GamePartition = Dict[Location, Player]


@dataclass
class SummaryTable:
    """``wins[(loc, E)]`` records whether Achilles forces, from ``loc``
    (any context), either a final location or a same-level exit in the
    allowance ``E``.  ``minimal_allowances`` is the antichain of minimal
    winning allowances per location (the winning family is upward closed)."""

    wins: Dict[Tuple[Location, FrozenSet[str]], bool]
    minimal_allowances: Dict[Location, List[FrozenSet[str]]]


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
    graph = _successor_graph(model)
    missing = [str(loc) for loc in graph if loc not in partition]
    if missing:
        raise ModelError(f"partition is not total; missing {missing}")
    allowances = {comp.name: _all_subsets(comp.exits) for comp in model.components}
    wins: Dict[Tuple[Location, FrozenSet[str]], bool] = {
        (loc, allowance): False for loc, (comp, _s) in graph.items() for allowance in allowances[comp.name]
    }

    def won(loc: Location, succ: Optional[List[Location]], allowance: FrozenSet[str]) -> bool:
        if loc in finals:
            return True
        if loc.kind == "call":
            en, box = node(loc.name), loc.box
            return any(
                wins[(en, sub)] and all(wins[(ret(box, ex), allowance)] for ex in sub)
                for sub in allowances[model.callee_of_box(box).name]
            )
        if succ is None:  # an exit
            return loc.name in allowance
        if not succ:
            return False  # dead end: the reachability objective fails
        pick = any if partition[loc] is Player.ACHILLES else all
        return pick(wins[(dst, allowance)] for dst in succ)

    # Sweep in graph order (callees first on acyclic call graphs, so
    # callee summaries stabilize before their callers read them) until
    # stable; the outer loop covers recursion, where no single evaluation
    # order is exact.
    changed = True
    while changed:
        changed = False
        for loc, (comp, succ) in graph.items():
            for allowance in allowances[comp.name]:
                if not wins[(loc, allowance)] and won(loc, succ, allowance):
                    wins[(loc, allowance)] = changed = True

    minimal: Dict[Location, List[FrozenSet[str]]] = {}
    for loc, (comp, _s) in graph.items():
        winning = [E for E in allowances[comp.name] if wins[(loc, E)]]
        minimal[loc] = [E for E in winning if not any(F < E for F in winning)]
    return SummaryTable(wins, minimal)


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
    each None when absent."""
    start = data.get("start")
    partition = None
    finals = None
    try:
        if "partition" in data:
            partition = {}
            for key, player in (("achilles", Player.ACHILLES), ("tortoise", Player.TORTOISE)):
                for text in data["partition"].get(key, []):
                    partition[parse_location(text)] = player
        if "finals" in data:
            finals = frozenset(parse_location(text) for text in data["finals"])
    except (AttributeError, TypeError) as exc:
        raise ParseError(f"bad game fields: {exc}") from exc
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
