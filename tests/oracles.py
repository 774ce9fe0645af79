"""Independent oracles the implementation is checked against.

These deliberately avoid the summary fixpoint: reachability questions
are answered by bounded breadth-first search over configurations, game
questions by unfolding a hierarchical machine into its (finite)
configuration graph and running the plain finite-arena attractor.  A
recursive machine has no finite configuration graph, so its games are
bracketed instead: unfold up to a context depth and count a push past
it once as a loss and once as a win for Achilles.

The attractor itself is checked against ``sweep_attractor``, the
textbook forward iteration, and its strategy against the closure and
ranking certificate of ``attractor_problems``.
"""

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from rhagames.games import FiniteArena, Player, attractor
from rhagames.rsm import (
    Location,
    RsmConfiguration,
    RsmModel,
    available_actions,
    initial_config,
    node,
    rsm_step,
)


def bfs_configs(model: RsmModel, start_node: str, max_context: int) -> Set[RsmConfiguration]:
    """All configurations reachable with context length <= max_context."""
    start = initial_config(start_node)
    seen = {start}
    queue = deque([start])
    while queue:
        config = queue.popleft()
        for action in available_actions(model, config):
            nxt = rsm_step(model, config, action)
            if len(nxt.context) > max_context or nxt in seen:
                continue
            seen.add(nxt)
            queue.append(nxt)
    return seen


def bfs_reachable(model: RsmModel, start_node: str, finals: Iterable[Location], max_context: int = 8) -> bool:
    return any(map(_at_final(finals), bfs_configs(model, start_node, max_context)))


def bfs_terminates(model: RsmModel, start_node: str, max_context: int = 8) -> bool:
    return any(map(_terminated(model), bfs_configs(model, start_node, max_context)))


def unfold_arena(model: RsmModel, partition, start_node: str, depth: Optional[int] = None):
    """Unfold the configuration graph from ``start_node`` into a finite
    arena; returns (arena, start, cuts).  With a ``depth``, a call port
    whose push would make the context longer is a cut: a state with no
    move.  Without one, it only terminates when the call graph is acyclic
    (contexts stay bounded) and there are no cuts."""
    start = initial_config(start_node)
    states = {start}
    transitions = []
    cuts = set()
    queue = deque([start])
    while queue:
        config = queue.popleft()
        for action in available_actions(model, config):
            nxt = rsm_step(model, config, action)
            if depth is not None and len(nxt.context) > depth:
                cuts.add(config)
                continue
            transitions.append((config, action, nxt))
            if nxt not in states:
                states.add(nxt)
                queue.append(nxt)
    owner = {cfg: partition[cfg.location] for cfg in states}
    return FiniteArena(states, transitions, owner), start, cuts


def _at_final(finals):
    final_set = frozenset(finals)
    return lambda cfg: cfg.location in final_set


def _terminated(model: RsmModel):
    exits = {node(x) for comp in model.components for x in comp.exits}
    return lambda cfg: not cfg.context and cfg.location in exits


def _winner(model, partition, start_node, goal) -> Player:
    arena, start, _ = unfold_arena(model, partition, start_node)
    winning, _ = attractor(arena, [cfg for cfg in arena.states if goal(cfg)])
    return Player.ACHILLES if start in winning else Player.TORTOISE


def oracle_reachability_winner(model, partition, start_node, finals) -> Player:
    return _winner(model, partition, start_node, _at_final(finals))


def oracle_termination_winner(model, partition, start_node) -> Player:
    return _winner(model, partition, start_node, _terminated(model))


def _sandwich(model, partition, start_node, goal, depth: int) -> Tuple[bool, bool]:
    arena, start, cuts = unfold_arena(model, partition, start_node, depth)
    targets = {cfg for cfg in arena.states if goal(cfg)}
    lower, _ = attractor(arena, targets)  # a cut has no move: Achilles loses there
    upper, _ = attractor(arena, targets | cuts)
    return start in lower, start in upper


def sandwich_reachability(model, partition, start_node, finals, depth: int) -> Tuple[bool, bool]:
    """(lower, upper): whether Achilles wins the reachability game when
    a push past ``depth`` loses, and when it wins.  For any machine,
    recursive ones included, lower implies that Achilles wins the real
    game, which implies upper."""
    return _sandwich(model, partition, start_node, _at_final(finals), depth)


def sandwich_termination(model, partition, start_node, depth: int) -> Tuple[bool, bool]:
    """The same bracket for the termination game."""
    return _sandwich(model, partition, start_node, _terminated(model), depth)


def sweep_attractor(arena: FiniteArena, targets: Iterable) -> Tuple[FrozenSet, Dict]:
    """The attractor by sweeping all states in sorted order until no
    state joins: Achilles joins on an edge into the set, Tortoise when
    all its edges lead into it, a dead end never."""
    winning = set(targets)
    strategy = {}
    order = sorted(arena.states, key=repr)
    changed = True
    while changed:
        changed = False
        for s in order:
            actions = arena.available(s)
            if s in winning or not actions:
                continue
            if arena.owner[s] is Player.ACHILLES:
                for a in actions:
                    if arena.successor(s, a) in winning:
                        winning.add(s)
                        strategy[s] = a
                        changed = True
                        break
            elif all(arena.successor(s, a) in winning for a in actions):
                winning.add(s)
                changed = True
    return frozenset(winning), strategy


def attractor_problems(arena: FiniteArena, targets: FrozenSet, winning, strategy) -> List[str]:
    """Certificate for an attractor: outside the winning set Tortoise can
    stay outside (closure), and inside it the strategy edges plus all
    Tortoise edges lead to the targets without cycles (ranking).  Returns
    at most three problems; none means the answer is certified."""
    bad = []
    pending: Dict[object, int] = {}
    preds: Dict[object, List[object]] = {}
    for s in arena.states:
        actions = arena.available(s)
        succs = [arena.successor(s, a) for a in actions]
        mine = arena.owner[s] is Player.ACHILLES
        if s in targets:
            continue
        if s not in winning:
            stays = all(t not in winning for t in succs) if mine else any(t not in winning for t in succs)
            if succs and not stays:
                bad.append(f"state {s!r} outside the attractor cannot be kept outside")
            continue
        if mine:
            if strategy.get(s) not in actions:
                bad.append(f"no strategy move at winning state {s!r}")
                continue
            succs = [arena.successor(s, strategy[s])]
        if not succs or any(t not in winning for t in succs):
            bad.append(f"winning state {s!r} can leave the attractor")
            continue
        pending[s] = len(succs)
        for t in succs:
            preds.setdefault(t, []).append(s)
    ready = list(targets)
    settled = 0
    while ready:
        t = ready.pop()
        for s in preds.get(t, ()):
            pending[s] -= 1
            if pending[s] == 0:
                settled += 1
                ready.append(s)
    if not bad and settled != len(pending):
        bad.append(f"{len(pending) - settled} winning states never reach a target")
    return bad[:3]
