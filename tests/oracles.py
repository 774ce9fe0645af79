"""Independent oracles the implementation is checked against.

These deliberately avoid the summary fixpoint: reachability questions
are answered by bounded breadth-first search over configurations, game
questions by unfolding a hierarchical machine into its (finite)
configuration graph and running the plain finite-arena attractor.  A
recursive machine has no finite configuration graph, so its games are
bracketed instead: unfold up to a context depth and count a push past
it once as a loss and once as a win for Achilles.
"""

from collections import deque
from typing import Iterable, Optional, Set, Tuple

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
