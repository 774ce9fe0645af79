"""Finite two-player reachability games and the classical attractor solver.

A ``FiniteArena`` is a finite labelled transition system whose states are
partitioned between the two players, Achilles and Tortoise.  Achilles
tries to reach a target set, Tortoise tries to avoid it forever.  On a
finite arena the game is determined and solvable by the backward
attractor fixpoint, which also yields a positional witness strategy.

Convention: a state with no available action is losing for Achilles
(the reachability objective fails when play cannot continue), so
dead-end non-target states are never added to the attractor.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Tuple

from .errors import ModelError, StrategyError

State = Hashable
Action = Hashable


class Player(Enum):
    ACHILLES = "Achilles"
    TORTOISE = "Tortoise"


@dataclass(frozen=True)
class Run:
    """A finite alternating sequence state, action, state, ... of an LTS."""

    states: Tuple[State, ...]
    actions: Tuple[Action, ...] = ()

    def __post_init__(self):
        if len(self.states) != len(self.actions) + 1:
            raise ModelError("run must have exactly one more state than actions")

    def last(self) -> State:
        return self.states[-1]

    def __len__(self) -> int:
        return len(self.actions)


class FiniteArena:
    """A finite game arena: states, deterministic labelled transitions,
    an owner partition, and an optional set of final states."""

    def __init__(
        self,
        states: Iterable[State],
        transitions: Iterable[Tuple[State, Action, State]],
        owner: Dict[State, Player],
        finals: Iterable[State] = (),
    ):
        self.states: Tuple[State, ...] = tuple(states)
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise ModelError("duplicate states in arena")
        self.transition: Dict[Tuple[State, Action], State] = {}
        self._actions: Dict[State, List[Action]] = {s: [] for s in self.states}
        for s, a, t in transitions:
            if s not in state_set or t not in state_set:
                raise ModelError(f"transition ({s!r}, {a!r}, {t!r}) uses unknown state")
            if (s, a) in self.transition:
                raise ModelError(f"duplicate transition label {a!r} at state {s!r}")
            self.transition[(s, a)] = t
            self._actions[s].append(a)
        missing = state_set - set(owner)
        if missing:
            raise ModelError(f"owner missing for states: {sorted(map(repr, missing))}")
        self.owner: Dict[State, Player] = {s: owner[s] for s in self.states}
        self.finals: FrozenSet[State] = frozenset(finals)
        if not self.finals <= state_set:
            raise ModelError("finals contains unknown states")

    def available(self, state: State) -> Tuple[Action, ...]:
        """Actions available at a state, in definition order."""
        return tuple(self._actions[state])

    def successor(self, state: State, action: Action) -> State:
        return self.transition[(state, action)]


Strategy = Callable[[Run], Action]


def attractor(arena: FiniteArena, targets: Iterable[State]) -> Tuple[FrozenSet[State], Dict[State, Action]]:
    """States from which Achilles forces a visit to ``targets``, plus a
    positional strategy witnessing membership.

    The iteration visits states in a fixed sorted order so the returned
    strategy is reproducible.  States outside the returned set are
    winning for Tortoise (finite reachability games are determined).
    """
    target_set = frozenset(targets)
    unknown = target_set - set(arena.states)
    if unknown:
        raise ModelError(f"targets not in arena: {sorted(map(repr, unknown))}")

    order = sorted(arena.states, key=repr)
    winning = set(target_set)
    strategy: Dict[State, Action] = {}
    changed = True
    while changed:
        changed = False
        for s in order:
            if s in winning:
                continue
            actions = arena.available(s)
            if not actions:
                continue
            if arena.owner[s] is Player.ACHILLES:
                for a in actions:
                    if arena.successor(s, a) in winning:
                        winning.add(s)
                        strategy[s] = a
                        changed = True
                        break
            else:
                if all(arena.successor(s, a) in winning for a in actions):
                    winning.add(s)
                    changed = True
    return frozenset(winning), strategy


def stop_index(run: Run, finals: Iterable[State]) -> float:
    """Least index i with run.states[i] final; ``math.inf`` if none."""
    final_set = frozenset(finals)
    for i, s in enumerate(run.states):
        if s in final_set:
            return i
    return math.inf


def play(
    arena: FiniteArena,
    start: State,
    achilles: Strategy,
    tortoise: Strategy,
    max_steps: int,
) -> Run:
    """The unique playout under the two strategies, truncated at
    ``max_steps`` or at a state with no available action."""
    if start not in arena.owner:
        raise ModelError(f"unknown start state {start!r}")
    states: List[State] = [start]
    actions: List[Action] = []
    for step in range(max_steps):
        current = states[-1]
        available = arena.available(current)
        if not available:
            break
        mover = achilles if arena.owner[current] is Player.ACHILLES else tortoise
        action = mover(Run(tuple(states), tuple(actions)))
        if action not in available:
            raise StrategyError(
                f"step {step}: {arena.owner[current].value} chose unavailable "
                f"action {action!r} at state {current!r}"
            )
        actions.append(action)
        states.append(arena.successor(current, action))
    return Run(tuple(states), tuple(actions))


def positional(choice: Dict[State, Action], fallback_first: FiniteArena = None) -> Strategy:
    """Lift a state->action table to a strategy; optionally fall back to
    the first available action of ``fallback_first`` on missing states."""

    def strat(run: Run) -> Action:
        s = run.last()
        if s in choice:
            return choice[s]
        if fallback_first is not None:
            available = fallback_first.available(s)
            if available:
                return available[0]
        raise StrategyError(f"no move defined at state {s!r}")

    return strat
