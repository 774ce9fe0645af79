"""Finite arenas, the attractor solver, stop indices, and playouts."""

import itertools
import math
import random

import pytest

from oracles import attractor_problems, sweep_attractor
from rhagames.errors import ModelError, StrategyError
from rhagames.games import FiniteArena, Player, Run, attractor, play, positional, stop_index

ACH, TOR = Player.ACHILLES, Player.TORTOISE


def small_arena():
    #   a --go--> goal ;  a --risk--> t ; t --safe--> sink(loop) ; t --bad--> goal
    states = ["a", "t", "goal", "sink"]
    transitions = [
        ("a", "go", "goal"),
        ("a", "risk", "t"),
        ("t", "safe", "sink"),
        ("t", "bad", "goal"),
        ("sink", "loop", "sink"),
    ]
    owner = {"a": ACH, "t": TOR, "goal": ACH, "sink": TOR}
    return FiniteArena(states, transitions, owner)


def test_target_state_is_winning():
    arena = small_arena()
    winning, _ = attractor(arena, ["goal"])
    assert "goal" in winning


def test_one_step_force_is_winning():
    arena = small_arena()
    winning, strategy = attractor(arena, ["goal"])
    assert "a" in winning
    assert strategy["a"] == "go"


def test_tortoise_avoids_when_escape_exists():
    arena = small_arena()
    winning, _ = attractor(arena, ["goal"])
    assert "t" not in winning
    assert "sink" not in winning


def test_unknown_target_raises():
    with pytest.raises(ModelError):
        attractor(small_arena(), ["nope"])


def test_attractor_is_a_fixpoint():
    arena = small_arena()
    winning, _ = attractor(arena, ["goal"])
    again, _ = attractor(arena, winning)
    assert again == winning


def test_stop_index_cases():
    run = Run(("goal",))
    assert stop_index(run, ["goal"]) == 0
    run = Run(("a", "t"), ("risk",))
    assert stop_index(run, ["t"]) == 1
    assert stop_index(run, ["goal"]) == math.inf


def test_play_dead_end_gives_empty_run():
    arena = small_arena()
    run = play(arena, "goal", lambda r: "x", lambda r: "x", max_steps=10)
    assert len(run) == 0 and run.states == ("goal",)


def test_play_two_state_cycle():
    states = ["p", "q"]
    arena = FiniteArena(
        states, [("p", "f", "q"), ("q", "g", "p")], {"p": ACH, "q": TOR}
    )
    run = play(arena, "p", lambda r: "f", lambda r: "g", max_steps=4)
    assert len(run) == 4
    assert run.states == ("p", "q", "p", "q", "p")


def test_play_rejects_unavailable_action():
    arena = small_arena()
    with pytest.raises(StrategyError, match="step 0"):
        play(arena, "a", lambda r: "nope", lambda r: "safe", max_steps=5)


def _random_arena(rng: random.Random) -> FiniteArena:
    n = rng.randint(2, 10)
    states = list(range(n))
    transitions = []
    for s in states:
        for a in range(rng.randint(0, 3)):
            transitions.append((s, f"a{a}", rng.randrange(n)))
    owner = {s: rng.choice((ACH, TOR)) for s in states}
    return FiniteArena(states, transitions, owner)


def _tortoise_positional_strategies(arena: FiniteArena):
    tor_states = [s for s in arena.states if arena.owner[s] is TOR and arena.available(s)]
    choices = [arena.available(s) for s in tor_states]
    for combo in itertools.product(*choices):
        yield dict(zip(tor_states, combo))


def test_determinacy_and_strategy_witness_on_random_arenas():
    """Winning sets partition the states, the returned strategy forces the
    targets against every positional Tortoise strategy, and outside the
    attractor some Tortoise strategy avoids the targets forever."""
    rng = random.Random(20140908)
    for _ in range(40):
        arena = _random_arena(rng)
        targets = [s for s in arena.states if rng.random() < 0.25]
        winning, strategy = attractor(arena, targets)

        # Tortoise's region is exactly the complement (determinacy).
        complement = set(arena.states) - winning
        assert winning | complement == set(arena.states)
        assert not winning & complement

        ach = positional(strategy, fallback_first=arena)
        bound = 2 * len(arena.states) + 2
        for table in _tortoise_positional_strategies(arena):
            tor = positional(table, fallback_first=arena)
            for start in arena.states:
                run = play(arena, start, ach, tor, max_steps=bound)
                if start in winning:
                    # Achilles' witness must reach the targets in any case.
                    assert stop_index(run, targets) < math.inf, (
                        f"start {start} claimed winning but a playout avoided targets"
                    )

        # Against the spoiler strategy that always moves outside `winning`,
        # no playout from the complement may reach the targets.
        def spoiler(run):
            s = run.last()
            for a in arena.available(s):
                if arena.successor(s, a) not in winning:
                    return a
            return arena.available(s)[0]

        for start in complement:
            if start in targets:
                continue
            run = play(arena, start, positional(strategy, fallback_first=arena), spoiler, bound)
            assert stop_index(run, targets) == math.inf


def _shaped_arena(rng: random.Random, n: int):
    """An arena shaped like the benchmark's finite arenas: 1-3 actions
    per state into random states, about 2% dead ends and 1% targets.
    About one state in ten has a second action into its first action's
    target, and one extra target has no incoming edge."""
    transitions = []
    for s in range(n):
        if rng.random() < 0.02:
            continue
        for a in range(rng.randint(1, 3)):
            transitions.append((s, a, rng.randrange(n)))
        if rng.random() < 0.1:
            transitions.append((s, "twin", transitions[-1][2]))
    owner = {s: rng.choice((ACH, TOR)) for s in range(n + 1)}
    targets = rng.sample(range(n), max(1, n // 100)) + [n]
    return FiniteArena(range(n + 1), transitions, owner), targets


def test_attractor_matches_the_sweep_oracle_and_its_certificate():
    rng = random.Random(2500)
    for n in [1, 2, 3, 5, 8, 20, 50, 200, 800, 3000] * 3:
        arena, targets = _shaped_arena(rng, n)
        winning, strategy = attractor(arena, targets)
        assert winning == sweep_attractor(arena, targets)[0], n
        assert attractor_problems(arena, frozenset(targets), winning, strategy) == [], n
        assert set(strategy) <= winning - set(targets)
        assert attractor(arena, targets) == (winning, strategy)  # deterministic
