"""Shared model fixtures for the test suite."""

from rhagames.games import Player
from rhagames.rha import RhaComponent, RhaModel, conj
from rhagames.rsm import RsmComponent, RsmModel, call, node, ret


def three_component_rsm() -> RsmModel:
    """The classic three-component recursive state machine: M1 calls M2
    and M3, M2 calls itself and M3, M3 calls back into M1 (so the call
    graph is cyclic and the machine is not hierarchical)."""
    m1 = RsmComponent(
        name="M1",
        nodes=("u1", "u2", "u3", "u4"),
        entries=("u1", "u2"),
        exits=("u4",),
        boxes={"b1": "M2", "b2": "M3"},
    )
    m1.transitions = {
        (node("u1"), "a1"): call("b1", "v1"),
        (node("u2"), "a2"): call("b2", "w1"),
        (ret("b2", "w2"), "a3"): node("u3"),
        (node("u3"), "a4"): node("u4"),
        (ret("b1", "v3"), "a5"): node("u4"),
        (ret("b1", "v4"), "a6"): call("b1", "v2"),
    }
    m2 = RsmComponent(
        name="M2",
        nodes=("v1", "v2", "v3", "v4"),
        entries=("v1", "v2"),
        exits=("v3", "v4"),
        boxes={"c1": "M2", "c2": "M3"},
    )
    m2.transitions = {
        (node("v1"), "b1a"): call("c1", "v1"),
        (node("v2"), "b2a"): call("c1", "v2"),
        (node("v2"), "b3a"): call("c2", "w1"),
        (ret("c1", "v3"), "b4a"): node("v4"),
        (ret("c1", "v4"), "b5a"): node("v3"),
        (ret("c2", "w2"), "b6a"): node("v4"),
        (ret("c2", "w2"), "b7a"): call("c1", "v2"),
    }
    m3 = RsmComponent(
        name="M3",
        nodes=("w1", "w2"),
        entries=("w1",),
        exits=("w2",),
        boxes={"d": "M1"},
    )
    m3.transitions = {
        (node("w1"), "c1a"): call("d", "u1"),
        (node("w1"), "c2a"): node("w2"),
        (ret("d", "u4"), "c3a"): node("w2"),
    }
    return RsmModel([m1, m2, m3])


def one_clock_rta(extra_variable: bool = False) -> RhaModel:
    """A one-clock recursive timed automaton with two components; the
    second component calls itself, so the model is not hierarchical.
    The box from the first component passes x by value.

    With ``extra_variable`` a second clock w is added (and not passed by
    value anywhere), which breaks glitch-freeness."""
    variables = ("x", "w") if extra_variable else ("x",)
    m1 = RhaComponent(
        name="T1",
        nodes=("p1", "p2", "p3"),
        entries=("p1", "p2"),
        exits=("p3",),
        boxes={"a1": "T2"},
        pass_by_value={"a1": frozenset({"x"})},
    )
    m1.transitions = {
        (node("p1"), "t1"): call("a1", "q1"),
        (node("p2"), "t2"): call("a1", "q1"),
        (ret("a1", "q2"), "t3"): node("p3"),
    }
    m1.guards = {
        (node("p1"), "t1"): conj(("x", "=", 1)),
        (node("p2"), "t2"): conj(("x", "<", 1)),
        (ret("a1", "q2"), "t3"): conj(("x", "=", 0)),
    }
    m2 = RhaComponent(
        name="T2",
        nodes=("q1", "q2"),
        entries=("q1",),
        exits=("q2",),
        boxes={"a2": "T2"},
        pass_by_value={"a2": frozenset()},
    )
    m2.transitions = {
        (node("q1"), "s1"): call("a2", "q1"),
        (node("q1"), "s2"): node("q2"),
        (ret("a2", "q2"), "s3"): node("q2"),
    }
    m2.guards = {
        (node("q1"), "s1"): conj(("x", "=", 1)),
        (node("q1"), "s2"): conj(("x", "<", 1)),
    }
    m2.resets = {(node("q1"), "s2"): frozenset({"x"})}
    return RhaModel(variables, [m1, m2])


def flat_game_arena_model():
    """A box-free RSM used to cross-check the game solver against the
    plain attractor on the identical flat arena."""
    comp = RsmComponent(
        name="F",
        nodes=("s0", "s1", "s2", "s3", "goal", "sink"),
        entries=("s0",),
        exits=(),
        boxes={},
    )
    comp.transitions = {
        (node("s0"), "l"): node("s1"),
        (node("s0"), "r"): node("s2"),
        (node("s1"), "w"): node("goal"),
        (node("s1"), "b"): node("sink"),
        (node("s2"), "w"): node("goal"),
        (node("s2"), "b"): node("sink"),
        (node("s3"), "w"): node("goal"),
        (node("sink"), "loop"): node("sink"),
    }
    partition = {
        node("s0"): Player.ACHILLES,
        node("s1"): Player.TORTOISE,
        node("s2"): Player.ACHILLES,
        node("s3"): Player.ACHILLES,
        node("goal"): Player.ACHILLES,
        node("sink"): Player.TORTOISE,
    }
    return RsmModel([comp]), partition
