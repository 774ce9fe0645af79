"""Seeded input generators for the benchmark workloads.

The generators return plain package objects, and every random choice
comes from the ``random.Random`` they are given, so the same seed always
yields the same inputs.  Machines come from constructive families rather
than rejection sampling: drawing random programs until one halts after
enough steps costs far more than the workloads themselves.  The workloads
pass the machine sizes and counters in as a balanced set (every run gets
the same mix), so that the run-to-run spread of a metric reflects the
program rather than the luck of the draw; the seed picks instruction
order, pump sizes, finite arenas and operation order.
"""

import random
from typing import Dict, List, Tuple

from rhagames.games import FiniteArena, Player
from rhagames.rsm import Location, RsmComponent, RsmModel, call, node, ret
from rhagames.tcm import Dec, Halt, Inc, TwoCounterMachine, ZeroCheck


def halting_machine(rng: random.Random, p: int, q: int, a: str) -> TwoCounterMachine:
    """Pump counter ``a`` p times and the other counter ``b`` q times (in
    a seeded order), transfer ``a`` into ``b`` with a zero-check loop,
    then drain ``b`` with another.

    Executed steps: p + q pumps, 3p + 1 for the transfer and
    2(p + q) + 1 for the drain, i.e. 6p + 3q + 2.  Every instruction
    kind and both counters are used."""
    b = "c2" if a == "c1" else "c1"
    pumps = [a] * p + [b] * q
    rng.shuffle(pumps)
    prog = [Inc(c, i + 1) for i, c in enumerate(pumps)]
    t = len(prog)  # transfer loop head
    d = t + 3  # drain loop head
    h = d + 2  # HALT
    prog += [ZeroCheck(a, t + 1, d), Dec(a, t + 2), Inc(b, t)]
    prog += [ZeroCheck(b, d + 1, h), Dec(b, d), Halt()]
    return TwoCounterMachine(tuple(prog))


def nonhalting_machine(p: int, a: str) -> TwoCounterMachine:
    """Pump counter ``a`` p times, then forever: move ``a`` into ``b``,
    move ``b`` back into ``a`` and increment ``a`` once more.  The
    counters keep changing and grow, so the encoded denominators grow
    with the run length.  The HALT instruction is unreachable."""
    b = "c2" if a == "c1" else "c1"
    prog = [Inc(a, i + 1) for i in range(p)]
    t = len(prog)  # a -> b loop head
    k = t + 3  # b -> a loop head
    prog += [ZeroCheck(a, t + 1, k), Dec(a, t + 2), Inc(b, t)]
    prog += [ZeroCheck(b, k + 1, k + 3), Dec(b, k + 2), Inc(a, k), Inc(a, t), Halt()]
    return TwoCounterMachine(tuple(prog))


GameInstance = Tuple[RsmModel, Dict[Location, Player], str, frozenset]


def recursive_game(rng: random.Random, n_comps: int, n_nodes: int, n_boxes: int) -> GameInstance:
    """A recursive RSM game: ``n_comps`` components of ``n_nodes`` nodes
    (1-2 entries, 1-2 exits) and ``n_boxes`` boxes whose callees are
    drawn from all components, so the call graph has cycles.  Every
    non-exit node and return port gets 1-2 transitions to a random node
    or call port of its component.  About 1% of the locations are final,
    and the owner of each location is drawn at random."""
    comps = []
    for i in range(n_comps):
        nodes = tuple(f"c{i}n{j}" for j in range(n_nodes))
        entries = nodes[: rng.randint(1, 2)]
        exits = nodes[n_nodes - rng.randint(1, 2):]
        boxes = {f"c{i}b{j}": f"C{rng.randrange(n_comps)}" for j in range(n_boxes)}
        comps.append(RsmComponent(f"C{i}", nodes, entries, exits, boxes))
    model = RsmModel(comps)
    label = 0
    for comp in model.components:
        targets = [node(n) for n in comp.nodes]
        sources = [node(n) for n in comp.nodes if n not in comp.exits]
        for box, callee_name in comp.boxes.items():
            callee = model.by_name[callee_name]
            targets.extend(call(box, en) for en in callee.entries)
            sources.extend(ret(box, ex) for ex in callee.exits)
        for src in sources:
            for _ in range(rng.randint(1, 2)):
                comp.transitions[(src, f"a{label}")] = rng.choice(targets)
                label += 1
    locations = model.all_locations()
    partition = {loc: rng.choice((Player.ACHILLES, Player.TORTOISE)) for loc in locations}
    finals = frozenset(rng.sample(locations, max(1, len(locations) // 100)))
    return model, partition, model.components[0].nodes[0], finals


def finite_arena(rng: random.Random, n_states: int) -> Tuple[FiniteArena, List[int]]:
    """A finite arena of ``n_states`` integer states with 1-3 actions
    each (a few dead ends), random owners, and about 1% target states."""
    transitions = []
    for s in range(n_states):
        if rng.random() < 0.02:
            continue
        for a in range(rng.randint(1, 3)):
            transitions.append((s, a, rng.randrange(n_states)))
    owner = {s: rng.choice((Player.ACHILLES, Player.TORTOISE)) for s in range(n_states)}
    targets = rng.sample(range(n_states), max(1, n_states // 100))
    return FiniteArena(range(n_states), transitions, owner), targets
