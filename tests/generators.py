"""Seeded random instance generators for oracle-equivalence testing."""

import random
from typing import Tuple

from rhagames.games import Player
from rhagames.rsm import GamePartition, RsmComponent, RsmModel, call, node, ret


def random_hierarchical_game(seed: int) -> Tuple[RsmModel, GamePartition, str, frozenset]:
    """A random hierarchical game instance: up to 3 components of up to
    5 nodes and up to 2 exits each; boxes only call later components, so
    the configuration graph is finite and the unfolding oracle applies."""
    return _random_game(seed, recursive=False)


def random_recursive_game(seed: int) -> Tuple[RsmModel, GamePartition, str, frozenset]:
    """A random recursive game instance of the same shape, except that
    every component may have boxes and a box may call any component, its
    own included, so contexts grow without bound and only the
    depth-bounded sandwich oracle applies."""
    return _random_game(seed, recursive=True)


def _random_game(seed: int, recursive: bool) -> Tuple[RsmModel, GamePartition, str, frozenset]:
    rng = random.Random(seed)
    n_comps = rng.randint(1, 3)
    comps = []
    for i in range(n_comps):
        n_nodes = rng.randint(2, 5)
        nodes = tuple(f"c{i}n{j}" for j in range(n_nodes))
        n_exits = rng.randint(0 if i == 0 else 1, min(2, n_nodes - 1))
        exits = tuple(nodes[n_nodes - n_exits:]) if n_exits else ()
        n_entries = rng.randint(1, max(1, min(2, n_nodes - n_exits)))
        entries = tuple(nodes[:n_entries])
        boxes = {}
        if recursive or i < n_comps - 1:
            for b in range(rng.randint(0, 2)):
                boxes[f"c{i}b{b}"] = f"C{rng.randint(0 if recursive else i + 1, n_comps - 1)}"
        comps.append(
            RsmComponent(name=f"C{i}", nodes=nodes, entries=entries, exits=exits, boxes=boxes)
        )
    model = RsmModel(comps)

    counter = 0
    for comp in model.components:
        internal_targets = [node(n) for n in comp.nodes]
        for b, callee_name in comp.boxes.items():
            callee = model.by_name[callee_name]
            internal_targets.extend(call(b, en) for en in callee.entries)
        sources = [node(n) for n in comp.nodes if n not in comp.exits]
        for b, callee_name in comp.boxes.items():
            callee = model.by_name[callee_name]
            sources.extend(ret(b, ex) for ex in callee.exits)
        for src in sources:
            for _ in range(rng.randint(0, 2)):
                comp.transitions[(src, f"a{counter}")] = rng.choice(internal_targets)
                counter += 1

    partition: GamePartition = {
        loc: rng.choice((Player.ACHILLES, Player.TORTOISE)) for loc in model.all_locations()
    }
    start = rng.choice([n for n in model.components[0].nodes])
    all_locs = model.all_locations()
    finals = frozenset(rng.sample(all_locs, k=min(len(all_locs), rng.randint(1, 2))))
    return model, partition, start, finals
