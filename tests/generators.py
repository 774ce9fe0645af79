"""Seeded random instance generators for oracle-equivalence testing,
and Hypothesis strategies for random model documents."""

import random
from typing import Tuple

from hypothesis import strategies as st

from rhagames.arith import fmt
from rhagames.games import Player
from rhagames.rha import RELATIONS
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


@st.composite
def rha_documents(draw, playable: bool = False):
    """A canonical RHA model document: rerunning the codec must give it
    back unchanged.  One label sits on two transitions with different
    resets; guards and invariants may be "false"; flows are rational.

    A ``playable`` document validates: it draws transitions only out of
    locations that may have them (no call port, no exit).  So that runs
    push and pop often, each of its components has a box, transitions
    lead into the exit three times as often as elsewhere, and
    constraints are more often satisfiable."""
    variables = draw(st.lists(st.sampled_from(("x", "y", "z", "u")), min_size=1, unique=True))
    subsets = st.lists(st.sampled_from(variables), unique=True).map(sorted)
    atom = st.fixed_dictionaries(
        {"var": st.sampled_from(variables), "rel": st.sampled_from(RELATIONS), "bound": st.integers(0, 5)}
    )
    constraint = st.one_of(st.just("false"), st.lists(atom, max_size=2))
    if playable:
        constraint = st.one_of(constraint, *[st.lists(atom, max_size=1)] * 3)
    rate = st.fractions(min_value=0, max_value=3, max_denominator=6).map(fmt)
    nodes = [[f"c{i}n{j}" for j in range(draw(st.integers(2, 4)))] for i in range(draw(st.integers(1, 3)))]
    components, locations = [], []
    for i, own in enumerate(nodes):
        boxes = [
            {"name": f"c{i}b{k}", "callee": f"C{callee}", "passByValue": draw(subsets)}
            for k, callee in enumerate(draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1 if playable else 0, max_size=2)))
        ]
        locs = [f"node:{n}" for n in own]
        for box in boxes:
            callee_nodes = nodes[int(box["callee"][1:])]
            locs += [f"call:{box['name']}:{callee_nodes[0]}", f"ret:{box['name']}:{callee_nodes[-1]}"]
        sources, targets = locs, locs
        if playable:
            sources = [loc for loc in locs if not loc.startswith("call:") and loc != f"node:{own[-1]}"]
            targets = locs + [f"node:{own[-1]}"] * 2  # the exit three times
        first_resets = draw(subsets)
        second = sources[min(1, len(sources) - 1)]
        shared = [(sources[0], first_resets), (second, draw(subsets.filter(lambda r: r != first_resets)))]
        others = [(src, draw(subsets)) for src in draw(st.lists(st.sampled_from(sources), max_size=6 if playable else 3))]
        transitions = [
            {"from": src, "action": action, "to": draw(st.sampled_from(targets)),
             "guard": draw(constraint), "resets": resets}
            for action, (src, resets) in [("go", t) for t in shared] + [(f"a{k}", t) for k, t in enumerate(others)]
        ]
        components.append({
            "name": f"C{i}",
            "nodes": own,
            "entries": own[:1],
            "exits": own[-1:],
            "boxes": boxes,
            "transitions": transitions,
            "invariants": {loc: draw(constraint) for loc in draw(st.lists(st.sampled_from(locs), unique=True))},
            "flows": {
                loc: {x: draw(rate) for x in variables}
                for loc in draw(st.lists(st.sampled_from(locs), unique=True))
            },
        })
        locations += locs
    achilles = draw(st.lists(st.sampled_from(locations), unique=True))
    return {
        "variables": variables,
        "components": components,
        "start": nodes[0][0],
        "partition": {
            "achilles": sorted(achilles),
            "tortoise": sorted(loc for loc in locations if loc not in achilles),
        },
        "finals": sorted(draw(st.lists(st.sampled_from(locations), unique=True))),
    }
