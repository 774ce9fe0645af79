"""Compile two-counter machines into reachability-game arenas on
recursive hybrid automata.

Two targets are supported; ``Target`` records everything in which they
differ:

``rta3``
    Three clocks x, y, z (all rates 1).  Delays are measured inside a
    shared one-node delay component; variables that must survive a
    measurement are protected by passing them by value at the box.

``rsa4``
    Four stopwatches x, y, z, u and glitch-free calls (every box passes
    all variables by value or none).  Delays are measured on the scratch
    stopwatch u while the others are frozen, so no selective
    pass-by-value is needed; u is rough work and carries no meaning
    between gadgets.

Counter values (c1, c2) after k executed instructions are encoded in
the entry valuation of each instruction component:

    x = 1 / (2^(k+c1) * 3^(k+c2)),   y = 1 / 2^k,   z = 0.

Each instruction divides y by 2 and x by a divisor that records the
counter update (12 for inc c1, 3 for dec c1, 6*3 for inc c2, 2 for
dec c2, 6 for a zero-check).  A divider gadget halves trust between the
players: Achilles picks the two delays that implement the division,
Tortoise may either continue or enter a check component; the check can
be completed exactly when the delay was faithful, and completing it
reaches a "pass" node that is final for Achilles.  Zero-check branches
are asserted by Achilles and may be challenged by Tortoise, in which
case Achilles must drive a scaling-chain certificate whose final
equality guards can only be met when the assertion is true.

The compiler declares the ``Role`` of every decision location it
builds, so the playout harness never has to recover roles from names.

The total time of a faithful unverified playout is below 4: instruction
k costs less than 2 * 2^-k.
"""

import re
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from .arith import Rational, Valuation, fmt, rat
from .errors import CompileError, ParseError
from .games import Player
from .rha import (
    RectConstraint,
    RhaComponent,
    RhaModel,
    classify,
    conj,
    is_glitch_free,
    rha_model_from_json,
    rha_model_to_json,
    validate_rha,
)
from .rsm import Location, call, node, parse_location, ret
from .tcm import Dec, Halt, Inc, TwoCounterMachine, ZeroCheck

SUPPORTED_DIVISORS = (2, 3, 6, 12)
SUPPORTED_FACTORS = (2, 3)

URGENT = conj(("z", "=", 0))

# The dividers each instruction applies, in order.
_DIVIDER_CHAINS = {
    ("inc", "c1"): [("y", 2), ("x", 12)],
    ("inc", "c2"): [("y", 2), ("x", 6), ("x", 3)],
    ("dec", "c1"): [("y", 2), ("x", 3)],
    ("dec", "c2"): [("y", 2), ("x", 2)],
    ("zerocheck", "c1"): [("y", 2), ("x", 6)],
    ("zerocheck", "c2"): [("y", 2), ("x", 6)],
}


def expected_valuation(k: int, c: int, d: int) -> Valuation:
    """Encoding of machine state (k instructions done, counters c, d)."""
    if min(k, c, d) < 0:
        raise CompileError("encoding parameters must be nonnegative")
    return {
        "x": Fraction(1, 2 ** (k + c) * 3 ** (k + d)),
        "y": Fraction(1, 2 ** k),
        "z": Fraction(0),
    }


def _other(a: str) -> str:
    if a not in ("x", "y"):
        raise CompileError(f"dividers operate on x or y, not {a!r}")
    return "y" if a == "x" else "x"


# ---------------------------------------------------------------------------
# Decision roles
# ---------------------------------------------------------------------------

FIRST, SECOND = "first", "second"  # Achilles' two free delays of a scaler
CHECK1, CHECK2 = "check1", "check2"  # Tortoise may audit the first / second delay
BRANCH = "branch"  # Achilles asserts a zero-check branch
POSITIVE, ZERO = "positive", "zero"  # Tortoise may challenge the asserted claim
CERT = "cert"  # Achilles' choice inside a certificate

# The fields each role kind carries besides its kind.
_ROLE_FIELDS = {
    FIRST: ("gadget", "holder"),
    SECOND: ("gadget", "holder"),
    CHECK1: ("gadget", "holder", "actions"),
    CHECK2: ("gadget", "holder", "actions"),
    BRANCH: ("actions",),
    POSITIVE: ("counter", "actions"),
    ZERO: ("counter", "actions"),
    CERT: ("rule", "actions"),
}
TORTOISE_ROLES = frozenset({CHECK1, CHECK2, POSITIVE, ZERO})


def _multiple_of_3(q: Rational) -> bool:
    return q.denominator == 1 and q.numerator % 3 == 0


# Tests of certificate rules, on the exact copies of x and y being rescaled.
CERT_TESTS: Dict[str, Callable[[Rational, Rational], bool]] = {
    "x=y": lambda x, y: x == y,
    "x=1": lambda x, y: x == 1,
    "y=1": lambda x, y: y == 1,
    "3|y/x": lambda x, y: x != 0 and _multiple_of_3(y / x),
    "3|1/x": lambda x, y: x != 0 and _multiple_of_3(1 / x),
}


@dataclass(frozen=True)
class Role:
    """The part a decision location plays in the reduction.

    Delay and check roles carry their scaler's ``gadget`` parameters
    (kind, operand, n) and the ``holder`` of its first measured delay.
    ``actions`` are (verify, continue) at Tortoise's decisions, (positive,
    zero) at a branch assertion, and at a certificate decision one action
    per test of ``rule`` plus a last one: Achilles takes the action of the
    first test that holds, else the last.  Claims name their ``counter``."""

    kind: str
    gadget: Optional[Tuple[str, str, int]] = None
    holder: Optional[str] = None
    actions: Tuple[str, ...] = ()
    counter: Optional[str] = None
    rule: Tuple[str, ...] = ()


def _role_to_json(role: Role) -> dict:
    return {k: v for k, v in asdict(role).items() if v}


def _role_from_json(data: dict, variables: Tuple[str, ...]) -> Role:
    """Parse one role record; ``ParseError`` unless its kind is known and
    every field the harness reads for that kind is present and well typed
    (an unknown field is a ``TypeError``)."""
    role = Role(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})
    kind, operand, n = role.gadget or ("div", "x", 1)
    well_formed = (
        role.kind in _ROLE_FIELDS
        and all(getattr(role, f) for f in _ROLE_FIELDS[role.kind])
        and kind in ("div", "mul") and operand in variables and type(n) is int and n > 0
        and role.holder in (None,) + variables
        and role.counter in (None, "c1", "c2")
        and all(test in CERT_TESTS for test in role.rule)
        and len(role.actions) in ((len(role.rule) + 1,) if role.kind == CERT else (0, 2))
        and all(isinstance(a, str) for a in role.actions)
    )
    if not well_formed:
        raise ParseError(f"arena sidecar: malformed role {data!r}")
    return role


@dataclass
class CompiledArena:
    """A compiled game arena plus the bookkeeping the harness needs:
    ``roles`` maps decision locations to their ``Role`` (a free delay in a
    shared callee entry is declared at the call port that enters it), and
    ``slots`` maps each instruction's gadget boxes and claim nodes to
    their verification slot: "div1", "div2", ... for the dividers in
    chain order, "branch" for the claim nodes of a zero-check.  Slots do
    not name the machine step: the harness counts it along the playout
    (``Position.step``).  Every return port is urgent (z = 0)."""

    model: RhaModel
    partition: Dict[Location, Player]
    finals: FrozenSet[Location]
    entry: Location
    initial_valuation: Valuation
    target: str
    time_bound: Rational = Fraction(4)
    instruction_anchor: Dict[int, Location] = field(default_factory=dict)
    roles: Dict[Location, Role] = field(default_factory=dict)
    slots: Dict[str, str] = field(default_factory=dict)

    def anchor_locations(self) -> FrozenSet[Location]:
        return frozenset(self.instruction_anchor.values())


# ---------------------------------------------------------------------------
# Component construction helpers
# ---------------------------------------------------------------------------


class _Builder:
    """Accumulates one component; names are prefixed with the component
    name so node/box/action names stay unique across the whole arena."""

    def __init__(self, factory: "GadgetFactory", name: str):
        self.factory = factory
        self.name = name
        self.comp = RhaComponent(
            name=name, nodes=(), entries=(), exits=(), boxes={},
        )
        self._nodes: List[str] = []
        self._entries: List[str] = []
        self._exits: List[str] = []

    def _full(self, short: str) -> str:
        return f"{self.name}.{short}"

    def node(
        self,
        short: str,
        entry: bool = False,
        exit_: bool = False,
        urgent: bool = False,
        ticks: Optional[Set[str]] = None,
        final: bool = False,
    ) -> str:
        """Add a node.  ``ticks`` names the variables that run there (the
        rest are stopped); an urgent node (z = 0) lets only z run.  Flows
        are written only for stopwatch targets: in a timed target every
        variable is a clock."""
        full = self._full(short)
        self._nodes.append(full)
        if entry:
            self._entries.append(full)
        if exit_:
            self._exits.append(full)
        if urgent:
            self.comp.invariants[node(full)] = URGENT
            ticks = {"z"}
        target = self.factory.target
        if ticks is not None and target.stopwatches:
            self.comp.flows[node(full)] = {v: Fraction(1 if v in ticks else 0) for v in target.variables}
        if final:
            self.factory.finals.add(node(full))
        return full

    def box(self, short: str, callee: str, passes: FrozenSet[str] = frozenset()) -> str:
        """Add a box calling ``callee`` (already built).  Every return
        port is urgent: control leaves a callee at once."""
        full = self._full(short)
        self.comp.boxes[full] = callee
        self.comp.pass_by_value[full] = frozenset(passes)
        for ex in self.factory.components[callee].exits:
            self.comp.invariants[ret(full, ex)] = URGENT
        return full

    def edge(
        self,
        src: Location,
        action_short: str,
        dst: Location,
        guard: RectConstraint = None,
        resets: FrozenSet[str] = frozenset(),
    ) -> str:
        action = self._full(action_short)
        if (src, action) in self.comp.transitions:
            raise CompileError(f"duplicate action {action}")
        self.comp.transitions[(src, action)] = dst
        if guard is not None:
            self.comp.guards[(src, action)] = guard
        if resets:
            self.comp.resets[(src, action)] = frozenset(resets)
        return action

    def declare(self, loc: Location, role: Role) -> None:
        """Record the role of a decision location (it decides the owner)."""
        self.factory.roles[loc] = role

    def cp(self, box_full: str) -> Location:
        """Call port of a box at its callee's (single) entry."""
        callee = self.factory.components[self.comp.boxes[box_full]]
        return call(box_full, callee.entries[0])

    def rp(self, box_full: str, which: int = 0) -> Location:
        callee = self.factory.components[self.comp.boxes[box_full]]
        return ret(box_full, callee.exits[which])

    def done(self) -> str:
        self.comp.nodes = tuple(self._nodes)
        self.comp.entries = tuple(self._entries)
        self.comp.exits = tuple(self._exits)
        self.factory.components[self.name] = self.comp
        return self.name


class GadgetFactory:
    """Builds (and memoizes) the gadget components for one target, and
    declares the roles and instruction slots of what it builds."""

    def __init__(self, target: str):
        if target not in TARGETS:
            raise CompileError(f"unknown target {target!r}")
        self.target: Target = TARGETS[target]
        self.components: Dict[str, RhaComponent] = {}
        self.finals: Set[Location] = set()
        self.roles: Dict[Location, Role] = {}
        self.slots: Dict[str, str] = {}

    def _gadget_pass(self, a: str) -> FrozenSet[str]:
        """Pass set of a box calling a scaler on ``a``: protects the other
        operand."""
        return self.target.protect(_other(a))

    def _have(self, name: str) -> bool:
        return name in self.components

    # -- shared leaf components -------------------------------------------

    def delay_cell(self) -> str:
        """rta3 only: a single node where an arbitrary delay may pass."""
        name = "Delay"
        if not self._have(name):
            b = _Builder(self, name)
            en = b.node("en", entry=True)
            ex = b.node("ex", exit_=True)
            b.edge(node(en), "go", node(ex))
            b.done()
        return name

    def _meet(self, name: str, v: str, w: str) -> str:
        """Simultaneity test: ``v`` and ``w`` reach 1 together iff they are
        equal."""
        if not self._have(name):
            b = _Builder(self, name)
            en = b.node("en", entry=True, ticks={v, w})
            ex = b.node("ex", exit_=True, ticks={"z"})
            b.edge(node(en), "meet", node(ex), guard=conj((v, "=", 1), (w, "=", 1)))
            b.done()
        return name

    # -- target arms ----------------------------------------------------------

    def _measure_in_delay_cell(self, b: _Builder, i: int, ticking: str):
        """rta3 measurement: the delay passes in the shared delay cell,
        entered with every clock but ``ticking`` passed by value; Tortoise
        decides at its return port."""
        box = b.box(f"d{i}", self.delay_cell(), frozenset(self.target.variables) - {ticking})
        return b.cp(box), b.rp(box), None

    def _measure_at_node(self, b: _Builder, i: int, ticking: str):
        """rsa4 measurement: the delay passes at a node where only
        ``ticking`` runs; Tortoise decides at the urgent node after it."""
        at = b.node(f"l{2 * i - 1}", ticks={ticking})
        decision = b.node(f"l{2 * i}", urgent=True)
        return node(at), node(decision), "measure" if i == 1 else "measure2"

    def _clock_wrap(self, kind: str, a: str, measured: str):
        """rta3 check wrap: wait until ``measured`` reaches 1, then leave.
        The caller passes ``measured`` and z by value, so each invocation
        adds (1 - measured) to the other clock and restores the rest."""
        name = f"Wrap_{measured}"
        if not self._have(name):
            b = _Builder(self, name)
            en = b.node("en", entry=True)
            ex = b.node("ex", exit_=True)
            b.edge(node(en), "hit", node(ex), guard=conj((measured, "=", 1)))
            b.done()
        return name, frozenset()

    def _stopwatch_wrap(self, kind: str, a: str, measured: str):
        """rsa4 check wrap: runs until ``measured`` reaches 1, adding
        (1 - measured) to its partner, then restores it and clears the
        scratch, in exactly one time unit.  Division checks measure u
        (which holds t) into ``a``; multiplication checks measure ``a``
        into u.  The check enters it with scratch b = 0."""
        b_var = _other(a)
        name = f"Wrap{'D' if kind == 'div' else 'M'}_{a}"
        if not self._have(name):
            b = _Builder(self, name)
            en = b.node("en", entry=True, ticks={a, b_var, "u"})
            mid = b.node("mid", ticks={measured, b_var})
            ex = b.node("ex", exit_=True, ticks={"z"})
            b.edge(node(en), "hit", node(mid), guard=conj((measured, "=", 1)), resets={measured})
            b.edge(node(mid), "back", node(ex), guard=conj((b_var, "=", 1)), resets={b_var})
            b.done()
        return name, frozenset({b_var})

    # -- check components ---------------------------------------------------

    def check(self, kind: str, a: str, n: int) -> str:
        """Verify the measured delay t of a scaler with n wraps, each adding
        (1 - m) to the partner of a measured variable m.  A division check
        verifies t = a/n: the wraps add n*(1-t) to ``a`` (which still holds
        its entry value), so the exit guard a = n holds iff n*t equals the
        entry value.  A multiplication check verifies t = n*a: the wraps add
        n*(1-a) to the holder of t, whose exit guard demands exactly n."""
        name = f"Chk{'D' if kind == 'div' else 'M'}_{a}_{n}"
        if not self._have(name):
            holder = self.target.holder(a)
            measured, sealed = (holder, a) if kind == "div" else (a, holder)
            wrap_name, start_resets = self.target.check_wrap(self, kind, a, measured)
            passes = self.target.protect(measured)
            b = _Builder(self, name)
            en = b.node("en", entry=True, urgent=True)
            ex = b.node("ex", exit_=True, urgent=True)
            boxes = [b.box(f"w{i}", wrap_name, passes) for i in range(1, n + 1)]
            b.edge(node(en), "start", b.cp(boxes[0]), resets=start_resets)
            for i in range(n - 1):
                b.edge(b.rp(boxes[i]), f"next{i + 1}", b.cp(boxes[i + 1]))
            b.edge(b.rp(boxes[-1]), "seal", node(ex), guard=conj((sealed, "=", n)))
            b.done()
        return name

    # -- dividers and multipliers -------------------------------------------

    def div(self, a: str, n: int) -> str:
        """Divider: enter with a = z0 (z = 0); the faithful play leaves at
        the exit with a = z0/n after exactly 2*z0/n time."""
        return self._scaler("div", a, n, "divisor", SUPPORTED_DIVISORS)

    def mul(self, a: str, m: int) -> str:
        """Multiplier: enter with a = z0 <= 1/m; leaves with a = m*z0
        after exactly 2*m*z0 time.  Same trust structure as the divider."""
        return self._scaler("mul", a, m, "factor", SUPPORTED_FACTORS)

    def _scaler(self, kind: str, a: str, n: int, what: str, supported: Tuple[int, ...]) -> str:
        """Common two-delay skeleton of dividers and multipliers: Achilles
        lets the first delay run into the holder, Tortoise audits it (check
        component) or continues; the catch-up delay then runs into ``a``,
        and Tortoise audits it (sync component) or lets the gadget exit."""
        if n not in supported:
            raise CompileError(f"unsupported {what} {n}; expected one of {supported}")
        name = f"{kind.capitalize()}_{a}_{n}"
        if self._have(name):
            return name
        check_name = self.check(kind, a, n)
        holder = self.target.holder(a)
        gadget = (kind, a, n)
        b = _Builder(self, name)
        en = b.node("en", entry=True, urgent=True)
        enter1, first, link1 = self.target.measure(self, b, 1, holder)
        k1 = b.box("k1", check_name, self.target.protect())
        enter2, second, link2 = self.target.measure(self, b, 2, a)
        k2 = b.box("k2", self._meet(*self.target.sync(a)), self.target.protect())
        sm = b.node("pass", final=True, ticks=set())
        ex = b.node("ex", exit_=True, urgent=True)
        b.edge(node(en), "arm", enter1, resets={holder})
        if link1:
            b.edge(enter1, link1, first)
        keep = b.edge(first, "keep", enter2, resets={a})
        audit = b.edge(first, "audit", b.cp(k1))
        if link2:
            b.edge(enter2, link2, second)
        keep2 = b.edge(second, "keep2", node(ex))
        audit2 = b.edge(second, "audit2", b.cp(k2))
        b.edge(b.rp(k1), "ok", node(sm))
        b.edge(b.rp(k2), "ok2", node(sm))
        b.declare(enter1, Role(FIRST, gadget, holder))
        b.declare(enter2, Role(SECOND, gadget, holder))
        b.declare(first, Role(CHECK1, gadget, holder, (audit, keep)))
        b.declare(second, Role(CHECK2, gadget, holder, (audit2, keep2)))
        return b.done()

    # -- branch certificates -----------------------------------------------

    def cert(self, counter: str, claim: str) -> str:
        """Certificate component asserting that a counter is zero or
        positive.  Entered on a Tortoise challenge with the full variable
        set passed by value, so it may freely rescale its copies.

        c1 (the power-of-2 counter): divide y by 3 until the 3-part of
        the encoding is exhausted; then y = x iff c1 = 0, and for the
        positive claim at least one division by 2 is forced first.

        c2 (the power-of-3 counter): co-scale x by 3 and y by 2 until
        y = 1, which pins the instruction count; then x can be doubled up
        to exactly 1 iff c2 = 0, and for the positive claim one
        multiplication by 3 is forced before the doubling phase.
        """
        if claim not in ("zero", "positive"):
            raise CompileError(f"bad claim {claim!r}")
        name = f"Cert{'Z' if claim == 'zero' else 'P'}_{counter}"
        if self._have(name):
            return name
        b = _Builder(self, name)
        en = b.node("en", entry=True, urgent=True)
        ex = b.node("ex", exit_=True, urgent=True)
        if counter == "c1":
            eq = b.box("e", self._meet(*self.target.equality), self.target.protect())
            g3 = b.box("g3", self.div("y", 3), self._gadget_pass("y"))
            if claim == "zero":
                loop = b.node("loop", urgent=True)
                b.edge(node(en), "begin", node(loop))
                div = b.edge(node(loop), "div", b.cp(g3))
                b.edge(b.rp(g3), "again", node(loop))
                fin = b.edge(node(loop), "fin", b.cp(eq))
                b.declare(node(loop), Role(CERT, actions=(fin, div), rule=("x=y",)))
            else:
                l1 = b.node("l1", urgent=True)
                l2 = b.node("l2", urgent=True)
                s = b.box("s", self.div("y", 2), self._gadget_pass("y"))
                g2 = b.box("g2", self.div("y", 2), self._gadget_pass("y"))
                b.edge(node(en), "begin", node(l1))
                div3 = b.edge(node(l1), "div3", b.cp(g3))
                b.edge(b.rp(g3), "again3", node(l1))
                step = b.edge(node(l1), "step", b.cp(s))
                b.edge(b.rp(s), "toloop", node(l2))
                div2 = b.edge(node(l2), "div2", b.cp(g2))
                b.edge(b.rp(g2), "again2", node(l2))
                fin = b.edge(node(l2), "fin", b.cp(eq))
                b.declare(node(l1), Role(CERT, actions=(div3, step), rule=("3|y/x",)))
                b.declare(node(l2), Role(CERT, actions=(fin, div2), rule=("x=y",)))
            b.edge(b.rp(eq), "done", node(ex))
        else:
            m3 = b.box("m3", self.mul("x", 3), self._gadget_pass("x"))
            m2 = b.box("m2", self.mul("y", 2), self._gadget_pass("y"))
            d2 = b.box("d2", self.mul("x", 2), self._gadget_pass("x"))
            ls = b.node("ls", urgent=True)
            lb = b.node("lb", urgent=True)
            b.edge(node(en), "begin", node(ls))
            rounds = b.edge(node(ls), "round", b.cp(m3))
            b.edge(b.rp(m3), "mid", b.cp(m2))
            b.edge(b.rp(m2), "again", node(ls))
            if claim == "zero":
                lock = b.edge(node(ls), "lock", node(lb), guard=conj(("y", "=", 1)))
                tests, chances = ("x=1",), ()
            else:
                fb = b.node("fb", urgent=True)
                bump = b.box("bump", self.mul("x", 3), self._gadget_pass("x"))
                t3 = b.box("t3", self.mul("x", 3), self._gadget_pass("x"))
                lock = b.edge(node(ls), "lock", node(fb), guard=conj(("y", "=", 1)))
                b.edge(node(fb), "bump", b.cp(bump))
                b.edge(b.rp(bump), "tolb", node(lb))
                tri = b.edge(node(lb), "tri", b.cp(t3))
                b.edge(b.rp(t3), "again3", node(lb))
                tests, chances = ("x=1", "3|1/x"), (tri,)
            dbl = b.edge(node(lb), "dbl", b.cp(d2))
            b.edge(b.rp(d2), "again2", node(lb))
            fin = b.edge(node(lb), "fin", node(ex), guard=conj(("x", "=", 1)))
            b.declare(node(ls), Role(CERT, actions=(lock, rounds), rule=("y=1",)))
            b.declare(node(lb), Role(CERT, actions=(fin,) + chances + (dbl,), rule=tests))
        b.done()
        return name

    # -- instruction components ----------------------------------------------

    def instruction(self, name: str, kind: str, counter: Optional[str]):
        """Build an instruction component and declare the slots of its
        gadget boxes and claim nodes.  Returns (component name, exit-label
        map).  Exit labels: "next" for inc/dec, "pos"/"zero" for
        zero-checks, "halt" for halt."""
        b = _Builder(self, name)
        en = b.node("en", entry=True, urgent=True)
        if kind == "halt":
            halt = b.node("halt", exit_=True, urgent=True)
            b.edge(node(en), "stop", node(halt))
            b.done()
            return name, {"halt": halt}

        chain = _DIVIDER_CHAINS.get((kind, counter))
        if chain is None:
            raise CompileError(f"unknown instruction kind {kind}/{counter}")
        boxes = []
        for i, (a, n) in enumerate(chain, start=1):
            g = b.box(f"g{i}", self.div(a, n), self._gadget_pass(a))
            boxes.append(g)
            self.slots[g] = f"div{i}"
        b.edge(node(en), "go", b.cp(boxes[0]))
        for i in range(len(boxes) - 1):
            b.edge(b.rp(boxes[i]), f"go{i + 2}", b.cp(boxes[i + 1]))
        last = b.rp(boxes[-1])

        if kind in ("inc", "dec"):
            ex = b.node("ex", exit_=True, urgent=True)
            b.edge(last, "out", node(ex))
            b.done()
            return name, {"next": ex}

        # zero-check: Achilles asserts the branch, Tortoise may challenge.
        br = b.node("br", urgent=True)
        vp = b.node("vp", urgent=True)
        vz = b.node("vz", urgent=True)
        sm = b.node("pass", final=True, ticks=set())
        expos = b.node("expos", exit_=True, urgent=True)
        exzero = b.node("exzero", exit_=True, urgent=True)
        everything = frozenset(self.target.variables)
        cert_pos = b.box("cp", self.cert(counter, "positive"), everything)
        cert_zero = b.box("cz", self.cert(counter, "zero"), everything)
        b.edge(last, "toassert", node(br))
        apos = b.edge(node(br), "apos", node(vp))
        azero = b.edge(node(br), "azero", node(vz))
        accept = b.edge(node(vp), "accept", node(expos))
        challenge = b.edge(node(vp), "challenge", b.cp(cert_pos))
        b.edge(node(vz), "accept", node(exzero))
        b.edge(node(vz), "challenge", b.cp(cert_zero))
        b.edge(b.rp(cert_pos), "okp", node(sm))
        b.edge(b.rp(cert_zero), "okz", node(sm))
        b.declare(node(br), Role(BRANCH, actions=(apos, azero)))
        b.declare(node(vp), Role(POSITIVE, actions=(challenge, accept), counter=counter))
        b.declare(node(vz), Role(ZERO, actions=(challenge, accept), counter=counter))
        self.slots[vp] = self.slots[vz] = "branch"
        b.done()
        return name, {"pos": expos, "zero": exzero}


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """Everything in which the two targets differ."""

    name: str
    variables: Tuple[str, ...]
    kind: str  # what ``classify`` reports for every arena of the target
    # Flows stop variables, and calls are glitch-free; otherwise every
    # variable is a clock and boxes protect variables by value.
    stopwatches: bool
    holder: Callable[[str], str]  # holds a scaler's first delay, by operand
    sync: Callable[[str], Tuple[str, str, str]]  # catch-up test (component, v, w), by operand
    equality: Tuple[str, str, str]  # x = y test of the certificates
    # Arms of the scaler and check skeletons (``GadgetFactory`` methods):
    # one free-delay measurement -> (delay location, decision, link action);
    # the wrap of a check -> (wrap component, resets when the check starts).
    measure: Callable
    check_wrap: Callable

    def protect(self, *variables: str) -> FrozenSet[str]:
        """Pass set of a box that must leave ``variables`` (and z) as
        they were: empty when calls are glitch-free."""
        return frozenset() if self.stopwatches else frozenset(variables) | {"z"}


RTA3 = Target(
    name="rta3",
    variables=("x", "y", "z"),
    kind="timed",
    stopwatches=False,
    holder=_other,
    sync=lambda a: ("Sync", "x", "y"),
    equality=("Sync", "x", "y"),
    measure=GadgetFactory._measure_in_delay_cell,
    check_wrap=GadgetFactory._clock_wrap,
)
RSA4 = Target(
    name="rsa4",
    variables=("x", "y", "z", "u"),
    kind="stopwatch",
    stopwatches=True,
    holder=lambda a: "u",
    sync=lambda a: (f"Sync_{a}", a, "u"),
    equality=("Eq", "x", "y"),
    measure=GadgetFactory._measure_at_node,
    check_wrap=GadgetFactory._stopwatch_wrap,
)
TARGETS = {t.name: t for t in (RTA3, RSA4)}


# ---------------------------------------------------------------------------
# Whole-machine compilation
# ---------------------------------------------------------------------------


def _instruction_kind(ins) -> Tuple[str, Optional[str]]:
    if isinstance(ins, Inc):
        return "inc", ins.counter
    if isinstance(ins, Dec):
        return "dec", ins.counter
    if isinstance(ins, ZeroCheck):
        return "zerocheck", ins.counter
    if isinstance(ins, Halt):
        return "halt", None
    raise CompileError(f"unknown instruction {ins!r}")


def compile(machine: TwoCounterMachine, target: str) -> CompiledArena:
    """Translate a two-counter machine into a compiled game arena."""
    factory = GadgetFactory(target)
    exit_maps: Dict[int, Dict[str, str]] = {}
    for k, ins in enumerate(machine.instructions):
        _, exit_maps[k] = factory.instruction(f"I{k}", *_instruction_kind(ins))

    main = _Builder(factory, "Main")
    en = main.node("en", entry=True, urgent=True)
    halt_node = main.node("HALT", exit_=True, urgent=True, final=True)
    boxes = {k: main.box(f"i{k}", f"I{k}") for k in range(len(machine.instructions))}
    main.edge(node(en), "boot", main.cp(boxes[0]))
    successor = {"next": "next", "pos": "next_if_positive", "zero": "next_if_zero"}
    for k, ins in enumerate(machine.instructions):
        for label, exit_name in exit_maps[k].items():
            port = ret(boxes[k], exit_name)
            if label == "halt":
                main.edge(port, f"finish{k}", node(halt_node))
            else:
                main.edge(port, f"goto{k}_{label}", main.cp(boxes[getattr(ins, successor[label])]))
    main.done()
    return _finish(
        factory, "Main", expected_valuation(0, 0, 0),
        instruction_anchor={k: node(f"I{k}.en") for k in range(len(machine.instructions))},
    )


def _finish(factory: GadgetFactory, host: str, entry_values: Dict[str, Rational], **bookkeeping) -> CompiledArena:
    """Close a build whose outermost component is ``host``: put it first,
    check the model against its target class, give Tortoise the locations
    of its decision roles and Achilles all others, and start it at
    ``entry_values`` (other variables 0)."""
    target = factory.target
    ordered = [factory.components[host]] + [
        comp for name, comp in factory.components.items() if name != host
    ]
    model = RhaModel(target.variables, ordered)
    problems = validate_rha(model)
    if problems:
        raise CompileError(f"{host} arena fails validation: " + "; ".join(problems))
    kind, _tags = classify(model)
    if kind != target.kind or (target.stopwatches and not is_glitch_free(model)):
        glitch_free = "glitch-free " if target.stopwatches else ""
        raise CompileError(f"{target.name} arena must be a {glitch_free}{target.kind} automaton, not {kind}")

    tortoise = {loc for loc, role in factory.roles.items() if role.kind in TORTOISE_ROLES}
    partition = {loc: Player.TORTOISE if loc in tortoise else Player.ACHILLES for loc in model.all_locations()}
    initial = {v: Fraction(0) for v in target.variables}
    for k, v in entry_values.items():
        initial[k] = rat(v)
    return CompiledArena(
        model=model,
        partition=partition,
        finals=frozenset(factory.finals),
        entry=node(f"{host}.en"),
        initial_valuation=initial,
        target=target.name,
        roles=dict(factory.roles),
        slots=dict(factory.slots),
        **bookkeeping,
    )


# ---------------------------------------------------------------------------
# Single-gadget arenas (testing and demonstration)
# ---------------------------------------------------------------------------


@dataclass
class GadgetBundle:
    """A gadget component and the factory that built it with everything
    it depends on; ``operand`` is set when the gadget is a scaler."""

    name: str
    factory: GadgetFactory
    operand: Optional[str] = None


def build_div(variable: str, n: int, target: str) -> GadgetBundle:
    """Build a divider component (with its dependencies) in isolation."""
    factory = GadgetFactory(target)
    return GadgetBundle(factory.div(variable, n), factory, variable)


def build_instruction(kind: str, counter: Optional[str], target: str) -> GadgetBundle:
    """Build one instruction component (with dependencies) in isolation."""
    factory = GadgetFactory(target)
    kind_l = kind.lower()
    name = f"{kind_l.capitalize()}_{counter}" if counter else kind_l.capitalize()
    factory.instruction(name, kind_l, counter)
    return GadgetBundle(name, factory)


def host_arena(bundle: GadgetBundle, entry_values: Dict[str, Rational]) -> CompiledArena:
    """Wrap a gadget bundle in a one-box host component, built in the
    bundle's factory, so it can be driven by the playout harness.  The
    host's ``done`` node is final; a scaler's box takes slot div1."""
    factory = bundle.factory
    gadget = factory.components[bundle.name]

    b = _Builder(factory, "Host")
    en = b.node("en", entry=True, urgent=True)
    done = b.node("done", final=True, ticks=set())
    scaler = bundle.operand is not None
    g = b.box("g", bundle.name, factory._gadget_pass(bundle.operand) if scaler else frozenset())
    b.edge(node(en), "go", b.cp(g))
    for i in range(len(gadget.exits)):
        b.edge(b.rp(g, i), f"out{i}", node(done))
    b.done()
    if scaler:
        factory.slots[g] = "div1"
    return _finish(factory, "Host", entry_values)


# ---------------------------------------------------------------------------
# Arena (de)serialization: rha JSON plus a sidecar
# ---------------------------------------------------------------------------


def arena_to_json(arena: CompiledArena) -> Tuple[dict, dict]:
    model_json = rha_model_to_json(
        arena.model,
        start=arena.entry.name,
        partition=arena.partition,
        finals=arena.finals,
    )
    sidecar = {
        "target": arena.target,
        "time_bound": fmt(arena.time_bound),
        "initialValuation": {k: fmt(v) for k, v in arena.initial_valuation.items()},
        "anchors": {str(k): str(loc) for k, loc in arena.instruction_anchor.items()},
        "roles": {
            "locations": {str(loc): _role_to_json(role) for loc, role in arena.roles.items()},
            "slots": dict(arena.slots),
        },
    }
    return model_json, sidecar


def arena_from_json(model_json: dict, sidecar: dict) -> CompiledArena:
    """Load an arena; raises ``ParseError`` when the model is not well
    formed or does not start at one of its nodes, or when the sidecar
    lacks a field or does not fit the model.  The model's ``start`` is
    the entry (a sidecar ``entry`` of older arenas is ignored)."""
    model, start, partition, finals = rha_model_from_json(model_json)
    if partition is None or finals is None:
        raise ParseError("arena JSON must carry partition and finals")
    problems = validate_rha(model)
    if problems:
        raise ParseError("arena model is not well formed: " + "; ".join(problems))
    boxes = {b for comp in model.components for b in comp.boxes}
    nodes = {n for comp in model.components for n in comp.nodes}
    if not isinstance(start, str) or start not in nodes:
        raise ParseError(f"arena model: start {start!r} is not a node of the model")
    try:
        roles = sidecar["roles"]
        arena = CompiledArena(
            model=model,
            partition=partition,
            finals=finals,
            entry=node(start),
            initial_valuation={k: rat(v) for k, v in sidecar["initialValuation"].items()},
            target=sidecar["target"],
            time_bound=rat(sidecar["time_bound"]),
            instruction_anchor={int(k): parse_location(v) for k, v in sidecar.get("anchors", {}).items()},
            roles={
                parse_location(loc): _role_from_json(role, model.variables)
                for loc, role in roles["locations"].items()
            },
            slots=dict(roles["slots"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"bad arena sidecar: {exc!r}") from exc
    if not all(isinstance(slot, str) for slot in arena.slots.values()):
        raise ParseError("arena sidecar: every slot must be a name such as \"div1\" or \"branch\"")
    for key, slot in arena.slots.items():
        if key not in boxes and key not in nodes:
            raise ParseError(f"arena sidecar: slot key {key!r} is neither a box nor a node of the model")
        if not (key in boxes and re.fullmatch(r"div[1-9][0-9]*", slot) or key in nodes and slot == "branch"):
            raise ParseError(f"arena sidecar: slot {slot!r} at {key!r}; a box takes div<n>, a node \"branch\"")
    locations = set(model.all_locations())
    if set(arena.initial_valuation) != set(model.variables):
        raise ParseError("arena sidecar: initialValuation must value exactly the model's variables")
    labels = {key for comp in model.components for key in comp.transitions}
    for loc, role in arena.roles.items():
        if loc not in locations:
            raise ParseError(f"arena sidecar: role at {loc}, which is not a location of the model")
        if any((loc, action) not in labels for action in role.actions):
            raise ParseError(f"arena sidecar: role at {loc} names an action that does not leave it")
    return arena
