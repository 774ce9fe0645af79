"""Compile two-counter machines into reachability-game arenas on
recursive hybrid automata.

Two targets are supported:

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

The total time of a faithful unverified playout is below 4: instruction
k costs less than 2 * 2^-k.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .arith import Rational, Valuation, fmt, rat
from .errors import CompileError, ModelError, ParseError
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

RTA3 = "rta3"
RSA4 = "rsa4"
TARGETS = (RTA3, RSA4)

SUPPORTED_DIVISORS = (2, 3, 6, 12)
SUPPORTED_FACTORS = (2, 3)

URGENT = conj(("z", "=", 0))


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


@dataclass
class CompiledArena:
    """A compiled game arena plus the bookkeeping the harness needs."""

    model: RhaModel
    partition: Dict[Location, Player]
    finals: FrozenSet[Location]
    entry: Location
    initial_valuation: Valuation
    target: str
    time_bound: Rational = Fraction(4)
    instruction_anchor: Dict[int, Location] = field(default_factory=dict)
    gadget_slots: Dict[int, Dict[str, str]] = field(default_factory=dict)
    gadget_params: Dict[str, Tuple[str, str, int]] = field(default_factory=dict)

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
        inv: RectConstraint = None,
        ticks: Optional[Set[str]] = None,
        owner: Player = Player.ACHILLES,
        final: bool = False,
    ) -> str:
        full = self._full(short)
        self._nodes.append(full)
        if entry:
            self._entries.append(full)
        if exit_:
            self._exits.append(full)
        if urgent:
            self.comp.invariants[node(full)] = URGENT
            if self.factory.target == RSA4:
                ticks = {"z"}
        elif inv is not None:
            self.comp.invariants[node(full)] = inv
        if ticks is not None:
            if self.factory.target == RTA3:
                raise CompileError("rta3 components cannot stop clocks")
            self.comp.flows[node(full)] = {
                v: Fraction(1 if v in ticks else 0) for v in self.factory.variables
            }
        self.factory.partition[node(full)] = owner
        if final:
            self.factory.finals.add(node(full))
        return full

    def box(self, short: str, callee: str, passes: FrozenSet[str] = frozenset()) -> str:
        full = self._full(short)
        self.comp.boxes[full] = callee
        self.comp.pass_by_value[full] = frozenset(passes)
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

    def port_owner(self, loc: Location, owner: Player) -> None:
        self.factory.partition[loc] = owner

    def port_urgent(self, loc: Location) -> None:
        self.comp.invariants[loc] = URGENT

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
        for loc in [node(n) for n in self._nodes]:
            self.factory.partition.setdefault(loc, Player.ACHILLES)
        for b in self.comp.boxes:
            callee = self.factory.components[self.comp.boxes[b]]
            for en in callee.entries:
                self.factory.partition.setdefault(call(b, en), Player.ACHILLES)
            for ex in callee.exits:
                self.factory.partition.setdefault(ret(b, ex), Player.ACHILLES)
        self.factory.components[self.name] = self.comp
        return self.name


class GadgetFactory:
    """Builds (and memoizes) the gadget components for one target."""

    def __init__(self, target: str):
        if target not in TARGETS:
            raise CompileError(f"unknown target {target!r}")
        self.target = target
        self.variables: Tuple[str, ...] = ("x", "y", "z") if target == RTA3 else ("x", "y", "z", "u")
        self.components: Dict[str, RhaComponent] = {}
        self.partition: Dict[Location, Player] = {}
        self.finals: Set[Location] = set()
        self.gadget_params: Dict[str, Tuple[str, str, int]] = {}

    def all_by_value(self) -> FrozenSet[str]:
        return frozenset(self.variables)

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

    def wrap(self, measured: str) -> str:
        """rta3 wrap: wait until ``measured`` reaches 1, then leave.  The
        caller passes ``measured`` and z by value, so each invocation adds
        (1 - measured) to the other clock and restores the rest."""
        name = f"Wrap_{measured}"
        if not self._have(name):
            b = _Builder(self, name)
            en = b.node("en", entry=True)
            ex = b.node("ex", exit_=True)
            b.edge(node(en), "hit", node(ex), guard=conj((measured, "=", 1)))
            b.done()
        return name

    def wrap_sw(self, kind: str, a: str) -> str:
        """rsa4 wrap for checks: runs until the measured variable m reaches
        1, adding (1 - m) to its partner, then restores m and clears the
        scratch, in exactly one time unit.  Division checks measure u (which
        holds t) into ``a``; multiplication checks measure ``a`` into u.
        Entered with scratch b = 0."""
        b_var = _other(a)
        measured = "u" if kind == "div" else a
        name = f"Wrap{'D' if kind == 'div' else 'M'}_{a}"
        if not self._have(name):
            b = _Builder(self, name)
            en = b.node("en", entry=True, ticks={a, b_var, "u"})
            mid = b.node("mid", ticks={measured, b_var})
            ex = b.node("ex", exit_=True, ticks={"z"})
            b.edge(node(en), "hit", node(mid), guard=conj((measured, "=", 1)), resets={measured})
            b.edge(node(mid), "back", node(ex), guard=conj((b_var, "=", 1)), resets={b_var})
            b.done()
        return name

    def sync(self, a: str = None) -> str:
        """Simultaneity check: two variables reach 1 together iff they are
        equal.  rta3 compares x with y; rsa4 compares ``a`` with u."""
        if self.target == RTA3:
            name = "Sync"
            vars_ = ("x", "y")
        else:
            name = f"Sync_{a}"
            vars_ = (a, "u")
        if not self._have(name):
            b = _Builder(self, name)
            ticks = set(vars_) if self.target == RSA4 else None
            en = b.node("en", entry=True, ticks=ticks)
            ex = b.node("ex", exit_=True, ticks={"z"} if self.target == RSA4 else None)
            b.edge(
                node(en), "meet", node(ex),
                guard=conj((vars_[0], "=", 1), (vars_[1], "=", 1)),
            )
            b.done()
        return name

    def equality(self) -> str:
        """x = y test used by the certificates (same shape as sync)."""
        if self.target == RTA3:
            return self.sync()
        name = "Eq"
        if not self._have(name):
            b = _Builder(self, name)
            en = b.node("en", entry=True, ticks={"x", "y"})
            ex = b.node("ex", exit_=True, ticks={"z"})
            b.edge(node(en), "meet", node(ex), guard=conj(("x", "=", 1), ("y", "=", 1)))
            b.done()
        return name

    # -- check components ---------------------------------------------------

    def check(self, kind: str, a: str, n: int) -> str:
        """Verify the measured delay t of a scaler with n wraps, each adding
        (1 - m) to the partner of a measured variable m.  A division check
        verifies t = a/n: the wraps add n*(1-t) to ``a`` (which still holds
        its entry value), so the exit guard a = n holds iff n*t equals the
        entry value.  A multiplication check verifies t = n*a: the wraps add
        n*(1-a) to the holder of t, whose exit guard demands exactly n."""
        b_var = _other(a)
        name = f"Chk{'D' if kind == 'div' else 'M'}_{a}_{n}"
        if not self._have(name):
            holder = b_var if self.target == RTA3 else "u"  # holds t after the scaler's first delay
            measured, sealed = (holder, a) if kind == "div" else (a, holder)
            if self.target == RTA3:
                wrap_name = self.wrap(measured)
                passes = frozenset({measured, "z"})
                start_resets: FrozenSet[str] = frozenset()
            else:
                wrap_name = self.wrap_sw(kind, a)
                passes = frozenset()
                start_resets = frozenset({b_var})
            b = _Builder(self, name)
            en = b.node("en", entry=True, urgent=True)
            ex = b.node("ex", exit_=True, urgent=True)
            boxes = [b.box(f"w{i}", wrap_name, passes) for i in range(1, n + 1)]
            b.edge(node(en), "start", b.cp(boxes[0]), resets=start_resets)
            for i in range(n - 1):
                b.port_urgent(b.rp(boxes[i]))
                b.edge(b.rp(boxes[i]), f"next{i + 1}", b.cp(boxes[i + 1]))
            b.port_urgent(b.rp(boxes[-1]))
            b.edge(b.rp(boxes[-1]), "seal", node(ex), guard=conj((sealed, "=", n)))
            b.done()
        return name

    # -- dividers and multipliers -------------------------------------------

    def div(self, a: str, n: int) -> str:
        """Divider: enter with a = z0 (z = 0); the faithful play leaves at
        the exit with a = z0/n after exactly 2*z0/n time."""
        if n not in SUPPORTED_DIVISORS:
            raise CompileError(f"unsupported divisor {n}; expected one of {SUPPORTED_DIVISORS}")
        name = f"Div_{a}_{n}"
        if not self._have(name):
            self._scaler(name, "div", a, n)
        return name

    def mul(self, a: str, m: int) -> str:
        """Multiplier: enter with a = z0 <= 1/m; leaves with a = m*z0
        after exactly 2*m*z0 time.  Same trust structure as the divider."""
        if m not in SUPPORTED_FACTORS:
            raise CompileError(f"unsupported factor {m}; expected one of {SUPPORTED_FACTORS}")
        name = f"Mul_{a}_{m}"
        if not self._have(name):
            self._scaler(name, "mul", a, m)
        return name

    def _scaler(self, name: str, kind: str, a: str, n: int) -> None:
        """Common two-delay skeleton of dividers and multipliers."""
        check_name = self.check(kind, a, n)
        b_var = _other(a)
        self.gadget_params[name] = (kind, a, n)
        b = _Builder(self, name)
        if self.target == RTA3:
            delay = self.delay_cell()
            en = b.node("en", entry=True, urgent=True)
            sm = b.node("pass", final=True)
            ex = b.node("ex", exit_=True, urgent=True)
            d1 = b.box("d1", delay, frozenset({a, "z"}))
            k1 = b.box("k1", check_name, frozenset({"z"}))
            d2 = b.box("d2", delay, frozenset({b_var, "z"}))
            k2 = b.box("k2", self.sync(), frozenset({"z"}))
            b.edge(node(en), "arm", b.cp(d1), resets={b_var})
            first = b.rp(d1)
            b.port_owner(first, Player.TORTOISE)
            b.port_urgent(first)
            b.edge(first, "keep", b.cp(d2), resets={a})
            b.edge(first, "audit", b.cp(k1))
            second = b.rp(d2)
            b.port_owner(second, Player.TORTOISE)
            b.port_urgent(second)
            b.edge(second, "keep2", node(ex))
            b.edge(second, "audit2", b.cp(k2))
            b.port_urgent(b.rp(k1))
            b.port_urgent(b.rp(k2))
            b.edge(b.rp(k1), "ok", node(sm))
            b.edge(b.rp(k2), "ok2", node(sm))
        else:
            en = b.node("en", entry=True, urgent=True)
            l1 = b.node("l1", ticks={"u"})
            l2 = b.node("l2", urgent=True, owner=Player.TORTOISE)
            l3 = b.node("l3", ticks={a})
            l4 = b.node("l4", urgent=True, owner=Player.TORTOISE)
            sm = b.node("pass", ticks=set(), final=True)
            ex = b.node("ex", exit_=True, urgent=True)
            k1 = b.box("k1", check_name)
            k2 = b.box("k2", self.sync(a))
            b.edge(node(en), "arm", node(l1), resets={"u"})
            b.edge(node(l1), "measure", node(l2))
            b.edge(node(l2), "keep", node(l3), resets={a})
            b.edge(node(l2), "audit", b.cp(k1))
            b.edge(node(l3), "measure2", node(l4))
            b.edge(node(l4), "keep2", node(ex))
            b.edge(node(l4), "audit2", b.cp(k2))
            b.port_urgent(b.rp(k1))
            b.port_urgent(b.rp(k2))
            b.edge(b.rp(k1), "ok", node(sm))
            b.edge(b.rp(k2), "ok2", node(sm))
        b.done()

    # -- branch certificates -----------------------------------------------

    def _gadget_pass(self, a: str) -> FrozenSet[str]:
        """Pass set protecting the non-operand variable inside certificates."""
        if self.target == RSA4:
            return frozenset()
        return frozenset({_other(a), "z"})

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
            eq_passes = frozenset({"z"}) if self.target == RTA3 else frozenset()
            eq = b.box("e", self.equality(), eq_passes)
            g3 = b.box("g3", self.div("y", 3), self._gadget_pass("y"))
            if claim == "zero":
                loop = b.node("loop", urgent=True)
                b.edge(node(en), "begin", node(loop))
                b.edge(node(loop), "div", b.cp(g3))
                b.port_urgent(b.rp(g3))
                b.edge(b.rp(g3), "again", node(loop))
                b.edge(node(loop), "fin", b.cp(eq))
            else:
                l1 = b.node("l1", urgent=True)
                l2 = b.node("l2", urgent=True)
                s = b.box("s", self.div("y", 2), self._gadget_pass("y"))
                g2 = b.box("g2", self.div("y", 2), self._gadget_pass("y"))
                b.edge(node(en), "begin", node(l1))
                b.edge(node(l1), "div3", b.cp(g3))
                b.port_urgent(b.rp(g3))
                b.edge(b.rp(g3), "again3", node(l1))
                b.edge(node(l1), "step", b.cp(s))
                b.port_urgent(b.rp(s))
                b.edge(b.rp(s), "toloop", node(l2))
                b.edge(node(l2), "div2", b.cp(g2))
                b.port_urgent(b.rp(g2))
                b.edge(b.rp(g2), "again2", node(l2))
                b.edge(node(l2), "fin", b.cp(eq))
            b.port_urgent(b.rp(eq))
            b.edge(b.rp(eq), "done", node(ex))
        else:
            m3 = b.box("m3", self.mul("x", 3), self._gadget_pass("x"))
            m2 = b.box("m2", self.mul("y", 2), self._gadget_pass("y"))
            d2 = b.box("d2", self.mul("x", 2), self._gadget_pass("x"))
            ls = b.node("ls", urgent=True)
            lb = b.node("lb", urgent=True)
            b.edge(node(en), "begin", node(ls))
            b.edge(node(ls), "round", b.cp(m3))
            b.port_urgent(b.rp(m3))
            b.edge(b.rp(m3), "mid", b.cp(m2))
            b.port_urgent(b.rp(m2))
            b.edge(b.rp(m2), "again", node(ls))
            if claim == "zero":
                b.edge(node(ls), "lock", node(lb), guard=conj(("y", "=", 1)))
            else:
                fb = b.node("fb", urgent=True)
                bump = b.box("bump", self.mul("x", 3), self._gadget_pass("x"))
                t3 = b.box("t3", self.mul("x", 3), self._gadget_pass("x"))
                b.edge(node(ls), "lock", node(fb), guard=conj(("y", "=", 1)))
                b.edge(node(fb), "bump", b.cp(bump))
                b.port_urgent(b.rp(bump))
                b.edge(b.rp(bump), "tolb", node(lb))
                b.edge(node(lb), "tri", b.cp(t3))
                b.port_urgent(b.rp(t3))
                b.edge(b.rp(t3), "again3", node(lb))
            b.edge(node(lb), "dbl", b.cp(d2))
            b.port_urgent(b.rp(d2))
            b.edge(b.rp(d2), "again2", node(lb))
            b.edge(node(lb), "fin", node(ex), guard=conj(("x", "=", 1)))
        b.done()
        return name

    # -- instruction components ----------------------------------------------

    def _divider_chain(self, kind: str, counter: str) -> List[Tuple[str, int]]:
        if kind == "inc" and counter == "c1":
            return [("y", 2), ("x", 12)]
        if kind == "inc" and counter == "c2":
            return [("y", 2), ("x", 6), ("x", 3)]
        if kind == "dec" and counter == "c1":
            return [("y", 2), ("x", 3)]
        if kind == "dec" and counter == "c2":
            return [("y", 2), ("x", 2)]
        if kind == "zerocheck":
            return [("y", 2), ("x", 6)]
        raise CompileError(f"unknown instruction kind {kind}/{counter}")

    def instruction(self, name: str, kind: str, counter: Optional[str]):
        """Build an instruction component.  Returns (component name,
        exit-label map, gadget slot map).  Exit labels: "next" for
        inc/dec, "pos"/"zero" for zero-checks, "halt" for halt."""
        slots: Dict[str, str] = {}
        b = _Builder(self, name)
        en = b.node("en", entry=True, urgent=True)
        if kind == "halt":
            halt = b.node("halt", exit_=True, urgent=True)
            b.edge(node(en), "stop", node(halt))
            b.done()
            return name, {"halt": halt}, slots

        chain = self._divider_chain(kind, counter)
        boxes = []
        for i, (a, n) in enumerate(chain, start=1):
            passes = frozenset() if self.target == RSA4 else frozenset({_other(a), "z"})
            g = b.box(f"g{i}", self.div(a, n), passes)
            boxes.append(g)
            slots[g] = f"div{i}"
        b.edge(node(en), "go", b.cp(boxes[0]))
        for i in range(len(boxes) - 1):
            b.port_urgent(b.rp(boxes[i]))
            b.edge(b.rp(boxes[i]), f"go{i + 2}", b.cp(boxes[i + 1]))
        last = b.rp(boxes[-1])
        b.port_urgent(last)

        if kind in ("inc", "dec"):
            ex = b.node("ex", exit_=True, urgent=True)
            b.edge(last, "out", node(ex))
            b.done()
            return name, {"next": ex}, slots

        # zero-check: Achilles asserts the branch, Tortoise may challenge.
        br = b.node("br", urgent=True)
        vp = b.node("vp", urgent=True, owner=Player.TORTOISE)
        vz = b.node("vz", urgent=True, owner=Player.TORTOISE)
        slots[vp] = "branch"
        slots[vz] = "branch"
        sm = b.node("pass", final=True, ticks=set() if self.target == RSA4 else None)
        expos = b.node("expos", exit_=True, urgent=True)
        exzero = b.node("exzero", exit_=True, urgent=True)
        cert_pos = b.box("cp", self.cert(counter, "positive"), self.all_by_value())
        cert_zero = b.box("cz", self.cert(counter, "zero"), self.all_by_value())
        b.edge(last, "toassert", node(br))
        b.edge(node(br), "apos", node(vp))
        b.edge(node(br), "azero", node(vz))
        b.edge(node(vp), "accept", node(expos))
        b.edge(node(vp), "challenge", b.cp(cert_pos))
        b.edge(node(vz), "accept", node(exzero))
        b.edge(node(vz), "challenge", b.cp(cert_zero))
        b.port_urgent(b.rp(cert_pos))
        b.port_urgent(b.rp(cert_zero))
        b.edge(b.rp(cert_pos), "okp", node(sm))
        b.edge(b.rp(cert_zero), "okz", node(sm))
        b.done()
        return name, {"pos": expos, "zero": exzero}, slots


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
    slot_maps: Dict[int, Dict[str, str]] = {}
    for k, ins in enumerate(machine.instructions):
        kind, counter = _instruction_kind(ins)
        _, exits, slots = factory.instruction(f"I{k}", kind, counter)
        exit_maps[k] = exits
        slot_maps[k] = slots

    main = _Builder(factory, "Main")
    en = main.node("en", entry=True, urgent=True)
    halt_node = main.node("HALT", exit_=True, urgent=True, final=True)
    boxes = {k: main.box(f"i{k}", f"I{k}") for k in range(len(machine.instructions))}
    main.edge(node(en), "boot", main.cp(boxes[0]))
    for k, ins in enumerate(machine.instructions):
        exits = exit_maps[k]
        for label, exit_name in exits.items():
            port = ret(boxes[k], exit_name)
            main.port_urgent(port)
            if label == "halt":
                main.edge(port, f"finish{k}", node(halt_node))
                continue
            if label == "next":
                target_idx = ins.next
            elif label == "pos":
                target_idx = ins.next_if_positive
            else:
                target_idx = ins.next_if_zero
            main.edge(port, f"goto{k}_{label}", main.cp(boxes[target_idx]))
    main.done()
    return _finish(
        factory, "Main", expected_valuation(0, 0, 0),
        instruction_anchor={k: node(f"I{k}.en") for k in range(len(machine.instructions))},
        gadget_slots=slot_maps,
    )


def _finish(factory: GadgetFactory, host: str, entry_values: Dict[str, Rational], **bookkeeping) -> CompiledArena:
    """Close a build whose outermost component is ``host``: put it first,
    check the model against its target class, and start it at
    ``entry_values`` (other variables 0)."""
    ordered = [factory.components[host]] + [
        comp for name, comp in factory.components.items() if name != host
    ]
    model = RhaModel(factory.variables, ordered)
    problems = validate_rha(model)
    if problems:
        raise CompileError(f"{host} arena fails validation: " + "; ".join(problems))
    kind, _tags = classify(model)
    if factory.target == RTA3 and kind != "timed":
        raise CompileError(f"rta3 arena classified as {kind}")
    if factory.target == RSA4 and (kind != "stopwatch" or not is_glitch_free(model)):
        raise CompileError("rsa4 arena must be a glitch-free stopwatch automaton")

    initial = {v: Fraction(0) for v in factory.variables}
    for k, v in entry_values.items():
        initial[k] = rat(v)
    return CompiledArena(
        model=model,
        partition=dict(factory.partition),
        finals=frozenset(factory.finals),
        entry=node(f"{host}.en"),
        initial_valuation=initial,
        target=factory.target,
        gadget_params=dict(factory.gadget_params),
        **bookkeeping,
    )


# ---------------------------------------------------------------------------
# Single-gadget arenas (testing and demonstration)
# ---------------------------------------------------------------------------


@dataclass
class GadgetBundle:
    """A gadget component together with everything it depends on."""

    name: str
    components: Dict[str, RhaComponent]
    variables: Tuple[str, ...]
    partition: Dict[Location, Player]
    finals: Set[Location]
    gadget_params: Dict[str, Tuple[str, str, int]]
    slots: Dict[str, str] = field(default_factory=dict)


def build_div(variable: str, n: int, target: str) -> GadgetBundle:
    """Build a divider component (with its dependencies) in isolation."""
    factory = GadgetFactory(target)
    name = factory.div(variable, n)
    return GadgetBundle(
        name, dict(factory.components), factory.variables,
        dict(factory.partition), set(factory.finals), dict(factory.gadget_params),
    )


def build_instruction(kind: str, counter: Optional[str], target: str) -> GadgetBundle:
    """Build one instruction component (with dependencies) in isolation."""
    factory = GadgetFactory(target)
    kind_l = kind.lower()
    name = f"{kind_l.capitalize()}_{counter}" if counter else kind_l.capitalize()
    _, _exits, slots = factory.instruction(name, kind_l, counter)
    return GadgetBundle(
        name, dict(factory.components), factory.variables,
        dict(factory.partition), set(factory.finals), dict(factory.gadget_params),
        slots=slots,
    )


def host_arena(bundle: GadgetBundle, entry_values: Dict[str, Rational], target: str) -> CompiledArena:
    """Wrap a gadget bundle in a one-box host component so it can be
    driven by the playout harness.  The host's ``done`` node is final."""
    factory = GadgetFactory(target)
    factory.components.update(bundle.components)
    factory.partition.update(bundle.partition)
    factory.finals.update(bundle.finals)
    factory.gadget_params.update(bundle.gadget_params)
    gadget = factory.components[bundle.name]

    b = _Builder(factory, "Host")
    en = b.node("en", entry=True, urgent=True)
    done = b.node("done", final=True, ticks=set() if target == RSA4 else None)
    operand = bundle.gadget_params.get(bundle.name, (None, "x", 0))[1]
    if target == RTA3 and bundle.name in bundle.gadget_params:
        passes = frozenset({_other(operand), "z"})
    else:
        passes = frozenset()
    g = b.box("g", bundle.name, passes)
    b.edge(node(en), "go", b.cp(g))
    for i, _ex in enumerate(gadget.exits):
        port = b.rp(g, i)
        b.port_urgent(port)
        b.edge(port, f"out{i}", node(done))
    b.done()
    slots = {g: "div1"} if bundle.name in bundle.gadget_params else dict(bundle.slots)
    return _finish(factory, "Host", entry_values, gadget_slots={0: slots})


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
        "entry": str(arena.entry),
        "initialValuation": {k: fmt(v) for k, v in arena.initial_valuation.items()},
        "anchors": {str(k): str(loc) for k, loc in arena.instruction_anchor.items()},
        "ownerLegend": {str(loc): p.value for loc, p in sorted(arena.partition.items(), key=lambda kv: str(kv[0]))},
        "slots": {str(k): dict(v) for k, v in arena.gadget_slots.items()},
        "gadgetParams": {name: list(params) for name, params in arena.gadget_params.items()},
    }
    return model_json, sidecar


def arena_from_json(model_json: dict, sidecar: dict) -> CompiledArena:
    """Load an arena; raises ``ParseError`` when the model is not well
    formed or the sidecar lacks a field or does not fit the model."""
    model, _start, partition, finals = rha_model_from_json(model_json)
    if partition is None or finals is None:
        raise ModelError("arena JSON must carry partition and finals")
    problems = validate_rha(model)
    if problems:
        raise ParseError("arena model is not well formed: " + "; ".join(problems))
    try:
        arena = CompiledArena(
            model=model,
            partition=partition,
            finals=finals,
            entry=parse_location(sidecar["entry"]),
            initial_valuation={k: rat(v) for k, v in sidecar["initialValuation"].items()},
            target=sidecar["target"],
            time_bound=rat(sidecar["time_bound"]),
            instruction_anchor={int(k): parse_location(v) for k, v in sidecar.get("anchors", {}).items()},
            gadget_slots={int(k): dict(v) for k, v in sidecar.get("slots", {}).items()},
            gadget_params={k: tuple(v) for k, v in sidecar.get("gadgetParams", {}).items()},
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"bad arena sidecar: {exc!r}") from exc
    if arena.entry not in model.all_locations():
        raise ParseError(f"arena sidecar: entry {arena.entry} is not a location of the model")
    if set(arena.initial_valuation) != set(model.variables):
        raise ParseError("arena sidecar: initialValuation must value exactly the model's variables")
    return arena
