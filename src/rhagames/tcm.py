"""Two-counter (Minsky) machines: representation, deterministic
interpreter, bounded halting check, text and JSON formats.

Instructions are indexed L0..Ln with exactly one HALT, at index n.
Decrementing a zero counter is rejected as a model error; machines are
expected to guard decrements with zero-checks.

Text format, one instruction per line::

    Li: INC c GOTO Lk
    Li: DEC c GOTO Lk
    Li: IFZ c THEN Lm ELSE Lk      # Lm when the counter is zero
    Ln: HALT

with counters named c1 and c2.
"""

import re
from dataclasses import dataclass
from typing import List, Tuple, Union

from .errors import ModelError, ParseError

COUNTERS = ("c1", "c2")


@dataclass(frozen=True)
class Inc:
    counter: str
    next: int


@dataclass(frozen=True)
class Dec:
    counter: str
    next: int


@dataclass(frozen=True)
class ZeroCheck:
    counter: str
    next_if_positive: int
    next_if_zero: int


@dataclass(frozen=True)
class Halt:
    pass


Instruction = Union[Inc, Dec, ZeroCheck, Halt]


@dataclass(frozen=True)
class TwoCounterMachine:
    instructions: Tuple[Instruction, ...]

    def __post_init__(self):
        n = len(self.instructions)
        if n == 0:
            raise ModelError("machine has no instructions")
        halts = [i for i, ins in enumerate(self.instructions) if isinstance(ins, Halt)]
        if halts != [n - 1]:
            raise ModelError("machine must have exactly one HALT, at the last index")
        for i, ins in enumerate(self.instructions):
            targets = []
            if isinstance(ins, (Inc, Dec)):
                targets = [ins.next]
            elif isinstance(ins, ZeroCheck):
                targets = [ins.next_if_positive, ins.next_if_zero]
            if isinstance(ins, (Inc, Dec, ZeroCheck)) and ins.counter not in COUNTERS:
                raise ModelError(f"L{i}: unknown counter {ins.counter!r}")
            for t in targets:
                if not 0 <= t < n:
                    raise ModelError(f"L{i}: goto target L{t} out of range")

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass(frozen=True)
class MachineConfig:
    pc: int
    c1: int
    c2: int

    def counter(self, name: str) -> int:
        return self.c1 if name == "c1" else self.c2

    def with_counter(self, name: str, value: int) -> "MachineConfig":
        if value < 0:
            raise ModelError("counters cannot go negative")
        if name == "c1":
            return MachineConfig(self.pc, value, self.c2)
        return MachineConfig(self.pc, self.c1, value)


INITIAL = MachineConfig(0, 0, 0)


def tcm_step(machine: TwoCounterMachine, config: MachineConfig):
    """Deterministic successor configuration, or None when halted."""
    ins = machine.instructions[config.pc]
    if isinstance(ins, Halt):
        return None
    if isinstance(ins, Inc):
        nxt = config.with_counter(ins.counter, config.counter(ins.counter) + 1)
        return MachineConfig(ins.next, nxt.c1, nxt.c2)
    if isinstance(ins, Dec):
        value = config.counter(ins.counter)
        if value == 0:
            raise ModelError(f"L{config.pc}: decrement of zero counter {ins.counter}")
        nxt = config.with_counter(ins.counter, value - 1)
        return MachineConfig(ins.next, nxt.c1, nxt.c2)
    if isinstance(ins, ZeroCheck):
        target = ins.next_if_positive if config.counter(ins.counter) > 0 else ins.next_if_zero
        return MachineConfig(target, config.c1, config.c2)
    raise ModelError(f"unknown instruction {ins!r}")


def tcm_run(machine: TwoCounterMachine, max_steps: int) -> Tuple[List[MachineConfig], bool]:
    """The unique run from (L0, 0, 0): the visited configurations and
    whether HALT was reached within ``max_steps`` executed instructions."""
    if max_steps < 0:
        raise ModelError(f"step bound must be nonnegative, not {max_steps}")
    trace = [INITIAL]
    for _ in range(max_steps):
        nxt = tcm_step(machine, trace[-1])
        if nxt is None:
            return trace, True
        trace.append(nxt)
    if isinstance(machine.instructions[trace[-1].pc], Halt):
        return trace, True
    return trace, False


# ---------------------------------------------------------------------------
# Text and JSON formats
# ---------------------------------------------------------------------------

_LINE = re.compile(
    r"^L(?P<idx>\d+):\s*(?:"
    r"(?P<halt>HALT)"
    r"|INC\s+(?P<inc_c>c[12])\s+GOTO\s+L(?P<inc_t>\d+)"
    r"|DEC\s+(?P<dec_c>c[12])\s+GOTO\s+L(?P<dec_t>\d+)"
    r"|IFZ\s+(?P<ifz_c>c[12])\s+THEN\s+L(?P<zero_t>\d+)\s+ELSE\s+L(?P<pos_t>\d+)"
    r")\s*$"
)


def parse_text(text: str) -> TwoCounterMachine:
    instructions: List[Instruction] = []
    expected = 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE.match(line)
        if not m:
            raise ParseError(f"cannot parse instruction line: {raw!r}")
        if int(m.group("idx")) != expected:
            raise ParseError(f"instruction index L{m.group('idx')} out of order (expected L{expected})")
        expected += 1
        if m.group("halt"):
            instructions.append(Halt())
        elif m.group("inc_c"):
            instructions.append(Inc(m.group("inc_c"), int(m.group("inc_t"))))
        elif m.group("dec_c"):
            instructions.append(Dec(m.group("dec_c"), int(m.group("dec_t"))))
        else:
            instructions.append(
                ZeroCheck(m.group("ifz_c"), int(m.group("pos_t")), int(m.group("zero_t")))
            )
    try:
        return TwoCounterMachine(tuple(instructions))
    except ModelError as exc:
        raise ParseError(str(exc)) from exc


def format_text(machine: TwoCounterMachine) -> str:
    lines = []
    for i, ins in enumerate(machine.instructions):
        if isinstance(ins, Halt):
            lines.append(f"L{i}: HALT")
        elif isinstance(ins, Inc):
            lines.append(f"L{i}: INC {ins.counter} GOTO L{ins.next}")
        elif isinstance(ins, Dec):
            lines.append(f"L{i}: DEC {ins.counter} GOTO L{ins.next}")
        else:
            lines.append(f"L{i}: IFZ {ins.counter} THEN L{ins.next_if_zero} ELSE L{ins.next_if_positive}")
    return "\n".join(lines) + "\n"


def machine_to_json(machine: TwoCounterMachine) -> dict:
    out = []
    for ins in machine.instructions:
        if isinstance(ins, Halt):
            out.append({"op": "halt"})
        elif isinstance(ins, Inc):
            out.append({"op": "inc", "counter": ins.counter, "next": ins.next})
        elif isinstance(ins, Dec):
            out.append({"op": "dec", "counter": ins.counter, "next": ins.next})
        else:
            out.append(
                {
                    "op": "ifz",
                    "counter": ins.counter,
                    "zero": ins.next_if_zero,
                    "positive": ins.next_if_positive,
                }
            )
    return {"instructions": out}


def machine_from_json(data: dict) -> TwoCounterMachine:
    try:
        instructions: List[Instruction] = []
        for rec in data["instructions"]:
            op = rec["op"]
            if op == "halt":
                instructions.append(Halt())
            elif op == "inc":
                instructions.append(Inc(rec["counter"], int(rec["next"])))
            elif op == "dec":
                instructions.append(Dec(rec["counter"], int(rec["next"])))
            elif op == "ifz":
                instructions.append(ZeroCheck(rec["counter"], int(rec["positive"]), int(rec["zero"])))
            else:
                raise ParseError(f"unknown op {op!r}")
        return TwoCounterMachine(tuple(instructions))
    except (KeyError, TypeError, ModelError) as exc:
        raise ParseError(f"bad machine record: {exc}") from exc
