"""Two-counter machines: stepping, running, formats."""

import pytest

from machines import halting_corpus, nonhalting_corpus
from rhagames.errors import ModelError, ParseError
from rhagames.tcm import (
    Dec,
    Halt,
    Inc,
    MachineConfig,
    TwoCounterMachine,
    ZeroCheck,
    format_text,
    machine_from_json,
    machine_to_json,
    parse_text,
    tcm_run,
    tcm_step,
)


def test_structure_enforced():
    with pytest.raises(ModelError, match="exactly one HALT"):
        TwoCounterMachine((Inc("c1", 0),))
    with pytest.raises(ModelError, match="exactly one HALT"):
        TwoCounterMachine((Halt(), Inc("c1", 0)))
    with pytest.raises(ModelError, match="out of range"):
        TwoCounterMachine((Inc("c1", 7), Halt()))


def test_step_inc():
    m = TwoCounterMachine((Inc("c1", 1), Halt()))
    assert tcm_step(m, MachineConfig(0, 0, 0)) == MachineConfig(1, 1, 0)


def test_step_zero_check_branches():
    m = TwoCounterMachine((ZeroCheck("c1", 1, 2), Inc("c1", 3), Inc("c2", 3), Halt()))
    assert tcm_step(m, MachineConfig(0, 0, 0)) == MachineConfig(2, 0, 0)
    assert tcm_step(m, MachineConfig(0, 5, 0)) == MachineConfig(1, 5, 0)


def test_step_halt_yields_none():
    m = TwoCounterMachine((Halt(),))
    assert tcm_step(m, MachineConfig(0, 3, 4)) is None


def test_dec_on_zero_is_model_error():
    m = TwoCounterMachine((Dec("c1", 1), Halt()))
    with pytest.raises(ModelError, match="decrement of zero"):
        tcm_step(m, MachineConfig(0, 0, 0))


def test_run_halting():
    m = TwoCounterMachine((Inc("c1", 1), Halt()))
    trace, halted = tcm_run(m, 10)
    assert halted is True
    assert trace[-1] == MachineConfig(1, 1, 0)


def test_run_self_loop_exhausts():
    m = TwoCounterMachine((ZeroCheck("c1", 1, 0), Halt()))
    trace, halted = tcm_run(m, 25)
    assert halted is False
    assert len(trace) == 26  # initial configuration plus max_steps successors


def test_run_negative_step_bound_is_model_error():
    m = TwoCounterMachine((ZeroCheck("c1", 0, 1), Halt()))
    with pytest.raises(ModelError, match="nonnegative"):
        tcm_run(m, -1)


def test_run_inc_then_dec():
    m = TwoCounterMachine((Inc("c1", 1), Dec("c1", 2), Halt()))
    trace, halted = tcm_run(m, 10)
    assert halted is True
    assert (trace[-1].c1, trace[-1].c2) == (0, 0)


def test_run_determinism():
    for machine in halting_corpus() + nonhalting_corpus():
        t1 = tcm_run(machine, 50)
        t2 = tcm_run(machine, 50)
        assert t1 == t2


def test_counters_never_negative_along_traces():
    for machine in halting_corpus():
        trace, _ = tcm_run(machine, 100)
        assert all(c.c1 >= 0 and c.c2 >= 0 for c in trace)


def test_corpus_sizes_and_halting_behaviour():
    for machine in halting_corpus():
        trace, halted = tcm_run(machine, 20)
        assert halted, format_text(machine)
    for machine in nonhalting_corpus():
        _, halted = tcm_run(machine, 2000)
        assert not halted, format_text(machine)


def test_corpus_exercises_both_counters():
    touched = set()
    for machine in halting_corpus():
        for ins in machine.instructions:
            if isinstance(ins, (Inc, Dec, ZeroCheck)):
                touched.add(ins.counter)
    assert touched == {"c1", "c2"}


# -- formats -------------------------------------------------------------------


def test_text_format_round_trip():
    m = TwoCounterMachine((
        Inc("c1", 1), Dec("c1", 2), ZeroCheck("c2", 1, 3), Halt(),
    ))
    text = format_text(m)
    assert "L0: INC c1 GOTO L1" in text
    assert "L2: IFZ c2 THEN L3 ELSE L1" in text  # THEN names the zero branch
    assert parse_text(text) == m


def test_text_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_text("L0: FLY c1 GOTO L1\nL1: HALT\n")
    with pytest.raises(ParseError):
        parse_text("L0: INC c1 GOTO L1\n")  # no HALT


def test_json_round_trip():
    for machine in halting_corpus():
        assert machine_from_json(machine_to_json(machine)) == machine
