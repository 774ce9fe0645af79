"""Command-line interface: exit codes, JSON outputs, file formats."""

import json

import pytest

import rhagames.harness
from fixtures import flat_game_arena_model
from rhagames.arith import rat
from rhagames.cli import main
from rhagames.harness import DEFAULT_STEP_BOUND, DEFAULT_TIME_BOUND, playout
from rhagames.rsm import RsmComponent, RsmModel, model_to_json, node
from rhagames.tcm import Halt, Inc, TwoCounterMachine, machine_to_json

INC_HALT_TEXT = "L0: INC c1 GOTO L1\nL1: HALT\n"
LOOP_TEXT = "L0: IFZ c1 THEN L0 ELSE L1\nL1: HALT\n"
PUMP_LOOP_TEXT = "L0: INC c1 GOTO L1\nL1: IFZ c1 THEN L0 ELSE L0\nL2: HALT\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return str(path)


def assert_one_line_error(code, err):
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err


# -- tcm-run ---------------------------------------------------------------------


def test_tcm_run_halting(tmp_path, capsys):
    path = write(tmp_path, "m.tcm", INC_HALT_TEXT)
    code, out, _ = run_cli(capsys, "tcm-run", path)
    assert code == 0
    data = json.loads(out)
    assert data["halted"] is True and data["status"] == "halted"
    assert data["final"] == {"pc": 1, "c1": 1, "c2": 0}


def test_tcm_run_nonhalting(tmp_path, capsys):
    path = write(tmp_path, "m.tcm", LOOP_TEXT)
    code, out, _ = run_cli(capsys, "tcm-run", path, "--max-steps", "50")
    assert code == 0
    data = json.loads(out)
    assert data["halted"] is False and data["status"] == "exhausted"
    assert data["steps"] == 50


def test_tcm_run_negative_step_bound_exits_2(tmp_path, capsys):
    path = write(tmp_path, "m.tcm", LOOP_TEXT)
    code, _, err = run_cli(capsys, "tcm-run", path, "--max-steps", "-3")
    assert_one_line_error(code, err)
    assert "-3" in err


def test_tcm_run_accepts_json_mirror(tmp_path, capsys):
    machine = TwoCounterMachine((Inc("c2", 1), Halt()))
    path = write(tmp_path, "m.json", json.dumps(machine_to_json(machine)))
    code, out, _ = run_cli(capsys, "tcm-run", path)
    assert code == 0
    assert json.loads(out)["final"]["c2"] == 1


def test_tcm_run_malformed_file_exits_2(tmp_path, capsys):
    path = write(tmp_path, "bad.tcm", "L0: JUMP somewhere\n")
    code, _, err = run_cli(capsys, "tcm-run", path)
    assert code == 2
    assert "error" in err


# -- compile ----------------------------------------------------------------------


def test_compile_halt_only(tmp_path, capsys):
    machine_path = write(tmp_path, "m.tcm", "L0: HALT\n")
    out_path = str(tmp_path / "arena.json")
    code, out, _ = run_cli(capsys, "compile", machine_path, "--target", "rta3", "--out", out_path)
    assert code == 0
    arena_json = json.loads((tmp_path / "arena.json").read_text())
    sidecar = json.loads((tmp_path / "arena.sidecar.json").read_text())
    assert sidecar["time_bound"] == "4/1"
    assert arena_json["variables"] == ["x", "y", "z"]
    assert "node:Main.HALT" in arena_json["finals"]


def test_compile_targets_have_declared_variables(tmp_path, capsys):
    machine_path = write(tmp_path, "m.tcm", INC_HALT_TEXT)
    code, out, _ = run_cli(capsys, "compile", machine_path, "--target", "rsa4")
    assert code == 0
    data = json.loads(out)
    assert data["model"]["variables"] == ["x", "y", "z", "u"]
    assert data["sidecar"]["target"] == "rsa4"


# -- simulate ----------------------------------------------------------------------


def _compiled(tmp_path, capsys, text=INC_HALT_TEXT, target="rta3"):
    machine_path = write(tmp_path, "m.tcm", text)
    arena_path = str(tmp_path / "arena.json")
    code, _, _ = run_cli(capsys, "compile", machine_path, "--target", target, "--out", arena_path)
    assert code == 0
    return arena_path, machine_path


def test_simulate_skip_reaches_halt(tmp_path, capsys):
    arena_path, machine_path = _compiled(tmp_path, capsys)
    code, out, _ = run_cli(capsys, "simulate", arena_path, machine_path, "--tortoise", "skip")
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "final"
    assert data["location"] == "node:Main.HALT"
    assert data["elapsed"] == "7/6"


def test_simulate_verify_reaches_pass_node(tmp_path, capsys):
    arena_path, machine_path = _compiled(tmp_path, capsys)
    code, out, _ = run_cli(
        capsys, "simulate", arena_path, machine_path, "--tortoise", "verify:0:div1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "final"
    assert data["location"] == "node:Div_y_2.pass"


def test_simulate_deviation_plus_verify_misses_finals(tmp_path, capsys):
    arena_path, machine_path = _compiled(tmp_path, capsys)
    code, out, _ = run_cli(
        capsys,
        "simulate", arena_path, machine_path,
        "--deviate", "0:1/64", "--tortoise", "verify:0:div1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] != "final"


@pytest.mark.parametrize("step", [5, 4, -1], ids=["far-past", "one-past", "negative"])
def test_simulate_deviation_outside_the_free_delays_exits_2(tmp_path, capsys, step):
    # the faithful run of INC c1; HALT has free delays 0..3
    arena_path, machine_path = _compiled(tmp_path, capsys)
    code, _, err = run_cli(capsys, "simulate", arena_path, machine_path, f"--deviate={step}:1/2")
    assert_one_line_error(code, err)
    assert "free delays" in err


def test_simulate_uncrossed_verify_address_exits_2(tmp_path, capsys):
    arena_path, machine_path = _compiled(tmp_path, capsys)
    code, _, err = run_cli(capsys, "simulate", arena_path, machine_path, "--tortoise", "verify:99:div1")
    assert_one_line_error(code, err)
    assert "verify:99:div1" in err


def test_check_malformed_deviation_exits_2(tmp_path, capsys):
    arena_path, machine_path = _compiled(tmp_path, capsys)
    code, _, err = run_cli(capsys, "check", arena_path, machine_path, "--deviate", "abc")
    assert_one_line_error(code, err)
    assert "expected STEP:OFFSET" in err


def test_simulate_negative_step_bound_exits_2(tmp_path, capsys):
    arena_path, machine_path = _compiled(tmp_path, capsys)
    code, _, err = run_cli(capsys, "simulate", arena_path, machine_path, "--step-bound", "-5")
    assert_one_line_error(code, err)
    assert "-5" in err


def test_simulate_late_final_is_exhausted(tmp_path, capsys):
    # the faithful run of INC c1; HALT reaches Main.HALT at 7/6
    arena_path, machine_path = _compiled(tmp_path, capsys)
    code, out, _ = run_cli(capsys, "simulate", arena_path, machine_path, "--time-bound", "1")
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "exhausted" and data["location"] is None
    assert rat(data["elapsed"]) > 1 and data["steps"] < 33


def test_simulate_negative_time_bound_exits_2(tmp_path, capsys):
    arena_path, machine_path = _compiled(tmp_path, capsys)
    code, _, err = run_cli(capsys, "simulate", arena_path, machine_path, "--time-bound", "-1")
    assert_one_line_error(code, err)
    assert "time bound" in err


def test_simulate_replays_the_faithful_run_once_within_the_step_bound(tmp_path, capsys, monkeypatch):
    replays = []

    def counted(arena, achilles, tortoise, step_bound=DEFAULT_STEP_BOUND, time_bound=DEFAULT_TIME_BOUND):
        replays.append(step_bound)
        return playout(arena, achilles, tortoise, step_bound, time_bound)

    monkeypatch.setattr(rhagames.harness, "playout", counted)
    arena_path, machine_path = _compiled(tmp_path, capsys, text=PUMP_LOOP_TEXT)
    code, out, _ = run_cli(
        capsys, "simulate", arena_path, machine_path,
        "--deviate", "0:1/64", "--tortoise", "verify:0:div1", "--step-bound", "50",
    )
    assert code == 0 and json.loads(out)["steps"] <= 50
    assert replays == [50]
    replays.clear()
    assert run_cli(capsys, "simulate", arena_path, machine_path, "--step-bound", "50")[0] == 0
    assert replays == []


def _first_flow(arena):
    return next(iter(next(c for c in arena["components"] if c.get("flows"))["flows"].values()))


@pytest.mark.parametrize(
    "target, edited, edit, flags, named",
    [
        ("rta3", None, None, ("--time-bound", "1/0"), "'1/0'"),
        ("rta3", None, None, ("--time-bound", "one/half"), "'one/half'"),
        ("rta3", "arena.sidecar.json", lambda side: side.update(time_bound="1/0"), (), "'1/0'"),
        ("rta3", "arena.sidecar.json", lambda side: side["initialValuation"].update(x="1/0"), (), "'1/0'"),
        ("rsa4", "arena.json", lambda arena: _first_flow(arena).update(x="1/0"), (), "'1/0'"),
    ],
    ids=["time-bound-zero-denominator", "time-bound-not-rational", "sidecar-time-bound",
         "sidecar-initial-valuation", "flow-rate"],
)
def test_simulate_bad_rational_exits_2(tmp_path, capsys, target, edited, edit, flags, named):
    arena_path, machine_path = _compiled(tmp_path, capsys, target=target)
    if edited:
        _edit_json(str(tmp_path / edited), edit)
    code, _, err = run_cli(capsys, "simulate", arena_path, machine_path, *flags)
    assert_one_line_error(code, err)
    assert named in err


def test_simulate_writes_trace(tmp_path, capsys):
    arena_path, machine_path = _compiled(tmp_path, capsys, target="rsa4")
    trace_path = str(tmp_path / "trace.jsonl")
    code, _, _ = run_cli(
        capsys, "simulate", arena_path, machine_path, "--trace", trace_path
    )
    assert code == 0
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    record = json.loads(lines[0])
    assert record["step"] == 0 and "valuation" in record


# -- rsm-solve ----------------------------------------------------------------------


def test_rsm_solve_matches_attractor(tmp_path, capsys):
    model, partition = flat_game_arena_model()
    data = model_to_json(model, start="s0", partition=partition, finals=[node("goal")])
    path = write(tmp_path, "game.json", json.dumps(data))
    code, out, _ = run_cli(capsys, "rsm-solve", path, "--objective", "reach")
    assert code == 0
    assert json.loads(out)["winner"] == "Achilles"
    code, out, _ = run_cli(capsys, "rsm-solve", path, "--objective", "terminate")
    assert code == 0
    assert json.loads(out)["winner"] == "Tortoise"  # no exits to reach


def test_rsm_solve_missing_partition_exits_2(tmp_path, capsys):
    model, _ = flat_game_arena_model()
    data = model_to_json(model, start="s0", finals=[node("goal")])
    path = write(tmp_path, "game.json", json.dumps(data))
    code, _, err = run_cli(capsys, "rsm-solve", path)
    assert code == 2
    assert "partition" in err


@pytest.mark.parametrize(
    "field, value",
    [("partition", ["node:s0"]), ("finals", [5])],
    ids=["partition-list", "finals-number"],
)
def test_rsm_solve_malformed_game_field_exits_2(tmp_path, capsys, field, value):
    model, partition = flat_game_arena_model()
    data = model_to_json(model, start="s0", partition=partition, finals=[node("goal")])
    data[field] = value
    path = write(tmp_path, "game.json", json.dumps(data))
    code, _, err = run_cli(capsys, "rsm-solve", path)
    assert_one_line_error(code, err)


def test_rsm_solve_unknown_locations_exit_2(tmp_path, capsys):
    model, partition = flat_game_arena_model()
    data = model_to_json(model, start="s0", partition=partition, finals=[node("goal")])
    data["finals"] = ["node:gaol"]
    data["partition"]["tortoise"].append("node:ghost")
    path = write(tmp_path, "game.json", json.dumps(data))
    for objective in ("reach", "terminate"):
        code, _, err = run_cli(capsys, "rsm-solve", path, "--objective", objective)
        assert_one_line_error(code, err)
        assert "finals names node:gaol" in err and "partition names node:ghost" in err


def _fork_game(achilles, tortoise):
    """One component: a --go--> b, a --stay--> c, final b; the players
    own the locations listed, and Tortoise also owns b and c."""
    comp = RsmComponent("G", ("a", "b", "c"), ("a",), (), {})
    comp.transitions = {(node("a"), "go"): node("b"), (node("a"), "stay"): node("c")}
    data = model_to_json(RsmModel([comp]), start="a", finals=[node("b")])
    data["partition"] = {"achilles": achilles, "tortoise": tortoise + ["node:b", "node:c"]}
    return data


def test_rsm_solve_location_listed_for_both_players_exits_2(tmp_path, capsys):
    path = write(tmp_path, "game.json", json.dumps(_fork_game(["node:a"], [])))
    code, out, _ = run_cli(capsys, "rsm-solve", path)
    assert code == 0 and json.loads(out)["winner"] == "Achilles"
    path = write(tmp_path, "game.json", json.dumps(_fork_game(["node:a"], ["node:a"])))
    code, _, err = run_cli(capsys, "rsm-solve", path)
    assert_one_line_error(code, err)
    assert "node:a" in err


def test_rsm_solve_ill_formed_model_exits_2(tmp_path, capsys):
    data = _fork_game(["node:a"], [])
    data["components"][0]["entries"] = ["ghost"]
    path = write(tmp_path, "game.json", json.dumps(data))
    code, _, err = run_cli(capsys, "rsm-solve", path)
    assert_one_line_error(code, err)
    assert "entry/exit ghost is not a node" in err


def test_rsm_solve_reach_without_finals_exits_2(tmp_path, capsys):
    data = _fork_game(["node:a"], [])
    del data["finals"]
    path = write(tmp_path, "game.json", json.dumps(data))
    code, _, err = run_cli(capsys, "rsm-solve", path, "--objective", "reach")
    assert_one_line_error(code, err)
    assert "finals" in err


@pytest.mark.parametrize("spec", ["verify:0", "audit", "verify:x:div1"])
def test_simulate_malformed_tortoise_exits_2(tmp_path, capsys, spec):
    arena_path, machine_path = _compiled(tmp_path, capsys)
    code, _, err = run_cli(capsys, "simulate", arena_path, machine_path, "--tortoise", spec)
    assert_one_line_error(code, err)
    assert repr(spec) in err
    if spec.startswith("verify:"):
        assert "expected verify:STEP:SLOT" in err


# -- check -------------------------------------------------------------------------


def test_check_faithful_run_all_pass(tmp_path, capsys):
    arena_path, machine_path = _compiled(tmp_path, capsys)
    report_path = str(tmp_path / "report.json")
    code, out, _ = run_cli(capsys, "check", arena_path, machine_path, "--report", report_path)
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["encoding"]["ok"] is True and data["time_ledger"]["ok"] is True
    assert json.loads((tmp_path / "report.json").read_text()) == data


def test_check_deviated_run_names_first_mismatch(tmp_path, capsys):
    arena_path, machine_path = _compiled(tmp_path, capsys)
    code, out, _ = run_cli(
        capsys, "check", arena_path, machine_path, "--deviate", "1:1/64"
    )
    assert code == 1  # property violated
    data = json.loads(out)
    assert data["ok"] is False
    assert "mismatch" in data["encoding"]["failure"]
    mismatches = [e for e in data["encoding"]["entries"] if not e["ok"]]
    assert mismatches and mismatches[0]["step"] == 1


def test_check_empty_machine_vacuous_pass(tmp_path, capsys):
    arena_path, machine_path = _compiled(tmp_path, capsys, text="L0: HALT\n")
    code, out, _ = run_cli(capsys, "check", arena_path, machine_path)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_check_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "check", "/nonexistent/a.json", "/nonexistent/m.tcm")
    assert code == 2


# -- malformed arenas ---------------------------------------------------------------


def _edit_json(path, change):
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    change(data)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def _first_transition(arena):
    return next(c for c in arena["components"] if c["transitions"])["transitions"][0]


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda arena, side: arena.pop("start"), "start None"),
        (lambda arena, side: arena.update(start="nowhere"), "start 'nowhere'"),
        (lambda arena, side: arena.update(start=0), "start 0"),
        (lambda arena, side: arena.update(start=["Main.en"]), "start ['Main.en']"),
        (lambda arena, side: side["initialValuation"].pop("z"), "initialValuation"),
        (lambda arena, side: side.pop("roles"), "roles"),
        (lambda arena, side: side["roles"]["locations"]["call:Div_y_2.d1:Delay.en"].update(kind="audit"),
         "malformed role"),
        (lambda arena, side: side["roles"]["locations"].update(
            {"node:nowhere": side["roles"]["locations"]["call:Div_y_2.d1:Delay.en"]}), "node:nowhere"),
        (lambda arena, side: side["roles"]["locations"]["ret:Div_y_2.d1:Delay.ex"].update(
            actions=["Div_y_2.audit", "Main.boot"]), "names an action that does not leave it"),
        (lambda arena, side: side["roles"]["slots"].update({"I0.g1": [0, "div1"]}), "slot"),
        (lambda arena, side: side["roles"]["slots"].update({"nowhere": "bogus"}), "'nowhere'"),
        (lambda arena, side: side["roles"]["slots"].update({"I0.g1": "branch"}), "'I0.g1'"),
        (lambda arena, side: side["roles"]["slots"].update({"Main.HALT": "div1"}), "'Main.HALT'"),
    ],
    ids=["missing-entry", "unknown-entry", "start-not-a-string", "start-unhashable", "partial-valuation",
         "missing-roles", "malformed-role", "role-at-unknown-location", "role-action-elsewhere", "slot-not-a-name",
         "slot-key-unknown", "box-slot-not-a-divider", "node-slot-not-branch"],
)
def test_check_bad_sidecar_exits_2(tmp_path, capsys, edit, named):
    """A bad sidecar, or a model ``start`` that is not one of its nodes
    (the start is the arena's entry), ends in a one-line error."""
    arena_path, machine_path = _compiled(tmp_path, capsys)
    with open(arena_path, encoding="utf-8") as handle:
        arena = json.load(handle)
    _edit_json(str(tmp_path / "arena.sidecar.json"), lambda side: edit(arena, side))
    with open(arena_path, "w", encoding="utf-8") as handle:
        json.dump(arena, handle)
    code, _, err = run_cli(capsys, "check", arena_path, machine_path)
    assert_one_line_error(code, err)
    assert named in err


def test_simulate_transition_to_unknown_node_exits_2(tmp_path, capsys):
    arena_path, machine_path = _compiled(tmp_path, capsys)
    _edit_json(arena_path, lambda arena: _first_transition(arena).update(to="node:nowhere"))
    code, _, err = run_cli(capsys, "simulate", arena_path, machine_path)
    assert_one_line_error(code, err)
    assert "node:nowhere" in err


def test_check_unknown_guard_relation_exits_2(tmp_path, capsys):
    arena_path, machine_path = _compiled(tmp_path, capsys)
    _edit_json(
        arena_path,
        lambda arena: _first_transition(arena).update(guard=[{"var": "x", "rel": "~", "bound": 1}]),
    )
    code, _, err = run_cli(capsys, "check", arena_path, machine_path)
    assert_one_line_error(code, err)
    assert "'~'" in err
