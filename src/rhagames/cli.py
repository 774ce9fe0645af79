"""Command-line surface for batch use.

Subcommands:

  tcm-run    run a two-counter machine and print its trace summary
  compile    translate a machine into a game arena (rta3 or rsa4)
  simulate   play a compiled arena under scripted strategies
  rsm-solve  decide a recursive state machine game
  check      run the encoding and time-ledger checkers on an arena

Exit codes: 0 success, 1 property violated (a checker failed),
2 input error.  All outputs are JSON; rationals appear as "p/q".
"""

import argparse
import functools
import json
import sys
from pathlib import Path

from .arith import fmt, rat
from .compiler import TARGETS, arena_from_json, arena_to_json, compile as compile_machine
from .errors import CompileError, HarnessError, ModelError, MoveError, ParseError, StrategyError
from .harness import (
    DEFAULT_STEP_BOUND,
    _faithful_addresses,
    canonical_slot,
    check_encoding,
    check_time_ledger,
    deviated_achilles,
    export_trace,
    faithful_achilles,
    playout,
    tortoise_skip_all,
    tortoise_verify_at,
)
from .rsm import (
    model_from_json,
    solve_reachability_game,
    solve_termination_game,
    validate,
)
from .tcm import machine_from_json, parse_text, tcm_run


def _read_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _load_machine(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return machine_from_json(json.loads(text))
    return parse_text(text)


def _sidecar_path(arena_path: str) -> Path:
    p = Path(arena_path)
    if p.suffix == ".json":
        return p.with_suffix(".sidecar.json")
    return Path(str(p) + ".sidecar.json")


def _load_arena(arena_path: str, sidecar_path: str = None):
    sidecar_file = Path(sidecar_path) if sidecar_path else _sidecar_path(arena_path)
    return arena_from_json(_read_json(arena_path), _read_json(str(sidecar_file)))


def _emit(data: dict) -> None:
    json.dump(data, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def cmd_tcm_run(args) -> int:
    machine = _load_machine(args.file)
    trace, halted = tcm_run(machine, args.max_steps)
    last = trace[-1]
    _emit(
        {
            "halted": halted,
            "status": "halted" if halted else "exhausted",
            "steps": len(trace) - 1,
            "final": {"pc": last.pc, "c1": last.c1, "c2": last.c2},
        }
    )
    return 0


def cmd_compile(args) -> int:
    machine = _load_machine(args.file)
    arena = compile_machine(machine, args.target)
    model_json, sidecar = arena_to_json(arena)
    if args.out:
        out = Path(args.out)
        out.write_text(json.dumps(model_json, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        side = _sidecar_path(args.out)
        side.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        _emit({"arena": str(out), "sidecar": str(side), "target": args.target})
    else:
        _emit({"model": model_json, "sidecar": sidecar})
    return 0


def _tortoise_from_spec(arena, spec: str, faithful):
    """Tortoise for ``--tortoise``: the address of ``verify:STEP:SLOT``
    must be crossed by the faithful unverified run, whose (free delays,
    verify addresses) ``faithful()`` returns."""
    if spec == "skip":
        return tortoise_skip_all(arena)
    if spec.startswith("verify:"):
        try:
            _verify, step_text, slot = spec.split(":")
            step = int(step_text)
        except ValueError as exc:
            raise HarnessError(f"bad --tortoise value {spec!r}; expected verify:STEP:SLOT") from exc
        strategy = tortoise_verify_at(arena, step, slot)
        if (step, canonical_slot(slot)) not in faithful()[1]:
            raise HarnessError(f"--tortoise {spec}: the faithful run crosses no such decision")
        return strategy
    raise HarnessError(f"bad --tortoise value {spec!r}")


def _achilles_from_spec(arena, machine, spec, faithful):
    """Achilles for ``--deviate STEP:OFFSET`` (faithful when absent): STEP
    must be an ordinal of a free delay of the faithful unverified run."""
    if spec is None:
        return faithful_achilles(machine, arena)
    try:
        step_text, offset_text = spec.split(":")
        ordinal, offset = int(step_text), rat(offset_text)
    except (ValueError, ParseError) as exc:
        raise HarnessError(f"bad --deviate value {spec!r}; expected STEP:OFFSET") from exc
    delays = faithful()[0]
    if not 0 <= ordinal < delays:
        raise HarnessError(f"--deviate {spec}: step {ordinal} is not one of the {delays} free delays of the faithful run")
    return deviated_achilles(machine, arena, ordinal, offset)


def cmd_simulate(args) -> int:
    arena = _load_arena(args.arena, args.sidecar)
    machine = _load_machine(args.machine)
    time_bound = None if args.time_bound == "none" else rat(args.time_bound)
    # one replay, on first use, checks both --deviate and --tortoise
    faithful = functools.cache(lambda: _faithful_addresses(arena, machine, args.step_bound))
    achilles = _achilles_from_spec(arena, machine, args.deviate, faithful)
    tortoise = _tortoise_from_spec(arena, args.tortoise, faithful)
    verdict = playout(arena, achilles, tortoise, step_bound=args.step_bound, time_bound=time_bound)
    if args.trace:
        export_trace(verdict, args.trace)
    _emit(
        {
            "outcome": verdict.outcome,
            "location": str(verdict.location) if verdict.location else None,
            "elapsed": fmt(verdict.elapsed),
            "steps": verdict.steps,
        }
    )
    return 0


def cmd_rsm_solve(args) -> int:
    data = _read_json(args.file)
    model, start, partition, finals = model_from_json(data)
    problems = validate(model)
    if problems:
        raise ParseError("model is not well formed: " + "; ".join(problems))
    if start is None or partition is None:
        raise ParseError("model file must carry 'start' and 'partition'")
    if not isinstance(start, str):
        raise ParseError(f"'start' must be a node name, not {json.dumps(start)}")
    known = set(model.all_locations())
    unknown = [f"{key} names {loc}" for key, locs in (("finals", finals or ()), ("partition", partition))
               for loc in sorted(locs) if loc not in known]
    if unknown:
        raise ParseError("not a location of the model: " + "; ".join(unknown))
    if args.objective == "reach":
        if finals is None:
            raise ParseError("reachability objective needs 'finals'")
        winner, _ = solve_reachability_game(model, partition, start, finals)
    else:
        winner, _ = solve_termination_game(model, partition, start)
    _emit({"winner": winner.value, "objective": args.objective, "start": start})
    return 0


def cmd_check(args) -> int:
    arena = _load_arena(args.arena, args.sidecar)
    machine = _load_machine(args.machine)
    achilles = _achilles_from_spec(arena, machine, args.deviate, lambda: _faithful_addresses(arena, machine))
    verdict = playout(
        arena, achilles, tortoise_skip_all(arena),
        time_bound=arena.time_bound,
    )
    encoding = check_encoding(verdict, machine, arena)
    ledger = check_time_ledger(verdict, arena)
    ok = encoding.ok and ledger.ok
    report = {
        "ok": ok,
        "outcome": verdict.outcome,
        "elapsed": fmt(verdict.elapsed),
        "encoding": encoding.to_json(),
        "time_ledger": ledger.to_json(),
    }
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _emit(report)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhagames",
        description="Recursive automata reachability games and counter-machine gadgets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tcm-run", help="run a two-counter machine")
    p.add_argument("file", help="machine file (text or JSON)")
    p.add_argument("--max-steps", type=int, default=DEFAULT_STEP_BOUND)
    p.set_defaults(func=cmd_tcm_run)

    p = sub.add_parser("compile", help="compile a machine into a game arena")
    p.add_argument("file", help="machine file (text or JSON)")
    p.add_argument("--target", choices=tuple(TARGETS), required=True)
    p.add_argument("--out", help="arena JSON path (a .sidecar.json is written next to it)")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="play out a compiled arena")
    p.add_argument("arena", help="arena JSON path")
    p.add_argument("machine", help="machine file")
    p.add_argument("--sidecar", help="sidecar path (default: derived from the arena path)")
    p.add_argument("--tortoise", default="skip", help="skip | verify:STEP:SLOT")
    p.add_argument("--deviate", help="STEP:OFFSET, e.g. 0:1/64")
    p.add_argument("--trace", help="write the playout trace as JSON lines")
    p.add_argument("--step-bound", type=int, default=DEFAULT_STEP_BOUND)
    p.add_argument("--time-bound", default="none", help='rational "p/q" or "none"')
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("rsm-solve", help="decide a recursive state machine game")
    p.add_argument("file", help="RSM game JSON (components, start, partition, finals)")
    p.add_argument("--objective", choices=("reach", "terminate"), default="reach")
    p.set_defaults(func=cmd_rsm_solve)

    p = sub.add_parser("check", help="encoding and time-ledger report for an arena")
    p.add_argument("arena", help="arena JSON path")
    p.add_argument("machine", help="machine file")
    p.add_argument("--sidecar", help="sidecar path (default: derived)")
    p.add_argument("--deviate", help="STEP:OFFSET to check a deviated run instead")
    p.add_argument("--report", help="also write the report JSON here")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ModelError, HarnessError, CompileError, StrategyError, MoveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
