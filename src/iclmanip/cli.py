"""Command-line front end.

Subcommands:
  generate-demos   write scripted-expert episodes as line-delimited JSON
  build-prompt     print, as JSON, the first prompt bundle eval would send
  eval             run the closed pipeline and report the success rate
  ablate           run one or more ablation sweeps from harness.SWEEPS

build-prompt and eval read their prompts from harness.eval_prompts, so
the printed bundle is the one eval sends first, noise included.

Settings resolve in three layers: RunConfig defaults, then a JSON config
file (--config), then explicit flags; RunConfig.from_mapping validates the
merged values. The remote credential is never a flag; it is read from the
environment variable named by credential_env. A ValueError (bounds
beyond the simulator's reach among them), bounds the simulator cannot
place objects in, plan a demo in or replay a demo in, a
mock oracle that cannot answer, a remote transport or protocol failure, or
an output file that cannot be written, raised while a command runs, exits
with a one-line message instead of a traceback; a bad --csv or --out path,
and (for ablate) a clashing arm label or a value flag for a sweep that is
not named, before any work starts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from enum import Enum
from pathlib import Path

from .harness import (
    SWEEPS,
    SYSTEM_PROMPT_INDICES,
    EvalReport,
    RunConfig,
    config_kind,
    demo_episodes,
    emit_csv,
    eval_prompts,
    run_eval,
    sweep_arms,
)
from .llm import OracleError, ProtocolError, TransportError
from .model import _check_writable, _write_file, save_episodes
from .sim import ExecutionError, ExpertError, PlacementError


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read config file {path}: {exc}")
    if not isinstance(raw, dict):
        raise SystemExit(f"config file {path} must hold a JSON object")
    return raw


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    values = _load_config_file(args.config) if args.config is not None else {}
    for field in dataclasses.fields(RunConfig):
        flag = getattr(args, field.name, None)
        if flag is not None:
            values[field.name] = flag
    if "task" not in values:
        raise SystemExit("a task is required (flag --task or config file key \"task\")")
    return RunConfig.from_mapping(values)


# What does not follow from a field: each RunConfig field <name> but eval_seeds
# is --<name with dashes>, with its enum's values as choices or its default's type.
_FLAG_EXCEPTIONS = {
    "delta": {"help": "keyframe velocity threshold (rad/s)"},
    "bounds": {"type": float, "nargs": 6, "metavar": ("XMIN", "XMAX", "YMIN", "YMAX", "ZMIN", "ZMAX")},
    "credential_env": {"help": "environment variable holding the API credential"},
    "system_prompt_index": {"choices": SYSTEM_PROMPT_INDICES},
    "noise": {"flag": "--noise-k", "type": float, "help": "noise scale k (omit for none)"},
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    # argparse (before 3.13) reads a value such as -5e-1 as an option name,
    # because its negative-number pattern admits only plain decimals.
    parser._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    parser.add_argument("--config", help="JSON config file; flags override its values")
    for field in dataclasses.fields(RunConfig):
        if field.name == "eval_seeds":
            continue
        kind = config_kind(field)
        spec = {"choices": [m.value for m in kind]} if issubclass(kind, Enum) else {"type": kind}
        spec.update(_FLAG_EXCEPTIONS.get(field.name, {}))
        flag = spec.pop("flag", "--" + field.name.replace("_", "-"))
        parser.add_argument(flag, dest=field.name, **spec)


# A sweep's value flag, stored to <sweep>_values: sweep -> (flag, type, help).
# Omitted, SWEEPS defaults apply.
_SWEEP_VALUE_FLAGS = {
    "sampling": ("--intervals", int, "uniform sampling intervals"),
    "shots": ("--shots", int, "demo counts for the shots sweep"),
    "noise": ("--scales", float, "noise scales k"),
}


def _summary_line(report: EvalReport) -> str:
    config = report.config
    return (
        f"task={config.task.value} provider={config.provider.value} arm={report.arm} "
        f"n={len(report.records)} success_rate={report.success_rate:.2f}"
    )


def _cmd_generate_demos(args: argparse.Namespace) -> int:
    episodes = demo_episodes(_build_run_config(args))
    save_episodes(episodes, args.out)
    print(f"wrote {len(episodes)} episodes to {args.out}")
    return 0


def _cmd_build_prompt(args: argparse.Namespace) -> int:
    *_, bundle = next(eval_prompts(_build_run_config(args)))
    payload = json.dumps({"system": bundle.system, "body": bundle.body}, indent=2)
    if args.out is not None:
        with _write_file(args.out, encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote prompt bundle to {args.out}")
    else:
        print(payload)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    report = run_eval(_build_run_config(args))
    if args.out is not None:
        emit_csv([report], args.out)
    print(_summary_line(report))
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    names = dict.fromkeys(args.sweep)
    for name, (flag, _, _) in _SWEEP_VALUE_FLAGS.items():
        if getattr(args, f"{name}_values") is not None and name not in names:
            raise SystemExit(f"{flag} sets the arms of sweep {name}, which is not named")
    config = _build_run_config(args)
    # Every arm of every sweep is built, and its label checked, before the first runs.
    arms = [arm for name in names for arm in sweep_arms(config, name, getattr(args, f"{name}_values", None))]
    reports = [run_eval(cfg, arm=label) for cfg, label in arms]
    if args.out is not None:
        emit_csv(reports, args.out)
    for report in reports:
        print(_summary_line(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iclmanip",
        description="Prompt robot demonstrations into a text-only LLM and score the replies in simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-demos", help="write scripted demo episodes as JSON lines")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="output episodes file")
    p.set_defaults(func=_cmd_generate_demos)

    p = sub.add_parser("build-prompt", help="print the first prompt eval would send")
    _add_config_flags(p)
    p.add_argument("--out", help="write the JSON bundle here instead of stdout")
    p.set_defaults(func=_cmd_build_prompt)

    p = sub.add_parser("eval", help="run the closed pipeline and score it")
    _add_config_flags(p)
    p.add_argument("--csv", dest="out", metavar="CSV", help="write per-episode rows to this CSV file")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="run ablation sweeps")
    p.add_argument("sweep", nargs="+", choices=tuple(SWEEPS), help="sweep names, run in order")
    _add_config_flags(p)
    for name, (flag, kind, text) in _SWEEP_VALUE_FLAGS.items():
        p.add_argument(flag, dest=f"{name}_values", metavar=flag[2:].upper(), type=kind, nargs="+", help=text)
    p.add_argument("--csv", dest="out", metavar="CSV", help="write per-episode rows to this CSV file")
    p.set_defaults(func=_cmd_ablate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out is not None:  # every command's output path, from --out or --csv
            _check_writable(args.out)
        return args.func(args)
    except (ValueError, PlacementError, ExpertError, ExecutionError, TransportError, ProtocolError,
            OSError) as exc:
        # bad config values, unusable delta or bounds, unset credential, remote failure, unwritable output
        raise SystemExit(str(exc))
    except OracleError as exc:
        raise SystemExit(
            f"mock provider cannot answer: {exc}; for instructions that chain "
            "several demo steps, try --provider mock-compositional"
        )


if __name__ == "__main__":
    sys.exit(main())
