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
environment variable named by credential_env. A ValueError, bounds the
simulator cannot place objects in, plan a demo in or replay a demo in, a
mock oracle that cannot answer, or a remote transport or protocol failure
raised while a command runs exits with a one-line message instead of a
traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .harness import (
    SWEEPS,
    EvalReport,
    KeyframeMode,
    LoopMode,
    RunConfig,
    _Plans,
    demo_episodes,
    emit_csv,
    eval_prompts,
    run_eval,
    sweep,
)
from .llm import OracleError, ProtocolError, Provider, TransportError
from .model import save_episodes
from .sim import ExecutionError, ExpertError, PlacementError, TaskId


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read config file {path}: {exc}")
    if not isinstance(raw, dict):
        raise SystemExit(f"config file {path} must hold a JSON object")
    return raw


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    values = _load_config_file(args.config) if args.config else {}
    for field in dataclasses.fields(RunConfig):
        flag = getattr(args, field.name, None)
        if flag is not None:
            values[field.name] = flag
    if "task" not in values:
        raise SystemExit("a task is required (flag --task or config file key \"task\")")
    return RunConfig.from_mapping(values)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--task", choices=[t.value for t in TaskId])
    parser.add_argument("--n-demos", dest="n_demos", type=int)
    parser.add_argument("--n-eval", dest="n_eval", type=int)
    parser.add_argument("--delta", type=float, help="keyframe velocity threshold (rad/s)")
    parser.add_argument(
        "--bounds",
        type=float,
        nargs=6,
        metavar=("XMIN", "XMAX", "YMIN", "YMAX", "ZMIN", "ZMAX"),
    )
    parser.add_argument("--provider", choices=[p.value for p in Provider])
    parser.add_argument("--endpoint")
    parser.add_argument("--model")
    parser.add_argument(
        "--credential-env",
        dest="credential_env",
        help="environment variable holding the API credential",
    )
    parser.add_argument(
        "--system-prompt-index", dest="system_prompt_index", type=int, choices=(0, 1, 2)
    )
    parser.add_argument(
        "--keyframe-mode", dest="keyframe_mode", choices=[m.value for m in KeyframeMode]
    )
    parser.add_argument("--uniform-interval", dest="uniform_interval", type=int)
    parser.add_argument("--loop-mode", dest="loop_mode", choices=[m.value for m in LoopMode])
    parser.add_argument("--noise-k", dest="noise", type=float, help="noise scale k (omit for none)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--max-tokens", dest="max_tokens", type=int)
    parser.add_argument(
        "--requests-per-second", dest="requests_per_second", type=float
    )


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
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote prompt bundle to {args.out}")
    else:
        print(payload)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = _build_run_config(args)
    report = run_eval(config)
    if args.csv:
        emit_csv([report], args.csv)
    print(_summary_line(report))
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    config = _build_run_config(args)
    plans = _Plans()  # every named sweep plans each world once, together
    reports = [
        report
        for name in dict.fromkeys(args.sweep)
        for report in sweep(config, name, getattr(args, f"{name}_values", None), plans)
    ]
    if args.csv:
        emit_csv(reports, args.csv)
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
    p.add_argument("--csv", help="write per-episode rows to this CSV file")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="run ablation sweeps")
    p.add_argument("sweep", nargs="+", choices=tuple(SWEEPS), help="sweep names, run in order")
    _add_config_flags(p)
    # A sweep's value flag stores to <sweep>_values; omitted, SWEEPS defaults apply.
    p.add_argument(
        "--intervals", dest="sampling_values", metavar="INTERVALS", type=int, nargs="+",
        help="uniform sampling intervals",
    )
    p.add_argument(
        "--shots", dest="shots_values", metavar="SHOTS", type=int, nargs="+",
        help="demo counts for the shots sweep",
    )
    p.add_argument(
        "--scales", dest="noise_values", metavar="SCALES", type=float, nargs="+",
        help="noise scales k",
    )
    p.add_argument("--csv", help="write per-episode rows to this CSV file")
    p.set_defaults(func=_cmd_ablate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, PlacementError, ExpertError, ExecutionError, TransportError, ProtocolError) as exc:
        # bad config values, unusable delta or bounds, unset credential, remote failure
        raise SystemExit(str(exc))
    except OracleError as exc:
        raise SystemExit(
            f"mock provider cannot answer: {exc}; for instructions that chain "
            "several demo steps, try --provider mock-compositional"
        )


if __name__ == "__main__":
    sys.exit(main())
