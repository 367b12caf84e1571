"""CLI: config layering, validation exits, and each subcommand end to end
(in process, mock providers only; the stdout test runs the CLI as a subprocess).
"""

import collections
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from enum import Enum
from pathlib import Path

import pytest

import iclmanip
import iclmanip.cli as cli
import iclmanip.harness as harness
import iclmanip.llm as llm
import iclmanip.prompts as prompts
from iclmanip.cli import _build_run_config, build_parser, main
from iclmanip.llm import ProtocolError, TransportError
from iclmanip.model import _write_plan
from iclmanip.prompts import default_system_prompts

_SRC = str(Path(iclmanip.__file__).parents[1])


def test_eval_writes_summary_and_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main(
        [
            "eval",
            "--task", "push_button",
            "--n-demos", "2",
            "--n-eval", "2",
            "--csv", str(out),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "task=push_button" in printed
    assert "success_rate=" in printed
    lines = out.read_text().splitlines()
    assert lines[0] == "task,provider,arm,seed,success,parse_error,n_actions,latency_ms"
    assert len(lines) == 3


def test_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"task": "push_button", "n_demos": 2, "n_eval": 5}))
    rc = main(["eval", "--config", str(cfg), "--n-eval", "2"])
    assert rc == 0
    assert "n=2" in capsys.readouterr().out  # flag beat the file


def test_config_file_unknown_key_exits(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"task": "push_button", "walrus": 1}))
    with pytest.raises(SystemExit):
        main(["eval", "--config", str(cfg)])


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read config file {path}: [Errno 2] No such file or directory: '{path}'"),
        ('{"task": "push_button",', "cannot read config file {path}: "),
        ('["task", "push_button"]', "config file {path} must hold a JSON object"),
    ],
)
def test_unreadable_config_file_exits_before_any_episode_runs(tmp_path, monkeypatch, content, message):
    calls = _count_run_eval(monkeypatch)
    path = tmp_path / "run.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as err:
        main(["eval", "--config", str(path)])
    assert err.value.code.startswith(message.format(path=path)) and "\n" not in err.value.code
    assert calls == []


@pytest.mark.parametrize("command", ["generate-demos", "build-prompt", "eval", "ablate"])
def test_help_of_each_subcommand_exits_0(command, capsys):
    # Each --help formats every flag's help text, the RunConfig-made ones included.
    with pytest.raises(SystemExit) as err:
        main([command, "--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: iclmanip {command}")


def test_missing_task_exits():
    with pytest.raises(SystemExit):
        main(["eval", "--n-eval", "2"])


def test_bad_task_value_rejected():
    with pytest.raises(SystemExit):
        main(["eval", "--task", "juggle"])


def test_generate_demos_round_trips(tmp_path):
    out = tmp_path / "demos.jsonl"
    rc = main(
        [
            "generate-demos",
            "--task", "stack_cube",
            "--n-demos", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    # The package has no episode reader: the file must read with json alone.
    episodes = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(episodes) == 3
    assert all(set(ep) == {"instruction", "objects", "velocities", "actions"} for ep in episodes)
    assert all(len(ep["actions"]) == len(ep["velocities"]) >= 60 for ep in episodes)
    assert all(a["gripper"] in (0, 1) for ep in episodes for a in ep["actions"])
    names = {tuple(o["name"] for o in ep["objects"]) for ep in episodes}
    assert names == {("blue cube", "yellow cube")}


def test_generate_demos_for_multi_button_uses_single_button_demos(tmp_path):
    out = tmp_path / "demos.jsonl"
    main(
        [
            "generate-demos",
            "--task", "push_multiple_buttons",
            "--n-demos", "2",
            "--out", str(out),
        ]
    )
    episodes = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(episodes) == 2 and all(", then " not in ep["instruction"] for ep in episodes)


def test_build_prompt_bundle_shape(tmp_path, capsys):
    rc = main(["build-prompt", "--task", "push_button", "--n-demos", "2"])
    assert rc == 0
    bundle = json.loads(capsys.readouterr().out)
    assert set(bundle) == {"system", "body"}
    assert bundle["body"].endswith("> ")
    assert bundle["system"].startswith("You are a Franka Panda robot")

    out = tmp_path / "prompt.json"
    rc = main(["build-prompt", "--task", "push_button", "--n-demos", "2", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["body"].endswith("> ")


def test_ablate_loop_prints_one_line_per_arm(capsys):
    rc = main(
        [
            "ablate", "loop",
            "--task", "push_button",
            "--n-demos", "2",
            "--n-eval", "2",
        ]
    )
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 2
    assert "arm=loop-open" in lines[0]
    assert "arm=loop-closed" in lines[1]


def test_ablate_shots_respects_flag(capsys):
    rc = main(
        [
            "ablate", "shots",
            "--task", "push_button",
            "--n-eval", "2",
            "--shots", "1", "2",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "arm=shots-1" in out and "arm=shots-2" in out


@pytest.mark.parametrize(
    "flags, message",
    [
        (["shots", "--shots", "2", "2"], "sweep shots has two arms labelled shots-2"),
        (["noise", "--scales", "1.0", "1.0000001"], "sweep noise has two arms labelled noise-1"),
        (["shots", "noise", "--scales", "1", "1.0000001"], "sweep noise has two arms labelled noise-1"),
    ],
)
def test_ablate_values_sharing_a_label_exit_before_any_arm_runs(tmp_path, monkeypatch, capsys, flags, message):
    calls = _count_run_eval(monkeypatch)
    csv = tmp_path / "rows.csv"
    with pytest.raises(SystemExit) as err:
        main(["ablate", *flags, "--task", "push_button", "--n-eval", "2", "--csv", str(csv)])
    assert err.value.code == message
    assert calls == [] and capsys.readouterr().out == "" and not csv.exists()


@pytest.mark.parametrize(
    "flags, flag, name",
    [
        (["shots", "--intervals", "5"], "--intervals", "sampling"),
        (["shots", "--scales", "3"], "--scales", "noise"),
        (["sampling", "loop", "--shots", "1"], "--shots", "shots"),
    ],
)
def test_ablate_value_flag_for_a_sweep_not_named_exits_before_any_arm_runs(monkeypatch, capsys, flags, flag, name):
    calls = _count_run_eval(monkeypatch)
    with pytest.raises(SystemExit) as err:
        main(["ablate", *flags, "--task", "push_button", "--n-eval", "2"])
    assert err.value.code == f"{flag} sets the arms of sweep {name}, which is not named"
    assert calls == [] and capsys.readouterr().out == ""


def test_eval_with_noise_beyond_any_bin_exits_0(capsys):
    # Noise this large puts observed poses near +-5e307 m, whose raw bin
    # position is +-inf; they land in the edge bins.
    assert main(["eval", "--task", "stack_cube", "--n-demos", "2", "--n-eval", "2", "--noise-k", "5e307"]) == 0
    assert "n=2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "loop, message",
    [("open", "Pose6.x must be finite, got inf"), ("closed", "Pose6.z must be finite, got -inf")],
)
def test_eval_with_noise_past_the_float_range_exits_with_the_first_bad_axis(loop, message):
    # k = 1e308 takes some draw times k times sigma past the float range.
    # The run stops on the first such axis of the first noised block, in
    # pool order: demos before test slots, then objects, then x ... yaw.
    argv = ["eval", "--task", "stack_cube", "--n-demos", "2", "--n-eval", "2", "--noise-k", "1e308"]
    with pytest.raises(SystemExit) as err:
        main([*argv, "--loop-mode", loop])
    assert err.value.code == message


def test_noise_flag_parses(capsys):
    rc = main(
        [
            "eval",
            "--task", "push_button",
            "--n-demos", "2",
            "--n-eval", "2",
            "--noise-k", "0.5",
        ]
    )
    assert rc == 0


def test_bounds_flag_wrong_arity_exits(capsys):
    with pytest.raises(SystemExit):
        main(["eval", "--task", "push_button", "--bounds", "-0.5", "0.5"])


def test_bounds_flag_takes_negative_limits_in_exponent_notation(tmp_path):
    rows = []
    for limits in (["-5e-1", "0.5", "-1E-1", "0.5"], ["-0.5", "0.5", "-0.1", "0.5"]):
        out = tmp_path / f"rows{len(rows)}.csv"
        flags = ["--task", "stack_cube", "--n-demos", "2", "--n-eval", "3", "--csv", str(out)]
        assert main(["eval", *flags, "--bounds", *limits, "0", "0.5"]) == 0
        rows.append(out.read_text())
    assert rows[0] == rows[1]


def _arms(out: str) -> list[str]:
    return [line.split("arm=")[1].split()[0] for line in out.splitlines() if line]


def test_ablate_sampling_respects_intervals_flag(capsys):
    rc = main(
        [
            "ablate", "sampling",
            "--task", "push_button",
            "--n-demos", "2",
            "--n-eval", "2",
            "--intervals", "5", "20",
        ]
    )
    assert rc == 0
    assert _arms(capsys.readouterr().out) == ["keyframes", "uniform-5", "uniform-20"]


def test_ablate_noise_respects_scales_flag(capsys):
    rc = main(
        [
            "ablate", "noise",
            "--task", "push_button",
            "--n-demos", "2",
            "--n-eval", "2",
            "--scales", "0.5",
        ]
    )
    assert rc == 0
    assert _arms(capsys.readouterr().out) == ["noise-0.5"]


@pytest.mark.parametrize(
    "file_values, flags",
    [
        ({"bounds": [0.5, -0.5, -0.5, 0.5, 0.0, 0.5]}, []),  # inverted x limits
        ({"bounds": ["a", 0.5, -0.5, 0.5, 0.0, 0.5]}, []),  # non-numeric
        ({"bounds": ["-0.5", 0.5, -0.5, 0.5, 0.0, 0.5]}, []),  # a number in a string
        ({"bounds": [-0.5, True, -0.5, 0.5, 0, 0.5]}, []),  # a boolean
        ({"noise": -1}, []),
        ({"noise": {"k": -1}}, []),
        ({}, ["--noise-k", "-1"]),
        ({"eval_seeds": [1, 2]}, []),
        ({"seed": "3"}, []),
        ({"n_eval": 2.5}, []),
        ({}, ["--max-tokens", "0"]),
        ({"requests_per_second": 0}, []),
    ],
)
def test_bad_config_values_exit_with_message(tmp_path, file_values, flags):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"task": "push_button", "n_demos": 2, "n_eval": 2, **file_values}))
    with pytest.raises(SystemExit) as err:
        main(["eval", "--config", str(cfg), *flags])
    assert isinstance(err.value.code, str)  # a message, not an argparse usage error


def _other_value(field):
    """A value for a RunConfig field other than its default, as JSON."""
    kind = harness.config_kind(field)
    if field.name == "bounds":
        return [-0.4, 0.3, -0.2, 0.1, 0.0, 0.6]
    if field.name == "noise":
        return 0.5
    if issubclass(kind, Enum):
        return next(m.value for m in kind if m != field.default)
    return field.default + "x" if kind is str else field.default + kind(1)


@pytest.mark.parametrize(
    "field",
    [f for f in dataclasses.fields(harness.RunConfig) if f.name != "eval_seeds"],
    ids=lambda f: f.name,
)
def test_every_config_field_has_a_flag_that_matches_its_config_key(tmp_path, field):
    # Flags are --<field with dashes>; noise is --noise-k; eval_seeds has none.
    # The value comes after task's, and replaces it when the field is task.
    value = _other_value(field)
    flag = "--noise-k" if field.name == "noise" else "--" + field.name.replace("_", "-")
    texts = [str(v) for v in value] if isinstance(value, list) else [str(value)]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"task": "push_button", field.name: value}))

    from_file = _build_run_config(build_parser().parse_args(["eval", "--config", str(cfg)]))
    from_flags = _build_run_config(build_parser().parse_args(["eval", "--task", "push_button", flag, *texts]))
    assert from_flags == from_file
    assert from_file != harness.RunConfig(task=harness.TaskId.PUSH_BUTTON)


def test_prompts_sweep_has_one_arm_per_system_prompt():
    config = harness.RunConfig(task=harness.TaskId.PUSH_BUTTON, n_demos=2, n_eval=2)
    reports = harness.sweep(config, "prompts")
    assert [r.arm for r in reports] == [f"prompt-{i}" for i in range(len(default_system_prompts()))]
    assert [r.config.system_prompt_index for r in reports] == list(range(len(default_system_prompts())))


@pytest.mark.parametrize(
    "command, out_flag",
    [("eval", "--csv"), ("ablate loop", "--csv"), ("build-prompt", "--out"), ("generate-demos", "--out")],
)
def test_unwritable_output_path_exits_naming_it(tmp_path, command, out_flag):
    path = str(tmp_path / "missing" / "out.txt")
    with pytest.raises(SystemExit) as err:
        main([*command.split(), "--task", "push_button", "--n-demos", "2", "--n-eval", "2", out_flag, path])
    assert isinstance(err.value.code, str)
    assert path in err.value.code and "\n" not in err.value.code


@pytest.mark.parametrize(
    "flag, message",
    [
        ("eval --csv", "the output path is empty"),
        ("ablate loop --csv", "the output path is empty"),
        ("build-prompt --out", "the output path is empty"),
        ("generate-demos --out", "the output path is empty"),
        ("eval --config", "cannot read config file : "),
    ],
)
def test_empty_path_exits_before_anything_is_planned(tmp_path, monkeypatch, flag, message):
    # An empty path is refused as any other bad path is, not taken for no path.
    monkeypatch.setattr(harness, "scripted_experts", lambda *args: pytest.fail("an expert was planned"))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    with pytest.raises(SystemExit) as err:
        main([*flag.split(), "", "--task", "push_button", "--n-demos", "2", "--n-eval", "2"])
    assert err.value.code.startswith(message) and "\n" not in err.value.code
    assert os.listdir(tmp_path) == ["work"] and os.listdir(work) == []


@pytest.mark.parametrize(
    "file_values, flags, field",
    [
        ({}, ["--delta", "nan"], "delta"),
        ({}, ["--noise-k", "nan"], "noise"),
        ({}, ["--requests-per-second", "inf"], "requests_per_second"),
        ({"delta": float("inf")}, [], "delta"),
        ({"noise": {"k": float("nan")}}, [], "noise"),
    ],
)
def test_non_finite_values_exit_naming_the_field(tmp_path, file_values, flags, field):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"task": "push_button", "n_demos": 2, "n_eval": 2, **file_values}))
    with pytest.raises(SystemExit) as err:
        main(["eval", "--config", str(cfg), *flags])
    assert err.value.code.startswith(f"{field} must be finite, got ")


def test_negative_seed_exits_naming_the_field():
    with pytest.raises(SystemExit) as err:
        main(["eval", "--task", "push_button", "--n-demos", "2", "--n-eval", "2", "--seed", "-5"])
    assert err.value.code == "seed must be >= 0, got -5"


@pytest.mark.parametrize(
    "task, delta", [("push_button", "0.02"), ("stack_cube", "0.05")]
)
def test_delta_leaving_one_keyframe_exits_with_message(task, delta):
    with pytest.raises(SystemExit) as err:
        main(["eval", "--task", task, "--n-demos", "2", "--n-eval", "2", "--delta", delta])
    assert isinstance(err.value.code, str)
    assert "demo seed" in err.value.code
    assert f"delta {delta}" in err.value.code


def test_remote_without_credential_exits_with_message(monkeypatch):
    monkeypatch.delenv("ICLMANIP_TEST_UNSET_KEY", raising=False)
    with pytest.raises(SystemExit) as err:
        main(
            [
                "eval",
                "--task", "push_button",
                "--n-demos", "2",
                "--n-eval", "2",
                "--provider", "remote",
                "--endpoint", "http://127.0.0.1:9",
                "--credential-env", "ICLMANIP_TEST_UNSET_KEY",
            ]
        )
    assert err.value.code == (
        "credential environment variable 'ICLMANIP_TEST_UNSET_KEY' is not set"
    )


def test_unanswerable_mock_query_exits_with_message():
    with pytest.raises(SystemExit) as err:
        main(["eval", "--task", "push_multiple_buttons", "--n-demos", "2", "--n-eval", "4"])
    assert isinstance(err.value.code, str)
    assert "\n" not in err.value.code
    assert "no demo instruction matches" in err.value.code
    assert "--provider mock-compositional" in err.value.code


@pytest.mark.parametrize(
    "error",
    [TransportError("HTTP 503 from http://127.0.0.1:9", status=503), ProtocolError("malformed reply")],
)
def test_remote_failure_exits_with_message(monkeypatch, error):
    def failing(bundle, **kwargs):
        raise error

    monkeypatch.setattr(harness, "complete_remote", failing)
    monkeypatch.setenv("ICLMANIP_TEST_KEY", "sk-test")
    with pytest.raises(SystemExit) as err:
        main(
            [
                "eval",
                "--task", "push_button",
                "--n-demos", "2",
                "--n-eval", "2",
                "--provider", "remote",
                "--endpoint", "http://127.0.0.1:9",
                "--credential-env", "ICLMANIP_TEST_KEY",
            ]
        )
    assert err.value.code == str(error)


def test_invalid_credential_stays_out_of_the_exit_text(monkeypatch, capsys):
    # A credential with a line break is no valid header value; the remote
    # provider rejects it before connecting, without quoting it.
    monkeypatch.setenv("ICLMANIP_TEST_KEY", "sk-secret\n")
    with pytest.raises(SystemExit) as err:
        main(
            [
                "eval",
                "--task", "push_button",
                "--n-demos", "2",
                "--n-eval", "2",
                "--provider", "remote",
                "--endpoint", "http://127.0.0.1:9",
                "--credential-env", "ICLMANIP_TEST_KEY",
            ]
        )
    assert isinstance(err.value.code, str) and "\n" not in err.value.code
    assert "not a valid header value" in err.value.code
    out, errs = capsys.readouterr()
    assert "sk-secret" not in err.value.code + out + errs


def test_request_rate_below_the_floor_exits_before_connecting(monkeypatch):
    # At 1e-11 requests/s the rate limiter's second wait would be longer than
    # time.sleep accepts; the config is refused before any request is sent.
    monkeypatch.setattr(llm, "http_post", lambda *args: pytest.fail("the remote run connected"))
    monkeypatch.setenv("ICLMANIP_TEST_KEY", "sk-test")
    with pytest.raises(SystemExit) as err:
        main(
            [
                "eval",
                "--task", "push_button",
                "--n-demos", "2",
                "--n-eval", "2",
                "--provider", "remote",
                "--endpoint", "http://127.0.0.1:9",
                "--credential-env", "ICLMANIP_TEST_KEY",
                "--requests-per-second", "1e-11",
            ]
        )
    assert err.value.code == "requests_per_second must be >= 1e-09, got 1e-11"


def test_demo_scan_reaching_the_eval_seeds_exits_with_message(monkeypatch):
    # Ten push_button demos from seed 0 take seeds up to 42, past seed 30.
    monkeypatch.setattr(harness, "EVAL_SEED_OFFSET", 30)
    with pytest.raises(SystemExit) as err:
        main(["eval", "--task", "push_button", "--n-demos", "10", "--n-eval", "2"])
    assert isinstance(err.value.code, str) and "\n" not in err.value.code
    assert "n_demos 10" in err.value.code and "seed + 30" in err.value.code
    assert "use fewer demos" in err.value.code


def _count_run_eval(monkeypatch, fail: bool = False) -> list:
    """Record each run_eval call, through the CLI and through sweep; with
    fail, each call raises instead of running."""
    calls = []
    real = harness.run_eval

    def counting(config, arm="eval"):
        calls.append(arm)
        if fail:
            raise ValueError("run failed")
        return real(config, arm)

    monkeypatch.setattr(harness, "run_eval", counting)
    monkeypatch.setattr(cli, "run_eval", counting)
    return calls


@pytest.mark.parametrize("command", ["eval", "ablate loop"])
def test_bad_csv_path_exits_before_any_episode_runs(tmp_path, monkeypatch, command):
    calls = _count_run_eval(monkeypatch)
    path = tmp_path / "missing" / "r.csv"
    with pytest.raises(OSError) as late:  # what writing the CSV after the run raised
        path.open("w")
    with pytest.raises(SystemExit) as err:
        main([*command.split(), "--task", "push_button", "--n-demos", "2", "--n-eval", "2", "--csv", str(path)])
    assert err.value.code == str(late.value)
    assert calls == []
    # An existing CSV is replaced through a fresh name beside it; where that
    # name cannot be created (tests run as root, so a refusal is simulated),
    # the run stops before any episode too, and the CSV keeps its bytes.
    path = tmp_path / "r.csv"
    path.write_bytes(b"task,seed\nold,1\n")
    open_path = Path.open

    def refuse_fresh_names(self, mode="r", *args, **kwargs):
        if mode == "x":
            raise PermissionError(13, "Permission denied", str(self))
        return open_path(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", refuse_fresh_names)
    with pytest.raises(SystemExit) as err:
        main([*command.split(), "--task", "push_button", "--n-demos", "2", "--n-eval", "2", "--csv", str(path)])
    assert err.value.code == f"[Errno 13] Permission denied: '{_write_plan(path)[2]}'"
    assert calls == [] and path.read_bytes() == b"task,seed\nold,1\n"


@pytest.mark.parametrize("command", ["eval", "ablate loop"])
@pytest.mark.parametrize("existing", [b"task,seed\nold,1\n", None])
def test_failed_run_leaves_the_csv_as_it_was(tmp_path, monkeypatch, command, existing):
    calls = _count_run_eval(monkeypatch, fail=True)
    path = tmp_path / "r.csv"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(SystemExit) as err:
        main([*command.split(), "--task", "push_button", "--n-demos", "2", "--n-eval", "2", "--csv", str(path)])
    assert err.value.code == "run failed" and len(calls) == 1
    assert (path.read_bytes() if path.exists() else None) == existing


@pytest.mark.parametrize("command", ["eval", "build-prompt"])
def test_directory_as_output_path_exits_before_any_episode_runs(tmp_path, monkeypatch, command):
    calls = _count_run_eval(monkeypatch)
    monkeypatch.setattr(cli, "eval_prompts", lambda cfg: pytest.fail("a prompt was built"))
    flag = "--csv" if command == "eval" else "--out"
    with pytest.raises(SystemExit) as err:
        main([command, "--task", "push_button", "--n-demos", "2", "--n-eval", "2", flag, str(tmp_path)])
    assert err.value.code == f"[Errno 21] Is a directory: '{tmp_path}'"
    assert calls == []


_EVAL_ONTO_STDOUT = ["-m", "iclmanip", "eval", "--task", "push_button", "--n-demos", "2", "--n-eval", "2", "--csv"]


def _run_cli(args, cwd, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(args, cwd=cwd, env=env, timeout=120, check=True, **kwargs)


def test_csv_onto_stdout_keeps_every_line_when_stdout_is_a_file(tmp_path):
    # /dev/stdout is written through fd 1, so the CSV and then the summary line
    # land in a redirected file exactly as they go down a pipe.
    piped = _run_cli([sys.executable, *_EVAL_ONTO_STDOUT, "/dev/stdout"], tmp_path, stdout=subprocess.PIPE).stdout
    assert piped.startswith(b"task,provider,") and piped.endswith(b" success_rate=0.00\n")
    with open(tmp_path / "out.txt", "wb") as out:
        _run_cli([sys.executable, *_EVAL_ONTO_STDOUT, "/dev/stdout"], tmp_path, stdout=out)
    assert (tmp_path / "out.txt").read_bytes() == piped
    # With fd 1 closed, a CSV file is written as usual.
    _run_cli(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, *_EVAL_ONTO_STDOUT, "r.csv"], tmp_path)
    assert (tmp_path / "r.csv").read_bytes() == piped[: piped.rindex(b"task=")]


# sha256 of the bytes each command writes with --out, captured before
# episodes became arrays. A mode of "noise" means the default keyframe
# mode with --noise-k 1; those entries were taken again once build-prompt
# noised the test observations as eval does.
BUILD_PROMPT_SHA256 = {
    ("stack_cube", "open", "keyframes"): "b6c7fc473bdcabd9414dd583a5a86be127f10b23597b49d9c45532ee570cef25",
    ("stack_cube", "open", "uniform"): "934910bbb56d973e1b40a22c417f62fc6b257cd14b84199abb0ee83e59745b3b",
    ("stack_cube", "open", "noise"): "8c61fa235d22631ddf682f1d9537eb93382ca9b8d77721514409379632bcc222",
    ("stack_cube", "closed", "keyframes"): "6a19026315375f23b819833423c2bcb3a8480a3fc0526de433f241ff19811631",
    ("stack_cube", "closed", "uniform"): "2d6a99278a26b332fc30f63c7d635a5fa09660bd2748476ee363f0dc9192ed44",
    ("stack_cube", "closed", "noise"): "ed629da9b20b8148e369e0b46f7142fd3cb7961257c49c2513885a6752ecb902",
    ("destack_cube", "open", "keyframes"): "3b71394578c4e4539133ae625017643b906f10766e2019c0384b9e46ae9bf739",
    ("destack_cube", "open", "uniform"): "5b614889ac492f78ef2f29844a395a98d13463e9b40f316e74368889e0b20757",
    ("destack_cube", "open", "noise"): "93be14ec616dabd5ecaae69108cf9d0cc610e64c95d00dfb06406a797c472ffc",
    ("destack_cube", "closed", "keyframes"): "404aa38f20bfe4ad5c1805cc75311212ab9d3cfd9de5a311e48ea63618d944b5",
    ("destack_cube", "closed", "uniform"): "b5fa3752eed7cad73b92ee4ca77ad94cd090b01b9a41205f45a1c229529ca3e8",
    ("destack_cube", "closed", "noise"): "cb9cd8ae0a62e22932bf5ba199895a46711ce5a7b937af7590efb9c059249b0c",
    ("push_button", "open", "keyframes"): "c7c0a56b9814e5afa12f680bf20f099ead57583731210793a980872008b9a345",
    ("push_button", "open", "uniform"): "9a7a551ffc239ccc1988e83f4f1c26612e53d2ecd8b1cb310216ac23d7568d81",
    ("push_button", "open", "noise"): "958cdfbdf5f9af1d943c1be5bebe4944f67925a70ba719cde9bcd85bfde0b56e",
    ("push_button", "closed", "keyframes"): "22f85a86e8c91e4dea9e95b8fbf02d2bec50419681547c08f6ffb6468d785560",
    ("push_button", "closed", "uniform"): "dc110cc947a656ec9ea4028cf72e3bf6d3923551c1f61ba8fcb624df444c7cc7",
    ("push_button", "closed", "noise"): "5c9c60ee357e1e32b11e28b7f1e1fd780816bfda76ba1628ac585c519d37de9e",
    ("push_multiple_buttons", "open", "keyframes"): "7c09e068a869dac978ee8cfeb068d860535ce1723a598206e64cfb448be8e55e",
    ("push_multiple_buttons", "open", "uniform"): "6703a925a8974baa3b01b82b131a656fcc95f95218c30650881385b715362714",
    ("push_multiple_buttons", "open", "noise"): "f75693268df135e6284c42d4d55717a5c6e0a8d55c5f08499617973983bb6cdf",
    ("push_multiple_buttons", "closed", "keyframes"): "2d8a34578d5475bb2d80854eceb7c7a7c4a6a0d58b822ab167b8a5cbd5214feb",
    ("push_multiple_buttons", "closed", "uniform"): "75da6473e13153b3f951faeb6da46044e8a99735f53b34bba680326e6dd0f14a",
    ("push_multiple_buttons", "closed", "noise"): "03cdd13f38cf25df5a51b424993bf1062e0bddaa0a196cd1924c8ce8ff3734b0",
    ("slide_block", "open", "keyframes"): "464f934e35c8842dab5fca09cd36a688414558ea0cb56c9b727b5952a2df66ac",
    ("slide_block", "open", "uniform"): "04dcbf5dbf1d85dd5c4df609b359f977f22152a320f3f4664f41f23cf8a5c54a",
    ("slide_block", "open", "noise"): "03c28b4e30f34832ea8dacf84b4614d5810f006590c1eb51e95a209052e1826a",
    ("slide_block", "closed", "keyframes"): "094f74d916e9b7a52c2a380bf89719507d8253cda2d9eaa13d92d253d1900f81",
    ("slide_block", "closed", "uniform"): "f8036ea1d81a3df90343e4249bd3fcd6b389c904c62c584fa6751d9f784449d2",
    ("slide_block", "closed", "noise"): "701ff21be894ad46babf716ac5edc6a935ebcbbcc84cce4c0fb36fbfb101807f",
}
GENERATE_DEMOS_SHA256 = {
    "stack_cube": "197de33f633107f4586756069a610334c5fec50108b3d753aca89c08de01d9c5",
    "destack_cube": "8a6df042ce1d5383a39e3cd59cccd1f1a57abcfdf0b8a4f521c4585c5cefad20",
    "push_button": "f68873bf77f37a13d8f2fde4d4d03747900bca3407c88c899e1990a20355ea90",
    "push_multiple_buttons": "f68873bf77f37a13d8f2fde4d4d03747900bca3407c88c899e1990a20355ea90",
    "slide_block": "74466a5ec6105942872f36f7ad23357a5c94e842dd8096392455772b3a194d7b",
}


def _prompt_flags(task, loop, mode):
    extra = ["--noise-k", "1"] if mode == "noise" else ["--keyframe-mode", mode]
    return ["--task", task, "--n-demos", "4", "--loop-mode", loop, *extra]


@pytest.mark.parametrize("task, loop, mode", sorted(BUILD_PROMPT_SHA256))
def test_build_prompt_bytes_match_pinned_hash(tmp_path, task, loop, mode):
    out = tmp_path / "prompt.json"
    main(["build-prompt", *_prompt_flags(task, loop, mode), "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUILD_PROMPT_SHA256[task, loop, mode]


class _FirstPrompt(Exception):
    """Raised by the recording provider once it holds run_eval's first prompt."""


@pytest.mark.parametrize("task, loop, mode", sorted(BUILD_PROMPT_SHA256))
def test_build_prompt_is_run_evals_first_prompt(tmp_path, monkeypatch, task, loop, mode):
    flags = _prompt_flags(task, loop, mode)
    out = tmp_path / "prompt.json"
    main(["build-prompt", *flags, "--out", str(out)])
    sent = []

    def record(bundles):
        sent.extend(bundles)
        raise _FirstPrompt

    monkeypatch.setattr(harness, "_provider", lambda config: record)
    with pytest.raises(_FirstPrompt):
        main(["eval", *flags])
    assert json.loads(out.read_text()) == {"system": sent[0].system, "body": sent[0].body}


@pytest.mark.parametrize("task", sorted(GENERATE_DEMOS_SHA256))
def test_generate_demos_bytes_match_pinned_hash(tmp_path, task):
    out = tmp_path / "demos.jsonl"
    main(["generate-demos", "--task", task, "--n-demos", "4", "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENERATE_DEMOS_SHA256[task]


def test_generate_demos_resets_each_seed_once(tmp_path, monkeypatch):
    calls = collections.Counter()
    original = harness.reset

    def counting(task, seed, bounds):
        calls[seed] += 1
        return original(task, seed, bounds)

    monkeypatch.setattr(harness, "reset", counting)
    main(["generate-demos", "--task", "push_button", "--n-demos", "4", "--out", str(tmp_path / "d.jsonl")])
    assert calls and set(calls.values()) == {1}, calls


def test_ablate_runs_several_sweeps_on_one_plan_store(tmp_path, monkeypatch, capsys):
    seed_of = {}  # id(world) -> seed, for every world reset hands out
    planned = collections.Counter()
    real_reset, real_experts = harness.reset, harness.scripted_experts

    def counting_reset(task, seed, bounds):
        out = real_reset(task, seed, bounds)
        seed_of[id(out[0])] = seed
        return out

    def counting_experts(task, items):
        planned.update(seed_of[id(world)] for world, _ in items)
        return real_experts(task, items)

    monkeypatch.setattr(harness, "reset", counting_reset)
    monkeypatch.setattr(harness, "scripted_experts", counting_experts)
    names = ["sampling", "shots", "noise", "prompts", "loop"]
    flags = ["--task", "push_button", "--n-demos", "3", "--n-eval", "2"]
    assert main(["ablate", *names, *flags, "--csv", str(tmp_path / "all.csv")]) == 0
    monkeypatch.undo()

    # shots-10 draws the largest pool; every smaller pool is its prefix.
    largest = harness.demo_seeds(harness.RunConfig(task=harness.TaskId.PUSH_BUTTON, n_demos=10))
    assert sorted(planned) == sorted(largest)
    assert set(planned.values()) == {1}, planned
    combined = capsys.readouterr().out
    rows = (tmp_path / "all.csv").read_text().splitlines()

    # The same output as the sweeps run one at a time, concatenated.
    singles, single_rows = "", []
    for name in names:
        assert main(["ablate", name, *flags, "--csv", str(tmp_path / f"{name}.csv")]) == 0
        singles += capsys.readouterr().out
        single_rows += (tmp_path / f"{name}.csv").read_text().splitlines()[1:]
    assert combined == singles
    assert rows[1:] == sorted(single_rows, key=_arm_seed)


# Flag sets on which all five sweeps on one plan store must write the rows of
# each sweep run cold: a single-step task; a chained one answered by the
# compositional mock, open loop and closed loop noised (each arm's prompt
# prefix has its own table of demo rows); closed-loop, noised ones whose demos
# replay their experts' pools; the stacked start of destack_cube; a base seed
# of two uint32 words; and sweep values of their own, each given only to its
# sweep when run cold (`ablate SWEEP` refuses the value flag of a sweep not named).
WARM_COLD_FLAGS = [
    ("--task push_button", {}),
    ("--task push_multiple_buttons --provider mock-compositional", {}),
    ("--task push_multiple_buttons --provider mock-compositional --loop-mode closed --noise-k 0.7", {}),
    ("--task stack_cube --loop-mode closed --noise-k 0.7 --seed 3", {}),
    ("--task destack_cube", {}),
    ("--task slide_block --loop-mode closed --noise-k 0.7 --seed 5", {}),
    ("--task destack_cube --seed 30000000007 --loop-mode closed --noise-k 0.7", {}),
    (
        "--task push_multiple_buttons --provider mock-compositional",
        {"sampling": "--intervals 3 7", "noise": "--scales 0.3 2.5"},
    ),
]


@pytest.mark.parametrize(
    "flags, values", WARM_COLD_FLAGS, ids=[" ".join([flags, *values.values()]) for flags, values in WARM_COLD_FLAGS]
)
def test_sweeps_on_one_plan_store_write_the_rows_of_each_sweep_run_cold(tmp_path, monkeypatch, flags, values):
    # Warm: one ablate call runs the five sweeps on one plan store; run again
    # onto its own CSV, on the store it left, it rewrites the same bytes and
    # leaves no temporary file. Cold: each sweep runs on an empty store, reads
    # every prompt input through _read_input's uncached function, so a wrong
    # cache key shows as warm rows unlike cold ones, and completes one prompt
    # per mock call, so a batch that answers a prompt unlike a lone call shows too.
    common = [*flags.split(), "--n-demos", "4", "--n-eval", "5"]
    warm = tmp_path / "warm.csv"
    command = ["ablate", *harness.SWEEPS, *common, *" ".join(values.values()).split(), "--csv", str(warm)]
    assert main(command) == 0
    first = warm.read_bytes()
    assert main(command) == 0
    assert warm.read_bytes() == first
    assert list(tmp_path.glob(".*.tmp")) == []
    monkeypatch.setattr(prompts, "_read_input", prompts._read_input.__wrapped__)
    one_at_a_time = {
        "complete_mock_nearest_batch": lambda bundles: [llm.complete_mock_nearest_batch([b])[0] for b in bundles],
        "complete_mock_compositional_batch": lambda bundles: [llm.complete_mock_compositional(b) for b in bundles],
    }
    for name, complete in one_at_a_time.items():
        monkeypatch.setattr(harness, name, complete)
    cold = []
    for sweep in harness.SWEEPS:
        harness._store.cache_clear()
        out = tmp_path / f"cold-{sweep}.csv"
        assert main(["ablate", sweep, *common, *values.get(sweep, "").split(), "--csv", str(out)]) == 0
        cold += out.read_text().splitlines()[1:]
    assert len(set(cold)) == len(cold) >= 2 * 5 * len(harness.SWEEPS)  # each sweep, at least two arms of 5 seeds
    assert sorted(warm.read_text().splitlines()[1:]) == sorted(cold)


def _arm_seed(row):
    fields = row.split(",")
    return fields[2], int(fields[3])


@pytest.mark.parametrize(
    "flags, message",
    [
        (
            ["--task", "push_button", "--bounds", "-0.05", "0.05", "-0.05", "0.05", "0", "0.5"],
            "no legal placement for push_button seed 0 in 1000 draws",
        ),
        (
            ["--task", "destack_cube", "--bounds", "-0.1", "0.1", "-0.1", "0.1", "0", "0.5"],
            "no free table spot inside the placement region",
        ),
        (
            ["--task", "push_button", "--loop-mode", "closed", "--keyframe-mode", "keyframes",
             "--bounds", "-0.5", "0.5", "-0.5", "0.5", "0.05", "0.5"],
            "action pose z=0.004 outside inflated bounds [0.005, 0.545]",
        ),
        (
            ["--task", "push_button", "--loop-mode", "closed", "--keyframe-mode", "uniform",
             "--bounds", "-0.5", "0.5", "-0.5", "0.5", "0.05", "0.5"],
            "action pose z=0.004 outside inflated bounds [0.005, 0.545]",
        ),
        (
            ["--task", "stack_cube", "--bounds", "-0.5", "0.5", "-0.5", "0.5", "0", "1e300"],
            "the simulator needs bounds within [-10, 10] m, got z limits [0, 1e+300]",
        ),
        (
            ["--task", "stack_cube", "--bounds", "-1e300", "0", "-0.5", "0.5", "0", "0.5"],
            "the simulator needs bounds within [-10, 10] m, got x limits [-1e+300, 0]",
        ),
    ],
    ids=["placement", "expert", "replay-keyframes", "replay-uniform", "beyond-reach-z", "beyond-reach-x"],
)
def test_unusable_bounds_exit_with_message(flags, message):
    with pytest.raises(SystemExit) as err:
        main(["eval", "--n-demos", "2", "--n-eval", "2", *flags])
    assert err.value.code == message
