"""CLI: config layering, validation exits, and each subcommand end to end
(in process, mock providers only).
"""

import json

import pytest

from iclmanip.cli import main
from iclmanip.model import load_episodes


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
    episodes = load_episodes(out)
    assert len(episodes) == 3
    assert all(ep.length >= 60 for ep in episodes)
    names = {tuple(o.name for o in ep.objects) for ep in episodes}
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
    episodes = load_episodes(out)
    assert all(", then " not in ep.instruction for ep in episodes)


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
