"""CLI: config layering, validation exits, and each subcommand end to end
(in process, mock providers only).
"""

import collections
import hashlib
import json

import pytest

import iclmanip.cli as cli
import iclmanip.harness as harness
from iclmanip.cli import main
from iclmanip.llm import ProtocolError, TransportError
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


# sha256 of the bytes each command writes with --out, captured before
# episodes became arrays. A mode of "noise" means the default keyframe
# mode with --noise-k 1.
BUILD_PROMPT_SHA256 = {
    ("stack_cube", "open", "keyframes"): "b6c7fc473bdcabd9414dd583a5a86be127f10b23597b49d9c45532ee570cef25",
    ("stack_cube", "open", "uniform"): "934910bbb56d973e1b40a22c417f62fc6b257cd14b84199abb0ee83e59745b3b",
    ("stack_cube", "open", "noise"): "7fbacce9e68a09c5bdd0804d9a85f2370751d458b3c16859c6b3b8ae0c030d5a",
    ("stack_cube", "closed", "keyframes"): "6a19026315375f23b819833423c2bcb3a8480a3fc0526de433f241ff19811631",
    ("stack_cube", "closed", "uniform"): "2d6a99278a26b332fc30f63c7d635a5fa09660bd2748476ee363f0dc9192ed44",
    ("stack_cube", "closed", "noise"): "b53442a29b201fabfaad1a227ca64d72ed1abe4dd1da455e428816f474e81522",
    ("destack_cube", "open", "keyframes"): "3b71394578c4e4539133ae625017643b906f10766e2019c0384b9e46ae9bf739",
    ("destack_cube", "open", "uniform"): "5b614889ac492f78ef2f29844a395a98d13463e9b40f316e74368889e0b20757",
    ("destack_cube", "open", "noise"): "d2f799b686c49dd8b0e8177475cbf15df4893aeef95063f31378e9c14b7e7c37",
    ("destack_cube", "closed", "keyframes"): "404aa38f20bfe4ad5c1805cc75311212ab9d3cfd9de5a311e48ea63618d944b5",
    ("destack_cube", "closed", "uniform"): "b5fa3752eed7cad73b92ee4ca77ad94cd090b01b9a41205f45a1c229529ca3e8",
    ("destack_cube", "closed", "noise"): "c7ef86d2a78aab79efc7a780928a6f26a421d9ce6ecb60a4c636b84552ec358f",
    ("push_button", "open", "keyframes"): "c7c0a56b9814e5afa12f680bf20f099ead57583731210793a980872008b9a345",
    ("push_button", "open", "uniform"): "9a7a551ffc239ccc1988e83f4f1c26612e53d2ecd8b1cb310216ac23d7568d81",
    ("push_button", "open", "noise"): "ac8193786f555d72848edfe51182915667159593ffe0875fb327953a5afbf9c5",
    ("push_button", "closed", "keyframes"): "22f85a86e8c91e4dea9e95b8fbf02d2bec50419681547c08f6ffb6468d785560",
    ("push_button", "closed", "uniform"): "dc110cc947a656ec9ea4028cf72e3bf6d3923551c1f61ba8fcb624df444c7cc7",
    ("push_button", "closed", "noise"): "d31fa88c22fdfe3796cfb4679d7abd5a0f9beb8e4d3bca726921bbb8c1660a7e",
    ("push_multiple_buttons", "open", "keyframes"): "7c09e068a869dac978ee8cfeb068d860535ce1723a598206e64cfb448be8e55e",
    ("push_multiple_buttons", "open", "uniform"): "6703a925a8974baa3b01b82b131a656fcc95f95218c30650881385b715362714",
    ("push_multiple_buttons", "open", "noise"): "b11ba1e7ad5424e77364845be1f128c539ac2c8c234181342f02e605603e8abd",
    ("push_multiple_buttons", "closed", "keyframes"): "2d8a34578d5475bb2d80854eceb7c7a7c4a6a0d58b822ab167b8a5cbd5214feb",
    ("push_multiple_buttons", "closed", "uniform"): "75da6473e13153b3f951faeb6da46044e8a99735f53b34bba680326e6dd0f14a",
    ("push_multiple_buttons", "closed", "noise"): "3c48e31d1e20528b91d615439cc1a677e271c47bc098b7f02ae49089b54682d1",
    ("slide_block", "open", "keyframes"): "464f934e35c8842dab5fca09cd36a688414558ea0cb56c9b727b5952a2df66ac",
    ("slide_block", "open", "uniform"): "04dcbf5dbf1d85dd5c4df609b359f977f22152a320f3f4664f41f23cf8a5c54a",
    ("slide_block", "open", "noise"): "8ddf1632c15c9bbd782719bb2ac8559cf9d6707f9e94ed7d561171b406fe942b",
    ("slide_block", "closed", "keyframes"): "094f74d916e9b7a52c2a380bf89719507d8253cda2d9eaa13d92d253d1900f81",
    ("slide_block", "closed", "uniform"): "f8036ea1d81a3df90343e4249bd3fcd6b389c904c62c584fa6751d9f784449d2",
    ("slide_block", "closed", "noise"): "18af978afb0d02366d0fa9ec427ba57675ad10759769e8c2c7613141b389d7bd",
}
GENERATE_DEMOS_SHA256 = {
    "stack_cube": "197de33f633107f4586756069a610334c5fec50108b3d753aca89c08de01d9c5",
    "destack_cube": "8a6df042ce1d5383a39e3cd59cccd1f1a57abcfdf0b8a4f521c4585c5cefad20",
    "push_button": "f68873bf77f37a13d8f2fde4d4d03747900bca3407c88c899e1990a20355ea90",
    "push_multiple_buttons": "f68873bf77f37a13d8f2fde4d4d03747900bca3407c88c899e1990a20355ea90",
    "slide_block": "74466a5ec6105942872f36f7ad23357a5c94e842dd8096392455772b3a194d7b",
}


@pytest.mark.parametrize("task, loop, mode", sorted(BUILD_PROMPT_SHA256))
def test_build_prompt_bytes_match_pinned_hash(tmp_path, task, loop, mode):
    out = tmp_path / "prompt.json"
    flags = ["--noise-k", "1"] if mode == "noise" else ["--keyframe-mode", mode]
    main(["build-prompt", "--task", task, "--n-demos", "4", "--loop-mode", loop, *flags, "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUILD_PROMPT_SHA256[task, loop, mode]


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
    monkeypatch.setattr(cli, "reset", counting)
    main(["generate-demos", "--task", "push_button", "--n-demos", "4", "--out", str(tmp_path / "d.jsonl")])
    assert calls and set(calls.values()) == {1}, calls


def test_ablate_runs_several_sweeps_on_one_plan_store(tmp_path, monkeypatch, capsys):
    seed_of = {}  # id(world) -> seed, for every world reset hands out
    planned = collections.Counter()
    real_reset, real_expert = harness.reset, harness.scripted_expert

    def counting_reset(task, seed, bounds):
        out = real_reset(task, seed, bounds)
        seed_of[id(out[0])] = seed
        return out

    def counting_expert(task, world, instruction):
        planned[seed_of[id(world)]] += 1
        return real_expert(task, world, instruction)

    monkeypatch.setattr(harness, "reset", counting_reset)
    monkeypatch.setattr(harness, "scripted_expert", counting_expert)
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
    ],
    ids=["placement", "expert", "replay-keyframes", "replay-uniform"],
)
def test_unusable_bounds_exit_with_message(flags, message):
    with pytest.raises(SystemExit) as err:
        main(["eval", "--n-demos", "2", "--n-eval", "2", *flags])
    assert err.value.code == message
