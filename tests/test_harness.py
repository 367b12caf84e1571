"""Harness: seed policy, pipeline runs with the offline oracles, parse
failure accounting, CSV stability, ablation arm shapes.

Small demo and eval counts keep this module fast; the full-scale runs
live in the acceptance suite.
"""

import collections
import dataclasses
import hashlib

import pytest

import iclmanip.harness as harness
from iclmanip.harness import (
    CSV_HEADER,
    EVAL_SEED_OFFSET,
    EpisodeRecord,
    KeyframeMode,
    LoopMode,
    SWEEPS,
    RunConfig,
    ablate_loop,
    ablate_noise,
    ablate_prompts,
    ablate_sampling,
    ablate_shots,
    demo_seeds,
    demo_task,
    emit_csv,
    eval_seeds,
    run_eval,
    sweep,
)
from iclmanip.llm import CompletionResult, Provider, TransportError
from iclmanip.model import WorkspaceBounds
from iclmanip.sim import TaskId, reset, task_spec


def config(task=TaskId.PUSH_BUTTON, **kw):
    kw.setdefault("n_demos", 3)
    kw.setdefault("n_eval", 2)
    return RunConfig(task=task, **kw)


def test_run_config_validation():
    with pytest.raises(ValueError):
        config(n_demos=0)
    with pytest.raises(ValueError):
        config(n_eval=0)
    with pytest.raises(ValueError):
        config(delta=0.0)
    with pytest.raises(ValueError):
        config(system_prompt_index=3)
    with pytest.raises(ValueError):
        config(uniform_interval=0)
    with pytest.raises(ValueError):
        config(n_eval=2, eval_seeds=(1, 2, 3))


def test_from_mapping_coerces_json_values():
    cfg = RunConfig.from_mapping(
        {
            "task": "stack_cube",
            "provider": "mock-compositional",
            "keyframe_mode": "uniform",
            "loop_mode": "closed",
            "bounds": [-1, 1, -1, 1, 0, 1],
            "noise": None,
            "n_demos": 3,
            "delta": 1,
        }
    )
    assert cfg.task is TaskId.STACK_CUBE
    assert cfg.provider is Provider.MOCK_COMPOSITIONAL
    assert cfg.keyframe_mode is KeyframeMode.UNIFORM
    assert cfg.loop_mode is LoopMode.CLOSED
    assert cfg.bounds == WorkspaceBounds(-1.0, 1.0, -1.0, 1.0, 0.0, 1.0)
    assert cfg.noise is None and cfg.n_demos == 3 and cfg.delta == 1.0
    assert RunConfig.from_mapping({"task": "push_button", "noise": 0.5}).noise == 0.5
    noise = RunConfig.from_mapping({"task": "push_button", "noise": {"k": 2}}).noise
    assert noise == 2.0 and type(noise) is float
    # Values that are already typed pass through unchanged.
    assert RunConfig.from_mapping({"task": TaskId.PUSH_BUTTON}) == RunConfig(task=TaskId.PUSH_BUTTON)


@pytest.mark.parametrize(
    "values",
    [
        {"task": "push_button", "eval_seeds": [1, 2]},
        {"task": "push_button", "walrus": 1},
        {"n_eval": 2},
        {"task": "juggle"},
        {"task": "push_button", "loop_mode": "sideways"},
        {"task": "push_button", "bounds": [0.5, -0.5, -0.5, 0.5, 0.0, 0.5]},
        {"task": "push_button", "bounds": ["a", 0.5, -0.5, 0.5, 0.0, 0.5]},
        {"task": "push_button", "bounds": [0, 1]},
        {"task": "push_button", "noise": -1},
        {"task": "push_button", "noise": "loud"},
        {"task": "push_button", "noise": {"k": 1, "walrus": 2}},
        {"task": "push_button", "n_demos": 0},
        {"task": "push_button", "n_demos": "2"},
        {"task": "push_button", "n_eval": 2.5},
        {"task": "push_button", "seed": "3"},
        {"task": "push_button", "delta": True},
        {"task": "push_button", "endpoint": 5},
        {"task": "push_button", "noise": {"k": 2, "sigma_translation_m": 0.01}},
    ],
)
def test_from_mapping_rejects_bad_values(values):
    with pytest.raises(ValueError):
        RunConfig.from_mapping(values)


def test_run_eval_scans_demo_seeds_once(monkeypatch):
    calls = []
    scan = harness.demo_seeds
    monkeypatch.setattr(
        harness, "demo_seeds", lambda cfg, *rest: calls.append(cfg) or scan(cfg, *rest)
    )
    run_eval(config(n_demos=2, n_eval=2))
    assert len(calls) == 1


def test_demo_task_mapping():
    assert demo_task(TaskId.PUSH_MULTIPLE_BUTTONS) is TaskId.PUSH_BUTTON
    for task in (TaskId.STACK_CUBE, TaskId.DESTACK_CUBE, TaskId.PUSH_BUTTON, TaskId.SLIDE_BLOCK):
        assert demo_task(task) is task


def test_demo_seeds_cycle_variations_round_robin():
    cfg = config(task=TaskId.PUSH_BUTTON, n_demos=6)
    seeds = demo_seeds(cfg)
    assert len(seeds) == 6
    variations = task_spec(TaskId.PUSH_BUTTON).variations
    for i, seed in enumerate(seeds):
        _, _, var = reset(TaskId.PUSH_BUTTON, seed, cfg.bounds)
        assert var == variations[i % len(variations)]


def test_demo_seeds_smaller_pool_is_prefix_of_larger():
    small = demo_seeds(config(n_demos=2))
    large = demo_seeds(config(n_demos=7))
    assert large[:2] == small


def test_demo_seeds_depend_on_start_seed():
    assert demo_seeds(config(seed=0)) != demo_seeds(config(seed=50))


def test_eval_seeds_disjoint_from_demo_seeds():
    cfg = config(task=TaskId.STACK_CUBE, n_demos=8, n_eval=10)
    d = set(demo_seeds(cfg))
    e = set(eval_seeds(cfg))
    assert not d & e
    assert eval_seeds(cfg) == tuple(cfg.seed + EVAL_SEED_OFFSET + j for j in range(10))


def test_eval_seeds_override():
    cfg = config(n_eval=3, eval_seeds=(5, 6, 7))
    assert eval_seeds(cfg) == (5, 6, 7)


def test_run_eval_same_seed_retrieval_is_perfect():
    base = config(task=TaskId.PUSH_BUTTON, n_demos=4, n_eval=3)
    ds = demo_seeds(base)
    cfg = dataclasses.replace(base, n_eval=3, eval_seeds=ds[:3])
    report = run_eval(cfg)
    assert report.success_rate == 1.0
    assert [r.seed for r in report.records] == list(ds[:3])
    assert all(not r.parse_error for r in report.records)
    assert all(r.latency_ms == 0 for r in report.records)
    assert all(r.n_actions >= 4 for r in report.records)
    assert all(r.prompt_chars > 0 for r in report.records)


def test_run_eval_success_rate_matches_records():
    report = run_eval(config(task=TaskId.PUSH_BUTTON, n_demos=2, n_eval=4))
    assert report.success_rate == sum(r.success for r in report.records) / 4
    assert len(report.records) == 4


def test_run_eval_scores_parse_failures_without_aborting(monkeypatch):
    def bad_completion(bundle):
        return CompletionResult(text="no actions here", latency_ms=0, provider=Provider.MOCK_NEAREST)

    monkeypatch.setattr(harness, "complete_mock_nearest", bad_completion)
    report = run_eval(config(n_demos=2, n_eval=3))
    assert len(report.records) == 3
    assert all(r.parse_error for r in report.records)
    assert all(not r.success for r in report.records)
    assert all(r.n_actions == 0 for r in report.records)
    assert all(r.n_executed == 0 and r.failure == "no_actions" for r in report.records)
    assert report.success_rate == 0.0


def test_run_eval_records_the_step_that_left_the_workspace(monkeypatch):
    # Eval worlds narrower than the prompt's bounds: a bin center near the
    # prompt's x edge lies outside the world's inflated bounds.
    narrow = WorkspaceBounds(-0.2, 0.2, -0.2, 0.2, 0.0, 0.5)
    real_reset = harness.reset

    def narrow_eval_worlds(task, seed, bounds):
        world, instruction, variation = real_reset(task, seed, bounds)
        if seed >= EVAL_SEED_OFFSET:
            world.bounds = narrow
        return world, instruction, variation

    reply = "{[50, 50, 50, 0, 0, 0, 1], [50, 50, 40, 0, 0, 0, 1], [99, 50, 50, 0, 0, 0, 1], [50, 50, 50, 0, 0, 0, 1]}"
    monkeypatch.setattr(harness, "reset", narrow_eval_worlds)
    monkeypatch.setattr(
        harness,
        "complete_mock_nearest",
        lambda bundle: CompletionResult(text=reply, latency_ms=0, provider=Provider.MOCK_NEAREST),
    )
    report = run_eval(config(n_demos=2, n_eval=2))
    for r in report.records:
        assert (r.parse_error, r.success, r.n_actions, r.n_executed) == (False, False, 4, 2)
        assert r.failure == "action pose x=0.495 outside inflated bounds [-0.240, 0.240]"


def test_run_eval_remote_needs_credential(monkeypatch):
    monkeypatch.delenv("TEST_RUN_CREDENTIAL", raising=False)
    cfg = config(
        provider=Provider.REMOTE,
        endpoint="http://127.0.0.1:9",
        credential_env="TEST_RUN_CREDENTIAL",
        n_demos=2,
        n_eval=2,
    )
    with pytest.raises(ValueError):
        run_eval(cfg)


def test_run_eval_remote_transport_error_aborts(monkeypatch):
    monkeypatch.setenv("TEST_RUN_CREDENTIAL", "k")

    def dead_remote(request, endpoint, credential, **kw):
        raise TransportError("connection refused")

    monkeypatch.setattr(harness, "complete_remote", dead_remote)
    cfg = config(
        provider=Provider.REMOTE,
        endpoint="http://127.0.0.1:9",
        credential_env="TEST_RUN_CREDENTIAL",
        n_demos=2,
        n_eval=2,
    )
    with pytest.raises(TransportError):
        run_eval(cfg)


def test_run_eval_with_noise_completes():
    cfg = config(n_demos=2, n_eval=2, noise=1.0)
    report = run_eval(cfg)
    assert len(report.records) == 2
    # Same config, same records: noise seeds derive from the run config.
    again = run_eval(cfg)
    assert report.records == again.records


def test_closed_loop_prompts_are_strictly_longer():
    base = config(task=TaskId.PUSH_BUTTON, n_demos=2, n_eval=2)
    reports = ablate_loop(base)
    assert [r.arm for r in reports] == ["loop-open", "loop-closed"]
    open_chars = reports[0].records[0].prompt_chars
    closed_chars = reports[1].records[0].prompt_chars
    assert closed_chars > open_chars


def test_ablate_sampling_arm_labels():
    reports = ablate_sampling(config(n_demos=2, n_eval=2), intervals=(5, 20))
    assert [r.arm for r in reports] == ["keyframes", "uniform-5", "uniform-20"]
    assert reports[1].config.keyframe_mode is KeyframeMode.UNIFORM
    assert reports[0].config.keyframe_mode is KeyframeMode.KEYFRAMES


def test_ablate_shots_arm_labels_and_nesting():
    reports = ablate_shots(config(n_demos=2, n_eval=2), shot_counts=(1, 3))
    assert [r.arm for r in reports] == ["shots-1", "shots-3"]
    small = demo_seeds(reports[0].config)
    large = demo_seeds(reports[1].config)
    assert large[: len(small)] == small


def test_ablate_noise_arm_labels():
    reports = ablate_noise(config(n_demos=2, n_eval=2), scales=(0.5, 1.0, 2.0))
    assert [r.arm for r in reports] == ["noise-0.5", "noise-1", "noise-2"]
    assert reports[2].config.noise == 2.0


def test_ablate_prompts_mock_results_identical():
    reports = ablate_prompts(config(n_demos=2, n_eval=3))
    assert [r.arm for r in reports] == ["prompt-0", "prompt-1", "prompt-2"]
    stripped = [
        [(r.seed, r.success, r.parse_error, r.n_actions) for r in rep.records]
        for rep in reports
    ]
    assert stripped[0] == stripped[1] == stripped[2]


def test_emit_csv_format_and_determinism(tmp_path):
    cfg = config(task=TaskId.PUSH_BUTTON, n_demos=2, n_eval=3)
    reports = ablate_prompts(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(reports, p1)
    emit_csv(list(reversed(reports)), p2)  # report order must not matter
    assert p1.read_bytes() == p2.read_bytes()

    lines = p1.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + 3 * 3
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(r) == 8 for r in rows)
    keys = [(r[2], int(r[3])) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r[0] == "push_button"
        assert r[1] == "mock-nearest"
        assert r[4] in ("0", "1") and r[5] in ("0", "1")

    # Re-running the same arms reproduces the file byte for byte.
    emit_csv(ablate_prompts(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_episode_record_fields():
    r = EpisodeRecord(seed=1, success=True, parse_error=False, n_actions=5, latency_ms=0, prompt_chars=10)
    assert r.seed == 1 and r.success and r.n_actions == 5
    assert r.n_executed == 5 and r.failure is None


@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_plans_each_world_once(monkeypatch, name):
    seed_of = {}  # id(world) -> seed, for every world reset hands out
    resets, planned = [], []
    real_reset, real_expert = harness.reset, harness.scripted_expert

    def counting_reset(task, seed, bounds):
        out = real_reset(task, seed, bounds)
        resets.append((task, seed))
        seed_of[id(out[0])] = seed
        return out

    def counting_expert(task, world, instruction):
        planned.append(seed_of[id(world)])
        return real_expert(task, world, instruction)

    monkeypatch.setattr(harness, "reset", counting_reset)
    monkeypatch.setattr(harness, "scripted_expert", counting_expert)
    cfg = config(n_demos=3, n_eval=3)
    reports = sweep(cfg, name)
    monkeypatch.undo()

    demo = {s for r in reports for s in demo_seeds(r.config)}
    assert sorted(planned) == sorted(demo)
    assert set(collections.Counter(resets).values()) == {1}
    assert sorted(s for _, s in resets if s in eval_seeds(cfg)) == sorted(eval_seeds(cfg))


# sha256 of emit_csv for each sweep at RunConfig(task, n_demos=4, n_eval=5),
# captured before the arms of a sweep shared planned worlds.
GOLDEN_SWEEP_CSV_SHA256 = {
    ("stack_cube", "sampling"): "9455e02a306fcf6fcbda2f1364de43c2fa592ad7e54ba61a0871339caea3cd8b",
    ("stack_cube", "shots"): "9894b283ea01746e71966666e957fb198ce7c5c9d9832864f5455bd73e811919",
    ("stack_cube", "noise"): "0decbb9e276b7b77de07c2958d8625eba24e0dc455c3f4d162c6d78d0137b826",
    ("stack_cube", "prompts"): "146cff224c5e9b3c892ad0ebfabde9aae21449d3ef66fe4beb41581e9699c4cc",
    ("stack_cube", "loop"): "cf548bd0a72c6fe148f1daa0032d2d6e0ea32b6b4698c8dd164447fb259a9148",
    ("push_button", "sampling"): "a6fa9362fcb02390036131c4583ded86b20bc4b708a9b95b0343bbf0eda772fe",
    ("push_button", "shots"): "eaf8529fd5fa4f29403a338be877248ca2c8a7113e139b61ee58f72bf7cad682",
    ("push_button", "noise"): "10662977ce9ca41f5332147032248e4442ac8b3d7b8aa14f111d0d78e598da88",
    ("push_button", "prompts"): "e0554fa71f203a620a56daaf88bfe669ee63819f77ac7515256b92fbc35a9e66",
    ("push_button", "loop"): "541c130cf4b8d880d81277c6a3f03d14ccb8b05198eb5b1b14d439133dde9720",
}


@pytest.mark.parametrize("task, name", sorted(GOLDEN_SWEEP_CSV_SHA256))
def test_sweep_csv_matches_golden_hash(tmp_path, task, name):
    path = tmp_path / "sweep.csv"
    emit_csv(sweep(RunConfig(task=TaskId(task), n_demos=4, n_eval=5), name), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SWEEP_CSV_SHA256[task, name]
