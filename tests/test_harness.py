"""Harness: seed policy, pipeline runs with the offline oracles, parse
failure accounting, CSV stability, ablation arm shapes.

Small demo and eval counts keep this module fast; the full-scale runs
live in the acceptance suite.
"""

import collections
import dataclasses
import gc
import hashlib
import itertools
import pickle
import re
import sys
import threading
import weakref

import numpy as np
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
    eval_prompts,
    eval_seeds,
    run_eval,
    sweep,
)
from iclmanip.discretize import center_table, pose_bin_rows
from iclmanip.keyframes import extract_keyframes, sample_uniform
from iclmanip.llm import CompletionResult, Provider, TransportError
from iclmanip.model import WorkspaceBounds
from iclmanip.sim import TaskId, TaskVariation, WorldState, reset, scripted_expert, task_spec

from conftest import ASYMMETRIC, BOUNDS


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
    with pytest.raises(ValueError, match="^requests_per_second must be >= 1e-09"):
        config(requests_per_second=1e-10)


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


@pytest.mark.parametrize("field", ["delta", "noise", "requests_per_second"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_values_are_rejected_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        RunConfig(task=TaskId.PUSH_BUTTON, **{field: value})
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        RunConfig.from_mapping({"task": "push_button", field: value})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n_demos", 0, "n_demos must be >= 1, got 0"),
        ("n_eval", 0, "n_eval must be >= 1, got 0"),
        ("uniform_interval", 0, "uniform_interval must be >= 1, got 0"),
        ("max_tokens", 0, "max_tokens must be >= 1, got 0"),
        ("requests_per_second", 9e-10, "requests_per_second must be >= 1e-09, got 9e-10"),
        ("noise", -1e-09, "noise must be >= 0, got -1e-09"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ],
)
def test_each_floor_is_rejected_by_name(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RunConfig(task=TaskId.PUSH_BUTTON, **{field: value})


def test_negative_seeds_are_rejected_by_name():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -5$"):
        RunConfig(task=TaskId.PUSH_BUTTON, seed=-5)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -5$"):
        RunConfig.from_mapping({"task": "push_button", "seed": -5})
    with pytest.raises(ValueError, match=r"^eval_seeds must be >= 0, got \(-1, 3\)$"):
        RunConfig(task=TaskId.PUSH_BUTTON, n_eval=2, eval_seeds=(-1, 3))
    assert RunConfig(task=TaskId.PUSH_BUTTON, n_eval=2, eval_seeds=(0, 3)).eval_seeds == (0, 3)


_INTEGER_FIELDS = ("seed", "n_demos", "n_eval", "uniform_interval", "max_tokens", "system_prompt_index")


@pytest.mark.parametrize("field", _INTEGER_FIELDS)
@pytest.mark.parametrize("value", [2.5, 1.0, True, np.float64(2.0), "2"])
def test_integer_fields_reject_non_integers_by_name(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be of type int, got {re.escape(repr(value))}$"):
        RunConfig(task=TaskId.PUSH_BUTTON, **{field: value})


@pytest.mark.parametrize("seeds", [(1.7, 2), (1, True), (np.float64(3.0), 4)])
def test_eval_seeds_reject_non_integers_by_position(seeds):
    at = next(i for i, s in enumerate(seeds) if isinstance(s, (bool, float)))
    with pytest.raises(ValueError, match=rf"^eval_seeds\[{at}\] must be of type int, got {re.escape(repr(seeds[at]))}$"):
        RunConfig(task=TaskId.PUSH_BUTTON, n_eval=2, eval_seeds=seeds)


def test_integer_fields_store_numpy_integers_as_int():
    cfg = RunConfig(
        task=TaskId.PUSH_BUTTON,
        seed=np.int64(3),
        n_demos=np.int32(2),
        n_eval=np.uint8(2),
        system_prompt_index=np.int16(1),
        eval_seeds=np.array([5, 6]),
    )
    values = [getattr(cfg, f) for f in _INTEGER_FIELDS] + list(cfg.eval_seeds)
    assert [type(v) for v in values] == [int] * len(values)
    assert (cfg.seed, cfg.n_demos, cfg.n_eval, cfg.system_prompt_index, cfg.eval_seeds) == (3, 2, 2, 1, (5, 6))


def test_from_mapping_keeps_its_type_message_for_integer_fields():
    with pytest.raises(ValueError, match=r"^n_demos must be of type int, got 2\.5$"):
        RunConfig.from_mapping({"task": "push_button", "n_demos": 2.5})


@pytest.mark.parametrize(
    "field, text, member",
    [
        ("task", "stack_cube", TaskId.STACK_CUBE),
        ("provider", "mock-compositional", Provider.MOCK_COMPOSITIONAL),
        ("keyframe_mode", "uniform", KeyframeMode.UNIFORM),
        ("loop_mode", "closed", LoopMode.CLOSED),
    ],
)
def test_enum_fields_take_their_string_values(field, text, member):
    base = {"task": TaskId.STACK_CUBE, "n_demos": 2, "n_eval": 2}
    cfg = RunConfig(**{**base, field: text})
    assert getattr(cfg, field) is member
    assert cfg == RunConfig(**{**base, field: member})


def test_string_enum_values_run_the_arm_they_name():
    def first_prompt(**kw):
        return next(eval_prompts(RunConfig(task=TaskId.STACK_CUBE, n_demos=2, n_eval=2, **kw)))[1]

    assert first_prompt(loop_mode="open") == first_prompt(loop_mode=LoopMode.OPEN)
    assert first_prompt(loop_mode="open") != first_prompt(loop_mode=LoopMode.CLOSED)
    assert first_prompt(keyframe_mode="keyframes") == first_prompt(keyframe_mode=KeyframeMode.KEYFRAMES)
    assert first_prompt(keyframe_mode="keyframes") != first_prompt(keyframe_mode=KeyframeMode.UNIFORM)


def test_tuple_bounds_become_workspace_bounds():
    limits = (-0.5, 0.5, -0.5, 0.5, 0, 0.5)
    cfg = RunConfig(task=TaskId.STACK_CUBE, n_demos=2, n_eval=2, bounds=limits)
    assert cfg.bounds == WorkspaceBounds(*limits)
    assert run_eval(cfg).records == run_eval(dataclasses.replace(cfg, bounds=WorkspaceBounds(*limits))).records


def test_string_delta_is_rejected_by_name():
    with pytest.raises(ValueError, match=r"^delta must be of type float, got '0\.1'$"):
        RunConfig(task=TaskId.STACK_CUBE, delta="0.1")


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


def test_demo_seeds_give_up_after_the_reset_budget(monkeypatch):
    seeds = []  # every seed scanned; no reset draws a slot's variation
    monkeypatch.setattr(harness, "reset", lambda task, seed, bounds: seeds.append(seed) or (None, "", TaskVariation()))
    cfg = config(task=TaskId.STACK_CUBE, n_demos=2, seed=5)
    with pytest.raises(RuntimeError, match="^could not fill demo variation slots within budget for stack_cube$"):
        demo_seeds(cfg)
    assert seeds == list(range(5, 5 + 2 * 200))


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
    def bad_completions(bundles):
        return [CompletionResult(text="no actions here", latency_ms=0) for _ in bundles]

    monkeypatch.setattr(harness, "complete_mock_nearest_batch", bad_completions)
    report = run_eval(config(n_demos=2, n_eval=3))
    assert len(report.records) == 3
    assert all(r.parse_error for r in report.records)
    assert all(not r.success for r in report.records)
    assert all(r.n_actions == 0 for r in report.records)
    assert all(r.failure == "no_actions" for r in report.records)
    assert report.success_rate == 0.0


def _assert_centers_inside(bounds):
    columns = center_table(bounds)
    assert [len(c) for c in columns] == [100, 100, 100, 72, 72, 72]
    for axis, (lo, hi), centers in zip("xyz", bounds.limits, columns):
        outside = [c for c in centers if not lo <= c <= hi]
        assert not outside, f"{axis} centers {outside} outside [{lo}, {hi}]"


@pytest.mark.parametrize("bounds", [BOUNDS, ASYMMETRIC], ids=["default", "asymmetric"])
def test_every_bin_center_lies_inside_its_axis(bounds):
    # Why a replay never leaves the workspace: the eval world's bounds are
    # config.bounds, and every action's translation is one of these centers.
    _assert_centers_inside(bounds)


def test_every_bin_center_lies_inside_drawn_bounds():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    axis = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2, unique=True).map(sorted)

    @hypothesis.given(axis, axis, axis)
    def check(x, y, z):
        try:
            bounds = WorkspaceBounds(*x, *y, *z)
        except ValueError:  # limits more than 1e300 apart, or equal
            hypothesis.reject()
        _assert_centers_inside(bounds)

    check()


# Every corner of the translation bin cube, at the least or the greatest
# rotation bins, with the gripper closing and opening in turn.
_CORNERS = [
    (tx, ty, tz, 71 * (i % 2), 71 * (i % 2), 71 * (i % 2), i % 2)
    for i, (tx, ty, tz) in enumerate(itertools.product((0, 99), repeat=3))
]


@pytest.mark.parametrize("bounds", [BOUNDS, ASYMMETRIC], ids=["default", "asymmetric"])
@pytest.mark.parametrize("task", [TaskId.STACK_CUBE, TaskId.PUSH_BUTTON])
def test_replies_at_the_corner_bins_run_every_action(monkeypatch, task, bounds):
    reply = "{" + ", ".join(str(list(row)) for row in _CORNERS) + "}"
    monkeypatch.setattr(
        harness,
        "complete_mock_nearest_batch",
        lambda bundles: [CompletionResult(text=reply, latency_ms=0) for _ in bundles],
    )
    report = run_eval(config(task, n_demos=2, n_eval=3, bounds=bounds))
    for r in report.records:
        assert (r.parse_error, r.n_actions, r.failure) == (False, len(_CORNERS), None)


def test_a_reply_grasping_the_bottom_cube_scores_a_failed_episode(monkeypatch):
    # Open above and then beside destack_cube's bottom cube, and close there:
    # the cube under the top one is not grasped, and the run goes on.
    cfg = config(TaskId.DESTACK_CUBE, n_demos=2, n_eval=2)
    replies = []
    for seed in eval_seeds(cfg):
        world, _, variation = reset(cfg.task, seed, cfg.bounds)
        bottom = world.object(variation.bottom)
        rows = [
            [*pose_bin_rows(np.array([(bottom.pose.x, bottom.pose.y, z, 0, 0, 0)]), cfg.bounds)[0].tolist(), bit]
            for z, bit in ((0.15, 1), (0.025, 1), (0.025, 0))
        ]
        replies.append(", ".join(map(str, rows)))
    replies = iter(replies)
    monkeypatch.setattr(
        harness,
        "complete_mock_nearest_batch",
        lambda bundles: [
            CompletionResult(text=next(replies), latency_ms=0) for _ in bundles
        ],
    )
    records = run_eval(cfg).records
    assert [(r.success, r.parse_error, r.n_actions, r.failure) for r in records] == [(False, False, 3, None)] * 2


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


def test_ablate_sampling_arm_labels(monkeypatch):
    reports = ablate_sampling(config(n_demos=2, n_eval=2), intervals=(5, 20))
    assert [r.arm for r in reports] == ["keyframes", "uniform-5", "uniform-20"]
    assert reports[1].config.keyframe_mode is KeyframeMode.UNIFORM
    assert reports[0].config.keyframe_mode is KeyframeMode.KEYFRAMES
    # With no values the sweep runs the table's defaults.
    monkeypatch.setattr(harness, "run_eval", lambda cfg, arm: arm)
    assert ablate_sampling(config()) == ["keyframes", "uniform-5", "uniform-10", "uniform-20", "uniform-40", "uniform-80"]


def test_ablate_shots_arm_labels_and_nesting(monkeypatch):
    reports = ablate_shots(config(n_demos=2, n_eval=2), shot_counts=(1, 3))
    assert [r.arm for r in reports] == ["shots-1", "shots-3"]
    small = demo_seeds(reports[0].config)
    large = demo_seeds(reports[1].config)
    assert large[: len(small)] == small
    monkeypatch.setattr(harness, "run_eval", lambda cfg, arm: arm)
    assert ablate_shots(config()) == ["shots-1", "shots-2", "shots-5", "shots-10"]


def test_ablate_noise_arm_labels(monkeypatch):
    reports = ablate_noise(config(n_demos=2, n_eval=2), scales=(0.5, 1.0, 2.0))
    assert [r.arm for r in reports] == ["noise-0.5", "noise-1", "noise-2"]
    assert reports[2].config.noise == 2.0
    monkeypatch.setattr(harness, "run_eval", lambda cfg, arm: arm)
    assert ablate_noise(config()) == ["noise-0.5", "noise-1", "noise-1.5", "noise-2"]


@pytest.mark.parametrize(
    "name, values, label",
    [
        ("noise", (0.1234567, 0.1234568), "noise-0.123457"),
        ("noise", (1.0, 1.0000001), "noise-1"),
        ("shots", (2, 2), "shots-2"),
        ("sampling", (5, 10, 5), "uniform-5"),
    ],
)
def test_sweep_rejects_values_that_share_a_label(monkeypatch, name, values, label):
    monkeypatch.setattr(harness, "run_eval", lambda cfg, arm: pytest.fail(f"arm {arm} ran"))
    with pytest.raises(ValueError, match=f"^sweep {name} has two arms labelled {re.escape(label)}$"):
        sweep(config(), name, values)


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

    # Re-running the same arms reproduces the file byte for byte, computed
    # cold rather than served by the plan store.
    harness._store.cache_clear()
    emit_csv(ablate_prompts(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_episode_record_fields():
    r = EpisodeRecord(seed=1, success=True, parse_error=False, n_actions=5, latency_ms=0, prompt_chars=10)
    assert r.seed == 1 and r.success and r.n_actions == 5
    assert r.failure is None


@pytest.mark.parametrize(
    "names", [pytest.param((name,), id=name) for name in SWEEPS] + [pytest.param(tuple(SWEEPS), id="all")]
)
def test_sweep_plans_each_world_once(monkeypatch, names):
    seed_of = {}  # id(world) -> seed, for every world reset hands out
    resets, planned = [], []
    real_reset, real_experts = harness.reset, harness.scripted_experts

    def counting_reset(task, seed, bounds):
        out = real_reset(task, seed, bounds)
        resets.append((task, seed))
        seed_of[id(out[0])] = seed
        return out

    def counting_experts(task, items):
        planned.extend(seed_of[id(world)] for world, _ in items)
        return real_experts(task, items)

    monkeypatch.setattr(harness, "reset", counting_reset)
    monkeypatch.setattr(harness, "scripted_experts", counting_experts)
    cfg = config(n_demos=3, n_eval=3)
    # Sweeps run one after another, as separate calls, share one store.
    reports = [r for name in names for r in getattr(harness, f"ablate_{name}")(cfg)]
    monkeypatch.undo()

    demo = {s for r in reports for s in demo_seeds(r.config)}
    assert sorted(planned) == sorted(demo)
    assert set(collections.Counter(resets).values()) == {1}
    assert sorted(s for _, s in resets if s in eval_seeds(cfg)) == sorted(eval_seeds(cfg))


@pytest.mark.parametrize(
    "task, provider",
    [(TaskId.STACK_CUBE, Provider.MOCK_NEAREST), (TaskId.PUSH_MULTIPLE_BUTTONS, Provider.MOCK_COMPOSITIONAL)],
)
def test_sweeps_scan_seeds_and_parse_replies_once(monkeypatch, task, provider):
    # One ablate_* sequence on one base: every episode calls its provider,
    # but each distinct reply text is parsed once, each (eval seed, reply)
    # replayed once, and each n_demos scanned once.
    cfg = config(task, n_demos=3, n_eval=4, provider=provider)
    provider_name = "complete_" + provider.value.replace("-", "_") + "_batch"
    replies, parsed, scanned, cloned = [], [], [], []
    real_complete, real_parse, real_scan, real_clone = (
        getattr(harness, provider_name), harness.parse_bins, harness._scan_demo_seeds, WorldState.clone
    )

    def complete(bundles):
        results = real_complete(bundles)
        replies.extend(result.text for result in results)
        return results

    monkeypatch.setattr(harness, provider_name, complete)
    monkeypatch.setattr(harness, "parse_bins", lambda text: parsed.append(text) or real_parse(text))
    monkeypatch.setattr(
        harness, "_scan_demo_seeds", lambda c, plans: scanned.append(c.n_demos) or real_scan(c, plans)
    )
    monkeypatch.setattr(WorldState, "clone", lambda world: cloned.append(world) or real_clone(world))
    reports = [r for name in SWEEPS for r in getattr(harness, f"ablate_{name}")(cfg)]
    store = harness._plans(cfg)
    monkeypatch.undo()

    seeds = [record.seed for report in reports for record in report.records]
    assert len(replies) == len(seeds), "every episode calls its provider"
    assert collections.Counter(parsed) == collections.Counter(set(replies)), "each distinct text is parsed once"
    assert len(parsed) < len(set(zip(seeds, replies)))
    assert sorted(scanned) == sorted({r.config.n_demos for r in reports})
    eval_worlds = {
        id(out[0]) for key, out in store._memo.items() if key[0] == "reset" and key[2] in eval_seeds(cfg)
    }
    scored = {(seed, text) for seed, text in zip(seeds, replies) if not isinstance(store._memo[("reply", text)], str)}
    assert sum(id(world) in eval_worlds for world in cloned) == len(scored), "an eval world is copied only to score"

    with monkeypatch.context() as cold:
        harness._store.cache_clear()
        cold.setattr(harness._Plans, "memo", lambda self, key, make: make())
        expected = [r for name in SWEEPS for r in getattr(harness, f"ablate_{name}")(cfg)]
    assert [r.records for r in reports] == [r.records for r in expected]


@pytest.mark.parametrize("task", [TaskId.STACK_CUBE, TaskId.PUSH_BUTTON])
def test_sweeps_leave_every_pristine_world_as_reset_drew_it(task):
    # Demo replays and reply scoring execute actions on copies only.
    cfg = config(task, n_demos=3, n_eval=4)
    for name in SWEEPS:
        getattr(harness, f"ablate_{name}")(cfg)
    worlds = {key[1:]: out[0] for key, out in harness._plans(cfg)._memo.items() if key[0] == "reset"}
    assert {seed for _, seed in worlds} >= set(eval_seeds(cfg))
    mutated = [
        key for key, world in worlds.items() if pickle.dumps(world) != pickle.dumps(reset(*key, cfg.bounds)[0])
    ]
    assert not mutated, f"{len(mutated)} pristine worlds were mutated: {mutated}"


def test_demo_pool_callers_get_their_own_list():
    cfg = config(n_demos=2)
    examples = harness.build_demo_pool(cfg)
    expected = list(examples)
    examples.clear()
    assert harness.build_demo_pool(cfg) == expected
    assert len(expected) == 2


def test_smaller_demo_pool_holds_the_larger_pools_first_examples():
    large = harness.build_demo_pool(config(n_demos=4))
    small = harness.build_demo_pool(config(n_demos=2))
    assert demo_seeds(config(n_demos=2)) == demo_seeds(config(n_demos=4))[:2]
    assert all(a is b for a, b in zip(small, large[:2], strict=True))


def test_demo_pool_on_a_warm_store_plans_and_builds_nothing(monkeypatch):
    cfg = config(n_demos=3, loop_mode="closed")
    first = harness.build_demo_pool(cfg)
    calls = []
    monkeypatch.setattr(harness, "scripted_experts", lambda task, items: calls.extend(world for world, _ in items))
    for name in ("build_icl_examples", "build_closed_loop_examples", "replay_pose_rows"):
        monkeypatch.setattr(harness, name, lambda *args, name=name: calls.append(name))
    assert harness.build_demo_pool(cfg) == first
    assert calls == []


def test_an_overlapping_demo_scan_is_refused_before_any_expert_is_planned(monkeypatch):
    # Ten push_button demos from seed 0 take seeds up to 42, past seed 30.
    monkeypatch.setattr(harness, "EVAL_SEED_OFFSET", 30)
    planned = []
    real = harness.scripted_experts
    monkeypatch.setattr(harness, "scripted_experts", lambda task, items: planned.extend(items) or real(task, items))
    with pytest.raises(ValueError, match="scans demo seeds into the eval seeds"):
        run_eval(config(n_demos=10, n_eval=2))
    assert planned == []


@pytest.mark.parametrize("n_eval", [2, 5])
def test_an_overlapping_demo_scan_stops_at_the_first_accepted_eval_seed(monkeypatch, n_eval):
    # With eval seeds from 30, the scan resets seeds 0, 1, ... only up to the
    # first seed it accepts among them (31), where the full scan goes on to 42.
    cfg = config(n_demos=10, n_eval=n_eval)
    monkeypatch.setattr(harness, "EVAL_SEED_OFFSET", 30)
    full = demo_seeds(dataclasses.replace(cfg, eval_seeds=tuple(range(n_eval))))
    first = next(seed for seed in full if 30 <= seed < 30 + n_eval)
    assert first < full[-1]
    harness._store.cache_clear()  # a cold scan
    resets = []
    real_reset = harness.reset
    monkeypatch.setattr(harness, "reset", lambda *args: resets.append(args[1]) or real_reset(*args))
    with pytest.raises(ValueError, match="scans demo seeds into the eval seeds"):
        demo_seeds(cfg)
    assert resets == list(range(first + 1))
    with pytest.raises(ValueError, match="scans demo seeds into the eval seeds"):
        demo_seeds(cfg)  # scanned again on the worlds already reset
    assert resets == list(range(first + 1))
    # Seed 30 itself is scanned but not accepted: one eval seed overlaps nothing.
    assert demo_seeds(dataclasses.replace(cfg, n_eval=1)) == full


def test_an_overlapping_memoized_demo_scan_is_refused(monkeypatch):
    # A scan made for explicit eval seeds is memoized whole; a config that
    # derives its eval seeds is refused on it too, before any expert is planned.
    monkeypatch.setattr(harness, "EVAL_SEED_OFFSET", 30)
    cfg = config(n_demos=10, n_eval=2)
    assert demo_seeds(dataclasses.replace(cfg, eval_seeds=(0, 1)))[-1] > 30
    planned = []
    monkeypatch.setattr(harness, "scripted_experts", lambda task, items: planned.extend(items))
    for call in (demo_seeds, harness.build_demo_pool, harness.demo_episodes, run_eval):
        with pytest.raises(ValueError, match="scans demo seeds into the eval seeds"):
            call(cfg)
    assert planned == []


@pytest.mark.parametrize("held", [(), (0,), (1, 3), (0, 1, 2, 3, 4)])
def test_a_pool_plans_only_the_experts_its_store_lacks(monkeypatch, held):
    # Seeds already on the store keep their episodes; the rest are planned
    # in one scripted_experts call, each as its own scripted_expert call plans it.
    cfg = config(TaskId.PUSH_MULTIPLE_BUTTONS, n_demos=5)
    seeds = demo_seeds(cfg)
    plans = harness._plans(cfg)
    task = demo_task(cfg.task)
    kept = plans.experts(task, [seeds[i] for i in held])
    batches = []
    real = harness.scripted_experts
    monkeypatch.setattr(harness, "scripted_experts", lambda task, items: batches.append(items) or real(task, items))
    episodes = harness.demo_episodes(cfg)
    assert [len(batch) for batch in batches] == ([len(seeds) - len(held)] if len(held) < len(seeds) else [])
    assert all(episodes[i] is episode for i, episode in zip(held, kept))
    for seed, episode in zip(seeds, episodes):
        world, instruction, _ = reset(task, seed, cfg.bounds)
        alone = scripted_expert(task, world, instruction)
        for name in ("poses", "gripper_bits", "joint_velocities"):
            assert getattr(episode, name).tobytes() == getattr(alone, name).tobytes(), (seed, name)
        assert (episode.instruction, episode.objects) == (alone.instruction, alone.objects)
    assert harness.demo_episodes(cfg) == episodes and len(batches) <= 1


def test_sweeps_extract_keyframes_and_draw_noise_once(monkeypatch):
    # Noise and loop arms build new demo examples on the frames that the
    # keyframes arm already extracted: one extraction per (demo, delta).
    # The noise arms differ only in k: one draw per noised block.
    extracted, drawn = [], []
    real_extract, real_draws = harness.extract_keyframes_batch, harness.pose_noise_draws
    monkeypatch.setattr(
        harness,
        "extract_keyframes_batch",
        lambda eps, delta: extracted.extend((id(ep), delta) for ep in eps) or real_extract(eps, delta),
    )
    monkeypatch.setattr(harness, "pose_noise_draws", lambda n, seed: drawn.append(seed) or real_draws(n, seed))
    cfg = config(n_demos=3, n_eval=2)
    reports = [r for name in SWEEPS for r in getattr(harness, f"ablate_{name}")(cfg)]
    demo = {s for r in reports for s in demo_seeds(r.config)}
    assert len(extracted) == len(set(extracted)) == len(demo)
    assert len(drawn) == len(set(drawn)) == cfg.n_demos + cfg.n_eval


def _frame_counts(cfg):
    episodes = harness.demo_episodes(cfg)
    if cfg.keyframe_mode is KeyframeMode.KEYFRAMES:
        return [len(extract_keyframes(ep, cfg.delta)) for ep in episodes]
    return [len(sample_uniform(ep.length, cfg.uniform_interval)) for ep in episodes]


@pytest.mark.parametrize(
    "first, second",
    [
        ({"delta": 0.01}, {"delta": 0.019}),
        (
            {"keyframe_mode": KeyframeMode.UNIFORM, "uniform_interval": 5},
            {"keyframe_mode": KeyframeMode.UNIFORM, "uniform_interval": 7},
        ),
    ],
    ids=["delta", "uniform_interval"],
)
def test_demo_frames_on_a_warm_store_follow_the_rule_setting(first, second):
    base = config(TaskId.STACK_CUBE, seed=3, n_demos=3, n_eval=2)
    a, b = dataclasses.replace(base, **first), dataclasses.replace(base, **second)
    assert min(_frame_counts(b)) >= 2 and _frame_counts(a) != _frame_counts(b)
    harness._store.cache_clear()
    cold = run_eval(b).records, next(eval_prompts(b))
    harness._store.cache_clear()
    run_eval(a)
    assert (run_eval(b).records, next(eval_prompts(b))) == cold


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


def test_a_new_base_config_replaces_the_plan_store():
    cfg = config(n_demos=2, n_eval=2)
    run_eval(cfg)
    store = weakref.ref(harness._plans(cfg))
    ablate_prompts(cfg)
    run_eval(dataclasses.replace(cfg, n_demos=3, noise=1.0, loop_mode=LoopMode.CLOSED))
    assert harness._plans(cfg) is store(), "a call on the same (task, seed, bounds) keeps the store"
    wider = WorkspaceBounds(-0.6, 0.6, -0.6, 0.6, 0.0, 0.6)
    for change in ({"seed": 1}, {"task": TaskId.STACK_CUBE}, {"bounds": wider}):
        cfg = dataclasses.replace(cfg, **change)
        run_eval(cfg)
        gc.collect()
        assert store() is None, f"{change} left the previous store alive"
        store = weakref.ref(harness._plans(cfg))


def test_calls_on_two_bases_in_threads_match_serial_runs():
    # Threads that keep replacing each other's store still get, call by
    # call, the records of a serial run.
    configs = [config(n_demos=2, n_eval=2, seed=s, noise=1.0) for s in (0, 7)]
    expected = [run_eval(cfg).records for cfg in configs]
    results, interval = [], sys.getswitchinterval()

    def worker(k):
        for _ in range(4):
            results.append(run_eval(configs[k % 2]).records == expected[k % 2])

    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * 16


def _prompts_and_records(cfg):
    return [bundle for *_, bundle in eval_prompts(cfg)], run_eval(cfg).records


# One changed value per RunConfig field, applied to a base whose eval seeds
# mix demo seeds (retrieval succeeds) with fresh seeds (it fails), so that
# replies repeat across eval worlds with different outcomes. The base runs
# first to fill the store; uniform_interval is read in uniform mode only.
_KEY_GUARD_BASE = RunConfig(task=TaskId.STACK_CUBE, n_demos=3, n_eval=5, noise=0.5)
_KEY_GUARD_CHANGES = {
    "task": {"task": TaskId.PUSH_BUTTON},
    "n_demos": {"n_demos": 2},
    "n_eval": {"n_eval": 4, "eval_seeds": lambda seeds: seeds[:4]},
    "delta": {"delta": 0.018},
    "bounds": {"bounds": WorkspaceBounds(-0.6, 0.6, -0.6, 0.6, 0.0, 0.6)},
    "provider": {"provider": Provider.MOCK_COMPOSITIONAL},
    "endpoint": {"endpoint": "http://127.0.0.1:9"},
    "model": {"model": "other"},
    "credential_env": {"credential_env": "OTHER_KEY"},
    "system_prompt_index": {"system_prompt_index": 2},
    "keyframe_mode": {"keyframe_mode": KeyframeMode.UNIFORM},
    "uniform_interval": {"uniform_interval": 20},
    "loop_mode": {"loop_mode": LoopMode.CLOSED},
    "noise": {"noise": 1.0},
    "noise-none": {"noise": None},
    "seed": {"seed": 1},
    "max_tokens": {"max_tokens": 7},
    "requests_per_second": {"requests_per_second": 3.0},
    "eval_seeds": {"eval_seeds": lambda seeds: seeds[::-1]},
}
_KEY_GUARD_BASE_CHANGES = {"uniform_interval": {"keyframe_mode": KeyframeMode.UNIFORM}}
# Fields that only the remote provider reads: the mock results must not move.
_PROVIDER_ONLY = {"provider", "endpoint", "model", "credential_env", "max_tokens", "requests_per_second"}


def test_key_guard_covers_every_config_field():
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert fields == {name.split("-")[0] for name in _KEY_GUARD_CHANGES}


@pytest.mark.parametrize("change", sorted(_KEY_GUARD_CHANGES))
def test_warm_plan_store_matches_a_cold_build(monkeypatch, change):
    """Results served by a store that earlier calls filled equal a build
    that memoizes nothing: every memo key holds every input its stage reads."""
    seeds = demo_seeds(_KEY_GUARD_BASE)
    base = dataclasses.replace(
        _KEY_GUARD_BASE,
        eval_seeds=(*seeds, seeds[-1] + EVAL_SEED_OFFSET, seeds[-1] + EVAL_SEED_OFFSET + 1),
        **_KEY_GUARD_BASE_CHANGES.get(change, {}),
    )
    values = {k: v(base.eval_seeds) if callable(v) else v for k, v in _KEY_GUARD_CHANGES[change].items()}
    varied = dataclasses.replace(base, **values)
    with monkeypatch.context() as cold:
        cold.setattr(harness._Plans, "memo", lambda self, key, make: make())
        expected_base = _prompts_and_records(base)
        expected = _prompts_and_records(varied)
    assert (expected == expected_base) == (change in _PROVIDER_ONLY)

    harness._store.cache_clear()
    assert _prompts_and_records(base) == expected_base
    assert _prompts_and_records(varied) == expected
