"""Self-tests for the benchmark: every output check must catch a corrupted
output, the tracer must survive renamed targets, and every workload must
run end to end at smoke size.

    python3 perfbench/selftest.py

Exits 0 when every test passes. Takes well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import run

m = run.import_program()
import fakeserver  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

SCRATCH = run.ROOT / ".perfbench" / "selftest"


def smoke_unit(cls, seed=3):
    """Run one smoke-size unit untimed; return (workload, calls)."""
    workload = cls(wl.SMOKE, seed, SCRATCH / cls.name)
    blocks = wl.SeedBlocks(seed)
    calls = workload.run([blocks.next() for _ in range(cls.blocks_per_unit)])
    return workload, calls


def kinds_after(workload, calls) -> dict:
    tally = wl.Tally()
    workload.check(0, calls, tally)
    return tally.kinds()


def replace_record(call, arm, j, **changes):
    report = call.reports[arm]
    records = list(report.records)
    records[j] = dataclasses.replace(records[j], **changes)
    call.reports[arm] = dataclasses.replace(report, records=tuple(records))


# -- eval-fresh ------------------------------------------------------------


def test_eval_fresh_checks():
    workload, calls = smoke_unit(wl.EvalFresh)
    assert kinds_after(workload, calls) == {}, kinds_after(workload, calls)
    fresh = next(c for c in calls if c.label == "fresh")
    retrieval = next(c for c in calls if c.label == "retrieval")

    def corrupted(mutate):
        copies = [dataclasses.replace(c, reports=list(c.reports)) for c in calls]
        mutate(copies)
        return kinds_after(workload, copies)

    i_f, i_r = calls.index(fresh), calls.index(retrieval)
    assert "retrieval.miss" in corrupted(lambda cs: replace_record(cs[i_r], 0, 0, success=False))
    assert "mock.parse_error" in corrupted(lambda cs: replace_record(cs[i_f], 0, 1, parse_error=True))

    def drop_record(cs):
        cs[i_f].reports[0] = dataclasses.replace(cs[i_f].reports[0], records=cs[i_f].reports[0].records[:-1])

    assert "records.count" in corrupted(drop_record)

    def raise_error(cs):
        cs[i_f].reports, cs[i_f].error = None, RuntimeError("boom")

    assert "raised.RuntimeError" in corrupted(raise_error)


# -- ablation-sweeps -------------------------------------------------------


def test_ablation_checks():
    workload, calls = smoke_unit(wl.AblationSweeps)
    try:
        assert kinds_after(workload, calls) == {}
        by_label = {c.label: i for i, c in enumerate(calls) if c.config.task is m.TaskId.PUSH_BUTTON}

        def corrupted(mutate):
            copies = [dataclasses.replace(c, reports=list(c.reports)) for c in calls]
            mutate(copies)
            tally = wl.Tally()
            workload.check(1, copies, tally)  # unit 1: leaves the stored CSVs alone
            return tally.kinds()

        def rename_arm(cs):
            rep = cs[by_label["noise"]].reports
            rep[0] = dataclasses.replace(rep[0], arm="noise-0.50")

        assert "noise.arm_labels" in corrupted(rename_arm)
        prompts = by_label["prompts"]
        flipped = not calls[prompts].reports[1].records[0].success
        assert "prompts.tie" in corrupted(lambda cs: replace_record(cs[prompts], 1, 0, success=flipped))
        loop = by_label["loop"]
        short = calls[loop].reports[0].records[0].prompt_chars
        assert "loop.prompt_chars" in corrupted(lambda cs: replace_record(cs[loop], 1, 0, prompt_chars=short))

        # A CSV that differs by one byte from its untimed repeat.
        tally = wl.Tally()
        workload.finish(tally)
        assert tally.kinds() == {}, tally.kinds()
        name = next(iter(workload.first_csvs))
        data = bytearray(workload.first_csvs[name])
        data[-2] ^= 1
        workload.first_csvs[name] = bytes(data)
        tally = wl.Tally()
        workload.finish(tally)
        assert set(tally.kinds()) == {"csv.repeat"}, tally.kinds()
    finally:
        workload.close()


# -- remote-eval -----------------------------------------------------------


def remote_kinds(mutate_log=None, render=None, credential=None) -> dict:
    original_render = fakeserver.render_reply
    workload = wl.RemoteEval(wl.SMOKE, 7, SCRATCH / "remote")
    try:
        if render is not None:
            fakeserver.render_reply = render
        if credential is not None:
            os.environ[wl.CREDENTIAL_ENV] = credential
        blocks = wl.SeedBlocks(7)
        calls = workload.run([blocks.next() for _ in range(wl.RemoteEval.blocks_per_unit)])
        log = workload.server.log[workload.log_start :]
        if mutate_log is not None:
            log = mutate_log(list(log))
        tally = wl.Tally()
        wl.check_calls(0, calls, tally)
        wl.check_remote(0, calls, log, workload.first_index, 7, tally)
        return tally.kinds(), tally
    finally:
        fakeserver.render_reply = original_render
        workload.close()


def test_remote_baseline_outcomes():
    kinds, tally = remote_kinds()
    # At this commit the parser drops the first action of a prose reply and
    # rejects numbered steps; both show as outcome mismatches, not breakage.
    assert set(kinds) <= {"shape.prose", "shape.numbered"}, kinds
    assert tally.failed == 0
    total = tally.attempted
    expected = sum(fakeserver.shape_of(k, 7) in ("prose", "numbered") for k in range(total))
    assert tally.not_ok == expected, (tally.not_ok, expected)


def test_remote_wrong_action_count_is_caught():
    render = fakeserver.render_reply
    kinds, _ = remote_kinds(render=lambda s, a, t: render(s, a[:-1] if s == "canonical" else a, t))
    assert "shape.canonical" in kinds, kinds


def test_remote_accepted_wrong_arity_is_caught():
    render = fakeserver.render_reply
    kinds, _ = remote_kinds(render=lambda s, a, t: render("canonical" if s == "wrong_arity" else s, a, t))
    assert "shape.wrong_arity" in kinds, kinds


def test_remote_request_checks():
    kinds, tally = remote_kinds(credential="not-the-credential")
    assert "request.auth" in kinds and tally.failed > 0, kinds
    kinds, _ = remote_kinds(mutate_log=lambda log: log + [log[-1]])
    assert "server.request_count" in kinds, kinds
    kinds, _ = remote_kinds(mutate_log=lambda log: [dataclasses.replace(log[0], body_ok=False)] + log[1:])
    assert "request.body" in kinds, kinds
    kinds, _ = remote_kinds(mutate_log=lambda log: [e for e in log if e.index != 1 or e.status != 200])
    assert "server.no_reply" in kinds, kinds


# -- tracer ----------------------------------------------------------------


def test_tracer_restores_and_reports_absent_names():
    before = (m.run_eval, m.harness.reset, m.llm.parse_response, m.sim.WorldState.clone, m.llm.requests.post)
    saved = tracer.EXTRA_SPANS
    tracer.EXTRA_SPANS = saved + (("sim.vanished", "sim", "no_such_function"), ("x.gone", "no_such_module", "f"))
    try:
        with tracer.Tracer() as trace:
            assert m.harness.reset is not before[1] and m.llm.parse_response is not before[2]
            cfg = m.RunConfig(task=m.TaskId.PUSH_BUTTON, n_demos=2, n_eval=2, seed=5)
            report = m.run_eval(cfg)
    finally:
        tracer.EXTRA_SPANS = saved
    after = (m.run_eval, m.harness.reset, m.llm.parse_response, m.sim.WorldState.clone, m.llm.requests.post)
    assert all(a is b for a, b in zip(before, after)), "tracer left wrappers installed"
    assert trace.absent == ["iclmanip.sim.no_such_function", "iclmanip.no_such_module.f"], trace.absent
    metrics = trace.metrics(len(report.records))
    assert metrics["harness.run_eval.calls"] == 1 and metrics["sim.reset.calls"] > 0
    assert metrics["trace.absent"] == 2
    assert all(v >= 0 for k, v in metrics.items() if k.endswith("self_ms")), metrics


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(p["name"], p["unit"]) for p in spec["per_layer"]] == tracer.per_layer_metrics()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)


def test_host_speed_rescales_only_cpu_time():
    speed = hostspeed.HostSpeed()
    speed.sample(0.05)
    assert speed.iterations > 0 and speed.factor > 0
    speed.iterations, speed.seconds = int(2 * hostspeed.REFERENCE_RATE), 1.0  # a host twice as fast
    assert speed.reference_seconds(wall=3.0, cpu=1.0) == 2.0 + 2.0
    assert speed.reference_seconds(wall=1.0, cpu=1.5) == 2.0  # CPU time never exceeds wall time


# -- whole runs --------------------------------------------------------------


def test_smoke_runs():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name in run.WORKLOAD_NAMES:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "2",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] and result["attempted"] > 0, result
            assert {k: v["unit"] for k, v in result["metrics"].items()} == {
                p["name"]: p["unit"] for p in spec[section]
            }


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        shutil.copytree(run.BENCH_DIR, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "eval-fresh", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    try:
        for name, fn in tests:
            try:
                fn()
                print(f"PASS {name}")
            except Exception:
                failures += 1
                print(f"FAIL {name}")
                traceback.print_exc()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(tests) - failures} passed, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
