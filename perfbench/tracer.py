"""Per-layer tracing from outside the program.

`Tracer` replaces each traced function with a wrapper at every name its
callers look it up by (for a module-level function, every `iclmanip`
module attribute bound to it; for a method or `requests.post`, the owning
attribute), records one span per call in flat in-memory arrays, and puts
the originals back on exit. Spans are aggregated and written out only
after the traced unit ends. A target that no longer exists is reported
as absent and traced as zero calls.

Only imported for `--trace 1`; untraced runs never load this module.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from array import array
from pathlib import Path

# (metric prefix, iclmanip module, attribute path in that module)
SPAN_TARGETS = (
    ("sim.reset", "sim", "reset"),
    ("sim.scripted_expert", "sim", "scripted_expert"),
    ("sim.synth_joint_velocities", "sim", "synth_joint_velocities"),
    ("sim.execute_action", "sim", "execute_action"),
    ("sim.world_clone", "sim", "WorldState.clone"),
    ("sim.check_success", "sim", "check_success"),
    ("sim.add_pose_noise", "sim", "add_pose_noise"),
    ("sim.observations_of", "sim", "observations_of"),
    ("keyframes.extract_keyframes", "keyframes", "extract_keyframes"),
    ("keyframes.sample_uniform", "keyframes", "sample_uniform"),
    ("discretize.discretize_pose", "discretize", "discretize_pose"),
    ("discretize.discretize_action", "discretize", "discretize_action"),
    ("discretize.dediscretize_action", "discretize", "dediscretize_action"),
    ("prompts.build_icl_example", "prompts", "build_icl_example"),
    ("prompts.build_closed_loop_example", "prompts", "build_closed_loop_example"),
    ("prompts.build_example_input", "prompts", "build_example_input"),
    ("prompts.assemble_prompt", "prompts", "assemble_prompt"),
    ("prompts.parse_response", "prompts", "parse_response"),
    ("llm.complete_mock_nearest", "llm", "complete_mock_nearest"),
    ("llm.complete_mock_compositional", "llm", "complete_mock_compositional"),
    ("llm.complete_remote", "llm", "complete_remote"),
    ("llm.http_post", "llm", "requests.post"),
    ("harness.run_eval", "harness", "run_eval"),
    ("harness.build_demo_pool", "harness", "build_demo_pool"),
    ("harness.demo_seeds", "harness", "demo_seeds"),
    ("harness.emit_csv", "harness", "emit_csv"),
)
# Traced for their time only; reported under the derived metrics below.
EXTRA_SPANS = (("llm.token_bucket.acquire", "llm", "TokenBucket.acquire"),)
POSE6_INIT = ("model", "Pose6.__post_init__")

DERIVED_METRICS = (
    ("sim.execute_action.errors", "count"),
    ("prompts.parse_response.errors", "count"),
    ("prompts.assemble_prompt.chars", "count"),
    ("model.pose6.count", "count"),
    ("sim.scripted_expert.repeat_share", "ratio"),
    ("llm.token_bucket.wait_ms", "ms"),
    ("llm.remote.backoff_ms", "ms"),
    ("llm.remote.retries", "count"),
    ("llm.remote.request_bytes", "bytes"),
    ("harness.resets_per_episode", "1/episode"),
    ("harness.expert_plans_per_episode", "1/episode"),
    ("harness.demo_pool_share", "ratio"),
    ("trace.absent", "count"),
    ("trace_overhead_share", "ratio"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, as (name, unit)."""
    out = []
    for prefix, _, _ in SPAN_TARGETS:
        out += [(f"{prefix}.calls", "count"), (f"{prefix}.self_ms", "ms")]
    return out + list(DERIVED_METRICS)


def _resolve(module: str, path: str):
    """(owner, attribute name, original) or None when the name is gone."""
    try:
        owner = importlib.import_module(f"iclmanip.{module}")
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


def _package_modules():
    return [mod for name, mod in list(sys.modules.items()) if name == "iclmanip" or name.startswith("iclmanip.")]


class Tracer:
    """Context manager: install wrappers, record spans, restore originals.

    Span i has name index names[i], parent span parents[i] (-1 at the
    root), and start/end times from time.perf_counter. Span 0 is the
    unit root, named "unit".
    """

    def __init__(self):
        self.labels = ["unit"] + [t[0] for t in SPAN_TARGETS + EXTRA_SPANS]
        self.names = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.errors = [0] * len(self.labels)
        self.absent: list[str] = []
        self.pose6 = 0
        self.chars = 0
        self.request_bytes = 0
        self.plans: set = set()
        self.repeats = 0
        self._current = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        hooks = {
            "prompts.assemble_prompt": (None, self._count_chars),
            "sim.scripted_expert": (self._note_plan, None),
            "llm.http_post": (self._count_request, None),
        }
        for idx, (label, module, path) in enumerate(SPAN_TARGETS + EXTRA_SPANS, start=1):
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"iclmanip.{module}.{path}")
                continue
            owner, attr, original = found
            self._patch(owner, attr, original, self._span(idx, original, *hooks.get(label, (None, None))))
        found = _resolve(*POSE6_INIT)
        if found is None:
            self.absent.append(f"iclmanip.{'.'.join(POSE6_INIT)}")
        else:
            self._patch(*found, self._counted(found[2]))
        self.names.append(0)  # span 0: the unit root
        self.parents.append(-1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._current[0] = 0
        return self

    def __exit__(self, *exc) -> None:
        self.ends[0] = time.perf_counter()
        self._current[0] = -1
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        if isinstance(owner, types.ModuleType) and owner.__name__.startswith("iclmanip"):
            # Rebind every package-level alias callers might look up.
            for mod in _package_modules():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapper)
        else:
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def _span(self, idx: int, fn, before=None, after=None):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        errors, current, clock = self.errors, self._current, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = current[0]
            span = len(starts)
            names.append(idx)
            parents.append(parent)
            ends.append(0.0)
            current[0] = span
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[idx] += 1
                raise
            finally:
                ends[span] = clock()
                current[0] = parent
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.pose6 += 1
            return fn(*args, **kwargs)

        return counted

    # -- hooks (run outside the spans they annotate) ----------------------

    def _count_chars(self, bundle) -> None:
        self.chars += len(getattr(bundle, "system", "")) + len(getattr(bundle, "body", ""))

    def _note_plan(self, args, kwargs) -> None:
        try:
            task, world, instruction = args[:3]
            start = tuple((o.name, o.pose) for o in world.objects)
            key = (task, instruction, start)
        except (ValueError, AttributeError, TypeError):
            return
        if key in self.plans:
            self.repeats += 1
        self.plans.add(key)

    def _count_request(self, args, kwargs) -> None:
        payload = kwargs.get("json")
        if payload is not None:
            self.request_bytes += len(json.dumps(payload).encode("utf-8"))

    # -- aggregation --------------------------------------------------------

    def wall_s(self) -> float:
        return self.ends[0] - self.starts[0]

    def metrics(self, episodes: int) -> dict[str, float]:
        n_labels = len(self.labels)
        calls = [0] * n_labels
        inclusive = [0.0] * n_labels
        children = [0.0] * len(self.starts)
        for i in range(len(self.starts)):
            d = self.ends[i] - self.starts[i]
            calls[self.names[i]] += 1
            inclusive[self.names[i]] += d
            if self.parents[i] >= 0:
                children[self.parents[i]] += d
        self_s = [0.0] * n_labels
        for i in range(len(self.starts)):
            self_s[self.names[i]] += self.ends[i] - self.starts[i] - children[i]
        idx = {label: k for k, label in enumerate(self.labels)}
        out: dict[str, float] = {}
        for prefix, _, _ in SPAN_TARGETS:
            out[f"{prefix}.calls"] = calls[idx[prefix]]
            out[f"{prefix}.self_ms"] = self_s[idx[prefix]] * 1000.0
        completions = calls[idx["llm.complete_remote"]] - self.errors[idx["llm.complete_remote"]]
        plans = calls[idx["sim.scripted_expert"]]
        out.update(
            {
                "sim.execute_action.errors": self.errors[idx["sim.execute_action"]],
                "prompts.parse_response.errors": self.errors[idx["prompts.parse_response"]],
                "prompts.assemble_prompt.chars": self.chars,
                "model.pose6.count": self.pose6,
                "sim.scripted_expert.repeat_share": self.repeats / plans if plans else 0.0,
                "llm.token_bucket.wait_ms": inclusive[idx["llm.token_bucket.acquire"]] * 1000.0,
                "llm.remote.backoff_ms": out["llm.complete_remote.self_ms"],
                "llm.remote.retries": calls[idx["llm.http_post"]] - completions,
                "llm.remote.request_bytes": self.request_bytes,
                "harness.resets_per_episode": calls[idx["sim.reset"]] / max(episodes, 1),
                "harness.expert_plans_per_episode": plans / max(episodes, 1),
                "harness.demo_pool_share": inclusive[idx["harness.build_demo_pool"]] / self.wall_s(),
                "trace.absent": len(self.absent),
            }
        )
        return out

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: id, parent, name, start and end in µs from the unit start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0]
        with path.open("w", encoding="utf-8") as handle:
            handle.write("span\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self.starts)):
                handle.write(
                    f"{i}\t{self.parents[i]}\t{self.labels[self.names[i]]}\t"
                    f"{(self.starts[i] - t0) * 1e6:.1f}\t{(self.ends[i] - t0) * 1e6:.1f}\n"
                )
