"""gpsyn benchmark runner.

Usage (from the repository root)::

    python3 perfbench/run.py --workload synth-pn --seed 1 --seconds 20 --trace 0

One process runs one workload with one closed-loop client: the next job
starts only when the previous one is done. A run

1. sets up ``SETUP_REPS`` times: generates the seeded inputs as ``gpsyn gen``
   does (``domains.build_task`` + ``jsonio.dump_problem``), loads each back
   and runs the workload's warm-up job; ``setup_s`` is the median;
2. runs passes over the workload's fixed job list until ``--seconds`` have
   been measured and at least ``MIN_PASSES`` passes are done, timing each job
   and checking its output, untimed, against an independent oracle;
3. prints a summary line, then one JSON object as the last line of stdout.

Every reported time is in seconds at a reference host speed: the fixed
kernel in ``hostspeed.py`` runs before, after and every 0.4 s during
each timed call, and the call's time, less those runs, is scaled by the
host's speed they read. The shared host this was tuned on drifts by up to
~1.8x in speed; the scaled times do not. The raw wall times are in the
summary line.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
passes alternate between untraced and traced; the traced ones record spans
around every call into a gpsyn layer and give the per-layer metrics, and the
difference between the two kinds of pass is the tracing overhead.

Every job records a fingerprint (search counts, plan length, steps, outcome
kinds, a hash of the decoded program). It must be the same in every pass and
in every run of the same seed; runs of a seed compare against the first one
kept in ``.perfbench/fingerprints/``. A difference counts as a failed job.
Inputs (deleted at the end of the run), fingerprints and a full report (with
spans when tracing) are written under ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

SETUP_REPS = 3
MIN_PASSES = 1
# A host-speed reading (~36 ms) every 0.4 s costs ~9% of a run.
SAMPLE_PERIOD_S = 0.4
# Runs must end within 180 s: no pass starts that is expected to cross this.
PASS_DEADLINE_S = 150.0
ITEM_PERCENTILE_MIN_SAMPLES = 100


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


@dataclass
class Pass:
    pass_id: str
    traced: bool
    wall_s: float = 0.0
    # Wall and CPU time scaled to the reference host speed.
    ref_s: float = 0.0
    ref_cpu_s: float = 0.0
    items: int = 0
    job_refs: list = field(default_factory=list)


class Runner:
    """Runs jobs one after another, keeping failures and fingerprints."""

    def __init__(self, tracer, sampler, layer_modules):
        self.tr = tracer
        self.sampler = sampler
        # Modules whose ``execute`` (the interpreter) gets a span per call
        # in traced passes: validation and evaluation call it internally.
        self.layer_modules = layer_modules
        self.attempted = 0
        self.failures: list[dict] = []
        self.fingerprints: dict[str, list] = defaultdict(list)

    def _instrumented(self, traced):
        stack = ExitStack()
        if traced:
            for module in self.layer_modules:
                stack.enter_context(
                    self.tr.patched(module, "execute", "interpreter.run", _outcome_counts)
                )
        return stack

    def run_job(self, job, pass_id, traced):
        """Run one job; return (wall s, cpu s, items, scale), or None if it
        raised. ``scale`` turns the job's times into reference-speed seconds.

        Only ``job.run`` is timed, with host-speed readings around and during
        it; the check and the probes come after it.
        """
        tr = self.tr
        tr.job = job.name
        tr.pass_id = pass_id
        self.attempted += 1

        def timed():
            with self._instrumented(traced), tr.span("job"):
                return job.run(tr)

        try:
            tr.enabled = traced
            out, wall_s, cpu_s, scale = self.sampler.measure(timed)
            tr.enabled = False
            fingerprint, problems, items = job.check(out)
            if traced:
                tr.enabled = True
                job.probe(tr, out)
        except Exception:
            self.failures.append(
                {"job": job.name, "pass": pass_id, "error": traceback.format_exc(limit=4)}
            )
            return None
        finally:
            tr.enabled = False
        self.fingerprints[job.name].append(fingerprint)
        if problems:
            self.failures.append({"job": job.name, "pass": pass_id, "problems": problems})
            items = 0
        return wall_s, cpu_s, items, scale

    def run_pass(self, jobs, pass_id, traced) -> Pass:
        p = Pass(pass_id, traced)
        for job in jobs:
            timing = self.run_job(job, pass_id, traced)
            if timing is not None:
                wall_s, cpu_s, items, scale = timing
                p.wall_s += wall_s
                p.ref_s += wall_s * scale
                p.ref_cpu_s += cpu_s * scale
                p.items += items
                p.job_refs.append(wall_s * scale)
        return p

    def determinism_failures(self, kept_path: Path) -> list[str]:
        """Fingerprints must agree across passes and with the first clean run
        of this seed, which is kept at ``kept_path``."""
        out = [
            f"{name}: fingerprint differs between passes"
            for name, fps in self.fingerprints.items()
            if any(fp != fps[0] for fp in fps)
        ]
        run = {name: fps[0] for name, fps in sorted(self.fingerprints.items())}
        if kept_path.is_file():
            kept = json.loads(kept_path.read_text())
            out += [
                f"{name}: fingerprint differs from {kept_path.name}"
                for name in sorted(set(kept) | set(run))
                if kept.get(name) != run.get(name)
            ]
        elif not self.failures and not out:
            kept_path.parent.mkdir(parents=True, exist_ok=True)
            kept_path.write_text(json.dumps(run, indent=1, sort_keys=True) + "\n")
        return out


def _outcome_counts(outcome) -> dict:
    kind = outcome.failure.value if outcome.failure else "solved"
    return {"steps": outcome.steps, f"outcome.{kind}": 1}


def _layer_metrics(spans, durations, own, pass_ids):
    """Per-layer metrics of each traced pass, then their means."""
    per_pass = {pid: defaultdict(float) for pid in pass_ids}
    hadd_calls = {pid: [] for pid in pass_ids}
    for span, dur, self_s in zip(spans, durations, own):
        acc = per_pass.get(span["pass"])
        if acc is None:
            continue
        name = span["name"]
        if name == "planner.hadd_call":
            hadd_calls[span["pass"]].append(dur * 1e3)
            continue
        acc[f"{name}_s"] += dur
        if name in ("job", "evaluation.eval"):
            acc[f"{name.split('.')[0]}.self_s"] += self_s
        for key, value in span["counts"].items():
            acc[f"{name.split('.')[0]}.{key}"] += value
    for pid, acc in per_pass.items():
        calls = hadd_calls[pid]
        acc["planner.hadd_call_ms"] = sum(calls) / len(calls) if calls else 0.0
        gen = acc["planner.generated"]
        acc["planner.us_per_generated"] = acc["planner.solve_s"] / gen * 1e6 if gen else 0.0
        run_s = acc["interpreter.run_s"]
        acc["interpreter.steps_per_s"] = acc["interpreter.steps"] / run_s if run_s else 0.0
    keys = {k for acc in per_pass.values() for k in acc}
    return {k: _mean([acc[k] for acc in per_pass.values()]) for k in keys}


def main(argv=None) -> int:
    args = _parse_args(argv)
    for needed in (ROOT / "src" / "gpsyn" / "__init__.py", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"perfbench: {needed} not found", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from gpsyn import evaluation, interpreter, jsonio
    from tracing import Tracer, self_times

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    started = time.perf_counter()
    traced_run = bool(args.trace)
    input_dir = OUT / "inputs" / f"{args.workload}-{args.seed}"
    input_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, input_dir)
    tr = Tracer()
    sampler = hostspeed.Sampler(SAMPLE_PERIOD_S)
    runner = Runner(tr, sampler, [interpreter, evaluation])
    warmup = next(job for job in wl.jobs if job.name == wl.warmup)

    def generate_and_load():
        tr.enabled = traced_run
        n = sum(workloads.generate(inp, tr) for inp in wl.inputs)
        tr.enabled = False
        for inp in wl.inputs:
            jsonio.load_problem(inp.path)
        return n

    with sampler:
        # Set-up: generate the inputs, load them back, run the warm-up job.
        setup_s, setup_walls, setup_ids = [], [], []
        for rep in range(SETUP_REPS):
            tr.pass_id = f"setup-{rep}"
            setup_ids.append(tr.pass_id)
            effects, gen_s, _, gen_scale = sampler.measure(generate_and_load)
            warm = runner.run_job(warmup, tr.pass_id, False) or (0.0, 0.0, 0, 1.0)
            setup_s.append(gen_s * gen_scale + warm[0] * warm[3])
            setup_walls.append(gen_s + warm[0])

        # Measured passes; with tracing, every other pass is traced and at
        # least one of each kind runs.
        passes: list[Pass] = []
        longest = 0.0
        min_passes = MIN_PASSES * (2 if traced_run else 1)
        while sum(p.wall_s for p in passes) < args.seconds or len(passes) < min_passes:
            elapsed = time.perf_counter() - started
            if len(passes) >= min_passes and elapsed + longest > PASS_DEADLINE_S:
                break
            t0 = time.perf_counter()
            traced = traced_run and len(passes) % 2 == 1
            passes.append(runner.run_pass(wl.jobs, f"pass-{len(passes)}", traced))
            longest = max(longest, time.perf_counter() - t0)

    # Inputs are regenerated by every run; an eval-testset set is ~12 MB.
    shutil.rmtree(input_dir)
    fp_path = OUT / "fingerprints" / f"{args.workload}-{args.seed}.json"
    determinism = runner.determinism_failures(fp_path)
    failed = len(runner.failures) + len(determinism)

    untraced = [p for p in passes if not p.traced]
    ref_total = sum(p.ref_s for p in untraced)
    end_to_end = {
        "setup_s": _median(setup_s),
        "pass_s": _median([p.ref_s for p in untraced]),
        "pass_cpu_s": _median([p.ref_cpu_s for p in untraced]),
        "items_per_s": sum(p.items for p in untraced) / ref_total if ref_total else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    summary = {
        "workload": args.workload,
        "environment": {
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
        },
        "loop": "closed",
        "clients": 1,
        "setup_walls_s": setup_walls,
        "pass_walls_s": [p.wall_s for p in passes],
        "pass_scaled_s": [p.ref_s for p in passes],
        "jobs_per_pass": len(wl.jobs),
        "error_rate": failed / runner.attempted,
        "job_latency": _latency([w for p in untraced for w in p.job_refs]),
        "fingerprint_file": str(fp_path.relative_to(ROOT)),
        "failures": runner.failures[:5],
        "determinism_failures": determinism[:5],
    }

    if traced_run:
        spans = tr.spans
        # Span times, like pass times, are at the reference speed and
        # exclude the host-speed readings taken inside them.
        durations = [sampler.scaled(s["start"], s["end"]) for s in spans]
        own = self_times(spans, durations)
        traced_ids = [p.pass_id for p in passes if p.traced]
        layers = _layer_metrics(spans, durations, own, traced_ids)
        setup_layers = _layer_metrics(spans, durations, own, setup_ids)
        traced_pass_s = _median([p.ref_s for p in passes if p.traced])
        layers.update(
            {
                "jsonio.dump_s": setup_layers.get("jsonio.dump_s", 0.0),
                "domains.build_s": setup_layers.get("domains.build_s", 0.0),
                "domains.effects": effects,
                "trace.pass_s": traced_pass_s,
                "trace.untraced_pass_s": end_to_end["pass_s"],
                "trace.overhead_s": traced_pass_s - end_to_end["pass_s"],
            }
        )
        # A layer the workload never calls has no spans: its metrics are 0.
        metrics = {
            m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        summary["self_s_by_layer"] = _self_by_layer(spans, own, traced_ids)
        summary["execute_latency"] = _latency(
            [d for s, d in zip(spans, durations)
             if s["name"] == "interpreter.run" and s["pass"] in traced_ids]
        )
    else:
        metrics = {
            m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }

    report = {"summary": summary, "metrics": metrics,
              "failures": runner.failures, "determinism_failures": determinism}
    if traced_run:
        report["spans"] = tr.spans
    report_path = OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report) + "\n")
    summary["report"] = str(report_path.relative_to(ROOT))
    print("perfbench summary: " + json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _self_by_layer(spans, own, pass_ids):
    """Mean self time per traced pass of each span name."""
    totals = defaultdict(float)
    for span, self_s in zip(spans, own):
        if span["pass"] in pass_ids:
            totals[span["name"]] += self_s
    return {name: t / len(pass_ids) for name, t in sorted(totals.items())}


def _latency(walls):
    """Sample count, plus median and 90th percentile once there are enough
    samples for ten to lie beyond the 90th."""
    out = {"samples": len(walls)}
    if len(walls) >= ITEM_PERCENTILE_MIN_SAMPLES:
        out["p50_ms"] = statistics.median(walls) * 1e3
        out["p90_ms"] = statistics.quantiles(walls, n=10)[8] * 1e3
    return out


if __name__ == "__main__":
    sys.exit(main())
