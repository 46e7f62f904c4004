"""pdlab's benchmark: drive the CLI the way its users do and check every output.

    python3 perfbench/run.py --workload lacunary-1d --seed 1 --seconds 20 --trace 0

A run repeats passes for --seconds.  A pass is one fresh interpreter that
imports `pdlab.cli` and calls `pdlab.cli.main(argv)` for each step of the
workload in sequence: a closed loop with one client.  The program's own
thread pool is capped at PDLAB_THREADS <= nproc.  After each pass every
step's exit code and output is checked against the lab's exact identities
(workloads.py); once per run apply_auto is checked against the reference
`apply`.  A failed check counts in `failed` and never aborts the run.

--trace 0 reports the end-to-end metrics, medians over the run's passes:
  wall_s       first step start to last step end, in the pass process
  setup_s      import pdlab.cli and build its parser, in a fresh process
               (each pass, plus set-up-only processes up to 15 samples)
  peak_rss_mb  ru_maxrss of the pass process
--trace 1 adds two traced passes after the untraced ones (tracer.py): one
with spans only, for counts and self times, and one with tracemalloc, for
memory peaks.  It reports the per-layer metrics.  It also runs one
untraced and one traced pass with PDLAB_THREADS=1 and checks that every
file and every JSON stdout of the two is byte-identical.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  The full record (environment, per pass and per step figures,
apply_auto cost by grid) goes to .bench_build/perfbench/results/, with
the spans of a traced run beside it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    EXACT_TOL, REFERENCE_CASES, REFERENCE_INPUT, WORKLOADS, Workload,
)

ROOT = HERE.parent
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
DEADLINE_S = 170.0  # a run must end within 180 s, whatever its passes do
SETUP_SAMPLES = 15  # set-up times per run: the passes', topped up by set-up-only processes
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class Run:
    """One benchmark run: its passes, their checks and the tallies."""

    def __init__(self, workload: Workload, seed: int, out_root: Path):
        self.seed = seed
        self.workload = workload
        self.started = time.monotonic()
        (out_root / "runs").mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=out_root / "runs"))
        for fname, obj in self.workload.configs.items():
            (self.dir / fname).write_text(json.dumps(obj))
        self.env = worker_env()
        self.attempted = 0
        self.problems: list = []

    def tally(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.problems.append({"what": what, "problems": problems})

    def worker(self, mode: str, spec: dict, stem: str, threads: int | None = None):
        """Run worker.py in a fresh interpreter; its result, or None on failure."""
        spec_path = self.dir / f"{stem}.spec.json"
        result_path = self.dir / f"{stem}.result.json"
        spec_path.write_text(json.dumps(spec))
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        with open(self.dir / f"{stem}.log", "w") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), mode, str(spec_path), str(result_path)],
                    cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, timeout=timeout,
                    env=self.env if threads is None else {**self.env, "PDLAB_THREADS": str(threads)},
                )
            except subprocess.TimeoutExpired:
                return None
        if proc.returncode != 0 or not result_path.exists():
            return None
        return json.loads(result_path.read_text())

    def run_pass(self, stem: str, trace: str | None = None, threads: int | None = None):
        pass_dir = self.dir / stem
        pass_dir.mkdir()
        spec = {
            "dir": str(pass_dir),
            "steps": [list(s.argv) for s in self.workload.steps],
            "trace": trace,
        }
        result = self.worker("pass", spec, stem, threads)
        for i, step in enumerate(self.workload.steps):
            what = f"{stem} step {i}: pdlab {' '.join(step.argv)}"
            if result is None:
                self.tally(what, ["worker failed or timed out; see its .log"])
                continue
            got = result["steps"][i]
            if got["rc"] != 0:
                self.tally(what, [f"exit code {got['rc']}: {got['stderr'][-400:]}"])
                continue
            try:
                self.tally(what, step.check(got["stdout"], pass_dir))
            except Exception as exc:  # a malformed output is a failed check
                self.tally(what, [f"output check raised {type(exc).__name__}: {exc}"])
        return result

    def differences(self, stem: str, result, base_stem: str, base) -> list:
        """Where two passes' files or JSON stdout differ, byte for byte."""
        problems = []
        if result is None or base is None:
            problems.append("a pass to compare is missing")
        else:
            a_dir, b_dir = self.dir / stem, self.dir / base_stem
            names = sorted(p.name for p in b_dir.iterdir())
            if names != sorted(p.name for p in a_dir.iterdir()):
                problems.append("the passes wrote different files")
            problems += [
                f"{n} differs" for n in names
                if (a_dir / n).exists() and (a_dir / n).read_bytes() != (b_dir / n).read_bytes()
            ]
            for i, (a, b) in enumerate(zip(result["steps"], base["steps"])):
                if _is_json(b["stdout"]) and a["stdout"] != b["stdout"]:
                    problems.append(f"stdout of step {i} differs")
        return problems

    def reference(self):
        spec = {
            "cases": [(s.format(seed=self.seed), n, N) for s, n, N in REFERENCE_CASES],
            "input": REFERENCE_INPUT.format(seed=self.seed),
        }
        result = self.worker("reference", spec, "reference")
        if result is None:
            self.tally("apply_auto against apply", ["reference worker failed; see its .log"])
            return None
        for case in result["cases"]:
            err = case["rel_err"]
            self.tally(
                f"apply_auto against apply: {case['symbol']} on {case['grid']}",
                [] if err <= EXACT_TOL else [f"relative error {err:.3e} > {EXACT_TOL}"],
            )
        return result


def worker_env() -> dict:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    cap = env.get("PDLAB_THREADS")
    env["PDLAB_THREADS"] = str(nproc if cap is None else min(int(cap), nproc))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _is_json(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def run_record(env: dict, reference) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": reference and reference["numpy"],
        "blas": reference and reference["blas"],
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "PDLAB_THREADS": env["PDLAB_THREADS"],
        "blas_threads": {k: env.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": commit,
        "src_lines": src_lines,
    }


def _pass_summary(result) -> dict | None:
    if result is None:
        return None
    return {
        "wall_s": result["wall_s"],
        "cpu_s": result["cpu_s"],
        "setup_s": result["setup_s"],
        "maxrss_mb": result["maxrss_mb"],
        "step_seconds": [s["seconds"] for s in result["steps"]],
    }


def benchmark(workload: Workload, seed: int, seconds: float, trace: bool, out_root: Path) -> dict:
    """Run the passes and checks; the run record and the result line."""
    run = Run(workload, seed, out_root)
    passes = []
    while not passes or time.monotonic() - run.started < seconds:
        passes.append(run.run_pass(f"pass-{len(passes)}"))
    done = [p for p in passes if p is not None]
    if not done:
        raise RuntimeError(f"no pass completed; see {run.dir}")
    walls = [p["wall_s"] for p in done]
    record: dict = {"seed": seed, "seconds": seconds, "trace": trace}

    # The program's threaded paths can differ between reruns in the last
    # bits of rounding-noise fields (seen in paradiff corona masses), so
    # this is recorded, not failed; the tracing identity check below runs
    # its pair single-threaded, where reruns are byte-identical.
    record["rerun_differences"] = {
        f"pass-{i}": diff
        for i in range(1, len(passes))
        if (diff := run.differences(f"pass-{i}", passes[i], "pass-0", passes[0]))
    }

    if trace:
        spans = run.run_pass("spans", trace="spans")
        memory = run.run_pass("memory", trace="memory")
        plain1 = run.run_pass("identity-untraced", threads=1)
        traced1 = run.run_pass("identity-traced", trace="spans", threads=1)
        run.tally(
            "traced outputs byte-identical to untraced (PDLAB_THREADS=1)",
            run.differences("identity-traced", traced1, "identity-untraced", plain1),
        )
        if spans is None or memory is None:
            raise RuntimeError(f"a traced pass failed; see {run.dir}")
        metrics, by_grid = layer_metrics(
            spans["spans"], spans["roundtrip_s"], spans["max_live_threads"],
            memory_spans=memory["spans"],
            overhead_s=spans["wall_s"] - statistics.median(walls),
        )
        units = dict(PER_LAYER)
        record["traced_passes"] = {"spans": _pass_summary(spans), "memory": _pass_summary(memory)}
        record["single_thread_pass"] = _pass_summary(plain1)  # the plain baseline
        record["apply_auto_by_grid"] = by_grid
        record["span_count"] = len(spans["spans"])
    else:
        setups = [p["setup_s"] for p in done]
        for i in range(SETUP_SAMPLES - len(setups)):
            sample = run.worker("setup", {}, f"setup-{i}")
            if sample is not None:
                setups.append(sample["setup_s"])
        record["setup_samples"] = setups
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in done),
        }
        units = dict(END_TO_END)

    reference = run.reference()
    failed = len(run.problems)
    record.update(
        environment=run_record(run.env, reference),
        passes=[_pass_summary(p) for p in passes],
        reference=reference and reference["cases"],
        attempted=run.attempted,
        failed=failed,
        failed_share=failed / run.attempted,
        failures=run.problems,
        metrics=metrics,
    )
    if failed:
        record["kept_run_dir"] = str(run.dir)
    else:
        shutil.rmtree(run.dir, ignore_errors=True)
    return {
        "record": record,
        "spans": spans["spans"] if trace else None,
        "result": {
            "correct": failed == 0,
            "attempted": run.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pdlab" / "cli.py").is_file():
        print(f"error: no pdlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_root = ROOT / ".bench_build" / "perfbench"
    out = benchmark(
        WORKLOADS[args.workload](args.seed), args.seed, args.seconds, bool(args.trace), out_root
    )
    record, result = out["record"], out["result"]
    record["workload"] = args.workload
    results_dir = out_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    if out["spans"] is not None:  # id, name, start, end, parent id, thread, extra
        (results_dir / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps(out["spans"])
        )

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(record['passes'])} untraced passes")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_share = {record['failed_share']:.6g} fraction "
          f"({record['failed']} of {record['attempted']} steps and checks)")
    for f in record["failures"]:
        print(f"  FAILED {f['what']}: {'; '.join(f['problems'])}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
