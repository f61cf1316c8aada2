#!/usr/bin/env python3
"""cavityvdw benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli-modes,sweep-dense,green-spectrum}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
src/ directory. Every timed operation sits between two runs of the fixed
reference kernel in refkernel.py, and its time is rescaled to the kernel's
nominal time, which takes out the machine's drift in speed. Set-up is timed
the same way against a fresh interpreter that imports only numpy and yaml.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The line before it, and out/<run>/record.json,
keep the raw seconds and reference times so the rescaling can be audited.
"""

from __future__ import annotations

import os

# one BLAS thread everywhere, children included; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
IMPORT_REPEATS = 3


def locate_program() -> None:
    """Import cavityvdw from this checkout's src/ and nowhere else."""
    if not (SRC / "cavityvdw" / "cli.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'cavityvdw'}")
    sys.path.insert(0, str(SRC))
    import cavityvdw

    if Path(cavityvdw.__file__).resolve().parent != (SRC / "cavityvdw").resolve():
        raise SystemExit(f"error: cavityvdw imported from {cavityvdw.__file__}, not {SRC}")


def median(xs):
    return statistics.median(xs) if xs else 0.0


# ----------------------------------------------------------------- timing

class Clock:
    """Times operations between runs of a reference and keeps the audit
    trail (raw seconds, the reference times around each step, factor)."""

    def __init__(self, reference, nominal_s: float):
        self.reference = reference
        self.nominal_s = nominal_s
        self.refs: list[float] = []

    def ref(self) -> float:
        t = self.reference()
        self.refs.append(t)
        return t

    def time(self, steps):
        """Run the steps in turn, each between two reference runs; stop at
        the first that raises. Returns (output, exception, record)."""
        refs = [self.ref()]
        out, err, raw, scaled = None, None, 0.0, 0.0
        for i, step in enumerate(steps):
            t0 = time.perf_counter()
            try:
                out = step() if i == 0 else step(out)
            except Exception as exc:  # an operation's failure is counted, not fatal
                out, err = None, exc
            dt = time.perf_counter() - t0
            refs.append(self.ref())
            raw += dt
            scaled += dt * self.nominal_s / ((refs[-2] + refs[-1]) / 2.0)
            if err is not None:
                break
        return out, err, {"raw_s": raw, "refs_s": refs, "factor": scaled / raw, "s": scaled}


def spawn_until_ready(argv, env, cwd) -> float:
    """Seconds from spawning a fresh interpreter to its 'ready' line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
    return t1 - t0


def fresh_clock(refkernel, workloads, workdir) -> Clock:
    """Clock whose reference is a fresh interpreter importing numpy and
    yaml, for operations that are themselves fresh processes."""
    env = workloads.child_env(ROOT)
    argv = [sys.executable, "-c", refkernel.SETUP_REF_CODE]
    return Clock(lambda: spawn_until_ready(argv, env, workdir), refkernel.SETUP_REF_NOMINAL_S)


def measure_setup(refkernel, workloads, workload, seed, workdir) -> dict:
    """Fresh-process set-up, each run between two runs of the
    fresh-interpreter reference (R S R S ... R), after one untimed warm-up
    of each; the median of the rescaled set-up times."""
    env = workloads.child_env(ROOT)
    ref_argv = [sys.executable, "-c", refkernel.SETUP_REF_CODE]
    probe = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed),
             str(workdir / "setup")]
    spawn_until_ready(ref_argv, env, workdir)
    spawn_until_ready(probe, env, workdir)
    refs = [spawn_until_ready(ref_argv, env, workdir)]
    raws, scaled = [], []
    for _ in range(SETUP_REPEATS):
        raws.append(spawn_until_ready(probe, env, workdir))
        refs.append(spawn_until_ready(ref_argv, env, workdir))
        scaled.append(raws[-1] * refkernel.SETUP_REF_NOMINAL_S / ((refs[-2] + refs[-1]) / 2.0))
    return {"setup_s": median(scaled), "raw_s": raws, "ref_s": refs, "rescaled_s": scaled}


def measure_imports(clock, workloads, workdir) -> dict:
    """python -X importtime split of 'import cavityvdw.cli', raw and
    rescaled like any operation; medians over IMPORT_REPEATS probes."""
    env = workloads.child_env(ROOT)
    argv = [sys.executable, "-X", "importtime", "-c", "import cavityvdw.cli"]
    split: dict[str, list[float]] = {"total": [], "scipy": [], "cavityvdw": []}
    raw: dict[str, list[float]] = {"total": [], "scipy": [], "cavityvdw": []}
    for _ in range(IMPORT_REPEATS):
        res, err, rec = clock.time((lambda: subprocess.run(
            argv, env=env, cwd=workdir, capture_output=True, text=True, timeout=120),))
        if err is not None or res.returncode != 0:
            raise RuntimeError(f"import probe failed: {err or res.stderr[-500:]}")
        total = scipy = own = 0.0
        for line in res.stderr.splitlines():
            # "import time: <self us> | <cumulative us> | <indent><name>"
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            self_us, cum_us, name = int(parts[0]), int(parts[1]), parts[2]
            top = len(name) - len(name.lstrip()) == 1
            name = name.strip()
            if name == "scipy" or name.startswith("scipy."):
                scipy += self_us
            if name.startswith("cavityvdw"):
                own += self_us
                if top:
                    total += cum_us
        for key, us in (("total", total), ("scipy", scipy), ("cavityvdw", own)):
            raw[key].append(us * 1e-6)
            split[key].append(us * 1e-6 * rec["factor"])
    return {"rescaled": {k: median(v) for k, v in split.items()},
            "raw": {k: median(v) for k, v in raw.items()}}


# ---------------------------------------------------------------- running

class Run:
    def __init__(self, args, workdir: Path):
        import checks
        import refkernel
        import tracer
        import workloads

        self.args = args
        self.workdir = workdir
        self.refkernel, self.tracer_mod, self.workloads = refkernel, tracer, workloads
        self.checks = checks
        self.known: Counter = Counter()
        # fresh-process operations slow down with the machine like a fresh
        # interpreter does, not like in-process work (README.md, "Timing")
        if args.workload == "cli-modes":
            self.clock = fresh_clock(refkernel, workloads, workdir)
        else:
            self.clock = Clock(refkernel.timed_kernel, refkernel.REF_NOMINAL_S)
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.records: list[dict] = []
        self.child_rss_kb: list[int] = []
        self.layers: dict[str, list[float]] = {}
        self.counts: Counter = Counter()
        self.spans_out = []

    def complain(self, msg: str) -> None:
        self.correct = False
        print(f"check failed: {msg}", file=sys.stderr)

    def _traced(self, op):
        """The op's steps with its layers traced, and a function that folds
        the spans into the totals once the op's rescaling factor is known."""
        if self.args.workload == "cli-modes":
            path = self.workdir / "child-trace.json"
            argv = [sys.executable, str(BENCH / "trace_child.py"), str(path), *op.argv]
            env = self.workloads.child_env(ROOT)

            def fold(factor):
                data = json.loads(path.read_text())
                self._fold(data["spans"], Counter(data["counts"]), factor)
            return (lambda: self.workloads.run_child(argv, self.workdir / "inputs", env),), fold
        tr = self.tracer_mod.Tracer()

        def traced(step):
            def run(*args):
                tr.start()
                try:
                    return step(*args)
                finally:
                    tr.stop()
            return run

        return tuple(traced(s) for s in op.steps), lambda factor: self._fold(*tr.take(), factor)

    def _fold(self, spans, counts, factor) -> None:
        for name, (calls, total, own) in self.tracer_mod.layer_totals(spans, factor).items():
            agg = self.layers.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += own
        self.counts.update(counts)
        self.spans_out.append((factor, spans))

    def round(self, ops, index: int, traced: bool) -> None:
        for op in ops:
            steps, fold = self._traced(op) if traced else (op.steps, None)
            out, err, rec = self.clock.time(steps)
            if fold is not None:
                fold(rec["factor"])
            self.attempted += 1
            failed = err is not None or getattr(out, "code", 0) != 0
            if failed:
                self.failed += 1
                detail = repr(err) if err is not None else out.stderr.strip()[-300:]
                code = getattr(out, "code", None)
                if op.expect_fail is None or code != 1 or op.expect_fail not in detail:
                    self.complain(f"{op.name}: unexpected failure: {detail}")
            else:
                try:
                    op.check(out)
                except self.checks.KnownFault as exc:
                    failed = True
                    self.failed += 1
                    self.known[str(exc)] += 1
                except AssertionError as exc:
                    self.complain(f"{op.name}: {exc}")
            if hasattr(out, "maxrss_kb") and not traced:
                self.child_rss_kb.append(out.maxrss_kb)
            rec.update(op=op.name, round=index, traced=traced, failed=failed)
            self.records.append(rec)


def round_time(records: list[dict], key: str) -> float:
    """Time of one round: each operation's median over the run's rounds,
    summed, so one disturbed operation does not move the whole round."""
    per_op: dict[str, list[float]] = {}
    for rec in records:
        per_op.setdefault(rec["op"], []).append(rec[key])
    return sum(median(v) for v in per_op.values())


def per_layer(run: Run, traced_rounds: int, overhead: float, imports: dict) -> dict:
    layers, counts = run.layers, run.counts

    def per(name, what, denom):
        agg = layers.get(name)
        if not agg or not denom:
            return 0.0
        return (agg[2] if what == "self" else agg[1]) / denom

    def calls(name):
        return layers.get(name, [0])[0]

    rounds = max(traced_rounds, 1)
    evals = counts["greens.integrand_evals"]
    kk_evals = counts["greens.kk_func_evals"]
    return {
        "import.total_s": (imports["total"], "s"),
        "import.scipy_s": (imports["scipy"], "s"),
        "import.cavityvdw_s": (imports["cavityvdw"], "s"),
        "config.load_config_s": (per("config.load_config", "total", calls("config.load_config")), "s"),
        "cli.run_self_s": (per("cli.run", "self", calls("cli.run")), "s"),
        "cli.export_s_per_row": (per("cli.export", "total", counts["cli.export.rows"]), "s"),
        "tabular.table_build_s_per_row": (
            per("tabular.table_build", "total", counts["tabular.table_build.rows"]), "s"),
        "planarcavity.scan_rabi_s_per_row": (
            per("planarcavity.scan_rabi", "total", counts["planarcavity.scan_rabi.rows"]), "s"),
        "planarcavity.scenarios_built": (counts["planarcavity.scenarios_built"] / rounds, "count"),
        "planarcavity.rabi_calls": (counts["planarcavity.rabi_calls"] / rounds, "count"),
        "dressed.force_theta_s_per_call": (
            per("dressed.force_theta", "total", calls("dressed.force_theta")), "s"),
        "dressed.grad_rabi_calls": (counts["dressed.grad_rabi_calls"] / rounds, "count"),
        "dressed.from_coupling_calls": (counts["dressed.from_coupling_calls"] / rounds, "count"),
        "weakfield.resonant_potential_s_per_call": (
            per("weakfield.resonant_potential", "total", calls("weakfield.resonant_potential")),
            "s"),
        "greens.scattering_s_per_call": (
            per("greens.scattering", "total", calls("greens.scattering")), "s"),
        "greens.integrand_evals_per_call": (
            evals / calls("greens.scattering") if calls("greens.scattering") else 0.0, "count"),
        "greens.kk_s_per_call": (per("greens.kk", "total", calls("greens.kk")), "s"),
        "greens.kk_func_evals_per_call": (
            kk_evals / calls("greens.kk") if calls("greens.kk") else 0.0, "count"),
        "modecoupling.coupling_strength_sq_s_per_call": (
            per("modecoupling.coupling_strength_sq", "total",
                calls("modecoupling.coupling_strength_sq")), "s"),
        "modecoupling.fit_lorentzian_s": (
            per("modecoupling.fit_lorentzian", "total", calls("modecoupling.fit_lorentzian")), "s"),
        "bench.ref_kernel_s": (median(run.clock.refs), "s"),
        "bench.trace_overhead_s": (overhead, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-modes", "sweep-dense", "green-spectrum"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the kernel must run on the core the operation runs on: the two cores
    # of the reference machine switch between a fast and a half-speed state
    # independently, so the whole benchmark, children included, stays on one
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    locate_program()
    workdir = BENCH / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)

    run = Run(args, workdir)
    ops = run.workloads.build(args.workload, args.seed, workdir / "inputs", ROOT)
    audit: dict = {"nominal_ref_s": run.clock.nominal_s,
                   "nominal_setup_ref_s": run.refkernel.SETUP_REF_NOMINAL_S}

    if args.trace:
        imports = measure_imports(fresh_clock(run.refkernel, run.workloads, workdir),
                                  run.workloads, workdir)
    else:
        setup = measure_setup(run.refkernel, run.workloads, args.workload, args.seed, workdir)
        audit["setup"] = setup

    # closed loop: whole rounds, one operation at a time; another round
    # starts while at least half of it still fits in the run
    rounds = 0
    t0 = time.perf_counter()
    while True:
        run.round(ops, rounds, traced=False)
        if args.trace:
            run.round(ops, rounds, traced=True)
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed * (1.0 + 0.5 / rounds) > args.seconds:
            break

    plain_recs = [r for r in run.records if not r["traced"]]
    audit.update(
        rounds=rounds, ops_per_round=len(ops),
        raw_wall_s=round_time(plain_recs, "raw_s"),
        raw_op_p50_s=median([r["raw_s"] for r in plain_recs]),
        ref_median_s=median(run.clock.refs),
        known_faults=dict(run.known),
    )

    if args.trace:
        audit["imports"] = imports
        traced_recs = [r for r in run.records if r["traced"]]
        overhead = round_time(traced_recs, "s") - round_time(plain_recs, "s")
        metrics = per_layer(run, rounds, overhead, imports["rescaled"])
        with open(workdir / "spans.jsonl", "w") as fh:
            for factor, spans in run.spans_out:
                for name, t_start, t_end, parent in spans:
                    fh.write(json.dumps([name, t_start, t_end, parent, factor]) + "\n")
    else:
        if run.child_rss_kb:
            rss_kb = max(run.child_rss_kb)
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "wall_s": (round_time(plain_recs, "s"), "s"),
            "op_p50_s": (median([r["s"] for r in plain_recs]), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }

    (workdir / "record.json").write_text(json.dumps({"audit": audit, "ops": run.records}, indent=1))
    print(json.dumps({"audit": audit}))
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
