"""episurv benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src`` directory and nothing is installed. Inputs, outputs, spans
and the run record go to ``perfbench/.work``.

Workloads (see BENCHMARK.json for why each was chosen):
  registry-annex  clean smoke registry; nine case-table commands
  registry-dirty  same shape, a quarter of rows defective; validate and a
                  cohort-filtered national metrics table
  genomic-annex   annex-gisaid joined over 40 seeds; five variant tables
  all             each of the above in turn, with a combined last line

The load is a closed loop with one client: every command runs in a fresh
``python -m episurv.cli`` process, one after the other, and whole passes over
the workload's command list repeat until ``--seconds`` have passed. Every
output is checked against expectations computed without the code under test
(oracle.py); a command fails if it exits non-zero, prints a traceback, or
fails its check.

--trace 0 reports the end-to-end metrics:
  rows_per_s   input rows x commands run / summed command wall time
  peak_rss_mb  largest peak RSS of any one command (os.wait4 per child)
  setup_s      median time to write the inputs through episurv.fixtures
setup_s is the median of five set-ups in the run. fail_ratio (failed /
attempted commands) is printed on the summary lines; it is 0 on correct
code, so instead of a bounded metric it rides in the result's "attempted"
and "failed" fields.

--trace 1 reports the per-layer metrics (PER_LAYER below). For half of
--seconds it repeats passes in which each command runs through the CLI and
then in-process through the library, untraced and traced, back to back. A
layer-isolation phase follows. Busy times are self times: a span's duration
minus its child spans. Pass metrics cover one pass over the command list
(median over passes); ingest.csv_floor_s and ingest.sveerv.reject_busy_s
cover the bytes one pass reads; metrics.fold and the genomics lookups cover
one sweep over the input. Layers a workload never calls report 0. Spans go
to perfbench/.work/spans-<workload>-<seed>.jsonl.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = Path(__file__).resolve().parent / ".work"
CMD_TIMEOUT_S = 60
STARTUP_RUNS = 5
WORKLOAD_NAMES = ("registry-annex", "registry-dirty", "genomic-annex")
TRACEBACK = b"Traceback (most recent call last)"

END_TO_END = {"rows_per_s": "rows/s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "ingest.sveerv.busy_s": "s",
    "ingest.sveerv.rows_per_s": "rows/s",
    "ingest.sveerv.reject_ratio": "ratio",
    "ingest.sveerv.reject_busy_s": "s",
    "ingest.csv_floor_s": "s",
    "ingest.gisaid.busy_s": "s",
    "ingest.gisaid.rows_per_s": "rows/s",
    "metrics.fold.busy_s": "s",
    "metrics.tally.busy_s": "s",
    "metrics.comorbidity.busy_s": "s",
    "metrics.stratified.busy_s": "s",
    "metrics.strata": "count",
    "genomics.classify.busy_s": "s",
    "genomics.distinct_lineage_ratio": "ratio",
    "genomics.bucket_status.busy_s": "s",
    "genomics.tables.busy_s": "s",
    "genomics.samples_resident_mb": "MB",
    "report.render.busy_s": "s",
    "report.bytes_out": "bytes",
    "fixtures.generate.rows_per_s": "rows/s",
    "cli.startup_s": "s",
    "cli.cpu_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_pct": "%",
}

# Peak RSS of materialising every sample, measured in a fresh interpreter.
_RESIDENT_PROBE = """\
import resource, sys
from episurv.ingest import ingest_gisaid
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
samples = list(ingest_gisaid(sys.argv[1]).records())
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) / 1024)
"""


class Cli:
    """Runs ``python -m episurv.cli`` in a fresh process per command, through
    the launcher (see launcher.py for why the benchmark does not spawn them)."""

    def __init__(self):
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
        self._launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def run(self, argv, stdout_path, stderr_path, module=("-m", "episurv.cli")) -> dict:
        """Returns the launcher's reply: wall_s, maxrss_kb, cpu_s and code."""
        request = {"argv": [sys.executable, *module, *argv], "stdout": str(stdout_path),
                   "stderr": str(stderr_path), "env": self.env, "cwd": str(ROOT)}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the command launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        self._launcher.stdin.close()
        try:
            self._launcher.wait(timeout=CMD_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self._launcher.kill()
            self._launcher.wait()
        self._launcher.stdout.close()


class Outcomes:
    """Attempted and failed commands, with each step's verified output digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.verified: dict[str, bytes] = {}

    def record(self, label: str, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if self.failed <= 5:
                sys.stderr.write(f"perfbench: {label} failed: {error}\n")
        return error is None

    def check(self, step, code: int, out: bytes, err: bytes) -> str | None:
        if code != 0:
            return f"exit code {code}: {err.decode('utf-8', 'replace').strip()[-200:]}"
        if TRACEBACK in err:
            return "traceback on stderr"
        digest = hashlib.blake2b(out).digest()
        if self.verified.get(step.name) == digest:
            return None
        error = step.check(out)
        if error is None:
            self.verified[step.name] = digest
        return error


def _run_step(cli, w, step, outcomes):
    out_path = WORKDIR / f"{w.name}.{step.name}.out"
    err_path = WORKDIR / f"{w.name}.{step.name}.err"
    ran = cli.run(step.argv, out_path, err_path)
    out = out_path.read_bytes()
    outcomes.record(f"{w.name} {step.name}",
                    outcomes.check(step, ran["code"], out, err_path.read_bytes()))
    return ran, out


def _past_deadline(start: float, passes: int, seconds: float) -> bool:
    """Whole passes only: stop once another pass would end more than half a
    pass after the deadline, so runs last ``seconds`` give or take half a pass."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / passes / 2 >= seconds


def measure(w, seconds: float, cli: Cli, outcomes: Outcomes) -> dict:
    walls = {step.name: [] for step in w.steps}
    peak_kb, passes = 0, 0
    start = perf_counter()
    while passes == 0 or not _past_deadline(start, passes, seconds):
        for step in w.steps:
            ran, _ = _run_step(cli, w, step, outcomes)
            walls[step.name].append(ran["wall_s"])
            peak_kb = max(peak_kb, ran["maxrss_kb"])
        passes += 1
    return {
        "rows_per_s": w.rows * passes * len(walls) / sum(map(sum, walls.values())),
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": statistics.median(w.setup_s),
        "_passes": passes,
        "_walls": walls,
    }


def _pass_metrics(t, run_id) -> dict:
    busy = t.self_times(run_id)
    counts = t.counts[run_id]
    ratio = lambda a, b: a / b if b else 0.0
    return {
        "ingest.sveerv.busy_s": busy["ingest.sveerv"],
        "ingest.sveerv.rows_per_s": ratio(counts["ingest.sveerv.rows"], busy["ingest.sveerv"]),
        "ingest.sveerv.reject_ratio": ratio(counts["ingest.sveerv.rejected"], counts["ingest.sveerv.rows"]),
        "ingest.gisaid.busy_s": busy["ingest.gisaid"],
        "ingest.gisaid.rows_per_s": ratio(counts["ingest.gisaid.rows"], busy["ingest.gisaid"]),
        "metrics.tally.busy_s": busy["metrics.tally"],
        "metrics.comorbidity.busy_s": busy["metrics.comorbidity"],
        "metrics.stratified.busy_s": busy["metrics.stratified"],
        "metrics.strata": counts["metrics.strata"],
        "genomics.tables.busy_s": busy["genomics.tables"],
        "report.render.busy_s": busy["report.render"],
        "report.bytes_out": counts["report.bytes_out"],
    }


def _median_dict(dicts: list[dict]) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def _traced_twin(t, step):
    with t.span(f"command:{step.name}"):
        return step.inproc(t)


def trace(w, seconds: float, cli: Cli, outcomes: Outcomes, seed: int) -> dict:
    from spans import NullTracer, Tracer
    from workloads import isolate

    t, null = Tracer(), NullTracer()
    untraced, traced, per_pass = [], [], []
    start = perf_counter()
    while not traced or not _past_deadline(start, len(traced), seconds / 2):
        # Each command runs through the CLI, then in-process untraced and
        # traced (in alternating order), so that cli.overhead_s and
        # trace.overhead_pct compare neighbouring runs on a drifting machine.
        t.run_id = f"pass-{len(traced)}"
        cli_wall = cli_cpu = plain = 0.0
        for i, step in enumerate(w.steps):
            ran, cli_out = _run_step(cli, w, step, outcomes)
            cli_wall += ran["wall_s"]
            cli_cpu += ran["cpu_s"]
            if i % 2:
                out = _traced_twin(t, step)
            began = perf_counter()
            step.inproc(null)
            plain += perf_counter() - began
            if not i % 2:
                out = _traced_twin(t, step)
            if out is not None:
                outcomes.record(f"{w.name} {step.name} in-process",
                                None if out == cli_out else "differs from the CLI's output")
        untraced.append(plain)
        traced.append(t.duration(t.run_id))
        per_pass.append({**_pass_metrics(t, t.run_id), "cli.cpu_s": cli_cpu,
                         "cli.overhead_s": cli_wall - traced[-1]})

    t.run_id = "isolation"
    with t.span("isolation"):
        isolate(t, w)
    iso, iso_counts = t.self_times("isolation"), t.counts["isolation"]

    startup = []
    for _ in range(STARTUP_RUNS):
        ran = cli.run(["--help"], WORKDIR / "help.out", WORKDIR / "help.err")
        outcomes.record("episurv --help", None if ran["code"] == 0 else f"exit code {ran['code']}")
        startup.append(ran["wall_s"])

    resident = 0.0
    if w.kind == "gisaid":
        probe_out = WORKDIR / "resident.out"
        code = cli.run([str(w.path)], probe_out, WORKDIR / "resident.err",
                       module=("-c", _RESIDENT_PROBE))["code"]
        if outcomes.record("resident-samples probe", None if code == 0 else f"exit code {code}"):
            resident = float(probe_out.read_text())

    t.dump(WORKDIR / f"spans-{w.name}-{seed}.jsonl")
    metrics = _median_dict(per_pass)
    samples = iso_counts["genomics.samples"]
    metrics.update({
        "ingest.sveerv.reject_busy_s": t.duration("isolation", "ingest.sveerv.reject"),
        "ingest.csv_floor_s": iso["ingest.csv_floor"],
        "metrics.fold.busy_s": iso["metrics.fold"],
        "genomics.classify.busy_s": iso["genomics.classify"],
        "genomics.distinct_lineage_ratio":
            iso_counts["genomics.distinct_lineages"] / samples if samples else 0.0,
        "genomics.bucket_status.busy_s": iso["genomics.bucket_status"],
        "genomics.samples_resident_mb": resident,
        "fixtures.generate.rows_per_s": w.rows / statistics.median(w.setup_s),
        "cli.startup_s": statistics.median(startup),
        "trace.overhead_pct":
            (statistics.median(traced) - statistics.median(untraced)) / statistics.median(untraced) * 100,
        "_passes": len(traced),
    })
    return metrics


def run_workload(cli: Cli, name: str, seed: int, seconds: float, traced: bool,
                 size: int | None = None) -> dict:
    """Set up, run and check one workload; returns the result object.

    ``size`` overrides the workload's input size (registry rows or genomic
    seed count) for quick self-tests.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    WORKDIR.mkdir(parents=True, exist_ok=True)
    make = WORKLOADS[name]
    w = make(seed, WORKDIR) if size is None else make(seed, WORKDIR, size)
    outcomes = Outcomes()
    cli.run(["--help"], WORKDIR / "help.out", WORKDIR / "help.err")  # compile bytecode untimed
    if traced:
        values, units = trace(w, seconds, cli, outcomes, seed), PER_LAYER
    else:
        values, units = measure(w, seconds, cli, outcomes), END_TO_END
    passes = values.pop("_passes")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "input": w.path.name, "input_rows": w.rows,
        "input_bytes": w.nbytes, "passes": passes, **w.extra,
    }
    detail = {"setup_s": w.setup_s, "command_wall_s": values.pop("_walls", None)}
    (WORKDIR / f"record-{name}-{seed}-{int(traced)}.json").write_text(
        json.dumps({**record, **detail}, indent=1))
    print("# " + ", ".join(f"{k}={v}" for k, v in record.items()))
    fail_ratio = outcomes.failed / outcomes.attempted
    print(f"fail_ratio {fail_ratio} ratio ({outcomes.failed} of {outcomes.attempted} commands)")
    for key, unit in units.items():
        print(f"{key} {values[key]} {unit}")
    return {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "episurv" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no episurv sources under {SRC}; run inside a checkout\n")
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    cli = Cli()  # before the inputs and the library are loaded: see launcher.py
    results = {}
    try:
        for name in names:
            results[name] = run_workload(cli, name, args.seed, args.seconds, bool(args.trace))
            if len(names) > 1:
                print(json.dumps({name: results[name]}))
    finally:
        cli.close()
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
