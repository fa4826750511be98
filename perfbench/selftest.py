"""Self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

For each workload, untraced and traced, it checks that every end-to-end and
per-layer metric is printed with its unit and that no command fails on the
current code; then it shows that a deliberately wrong expected count makes
that workload's output check fail. Takes about a minute.
"""

import contextlib
import dataclasses
import io
import json
import sys
from collections import Counter

import run

SIZES = {"registry-annex": 2000, "registry-dirty": 2000, "genomic-annex": 2}
SEED = 3


def _wrong_check(name: str, w):
    """An output check for the workload's first command with one count off by one."""
    import oracle
    from episurv.fixtures import smoke_epi_spec

    if name == "registry-annex":
        marg = oracle.marginals(smoke_epi_spec(w.rows, SEED))
        marg["class_sex"][3, "female"] += 1
        return oracle.check_t1(marg)
    if name == "registry-dirty":
        reasons = Counter(w.extra["defects"])
        reasons["BadDate"] += 1
        return oracle.check_validate(w.rows, w.nbytes, reasons)
    preset = json.loads(run.ROOT.joinpath("src/episurv/presets/annex_gisaid.json").read_text("utf-8"))
    return oracle.check_g3(oracle.GenomicExpect.from_preset(preset, w.extra["copies"] + 1))


def main() -> int:
    cli = run.Cli()
    problems = []
    try:
        for name, size in SIZES.items():
            for traced, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
                printed = io.StringIO()
                with contextlib.redirect_stdout(printed):
                    result = run.run_workload(cli, name, SEED, 0.5, traced, size)
                lines = {ln.split(" ")[0]: ln.split(" ") for ln in printed.getvalue().splitlines()}
                for metric, unit in {**units, "fail_ratio": "ratio"}.items():
                    if metric not in lines or lines[metric][2] != unit:
                        problems.append(f"{name} trace={int(traced)}: {metric} not printed with unit {unit}")
                if float(lines["fail_ratio"][1]) != 0 or not result["correct"]:
                    problems.append(f"{name} trace={int(traced)}: fail_ratio is {lines['fail_ratio'][1]}")
                if set(result["metrics"]) != set(units):
                    problems.append(f"{name} trace={int(traced)}: result metrics differ from the list")

            from workloads import WORKLOADS
            w = WORKLOADS[name](SEED, run.WORKDIR, size)
            outcomes = run.Outcomes()
            with contextlib.redirect_stderr(io.StringIO()):
                run._run_step(cli, w, dataclasses.replace(w.steps[0], check=_wrong_check(name, w)), outcomes)
            if outcomes.failed != 1:
                problems.append(f"{name}: a wrong expected count did not fail {w.steps[0].name}")
    finally:
        cli.close()
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
