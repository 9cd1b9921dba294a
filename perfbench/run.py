#!/usr/bin/env python3
"""Benchmark for the construct -> write -> read -> verify pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload cli-paper --seed 1 --seconds 40 --trace 0

Workloads (inputs are chosen by rule from --seed, see inputs.py):

    cli-paper    CLI construct + verify of five paper-mode seeds, 18k to 1.45M tail bits
    lib-paper    library construct + verify_certificate: worked example, five
                 pool seeds (1.8k to 15M tail bits) and one 52M-bit seed
    cf-stream    CLI toy construct of 10**6 digits, then ``analyze cf``
    seed-screen  library construct of up to 1000 consecutive seeds under a
                 2**25-bit tail budget

Every CLI command runs in its own child process, one child at a time;
library workloads run in one child after a warm-up pass. Passes repeat
while the measured time fits in --seconds (at least one pass), and each
timing is the median over passes. Outputs are checked outside the timed
region. With --trace 1 the run makes one untraced and one traced pass
and reports per-layer metrics from spans recorded around the library's
public functions (spans.py), plus the tracing overhead.

Peak RSS comes from os.wait4 for each child. A forked child's peak
starts at its parent's RSS, so this process never imports abnormal_forge
or other large modules: library work for input selection and reference
values runs in helper children (child.py reference), and output values
are checked after the last timed child.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (setup_s, wall_s and
peak_rss_mib, or with --trace 1 the per-layer metrics); the lines before
it list every metric with its unit, the soundness probes and the input
sizes. BENCHMARK.json gates cli-paper and lib-paper only: on a shared
2-core machine the other two spread too widely from run to run.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import zlib
from pathlib import Path

import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

CHILD_MEMORY = 3 << 30      # address-space cap for every child, bytes
PROBE_MEMORY = 1 << 30      # tighter cap for the soundness probes
CHILD_TIMEOUT = 120.0
PROBE_TIMEOUT = 60.0
SETUP_SAMPLES = 8

WORKLOADS = ("cli-paper", "lib-paper", "cf-stream", "seed-screen")
# The end-to-end metrics of the JSON result; BENCHMARK.json gates them on
# cli-paper and lib-paper. The other metrics are printed above the result.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}

# Default-seed pins for cli-paper: (sampler seed, prime, exponent) per band.
CLI_PAPER_PINS = {1: [(1, 179, 135), (11, 1171, 292), (15, 523, 453),
                      (9, 827, 773), (36, 4133, 1205)]}
# Default-seed pins for seed-screen: accepted seeds, distinct primes and
# the CRC-32 of the accepted (seed, prime, exponent) list.
SCREEN_PINS = {1: (654, 316, "0xd2c5d3d2")}


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


class Outcome:
    def __init__(self, code: int | None, wall_s: float, stdout: Path,
                 stderr: Path):
        self.code = code          # None: killed after the timeout
        self.wall_s = wall_s
        self.stdout = stdout
        self.stderr = stderr

    def json(self):
        return load_json(self.stdout) if self.code == 0 else None

    def traceback(self) -> bool:
        return "Traceback (most recent call last)" in self.stderr.read_text(
            encoding="utf-8", errors="replace")


def load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def first_block(cert_path: Path) -> dict | None:
    try:
        return load_json(cert_path)["blocks"][0]
    except (TypeError, KeyError, IndexError):
        return None


def decimal_value(text: str) -> int:
    """int(text) by halving, since CPython 3.11's int() is quadratic in length."""
    if len(text) <= 3000:
        return int(text)
    half = len(text) // 2
    return decimal_value(text[:-half]) * 10**half + decimal_value(text[-half:])


class Bench:
    """One benchmark run: its work directory, children and check tallies."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool,
                 workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.env = dict(os.environ, SOURCE_DATE_EPOCH="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_mib = 0.0
        self.parent_mib = 0.0
        self.setup_walls: list[float] = []
        self._children = 0

    def child(self, argv: list[str], *, memory: int = CHILD_MEMORY,
              timeout: float = CHILD_TIMEOUT, workload_step: bool = True
              ) -> Outcome:
        """Run one child to completion; take its peak RSS from os.wait4.

        Only workload steps count towards peak_rss_mib; for them the
        parent's own RSS, the floor of a forked child's figure, is kept.
        """
        self._children += 1
        stdout = self.workdir / f"child-{self._children}.out"
        stderr = self.workdir / f"child-{self._children}.err"

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

        if workload_step:
            self.parent_mib = max(self.parent_mib,
                                  _rss_mib(resource.RUSAGE_SELF))
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, env=self.env,
                                    cwd=self.workdir, preexec_fn=cap_memory)
            waited = None
            previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                waited = os.wait4(proc.pid, 0)
            except ChildTimeout:
                pass
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            timed_out = waited is None
            if timed_out:
                proc.kill()
                waited = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(waited[1])
        if workload_step:
            self.peak_mib = max(self.peak_mib, waited[2].ru_maxrss / 1024.0)
        return Outcome(None if timed_out else proc.returncode, wall,
                       stdout, stderr)

    def cli(self, args: list[str], trace_path: Path | None = None,
            **kwargs) -> Outcome:
        if trace_path is None:
            argv = [sys.executable, "-m", "abnormal_forge.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "child.py"), "cli",
                    "--trace", str(trace_path), "--", *args]
        return self.child(argv, **kwargs)

    def sample_setup(self, count: int) -> None:
        """Time children that only import the CLI module.

        Samples are taken before and after the workload, so that they
        span the run rather than one stretch of machine load.
        """
        argv = [sys.executable, "-c", "import abnormal_forge.cli"]
        if not self.setup_walls:
            self.child(argv, workload_step=False)   # compiles bytecode once
        for _ in range(count):
            outcome = self.child(argv, workload_step=False)
            self.operation(outcome.code == 0, "import abnormal_forge.cli")
            self.setup_walls.append(outcome.wall_s)

    def reference(self, digits: Path | None = None) -> dict:
        """Inputs and reference values from a helper child (child.py reference)."""
        out = self.workdir / "reference.json"
        argv = [sys.executable, str(HERE / "child.py"), "reference",
                self.workload, str(self.seed), str(out)]
        outcome = self.child(argv + ([str(digits)] if digits else []),
                             workload_step=False)
        if outcome.code != 0:
            raise RuntimeError(f"reference child for {self.workload} exited "
                               f"{outcome.code}: {outcome.stderr.read_text()}")
        return load_json(out)

    def operation(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


# -- CLI workloads ----------------------------------------------------------

def measure_cli(bench: Bench, steps, outputs: list[Path]):
    """Run the steps as passes of one child per step.

    steps: [(kind, args)], kind naming the timing it adds to. After each
    pass, outside its timing, the output files are compared byte for
    byte with the first pass's (runs are deterministic under
    SOURCE_DATE_EPOCH), so that only the last pass's values need
    checking. Returns (untraced pass timings, per-pass outcomes, per-pass
    "outputs repeat" flags, traced pass or {}).
    """
    passes, outcomes, repeats = [], [], []

    def one_pass(traced: bool) -> dict:
        timings = {"wall_s": 0.0, "construct_s": 0.0, "verify_s": 0.0,
                   "analyze_s": 0.0}
        ran, traces = [], []
        started = time.perf_counter()
        for index, (kind, args) in enumerate(steps):
            trace_path = bench.workdir / f"trace-{index}.json" if traced else None
            outcome = bench.cli(args, trace_path)
            timings[f"{kind}_s"] += outcome.wall_s
            ran.append(outcome)
            traces.append(trace_path)
        timings["wall_s"] = time.perf_counter() - started
        same = True
        for path in outputs:
            first = path.with_name("first-" + path.name)
            if not outcomes and path.exists():
                shutil.copyfile(path, first)
            same = same and path.exists() and first.exists() and filecmp.cmp(
                path, first, shallow=False)
        outcomes.append(ran)
        repeats.append(same)
        if not traced:
            passes.append(timings)
        return {"wall_s": timings["wall_s"], "files": traces}

    if bench.trace:
        one_pass(False)
        return passes, outcomes, repeats, one_pass(True)
    while not passes or (sum(p["wall_s"] for p in passes)
                         + median(p["wall_s"] for p in passes)
                         <= bench.seconds):
        one_pass(False)
    return passes, outcomes, repeats, {}


def cli_paper(bench: Bench) -> dict:
    picks = bench.reference()["picks"]
    chosen = [(p["seed"], p["prime"], p["exponent"]) for p in picks]
    pins = CLI_PAPER_PINS.get(bench.seed)
    bench.require(pins is None or chosen == pins,
                  f"cli-paper pins {chosen} != {pins}")
    steps, outputs = [], []
    for pick in picks:
        s = pick["seed"]
        digits, cert = f"paper-{s}.cf", f"paper-{s}.json"
        steps.append(("construct", ["construct", "--seed-rng", str(s),
                                    "--block-size", str(pick["block_size"]),
                                    "--blocks", "1", "--mode", "paper",
                                    "--out-digits", digits,
                                    "--out-cert", cert]))
        steps.append(("verify", ["verify", "--cert", cert, "--digits", digits]))
        outputs += [bench.workdir / digits, bench.workdir / cert]
    passes, outcomes, repeats, traced = measure_cli(bench, steps, outputs)

    # Values of the last pass's files, which every pass reproduced.
    matches = {}
    for pick in picks:
        block = first_block(bench.workdir / f"paper-{pick['seed']}.json")
        library = pick["library"]
        matches[pick["seed"]] = block is not None and (
            (int(block["prime"]), int(block["exponent"]))
            == (library["prime"], library["exponent"])
            == (pick["prime"], pick["exponent"])
            and decimal_value(block["inserted"][3])
            == int(library["tail_hex"], 16))
    for ran, same in zip(outcomes, repeats):
        for pick, made, checked in zip(picks, ran[::2], ran[1::2]):
            s = pick["seed"]
            ok = made.code == 0 and same and matches[s]
            bench.operation(ok, f"construct seed {s}: exit {made.code}, "
                                f"certificate matches the library: {ok}")
            report = checked.json()
            verdict = (isinstance(report, dict)
                       and report.get("all_passed") is True
                       and all(b["passed"] and b["tail_bound_met"]
                               for b in report.get("blocks", [])))
            bench.operation(verdict, f"verify seed {s}: exit {checked.code}, "
                                     f"all passed: {verdict}")
    tail_bits = [p["exponent"] ** 2 + 1 for p in picks]
    result = {"passes": passes, "traced": traced,
              "output_bytes": sum(p.stat().st_size for p in outputs
                                  if p.exists()),
              "input": {"seeds": [p["seed"] for p in picks],
                        "block_sizes": [p["block_size"] for p in picks],
                        "tail_bits": tail_bits,
                        "total_tail_bits": sum(tail_bits)}}
    if not bench.trace:
        result["probes"] = soundness_probes(bench)
    return result


def soundness_probes(bench: Bench) -> dict[str, bool]:
    """Hostile inputs, each in a capped child; True when the CLI contract held."""
    (bench.workdir / "worked-seed.cf").write_text("1\n2\n3\n1\n",
                                                  encoding="utf-8")
    made = bench.cli(["construct", "--seed-file", "worked-seed.cf",
                      "--block-size", "4", "--blocks", "1", "--mode", "paper",
                      "--out-digits", "worked.cf", "--out-cert", "worked.json"],
                     workload_step=False)
    payload = load_json(bench.workdir / "worked.json")
    if made.code != 0 or payload is None:
        bench.require(False, f"worked example construct: exit {made.code}")
        return {}

    def verify_mutated(name: str, mutate) -> Outcome:
        mutated = json.loads(json.dumps(payload))
        mutate(mutated["blocks"][0])
        (bench.workdir / f"{name}.json").write_text(json.dumps(mutated),
                                                    encoding="utf-8")
        return bench.cli(["verify", "--cert", f"{name}.json",
                          "--digits", "worked.cf"],
                         memory=PROBE_MEMORY, timeout=PROBE_TIMEOUT,
                         workload_step=False)

    def tamper(block):
        block["inserted"][0] = str(int(block["inserted"][0]) + 1)

    def relabel(block):
        block.update(base="8", exponent="5", digit_bound="5")

    def huge_index(block):
        block["index"] = 10**12

    probes = {
        "tampered_insert": (verify_mutated("tampered", tamper), {1}),
        "relabelled_base": (verify_mutated("relabelled", relabel), {1}),
        "huge_index": (verify_mutated("huge-index", huge_index), {1, 2}),
        "unbounded_power": (bench.cli(
            ["construct", "--seed-rng", "14", "--block-size", "10",
             "--blocks", "1", "--mode", "paper",
             "--out-digits", "power.cf", "--out-cert", "power.json"],
            memory=PROBE_MEMORY, timeout=PROBE_TIMEOUT, workload_step=False),
            {3}),
    }
    held = {name: outcome.code in codes and not outcome.traceback()
            for name, (outcome, codes) in probes.items()}
    # Rejecting a tampered certificate is an output check of verify.
    bench.operation(held["tampered_insert"],
                    "verify did not reject a certificate with a tampered insert")
    return held


def cf_stream(bench: Bench) -> dict:
    total = inputs.CF_STREAM_DIGITS
    sampler_seed = inputs.stream_seed(bench.seed)
    digits, cert = bench.workdir / "stream.cf", bench.workdir / "stream.json"
    steps = [("construct", ["construct", "--seed-rng", str(sampler_seed),
                            "--block-size", "4", "--blocks", "1",
                            "--mode", "toy", "--total-digits", str(total),
                            "--out-digits", digits.name,
                            "--out-cert", cert.name]),
             ("analyze", ["analyze", "cf", "--digits", digits.name,
                          "--strings", inputs.CF_STREAM_PATTERNS,
                          "--prefix", str(total)])]
    passes, outcomes, repeats, traced = measure_cli(bench, steps,
                                                    [digits, cert])

    # Values of the last pass's files, which every pass reproduced.
    reference = bench.reference(digits if digits.exists() else None)
    block = first_block(cert)
    stream_ok = (reference["file_matches"] and block is not None
                 and [decimal_value(v) for v in block["inserted"]]
                 == reference["inserted"])
    counts = {tuple(pattern): count for pattern, count in reference["counts"]}
    measures = {tuple(pattern): value
                for pattern, value in reference["references"]}

    def record_ok(r) -> bool:
        key = tuple(r["string"])
        ratio = counts.get(key, -1) / total
        return (key in counts and r["count"] == counts[key]
                and r["prefix"] == total
                and abs(r["ratio"] - ratio) < 1e-12
                and abs(r["reference"] - measures[key]) < 1e-9
                and abs(r["discrepancy"] - abs(ratio - measures[key])) < 1e-9
                and r["discrepancy"] < 0.01)

    for (made, analyzed), same in zip(outcomes, repeats):
        ok = made.code == 0 and same and stream_ok
        bench.operation(ok, f"toy construct: exit {made.code}, "
                            f"stream matches the sampler: {ok}")
        records = analyzed.json()
        agree = (isinstance(records, list) and len(records) == len(counts)
                 and all(record_ok(r) for r in records))
        bench.operation(agree, f"analyze cf: exit {analyzed.code}, "
                               f"statistics match the reference: {agree}")
    return {"passes": passes, "traced": traced,
            "output_bytes": sum(p.stat().st_size for p in (digits, cert)
                                if p.exists()),
            "input": {"sampler_seed": sampler_seed, "digits": total,
                      "patterns": inputs.CF_STREAM_PATTERNS}}


# -- library workloads ------------------------------------------------------

def run_lib_child(bench: Bench, job: dict) -> dict:
    """Run a library workload in one child; empty passes if it failed."""
    trace_path = bench.workdir / "trace-lib.json"
    job = dict(job, workload=bench.workload,
               seconds=0 if bench.trace else bench.seconds,
               trace_path=str(trace_path) if bench.trace else None)
    job_path = bench.workdir / "job.json"
    out_path = bench.workdir / "lib-out.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    outcome = bench.child([sys.executable, str(HERE / "child.py"), "lib",
                           str(job_path), str(out_path)])
    out = load_json(out_path) if outcome.code == 0 else None
    bench.require(out is not None,
                  f"{bench.workload} child: exit {outcome.code}")
    out = out or {"passes": [], "traced": None}
    out["checked"] = out["passes"] + ([out["traced"]] if out["traced"] else [])
    out["trace"] = ({"wall_s": out["traced"]["wall_s"], "files": [trace_path]}
                    if out["traced"] else {})
    return out


def lib_paper(bench: Bench) -> dict:
    job = bench.reference()
    picks = job["pool"] + [job["heavy"]]
    expected = {p["seed"]: p for p in picks}
    out = run_lib_child(bench, job)
    for one in out["checked"]:
        for got in one["jobs"]:
            label = got["label"]
            ok = got["passed"] and got["tail_bound_met"]
            if label == "worked":
                ok = ok and (got["inserted"] == ["1", "2", "555"]
                             and int(got["tail"]) == 2**225 + 1
                             and got["denoms_after"][2] == str(2**15))
            else:
                pick = expected[label]
                ok = ok and ((int(got["prime"]), int(got["exponent"]))
                             == (pick["prime"], pick["exponent"])
                             and got["tail_bits"] == pick["exponent"] ** 2 + 1)
            bench.operation(ok, f"construct + verify of {label}: {got}")
    tail_bits = [p["exponent"] ** 2 + 1 for p in picks]
    return {"passes": out["passes"], "traced": out["trace"],
            "input": {"worked": job["worked"],
                      "seeds": [p["seed"] for p in picks],
                      "tail_bits": tail_bits,
                      "total_tail_bits": sum(tail_bits)}}


def seed_screen(bench: Bench) -> dict:
    job = bench.reference()
    out = run_lib_child(bench, job)
    for one in out["checked"]:
        for seed_value, cause in one["aborted"]:
            bench.operation(cause == "ResourceBudgetExceeded",
                            f"seed {seed_value} aborted with {cause}")
        for record in one["accepted"]:
            bench.operation(_screen_record_ok(record, job["tail_bits"]),
                            f"seed {record['seed']}: inconsistent certificate")
        bench.require(
            len(one["accepted"]) + len(one["aborted"]) == len(job["seeds"]),
            "seed-screen lost seeds")
    summary = {}
    if out["checked"]:
        accepted = out["checked"][0]["accepted"]
        listing = [(r["seed"], r["prime"], r["exponent"]) for r in accepted]
        summary = {"accepted": len(accepted),
                   "distinct_primes": len({r["prime"] for r in accepted}),
                   "crc32": hex(zlib.crc32(json.dumps(listing).encode()))}
        pins = SCREEN_PINS.get(bench.seed)
        got = (summary["accepted"], summary["distinct_primes"], summary["crc32"])
        bench.require(pins is None or got == pins,
                      f"seed-screen pins {got} != {pins}")
    return {"passes": out["passes"], "traced": out["trace"],
            "input": dict(summary, first_seed=job["first_seed"],
                          seeds=inputs.SCREEN_SEEDS,
                          screened=len(job["seeds"]),
                          excluded=job["excluded"])}


def _screen_record_ok(record: dict, tail_bits: int) -> bool:
    """Recheck one accepted certificate's arithmetic from its own values."""
    ell1, ell2, ell3 = (int(v) for v in record["inserted"])
    q_prev, q_cur = (int(v) for v in record["denoms_before"])
    q1, q2, q3 = (int(v) for v in record["denoms_after"])
    prime, k = int(record["prime"]), int(record["exponent"])
    return (q1 == ell1 * q_cur + q_prev and q2 == ell2 * q1 + q_cur
            and q3 == ell3 * q2 + q1 and q2 == prime and q3 == 1 << k
            and pow(2, prime - 1, prime) == 1 and q1 % 2 == 1
            and k * k <= tail_bits and record["tail_bits"] == k * k + 1)


RUNNERS = {"cli-paper": cli_paper, "lib-paper": lib_paper,
           "cf-stream": cf_stream, "seed-screen": seed_screen}


# -- reporting --------------------------------------------------------------

def per_layer(result: dict) -> dict[str, tuple[float, str]]:
    traced = result["traced"]
    files = [f for f in traced.get("files", []) if f and f.exists()]
    units = {name: unit for name, unit, _better, _how in spans.PER_LAYER}
    report = {name: (value, units[name]) for name, value
              in spans.summarize(spans.load(files)).items()}
    untraced = result["passes"][0]["wall_s"]
    report["trace.overhead_s"] = (traced.get("wall_s", untraced) - untraced, "s")
    return report


def end_to_end(bench: Bench, result: dict, setup: float):
    """Result metrics (END_TO_END) and the workload's other end-to-end metrics."""
    passes = result["passes"]
    gated = {"setup_s": setup,
             "wall_s": median(p["wall_s"] for p in passes),
             "peak_rss_mib": bench.peak_mib}
    extra = {"construct_s": (median(p["construct_s"] for p in passes), "s")}
    if bench.workload in ("cli-paper", "lib-paper"):
        extra["verify_s"] = (median(p["verify_s"] for p in passes), "s")
    if bench.workload == "cf-stream":
        extra["analyze_s"] = (median(p["analyze_s"] for p in passes), "s")
    if "output_bytes" in result:
        extra["output_bytes"] = (result["output_bytes"], "B")
    extra["error_rate"] = (bench.failed / max(bench.attempted, 1), "ratio")
    if "probes" in result:
        broken = [name for name, held in result["probes"].items() if not held]
        extra["soundness_failed"] = (len(broken), "count")
        extra["soundness_failed_probes"] = (", ".join(broken) or "none", "")
    return ({name: (value, END_TO_END[name]) for name, value in gated.items()},
            extra)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="abnormal-forge pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.set_int_max_str_digits(0)   # certificate values can be long
    if args.seed < 1 or args.seconds < 1:
        parser.error("--seed and --seconds must be >= 1")
    if not (SRC / "abnormal_forge" / "cli.py").is_file():
        print(f"error: no abnormal_forge sources under {SRC}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace),
                      workdir)
        if not args.trace:
            bench.sample_setup(SETUP_SAMPLES // 2)
        result = RUNNERS[args.workload](bench)
        bench.require(bool(result["passes"]), "no pass completed")
        metrics, extra = {}, {}
        if result["passes"] and args.trace:
            metrics = per_layer(result)
        elif result["passes"]:
            bench.sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
            metrics, extra = end_to_end(bench, result, median(bench.setup_walls))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass    # another run still uses it

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(result['passes'])}  python {sys.version.split()[0]}  "
          f"nproc {os.cpu_count()}  parent_rss_mib {bench.parent_mib}")
    print("input " + json.dumps(result["input"]))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<44} {value} {unit}")
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems and bool(metrics),
        "attempted": max(bench.attempted, 1), "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
