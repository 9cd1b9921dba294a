"""Child process for the benchmark; run.py starts it, one at a time.

``child.py cli [--trace SPANS] -- ARGS...`` runs ``abnormal_forge.cli.main``
on ARGS, with span wrappers installed when ``--trace`` is given.

``child.py reference WORKLOAD SEED OUT [DIGITS]`` writes the inputs that
inputs.py selects for a workload seed, with the reference values the
checks need.

``child.py lib JOB OUT`` runs a library workload described by the JSON
file JOB: one warm-up pass, then timed passes, then (if the job asks for
it) one more pass with span wrappers installed. It writes per-pass
timings and per-job summaries to OUT for run.py to check.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import inputs
import spans


def run_cli(argv: list[str], trace_path: str | None) -> int:
    tracer = None
    if trace_path:
        tracer = spans.Tracer()
        spans.install(tracer)
    import abnormal_forge.cli as cli
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


def _summary(cert) -> dict:
    """The certificate's values, with the tail reduced to its bit length."""
    return {"prime": str(cert.prime), "exponent": str(cert.exponent),
            "inserted": [str(v) for v in cert.inserted[:3]],
            "tail_bits": cert.inserted[3].bit_length(),
            "denoms_before": [str(v) for v in cert.denoms_before],
            "denoms_after": [str(v) for v in cert.denoms_after]}


def lib_paper_pass(job: dict) -> dict:
    from abnormal_forge import construction, seed
    paper = construction.Mode.parse("paper")
    runs = [("worked", seed.ListDigitSource(job["worked"]), len(job["worked"]),
             construction.SearchBudget(), job["heavy_window"])]
    for pick in job["pool"]:
        runs.append((pick["seed"], seed.RngDigitSource(pick["seed"]),
                     pick["block_size"],
                     construction.SearchBudget(tail_bits=job["pool_tail_bits"]),
                     job["pool_window"]))
    heavy = job["heavy"]
    runs.append((heavy["seed"], seed.RngDigitSource(heavy["seed"]),
                 heavy["block_size"], construction.SearchBudget(),
                 job["heavy_window"]))
    construct_s = verify_s = 0.0
    results = []
    started = time.perf_counter()
    for label, source, size, budget, window in runs:
        config = construction.ConstructionConfig(
            block_size=size, blocks=1, mode=paper, budget=budget)
        t0 = time.perf_counter()
        number = construction.construct(config, source)
        t1 = time.perf_counter()
        cert = number.certificates[0]
        digits = number.digits_through_blocks
        t2 = time.perf_counter()
        report = construction.verify_certificate(cert, digits,
                                                 sample_window=window)
        t3 = time.perf_counter()
        construct_s += t1 - t0
        verify_s += t3 - t2
        record = _summary(cert)
        record.update(label=label, passed=report.passed,
                      tail_bound_met=report.tail_bound_met,
                      tail=str(cert.inserted[3]) if label == "worked" else None)
        results.append(record)
        del number, digits, cert, report
    return {"wall_s": time.perf_counter() - started,
            "construct_s": construct_s, "verify_s": verify_s, "jobs": results}


def seed_screen_pass(job: dict) -> dict:
    from abnormal_forge import construction, seed
    paper = construction.Mode.parse("paper")
    budget = construction.SearchBudget(tail_bits=job["tail_bits"])
    accepted, aborted = [], []
    construct_s = 0.0
    started = time.perf_counter()
    for sampler_seed in job["seeds"]:
        config = construction.ConstructionConfig(
            block_size=inputs.block_size(sampler_seed), blocks=1, mode=paper,
            budget=budget)
        t0 = time.perf_counter()
        try:
            number = construction.construct(
                config, seed.RngDigitSource(sampler_seed))
        except construction.ConstructionAborted as exc:
            construct_s += time.perf_counter() - t0
            aborted.append([sampler_seed, type(exc.cause).__name__])
            continue
        construct_s += time.perf_counter() - t0
        record = _summary(number.certificates[0])
        record["seed"] = sampler_seed
        accepted.append(record)
        del number
    return {"wall_s": time.perf_counter() - started,
            "construct_s": construct_s, "verify_s": 0.0,
            "accepted": accepted, "aborted": aborted}


LIB_PASSES = {"lib-paper": lib_paper_pass, "seed-screen": seed_screen_pass}


def run_lib(job_path: str, out_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    one_pass = LIB_PASSES[job["workload"]]
    warmup = one_pass(job)
    passes = []
    started = time.perf_counter()
    while not passes or (time.perf_counter() - started
                         + warmup["wall_s"] <= job["seconds"]):
        passes.append(one_pass(job))
    traced = None
    if job["trace_path"]:
        tracer = spans.Tracer()
        spans.install(tracer)
        traced = one_pass(job)
        tracer.dump(job["trace_path"])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "traced": traced}, fh)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="kind", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("--trace", default=None)
    cli.add_argument("args", nargs=argparse.REMAINDER)
    lib = sub.add_parser("lib")
    lib.add_argument("job")
    lib.add_argument("out")
    ref = sub.add_parser("reference")
    ref.add_argument("workload", choices=sorted(inputs.REFERENCES))
    ref.add_argument("seed", type=int)
    ref.add_argument("out")
    ref.add_argument("digits", nargs="?")
    args = parser.parse_args(argv)
    if args.kind == "cli":
        argv = args.args[1:] if args.args[:1] == ["--"] else args.args
        return run_cli(argv, args.trace)
    sys.set_int_max_str_digits(0)   # certificate values can be long
    if args.kind == "reference":
        extra = (args.digits,) if args.digits else ()
        result = inputs.REFERENCES[args.workload](args.seed, *extra)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0
    return run_lib(args.job, args.out)


if __name__ == "__main__":
    sys.exit(main())
