"""Span tracing for the benchmark, installed from outside the library.

``install`` replaces the public functions of each ``abnormal_forge``
layer with wrappers that record one span per call: name, start, end
(``perf_counter_ns``) and the index of the enclosing span. Each wrapper
is patched into the defining module and into every loaded module that
imported the function by name, so no call path skips it. Spans and
counters stay in memory until ``Tracer.dump`` writes them out.

``summarize`` turns the spans of one or more processes into the
per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter

MODULES = ("seed", "cf", "radix", "nt", "construction", "formats", "cli")

# Functions wrapped per layer; "Class.method" wraps a method on the class.
WRAPPED = {
    "seed": ("RngDigitSource.next_digits", "parse_digit_file"),
    "cf": ("convergent_stream", "log2_fixed", "cylinder_interval",
           "gauss_measure"),
    "radix": ("base_expansion", "cf_normality_report"),
    "nt": ("find_artin_prime", "is_prime", "factorize", "is_primitive_root",
           "discrete_log", "pow_exceeds"),
    "construction": ("construct", "plan_block", "tail_digit",
                     "verify_certificate"),
    "formats": ("write_digit_file", "read_digit_file",
                "write_certificate_file", "read_certificate_file"),
    "cli": ("main",),
}

# (metric, unit, better, how): how is ("busy"|"self", span name),
# ("count", counter name) or ("ratio", numerator counter, denominator counter).
PER_LAYER = (
    ("formats.write_digit_file.busy_s", "s", "lower", ("busy", "formats.write_digit_file")),
    ("formats.write_digit_file.bytes", "B", "lower", ("count", "formats.write_digit_file.bytes")),
    ("formats.read_digit_file.busy_s", "s", "lower", ("busy", "formats.read_digit_file")),
    ("formats.read_digit_file.bytes", "B", "lower", ("count", "formats.read_digit_file.bytes")),
    ("formats.write_certificate_file.busy_s", "s", "lower", ("busy", "formats.write_certificate_file")),
    ("formats.read_certificate_file.busy_s", "s", "lower", ("busy", "formats.read_certificate_file")),
    ("formats.certificate.bytes", "B", "lower", ("count", "formats.certificate.bytes")),
    ("construction.verify_certificate.self_s", "s", "lower", ("self", "construction.verify_certificate")),
    ("construction.verify_certificate.tail_bits", "bit", "lower", ("count", "construction.verify_certificate.tail_bits")),
    ("construction.construct.self_s", "s", "lower", ("self", "construction.construct")),
    ("construction.construct.aborted", "count", "lower", ("count", "construction.construct.aborted")),
    ("construction.plan_block.self_s", "s", "lower", ("self", "construction.plan_block")),
    ("construction.tail_digit.busy_s", "s", "lower", ("busy", "construction.tail_digit")),
    ("nt.find_artin_prime.busy_s", "s", "lower", ("busy", "nt.find_artin_prime")),
    ("nt.find_artin_prime.candidates", "count", "lower", ("count", "nt.find_artin_prime.candidates")),
    ("nt.find_artin_prime.hit_ratio", "ratio", "higher", ("ratio", "nt.find_artin_prime.hits", "nt.find_artin_prime.candidates")),
    ("nt.is_prime.calls", "count", "lower", ("count", "nt.is_prime.calls")),
    ("nt.is_prime.busy_s", "s", "lower", ("busy", "nt.is_prime")),
    ("nt.factorize.calls", "count", "lower", ("count", "nt.factorize.calls")),
    ("nt.factorize.busy_s", "s", "lower", ("busy", "nt.factorize")),
    ("nt.is_primitive_root.busy_s", "s", "lower", ("busy", "nt.is_primitive_root")),
    ("nt.discrete_log.calls", "count", "lower", ("count", "nt.discrete_log.calls")),
    ("nt.discrete_log.busy_s", "s", "lower", ("busy", "nt.discrete_log")),
    ("nt.discrete_log.repeat_ratio", "ratio", "lower", ("ratio", "nt.discrete_log.repeats", "nt.discrete_log.calls")),
    ("nt.pow_exceeds.busy_s", "s", "lower", ("busy", "nt.pow_exceeds")),
    ("radix.base_expansion.calls", "count", "lower", ("count", "radix.base_expansion.calls")),
    ("radix.base_expansion.busy_s", "s", "lower", ("busy", "radix.base_expansion")),
    ("radix.base_expansion.places", "count", "lower", ("count", "radix.base_expansion.places")),
    ("radix.cf_normality_report.busy_s", "s", "lower", ("busy", "radix.cf_normality_report")),
    ("cf.convergent_stream.busy_s", "s", "lower", ("busy", "cf.convergent_stream")),
    ("cf.convergent_stream.digits", "count", "lower", ("count", "cf.convergent_stream.digits")),
    ("cf.log2_fixed.calls", "count", "lower", ("count", "cf.log2_fixed.calls")),
    ("seed.next_digits.calls", "count", "lower", ("count", "seed.next_digits.calls")),
    ("seed.next_digits.busy_s", "s", "lower", ("busy", "seed.next_digits")),
    ("seed.digits", "count", "lower", ("count", "seed.digits")),
    ("cli.main.self_s", "s", "lower", ("self", "cli.main")),
)


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Per-span counter hooks: hook(counts, args, kwargs, result, exc).

def _next_digits(counts, args, kwargs, result, exc):
    counts["seed.digits"] += _arg(args, kwargs, 1, "count", 0)


def _written_digits(counts, args, kwargs, result, exc):
    counts["formats.write_digit_file.bytes"] += _file_size(
        _arg(args, kwargs, 0, "path"))


def _read_digits(counts, args, kwargs, result, exc):
    counts["formats.read_digit_file.bytes"] += _file_size(
        _arg(args, kwargs, 0, "path"))


def _written_certificate(counts, args, kwargs, result, exc):
    counts["formats.certificate.bytes"] += _file_size(
        _arg(args, kwargs, 0, "path"))


def _verified(counts, args, kwargs, result, exc):
    cert = _arg(args, kwargs, 0, "cert")
    counts["construction.verify_certificate.tail_bits"] += (
        cert.inserted[3].bit_length())


def _constructed(counts, args, kwargs, result, exc):
    if type(exc).__name__ == "ConstructionAborted":
        counts["construction.construct.aborted"] += 1


def _artin(counts, args, kwargs, result, exc):
    if exc is None:
        counts["nt.find_artin_prime.hits"] += 1
        counts["nt.find_artin_prime.candidates"] += result.candidates_tested
    else:
        counts["nt.find_artin_prime.candidates"] += getattr(
            exc, "candidates_tested", 0) or 0


def _expansion(counts, args, kwargs, result, exc):
    counts["radix.base_expansion.places"] += _arg(args, kwargs, 2, "places", 0)


HOOKS = {
    "seed.next_digits": _next_digits,
    "formats.write_digit_file": _written_digits,
    "formats.read_digit_file": _read_digits,
    "formats.write_certificate_file": _written_certificate,
    "construction.verify_certificate": _verified,
    "construction.construct": _constructed,
    "nt.find_artin_prime": _artin,
    "radix.base_expansion": _expansion,
}


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._dlog_keys: set = set()

    def _open(self, name: str) -> list:
        record = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self.counts[name + ".calls"] += 1
        record[1] = time.perf_counter_ns()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        if name == "nt.discrete_log":
            hook = self._dlog_hook
        if name == "cf.convergent_stream":
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(record)
                if hook is not None:
                    hook(self.counts, args, kwargs, None, exc)
                raise
            self._close(record)
            if hook is not None:
                hook(self.counts, args, kwargs, result, None)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """One span per resumption, so time spent by the consumer is excluded."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                record = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(record)
                self.counts["cf.convergent_stream.digits"] += 1
                yield item

        return wrapper

    def _dlog_hook(self, counts, args, kwargs, result, exc):
        key = (_arg(args, kwargs, 0, "g"), _arg(args, kwargs, 2, "p"))
        if key in self._dlog_keys:
            counts["nt.discrete_log.repeats"] += 1
        self._dlog_keys.add(key)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def install(tracer: Tracer) -> int:
    """Wrap every function in ``WRAPPED``; return the number of patch sites.

    Raises RuntimeError if any loaded ``abnormal_forge`` module still
    refers to an unwrapped original afterwards.
    """
    package = importlib.import_module("abnormal_forge")
    modules = [package] + [importlib.import_module(f"abnormal_forge.{m}")
                           for m in MODULES]
    originals = []
    sites = 0
    for layer, names in WRAPPED.items():
        home = importlib.import_module(f"abnormal_forge.{layer}")
        for qualname in names:
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, tracer.wrap(f"{layer}.{attr}", original))
                sites += 1
                originals.append(original)
                continue
            original = getattr(home, attr)
            wrapper = tracer.wrap(f"{layer}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        sites += 1
            originals.append(original)
    for module in modules:
        for key, value in vars(module).items():
            if any(value is original for original in originals):
                raise RuntimeError(f"{module.__name__}.{key} was not wrapped")
    return sites


def load(paths) -> list[tuple[list, dict]]:
    traces = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        traces.append((payload["spans"], payload["counts"]))
    return traces


def summarize(traces) -> dict[str, float]:
    """Per-layer metrics over the spans and counters of several processes.

    busy time is the summed duration of a function's outermost spans
    (recursion counted once); self time is each span's duration minus
    the time its direct child spans cover.
    """
    busy: Counter = Counter()
    self_ns: Counter = Counter()
    counts: Counter = Counter()
    for spans, process_counts in traces:
        counts.update(process_counts)
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for index, (name, start, end, parent) in enumerate(spans):
            self_ns[name] += end - start - child_ns[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                busy[name] += end - start
    metrics = {}
    for metric, _unit, _better, how in PER_LAYER:
        if how[0] == "busy":
            metrics[metric] = busy[how[1]] / 1e9
        elif how[0] == "self":
            metrics[metric] = self_ns[how[1]] / 1e9
        elif how[0] == "count":
            metrics[metric] = counts[how[1]]
        else:
            denominator = counts[how[2]]
            metrics[metric] = counts[how[1]] / denominator if denominator else 0.0
    return metrics
