"""One afsasim CLI invocation in a fresh interpreter, measured from outside.

    python3 -I bench/child.py SRC MODE RESULT [CLI ARGS...]

imports `afsasim` from SRC, calls `afsasim.cli.main(CLI ARGS)` once and
writes what it measured to RESULT as JSON.  MODE is one of

- `run`: times `main`;
- `setup`: stops at the first trial and records when it was reached, so
  the parent can time interpreter start, import and argument parsing;
- `trace`: wraps the public functions of `afsasim.*` where they are
  called, keeps one span per call in memory and summarises the spans
  after `main` returns.

Before and after the measured part the child also times a fixed
stdlib-only reference loop (`reference_chunk`), which tells the parent how
fast this machine ran Python code at that moment; see `run.py` for its use.

The program is not modified: every wrapper replaces a module attribute,
and module code looks those names up at call time.

Only `sys` and `time` are imported before `afsasim`; every other module
this file needs is imported after it, so the setup probe times the
program's whole import and nothing of the harness.
"""
import sys
import time

# A span is [name, start, end, parent index]; -1 marks a root span.
Span = list


class Tracer:
    """Records nested call spans and per-call counts, in memory only."""

    def __init__(self, clock=time.perf_counter):
        from collections import Counter

        self.spans: list[Span] = []
        self.counts = Counter()
        self._stack = [-1]
        self._clock = clock

    def timed(self, name: str, fn, count=None, adapt=None):
        """`fn` wrapped in a span called `name`.

        `adapt(args, kwargs)` may rewrite the arguments before the call;
        `count(counts, args, result)` runs after the span has closed.
        """
        spans, stack, clock, counts = self.spans, self._stack, self._clock, self.counts

        def wrapper(*args, **kwargs):
            if adapt is not None:
                adapt(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1]]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, **hooks) -> None:
        setattr(module, attr, self.timed(name, getattr(module, attr), **hooks))


def summarise(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Calls, total time and self time per span name.

    Self time is a span's duration minus the durations of its direct
    children; calls are synchronous, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers: dict[str, dict[str, float]] = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        entry = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - inner
    return layers


def install_tracer(tracer: Tracer) -> None:
    """Wrap each layer's entry points where the calling module looks them up."""
    from afsasim import afsa, baselines, cli, estimator, experiment, report

    def churn_hook(args, kwargs):
        hook = kwargs.get("between_rounds")
        if hook is not None:
            kwargs["between_rounds"] = tracer.timed("experiment.churn", hook)

    def count_round(counts, args, trace):
        counts["afsa.round.tags_passed"] += len(args[0])
        counts["afsa.slots"] += trace.slots
        counts["afsa.identified"] += len(trace.identified_epcs)
        counts["afsa.reserved_apparent"] += trace.reserved_apparent_count
        counts["afsa.undetected"] += trace.undetected_collision_count

    def count_scanned(counts, args, _):
        counts["model.active_count.tags_scanned"] += len(args[0])

    def count_method(counts, args, estimate):
        counts["estimator.collision_floor"] += estimate.method.value == "collision_floor"

    tracer.patch(cli, "parse_cli", "cli.parse")
    tracer.patch(cli, "run_experiment", "experiment.run_experiment")
    tracer.patch(cli, "result_rows", "report.rows")
    tracer.patch(cli, "write_rows", "report.write")
    tracer.patch(report, "render_csv", "report.render")
    tracer.patch(report, "render_json", "report.render")
    tracer.patch(experiment, "run_trial", "experiment.run_trial")
    tracer.patch(experiment, "_aggregate", "experiment.aggregate")
    tracer.patch(experiment, "RngStream", "rng.stream_init")
    tracer.patch(experiment, "make_population", "model.make_population")
    tracer.patch(experiment, "run_afsa_inventory", "afsa.inventory", adapt=churn_hook)
    tracer.patch(experiment, "run_fsa_inventory", "baselines.fsa_inventory", adapt=churn_hook)
    tracer.patch(experiment, "run_edfsa_inventory", "baselines.edfsa_inventory",
                 adapt=churn_hook)
    tracer.patch(afsa, "run_afsa_round", "afsa.round", count=count_round)
    tracer.patch(afsa, "next_frame", "estimator.next_frame")
    tracer.patch(afsa, "phase_durations_for", "analytic.phase_durations_for")
    tracer.patch(estimator, "optimal_seq_len", "analytic.optimal_seq_len")
    tracer.patch(baselines, "run_fsa_round", "baselines.fsa_round")
    for module in (afsa, baselines):
        tracer.patch(module, "active_count", "model.active_count", count=count_scanned)
        tracer.patch(module, "estimate_backlog", "estimator.estimate_backlog",
                     count=count_method)


# Reference chunks timed before and after the measured part.
REF_CHUNKS = 5


class _Item:
    """Stands in for a tag: a plain object whose attributes a scan reads."""

    def __init__(self, i: int):
        self.present = True
        self.identified = i % 3 == 0


# Built once per process, outside any timed part.
_ITEMS: list[_Item] = []


def reference_chunk() -> float:
    """Seconds taken by a fixed slice of work shaped like a slotted round:
    random draws into per-slot lists, and a scan over 20 000 tag-like
    objects.  It must never change, or every scaled time shifts
    with it."""
    import random

    if not _ITEMS:
        _ITEMS.extend(_Item(i) for i in range(20000))
    bits = random.Random(20141405).getrandbits
    start = time.perf_counter()
    for _ in range(60):
        slots = [[] for _ in range(64)]
        for i in range(100):
            slots[bits(64) % 64].append(i)
        sum(1 for s in slots if len(s) == 1)
    sum(1 for t in _ITEMS if t.present and not t.identified)
    return time.perf_counter() - start


def peak_rss_kb() -> int:
    """Peak resident set of this process since its exec.

    `ru_maxrss` would also count the parent: Linux carries the high-water
    mark of the address space an exec replaces, and the parent's
    `subprocess` starts children with vfork.
    """
    import resource

    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _FirstTrial(BaseException):
    """Raised at the first trial in setup mode; escapes the CLI's handler."""


def main(argv: list[str]) -> int:
    src, mode, result_path, cli_args = argv[0], argv[1], argv[2], argv[3:]
    sys.path.insert(0, src)
    import afsasim.cli
    import afsasim.experiment

    result: dict = {}
    if mode == "setup":
        def first_trial(*_args, **_kwargs):
            result["first_trial"] = time.monotonic()
            raise _FirstTrial
        afsasim.experiment.run_trial = first_trial
        try:
            result["exit_code"] = afsasim.cli.main(cli_args)
        except _FirstTrial:
            result["exit_code"] = 0
        # the speed the parent scales the probe by, measured after it
        result["ref_s"] = [reference_chunk() for _ in range(REF_CHUNKS)]
        return finish(src, result_path, result)
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        install_tracer(tracer)
    elif mode != "run":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 4

    ref_s = [reference_chunk() for _ in range(REF_CHUNKS)]
    start = time.perf_counter()
    result["exit_code"] = afsasim.cli.main(cli_args)
    result["wall_s"] = time.perf_counter() - start
    result["ref_s"] = ref_s + [reference_chunk() for _ in range(REF_CHUNKS)]
    result["maxrss_kb"] = peak_rss_kb()
    if tracer is not None:
        result["layers"] = summarise(tracer.spans)
        result["counts"] = dict(tracer.counts)
    return finish(src, result_path, result)


def finish(src: str, result_path: str, result: dict) -> int:
    """Check that `afsasim` came from SRC, then write RESULT."""
    import json
    from pathlib import Path

    import afsasim.cli

    if not Path(afsasim.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"afsasim was imported from {afsasim.cli.__file__}, not {src}", file=sys.stderr)
        return 4
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
