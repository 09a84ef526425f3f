"""Acceptance suite: nine criteria, one pass/fail line each, and the
paper's headline claim over the load grid.

Run with `pytest -s tests/test_acceptance.py` to see every line; without
-s the lines still surface for any failing criterion.  Each criterion
checks the implementation against an independent route (enumeration,
Monte Carlo, closed forms, or the CLI as a black box), so a criterion
here never reduces to the code agreeing with itself.
"""
import csv
import io
import math
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from afsasim import afsa
from afsasim.afsa import run_afsa_round
from afsasim.analytic import (
    expected_idle,
    expected_reserved,
    expected_undetected,
    expected_undetected_exact,
    expected_unresolved,
    phase_durations_for,
)
from afsasim.estimator import next_frame
from afsasim.experiment import ExperimentConfig, run_experiment, run_trial
from afsasim.model import FrameConfig, make_population
from afsasim.report import result_rows, render_csv, trial_rows
from afsasim.rng import RngStream

from oracles import check_round_trace, enum_slot_stats


def _finish(num: int, title: str, failures: list, detail: str = "") -> None:
    """Print exactly one pass/fail line for the criterion, then assert."""
    if failures:
        print(f"[FAIL] criterion {num}: {title} :: {'; '.join(failures)}")
        raise AssertionError(f"criterion {num} failed: " + "; ".join(failures))
    suffix = f" ({detail})" if detail else ""
    print(f"[PASS] criterion {num}: {title}{suffix}")


def test_criterion_1_exact_closed_forms_at_two_tags_two_slots():
    failures = []
    reserved = expected_reserved(2, 2)
    idle = expected_idle(2, 2)
    unresolved = expected_unresolved(2, 2)
    if (reserved, idle, unresolved) != (1.0, 0.5, 0.5):
        failures.append(f"closed forms gave {(reserved, idle, unresolved)}, "
                        "want exactly (1.0, 0.5, 0.5)")
    oracle = enum_slot_stats(2, 2)
    if oracle != (Fraction(1), Fraction(1, 2), Fraction(1, 2)):
        failures.append(f"enumeration oracle gave {oracle}")
    if (float(oracle[0]), float(oracle[1]), float(oracle[2])) != (
            reserved, idle, unresolved):
        failures.append("closed forms disagree with enumeration at machine precision")
    _finish(1, "closed forms exact against enumeration at k=2, N=2", failures)


def test_criterion_2_simulated_means_match_model_within_two_percent():
    failures = []
    rounds = 20_000
    rng = RngStream(seed=2, stream_id=0)
    frame = FrameConfig(128, 2)
    idle_total = reserved_total = 0
    started = time.monotonic()
    for _ in range(rounds):
        trace = run_afsa_round(make_population(100), frame, rng)
        idle_total += trace.idle_count
        reserved_total += trace.reserved_true_count
    elapsed = time.monotonic() - started

    idle_mean = idle_total / rounds
    reserved_mean = reserved_total / rounds
    idle_want = expected_idle(100, 128)
    reserved_want = expected_reserved(100, 128)
    if abs(idle_mean - idle_want) > 0.02 * idle_want:
        failures.append(f"idle mean {idle_mean:.4f} vs {idle_want:.4f} beyond 2%")
    if abs(reserved_mean - reserved_want) > 0.02 * reserved_want:
        failures.append(
            f"reserved mean {reserved_mean:.4f} vs {reserved_want:.4f} beyond 2%")
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    _finish(2, "20k-round means within 2% of the closed forms", failures,
            detail=f"idle {idle_mean:.3f}/{idle_want:.3f}, "
                   f"reserved {reserved_mean:.3f}/{reserved_want:.3f}, "
                   f"{elapsed:.1f}s")


def test_criterion_3_undetected_collisions_track_the_exact_occupancy_model():
    failures = []
    rounds = 10_000
    lines = []
    previous_mean = math.inf
    for bits in range(1, 7):
        rng = RngStream(seed=3, stream_id=bits)
        frame = FrameConfig(64, bits)
        counts = []
        for _ in range(rounds):
            trace = run_afsa_round(make_population(100), frame, rng)
            counts.append(trace.undetected_collision_count)
        mean = statistics.fmean(counts)
        se = statistics.stdev(counts) / math.sqrt(rounds)
        exact = expected_undetected_exact(100, 64, bits)
        approx = expected_undetected(100, 64, bits)
        lines.append(f"    n={bits}: simulated {mean:.4f}  exact {exact:.4f}  "
                     f"flat approximation {approx:.4f}  (se {se:.4f})")
        if mean > previous_mean:
            failures.append(f"mean rose from n={bits - 1} to n={bits}")
        previous_mean = mean
        if abs(mean - exact) > 3 * se:
            failures.append(
                f"n={bits}: mean {mean:.4f} is {abs(mean - exact) / se:.1f} se "
                f"from exact {exact:.4f}")
        if not approx > exact:
            failures.append(f"n={bits}: flat approximation {approx:.4f} does not "
                            f"exceed exact {exact:.4f}")
    print("  undetected collisions per round, k=100, N=64, both models:")
    for line in lines:
        print(line)
    _finish(3, "undetected-collision sweep matches exact model, "
               "flat model overestimates", failures)


def test_criterion_4_sequence_length_choice():
    failures = []
    results = {}
    for bits in (2, 3, 4, None):
        config = ExperimentConfig(
            k_initial=100, frame_slots=128, seq_bits=bits, trials=1000, seed=4)
        results[bits] = run_experiment(config)
    per_tag = {bits: results[bits].aggregate.mean_per_tag_us for bits in results}
    if not per_tag[2] <= per_tag[3]:
        failures.append(f"n=2 ({per_tag[2]:.2f}us) slower than n=3 ({per_tag[3]:.2f}us)")
    if not per_tag[2] <= per_tag[4]:
        failures.append(f"n=2 ({per_tag[2]:.2f}us) slower than n=4 ({per_tag[4]:.2f}us)")
    gap = abs(per_tag[None] - per_tag[2]) / per_tag[2]
    if gap > 0.01:
        failures.append(f"adaptive mean {per_tag[None]:.2f}us is {gap:.2%} "
                        f"from fixed n=2 {per_tag[2]:.2f}us, budget 1%")
    heavy = [trace for trial in results[None].trials
             for trace, k_active in zip(trial.traces, trial.k_active)
             if k_active >= 32]
    chose_two = sum(1 for trace in heavy if trace.seq_bits == 2)
    fraction = chose_two / len(heavy)
    if fraction < 0.95:
        failures.append(
            f"adaptive picked n=2 in {fraction:.2%} of {len(heavy)} rounds with "
            "backlog >= 32, required 95%; the shortfall is concentrated in rounds "
            "whose backlog estimate lands just above a frame-size boundary, where "
            "the chosen rule legitimately yields n=3")
    _finish(4, "two-bit sequences win and the adaptive rule finds them", failures,
            detail=f"per-tag us: n2 {per_tag[2]:.2f}, n3 {per_tag[3]:.2f}, "
                   f"n4 {per_tag[4]:.2f}, auto {per_tag[None]:.2f}; "
                   f"auto n=2 share {fraction:.2%}")


def test_criterion_5_faster_than_edfsa():
    failures = []
    afsa = run_experiment(ExperimentConfig(
        k_initial=100, frame_slots=128, seq_bits=2, trials=1000, seed=5))
    edfsa = run_experiment(ExperimentConfig(
        protocol="edfsa", k_initial=100, frame_slots=128, trials=1000, seed=5))
    afsa_us = afsa.aggregate.mean_per_tag_us
    edfsa_us = edfsa.aggregate.mean_per_tag_us
    if not 400.0 <= afsa_us <= 600.0:
        failures.append(f"per-tag {afsa_us:.1f}us outside [400, 600]us")
    if not afsa_us < edfsa_us:
        failures.append(f"not faster than EDFSA ({afsa_us:.1f} vs {edfsa_us:.1f}us)")
    ratio = afsa_us / edfsa_us
    if ratio > 0.75:
        failures.append(f"ratio {ratio:.3f} exceeds 0.75")
    _finish(5, "beats EDFSA per identified tag", failures,
            detail=f"{afsa_us:.1f}us vs {edfsa_us:.1f}us, ratio {ratio:.3f}")


# The paper's headline claim over the load range: AFSA's mean time per
# identified tag (frame 128, auto n) is below EDFSA's at every k of the
# grid, and below FSA's wherever FSA completes.  `trials` per k keeps the
# whole grid near 1 s.  Each AFSA/EDFSA bound is the largest ratio over
# seeds 101-120 (same trials) plus 0.05, rounded up to two decimals; the
# test runs seed 1.  Every bound is below 1, so meeting it means beating
# EDFSA.
HEADLINE_GRID = {
    # k: (trials, AFSA/EDFSA bound); seeds 101-120 gave at most
    10: (500, 0.25),  # 0.199
    50: (200, 0.49),  # 0.433
    100: (100, 0.59),  # 0.533
    500: (20, 0.57),  # 0.513
    1000: (10, 0.58),  # 0.521
    5000: (6, 0.74),  # 0.686
}
def test_afsa_beats_both_baselines_over_the_load_grid():
    failures = []
    for k, (trials, bound) in HEADLINE_GRID.items():
        per_tag = {}
        for protocol in ("afsa", "edfsa", "fsa"):
            config = ExperimentConfig(protocol=protocol, k_initial=k, frame_slots=128,
                                      trials=trials, seed=1)
            # a fixed 128-slot FSA frame cannot resolve 5 000 tags: a slot
            # holds a lone tag with chance about 39 e^-39, so FSA identifies
            # nobody in a few rounds and is compared only below that
            if protocol == "fsa" and k == 5000:
                stuck = run_experiment(config._replace(max_rounds=20)).aggregate
                if stuck.identification_rate != 0.0:
                    failures.append(f"k={k}: FSA identified {stuck.identification_rate:.2%}")
                continue
            aggregate = run_experiment(config).aggregate
            if not aggregate.all_completed:
                failures.append(f"k={k}: {protocol} left tags unidentified")
            per_tag[protocol] = aggregate.mean_per_tag_us
        ratio = per_tag["afsa"] / per_tag["edfsa"]
        if not ratio <= bound:
            failures.append(f"k={k}: AFSA/EDFSA {ratio:.3f} above {bound}")
        if "fsa" in per_tag and not per_tag["afsa"] < per_tag["fsa"]:
            failures.append(f"k={k}: AFSA {per_tag['afsa']:.1f}us not below "
                            f"FSA {per_tag['fsa']:.1f}us")
    assert failures == []


def test_criterion_6_round_time_identity():
    failures = []
    prng = random.Random(6)
    for case in range(100):
        tags = prng.randint(0, 400)
        slots = prng.choice([8, 16, 32, 64, 128, 256, 512])
        bits = prng.randint(1, 6)
        trace = run_afsa_round(
            make_population(tags), FrameConfig(slots, bits),
            RngStream(seed=6, stream_id=case))
        check_round_trace(trace)
        realized = trace.reserved_true_count + trace.undetected_collision_count
        want = phase_durations_for(realized, slots, bits).total
        if abs(trace.total_us - want) > 1e-6:
            failures.append(
                f"case {case} (k={tags}, N={slots}, n={bits}): "
                f"{trace.total_us!r} vs {want!r}")
    _finish(6, "realized round time equals the duration model on realized "
               "successes (100 random cells)", failures)


def test_criterion_7_bit_identical_output():
    failures = []
    command = [sys.executable, "-m", "afsasim.cli"]
    first = subprocess.run(command, capture_output=True, timeout=120)
    second = subprocess.run(command, capture_output=True, timeout=120)
    if first.returncode != 0 or second.returncode != 0:
        failures.append(f"default CLI run exited {first.returncode}/{second.returncode}")
    if first.stdout != second.stdout:
        failures.append("two default CLI runs differ byte for byte")
    if not first.stdout.startswith(b"trial,round,protocol,"):
        failures.append("CLI output does not start with the CSV header")

    # trials run last to first from cold memos, so the round-time and
    # next-frame memos fill in another order than the in-order run sees
    config = ExperimentConfig()
    for memo in (afsa._round_time, afsa._next_frame):
        memo.cache_clear()
    reverse = {t: run_trial(config, t) for t in reversed(range(config.trials))}
    reordered = render_csv([row for t in range(config.trials)
                            for row in trial_rows(config, t, reverse[t], per_round=True)])
    in_order = render_csv(result_rows(run_experiment(config), per_round=True))
    if reordered != in_order:
        failures.append("trials run in reverse order give a different report")
    _finish(7, "byte-identical reruns and execution-order invariance", failures)


def test_criterion_8_ten_thousand_inventories_all_complete():
    failures = []
    trials = 10_000
    result = subprocess.run(
        [sys.executable, "-m", "afsasim.cli",
         "--tags", "20", "--frame", "16", "--trials", str(trials),
         "--max-rounds", "200", "--seed", "8"],
        capture_output=True, text=True, timeout=300)
    if result.returncode != 0:
        failures.append(f"exit code {result.returncode}, stderr: {result.stderr[:200]}")
    rows = list(csv.DictReader(io.StringIO(result.stdout)))
    if len(rows) != trials:
        failures.append(f"{len(rows)} report rows, want {trials}")
    incomplete = sum(1 for r in rows if int(r["identified"]) != int(r["k_active"]))
    if incomplete:
        failures.append(f"{incomplete} trials did not identify every tag")
    over_budget = sum(1 for r in rows if int(r["round"]) > 200)
    if over_budget:
        failures.append(f"{over_budget} trials exceeded 200 rounds")
    worst = max(int(r["round"]) for r in rows) if rows else 0
    _finish(8, "10k inventories of 20 tags all finish within budget", failures,
            detail=f"worst case {worst} rounds")


def test_criterion_9_idle_inversion_recovers_the_population():
    failures = []
    details = []
    for tags in (25, 50, 100, 200, 400):
        slots = next_frame(tags).slots
        tolerance = 1.5 + 0.02 * tags
        log_base = math.log(1.0 - 1.0 / slots)

        # route 1: invert the rounded expected idle count
        idle = round(expected_idle(tags, slots))
        inverted = math.log(idle / slots) / log_base
        if abs(inverted - tags) > tolerance:
            failures.append(
                f"k={tags}: expected-idle route gave {inverted:.2f}, "
                f"tolerance {tolerance:.2f}")

        # route 2: invert the mean idle count of simulated rounds
        rng = RngStream(seed=9, stream_id=tags)
        frame = FrameConfig(slots, 2)
        rounds = 2000
        idle_sum = 0
        for _ in range(rounds):
            idle_sum += run_afsa_round(
                make_population(tags), frame, rng).idle_count
        simulated = math.log((idle_sum / rounds) / slots) / log_base
        if abs(simulated - tags) > tolerance:
            failures.append(
                f"k={tags}: simulated route gave {simulated:.2f}, "
                f"tolerance {tolerance:.2f}")
        details.append(f"k={tags}: {simulated:.1f}")
    _finish(9, "idle inversion recovers populations 25 to 400", failures,
            detail="; ".join(details))
