"""Acceptance gate: one test per shipping criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one printed
PASS/FAIL line per criterion alongside the pytest verdicts.  Each test
pins the tolerance the criterion ships with and its runtime budget.
"""

import subprocess
import sys
import time

import numpy as np

from benfordtrack import (
    DigitHistogram,
    SynthSpec,
    WindowSpec,
    benford_pmf,
    conformity,
    digit_histogram,
    fit_trend,
    generate,
    track,
    window_ranges,
)
from benfordtrack.stats import _chi_square_tail
from benfordtrack.synthetic import inject_manipulation
from helpers import (
    cli_env,
    direct_chebyshev,
    direct_chi2,
    direct_kl,
    enumerate_windows,
    make_change_series,
    string_first_digit,
)


def _verdict(criterion: int, ok: bool, detail: str, elapsed: float) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {state} ({detail}; {elapsed:.2f}s)", flush=True)
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_benford_pmf_golden_values():
    t0 = time.perf_counter()
    golden = (0.301, 0.176, 0.125, 0.097, 0.079, 0.067, 0.058, 0.051, 0.046)
    pmf = benford_pmf()
    max_err = max(abs(p - g) for p, g in zip(pmf, golden))
    sum_err = abs(sum(pmf) - 1.0)
    ok = max_err <= 0.0005 and sum_err <= 1e-12
    _verdict(
        1, ok, f"max table error {max_err:.2e}, sum error {sum_err:.2e}",
        time.perf_counter() - t0,
    )


def test_criterion_2_critical_value_pin_and_monotone_pvalue():
    t0 = time.perf_counter()
    at_critical, at_zero_p = _chi_square_tail(np.array([15.507, 0.0])).tolist()
    pinned = 0.0495 <= at_critical <= 0.0505
    at_zero = at_zero_p == 1.0
    grid = _chi_square_tail(np.arange(1001) * 0.1).tolist()
    monotone = all(a >= b for a, b in zip(grid, grid[1:]))
    elapsed = time.perf_counter() - t0
    ok = pinned and at_zero and monotone and elapsed < 1.0
    _verdict(
        2, ok,
        f"p(15.507)={at_critical:.6f}, p(0)={at_zero_p}, "
        f"monotone={monotone}",
        elapsed,
    )


def test_criterion_3_type_one_error_calibration():
    t0 = time.perf_counter()
    rejections = 0
    seeds = 1000
    for seed in range(seeds):
        stats = conformity([digit_histogram(generate(SynthSpec("benford", 1500, seed)))])
        rejections += stats.verdict[0] == "reject"
    rate = rejections / seeds
    elapsed = time.perf_counter() - t0
    ok = 0.03 <= rate <= 0.07 and elapsed < 30.0
    _verdict(3, ok, f"rejection rate {rate:.3f} over {seeds} seeds", elapsed)


def test_criterion_4_power_against_uniform_and_manipulation():
    t0 = time.perf_counter()
    seeds = 1000
    uniform_rejections = 0
    for seed in range(seeds):
        stats = conformity([digit_histogram(generate(SynthSpec("uniform_digit", 500, seed)))])
        uniform_rejections += stats.verdict[0] == "reject"
    uniform_rate = uniform_rejections / seeds
    manip_rejections = 0
    for seed in range(seeds):
        values = inject_manipulation(
            generate(SynthSpec("benford", 1500, seed)), 0.3, seed % 9 + 1, seed=seed
        )
        stats = conformity([digit_histogram(values)])
        manip_rejections += stats.verdict[0] == "reject"
    manip_rate = manip_rejections / seeds
    elapsed = time.perf_counter() - t0
    ok = uniform_rate >= 0.99 and manip_rate >= 0.95 and elapsed < 60.0
    _verdict(
        4, ok,
        f"uniform power {uniform_rate:.3f}, manipulation power {manip_rate:.3f}",
        elapsed,
    )


def test_criterion_5_window_count_reproduction():
    t0 = time.perf_counter()
    expected = enumerate_windows(1750, 90, 45)
    series = make_change_series(list(generate(SynthSpec("benford", 1750, 0))))
    spec = WindowSpec(length=90, step=45)
    results = track(series, spec)
    ranges = window_ranges(len(series.changes), spec)
    sizes = [len(r) for r in ranges]
    ok = (
        len(results) == len(ranges) == 38
        and sizes == [90] * 37 + [85]
        and [(i, len(r)) for i, r in enumerate(ranges, 1)]
        == [(i + 1, stop - start) for i, (start, stop) in enumerate(expected)]
    )
    _verdict(
        5, ok, f"{len(results)} windows, sizes {sizes[0]}x37 + {sizes[-1]}",
        time.perf_counter() - t0,
    )


def test_criterion_6_oracle_equivalence_on_random_inputs():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(2026))
    worst_rel = 0.0
    histograms_equal = True
    for _ in range(100):
        size = int(rng.integers(1, 201))
        magnitudes = 10.0 ** rng.uniform(-6.0, 6.0, size=size)
        signs = rng.choice([-1.0, 1.0], size=size)
        values = signs * magnitudes
        h = digit_histogram(values)
        counted = [0] * 9
        for x in values:
            counted[string_first_digit(float(x)) - 1] += 1
        histograms_equal &= list(h.counts) == counted
        obs = np.asarray(h.counts, dtype=float) / h.total
        stats = conformity([h])
        for got, want in (
            (stats.chi2[0], direct_chi2(h.counts, h.total)),
            (stats.chebyshev[0], direct_chebyshev(obs, benford_pmf())),
            (stats.kl[0], direct_kl(obs, benford_pmf())),
        ):
            if want != 0.0:
                worst_rel = max(worst_rel, abs(got - want) / abs(want))
            else:
                histograms_equal &= got == 0.0
    elapsed = time.perf_counter() - t0
    ok = histograms_equal and worst_rel <= 1e-12 and elapsed < 5.0
    _verdict(
        6, ok,
        f"histograms exact={histograms_equal}, worst stat rel error {worst_rel:.2e}",
        elapsed,
    )


def test_criterion_7_distance_properties_and_derived_constants():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(7))
    # about one bin in ten is empty, so absent-digit KL terms are covered
    counts = rng.integers(0, 1000, size=(10_000, 9)) * (rng.random((10_000, 9)) >= 0.1)
    counts[:, 0] += counts.sum(axis=1) == 0
    stats = conformity([DigitHistogram(tuple(row)) for row in counts.tolist()])
    kl = np.array(stats.kl)
    cheb = np.array(stats.chebyshev)
    kl_nonneg = bool(np.all(kl >= 0.0))
    cheb_bounded = bool(np.all((cheb >= 0.0) & (cheb <= 1.0)))
    # Pinsker: KL >= 2 TV^2, and total variation is at least the Chebyshev gap
    pinsker = bool(np.all(kl >= 2.0 * cheb * cheb - 1e-15))
    uniform = conformity([DigitHistogram((1,) * 9)])
    cheb_const, kl_const = uniform.chebyshev[0], uniform.kl[0]
    constants = abs(cheb_const - 0.190) <= 1e-3 and abs(kl_const - 0.191) <= 1e-3
    elapsed = time.perf_counter() - t0
    ok = kl_nonneg and cheb_bounded and pinsker and constants and elapsed < 10.0
    _verdict(
        7, ok,
        f"uniform-vs-Benford Chebyshev {cheb_const:.4f}, KL {kl_const:.4f}, "
        f"properties held over {len(stats)} histograms",
        elapsed,
    )


def test_criterion_8_trend_detection_on_composite_series():
    t0 = time.perf_counter()
    positive = 0
    seeds = 100
    for seed in range(seeds):
        values = np.concatenate([
            generate(SynthSpec("benford", 875, seed)),
            generate(SynthSpec("uniform_digit", 875, seed)),
        ])
        series = make_change_series(list(values))
        results = conformity(track(series, WindowSpec()))
        positive += fit_trend(results.chi2, "chi2").slope > 0.0
    rate = positive / seeds
    elapsed = time.perf_counter() - t0
    ok = rate >= 0.95 and elapsed < 60.0
    _verdict(8, ok, f"positive slope in {positive}/{seeds} seeds", elapsed)


def test_criterion_9_end_to_end_cli_determinism(tmp_path):
    t0 = time.perf_counter()

    def run_once(tag: str) -> list[bytes]:
        base = tmp_path / tag
        base.mkdir()
        panel = base / "panel.csv"
        commands = [
            ["synth", "--kind", "benford", "--n", "1500", "--seed", "42",
             "--out", str(panel)],
            ["analyze", "--input", str(panel), "--format", "json",
             "--out", str(base / "analyze.json")],
            ["track", "--input", str(panel), "--format", "json",
             "--out", str(base / "track.json")],
            ["analyze", "--input", str(panel), "--format", "csv",
             "--out", str(base / "analyze.csv")],
            ["track", "--input", str(panel), "--format", "csv",
             "--out", str(base / "track.csv")],
        ]
        for argv in commands:
            subprocess.run(
                [sys.executable, "-m", "benfordtrack", *argv],
                check=True, capture_output=True, env=cli_env(),
            )
        names = ["panel.csv", "analyze.json", "track.json", "analyze.csv", "track.csv"]
        return [(base / name).read_bytes() for name in names]

    first = run_once("first")
    second = run_once("second")
    ok = first == second and all(len(blob) > 0 for blob in first)
    _verdict(
        9, ok, f"{len(first)} artifacts byte-identical across runs",
        time.perf_counter() - t0,
    )
