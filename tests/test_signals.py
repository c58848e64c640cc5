import csv
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from drivedml.cli import main
from drivedml.errors import NoSignalError, SignalError, ValidationError, utf8_text
from drivedml.io import (
    read_gaze_csv,
    read_timeseries,
    write_gaze_csv,
    write_timeseries_csv,
)
from drivedml import io as drivedml_io, signals
from drivedml.signals import (
    ECG_BANDPASS_HZ,
    ECG_FILTER_ORDER,
    GazeEvent,
    GazeRecording,
    TimeSeries,
    design_butterworth,
    detect_r_peaks,
    extract_eda,
    extract_resp,
    eye_metrics,
    filtfilt,
    frequency_response,
    hrv_freq_domain,
    hrv_time_domain,
    segment_gaze_ivt,
)
from drivedml.simulate import GazeStep, SignalProfile, gen_synthetic_signals

FS = 100.0


def _sine(freq, duration, fs=FS, amplitude=1.0):
    t = np.arange(int(duration * fs)) / fs
    return TimeSeries(amplitude * np.sin(2 * np.pi * freq * t), fs)


# ---------------------------------------------------------------------------
# filter design


def test_lowpass_dc_gain_is_unity():
    filt = design_butterworth("lowpass", 4, 5.0, FS)
    assert abs(filt.dc_gain() - 1.0) < 1e-9
    assert filt.is_stable()


def test_lowpass_cutoff_gain_is_half_power():
    filt = design_butterworth("lowpass", 4, 5.0, FS)
    gain = abs(frequency_response(filt, 5.0)[0])
    assert abs(gain - 1 / np.sqrt(2)) < 0.01 / np.sqrt(2)


def test_lowpass_matches_closed_form_magnitude():
    # bilinear-transform Butterworth: |H(f)|^2 = 1/(1 + (tan(pi f/fs)/tan(pi fc/fs))^(2N))
    filt = design_butterworth("lowpass", 4, 5.0, FS)
    for f in (1.0, 2.5, 5.0, 10.0, 25.0, 40.0):
        expected = 1.0 / np.sqrt(
            1.0 + (np.tan(np.pi * f / FS) / np.tan(np.pi * 5.0 / FS)) ** 8
        )
        got = abs(frequency_response(filt, f)[0])
        assert got == pytest.approx(expected, rel=1e-9)


def test_lowpass_attenuation_at_ten_times_cutoff():
    filt = design_butterworth("lowpass", 4, 5.0, FS)
    gain_db = 20 * np.log10(abs(frequency_response(filt, 50.0 - 1e-9)[0]))
    assert gain_db <= -70.0


def test_bandpass_passband_gain_within_one_db():
    filt = design_butterworth("bandpass", 2, (0.1, 0.35), FS)
    gain_db = 20 * np.log10(abs(frequency_response(filt, 0.2)[0]))
    assert abs(gain_db) <= 1.0


def test_design_rejects_bad_cutoffs():
    with pytest.raises(ValidationError, match="Nyquist"):
        design_butterworth("lowpass", 4, 60.0, FS)
    with pytest.raises(ValidationError, match="order"):
        design_butterworth("lowpass", 0, 5.0, FS)
    with pytest.raises(ValidationError, match="ascending"):
        design_butterworth("bandpass", 2, (0.35, 0.1), FS)


# ---------------------------------------------------------------------------
# zero-phase filtering


def test_filtfilt_preserves_constants():
    filt = design_butterworth("lowpass", 4, 5.0, FS)
    x = TimeSeries(np.ones(500), FS)
    y = filtfilt(filt, x)
    assert len(y.samples) == 500
    assert np.abs(y.samples - 1.0).max() < 1e-6


def test_filtfilt_zero_phase_on_in_band_sine():
    filt = design_butterworth("lowpass", 4, 5.0, FS)
    x = _sine(2.0, 10.0)
    y = filtfilt(filt, x)
    lags = np.arange(-20, 21)
    corr = [np.dot(np.roll(y.samples, lag), x.samples) for lag in lags]
    assert lags[int(np.argmax(corr))] == 0


def test_filtfilt_doubles_attenuation():
    filt = design_butterworth("lowpass", 4, 5.0, FS)
    x = _sine(50.0 * (1 - 1e-6), 10.0)
    y = filtfilt(filt, x)
    mid = slice(200, 800)  # keep clear of edges
    ratio = np.sqrt(np.mean(y.samples[mid] ** 2) / np.mean(x.samples[mid] ** 2))
    assert 20 * np.log10(ratio) <= -60.0


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
)
def test_filtfilt_linearity(a, b):
    filt = design_butterworth("lowpass", 4, 5.0, FS)
    x = _sine(2.0, 4.0)
    z = _sine(3.0, 4.0)
    combined = TimeSeries(a * x.samples + b * z.samples, FS)
    lhs = filtfilt(filt, combined).samples
    rhs = a * filtfilt(filt, x).samples + b * filtfilt(filt, z).samples
    scale = max(np.abs(rhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() < 1e-9 * scale


def test_filtfilt_rejects_short_series():
    filt = design_butterworth("lowpass", 4, 5.0, FS)
    with pytest.raises(SignalError, match="short"):
        filtfilt(filt, TimeSeries(np.ones(10), FS))


# ---------------------------------------------------------------------------
# the numpy filters and Welch against scipy, a test-only dependency

SHIPPED_FILTERS = (
    ("lowpass", signals.EDA_FILTER_ORDER, signals.EDA_LOWPASS_HZ),
    ("bandpass", ECG_FILTER_ORDER, ECG_BANDPASS_HZ),
    ("bandpass", signals.RESP_FILTER_ORDER, signals.RESP_BANDPASS_HZ),
)
LOWPASS_ORDERS = tuple(("lowpass", order, 5.0) for order in (1, 3, 5))


def _noisy_series(fs, seconds=60.0):
    """Breathing-rate and 10 Hz tones over white noise and a random walk."""
    rng = np.random.default_rng(int(fs))
    n = int(seconds * fs)
    t = np.arange(n) / fs
    samples = (np.sin(2 * np.pi * 0.25 * t) + 0.5 * np.sin(2 * np.pi * 10.0 * t)
               + 0.01 * np.cumsum(rng.normal(size=n)) + rng.normal(size=n))
    return TimeSeries(samples, fs)


@pytest.mark.parametrize("fs", (100.0, 250.0, 500.0))
@pytest.mark.parametrize("kind, order, cutoffs", SHIPPED_FILTERS + LOWPASS_ORDERS)
def test_filtfilt_matches_scipy_sosfiltfilt(fs, kind, order, cutoffs):
    sps = pytest.importorskip("scipy.signal")
    x = _noisy_series(fs)
    got = filtfilt(design_butterworth(kind, order, cutoffs, fs), x).samples
    sos = sps.butter(order, cutoffs, btype=kind, fs=fs, output="sos")
    # odd padding three transfer-function lengths long, as filtfilt pads
    padlen = 3 * (len(np.atleast_1d(cutoffs)) * order + 1)
    want = sps.sosfiltfilt(sos, x.samples, padtype="odd", padlen=padlen)
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


@pytest.mark.parametrize("fs", (100.0, 250.0, 500.0))
@pytest.mark.parametrize("kind, order, cutoffs", SHIPPED_FILTERS + LOWPASS_ORDERS)
def test_frequency_response_matches_scipy(fs, kind, order, cutoffs):
    sps = pytest.importorskip("scipy.signal")
    freqs = np.linspace(0.0, fs / 2.0, 257)
    got = frequency_response(design_butterworth(kind, order, cutoffs, fs), freqs)
    zeros, poles, gain = sps.butter(order, cutoffs, btype=kind, fs=fs, output="zpk")
    _, want = sps.freqz_zpk(zeros, poles, gain, worN=freqs, fs=fs)
    assert np.abs(got - want).max() <= 1e-12
    # sosfreqz sums each section's polynomial, which rounds by up to 3e-12
    # next to the respiration band's poles at 100 Hz
    _, want = sps.sosfreqz(sps.zpk2sos(zeros, poles, gain), worN=freqs, fs=fs)
    assert np.abs(got - want).max() <= 1e-11


@pytest.mark.parametrize("seconds", (40.0, 75.0, 300.0))
def test_hrv_freq_domain_matches_scipy_welch(seconds):
    sps = pytest.importorskip("scipy.signal")
    t = np.arange(0.0, seconds, 0.8)
    peaks = t + 0.05 * np.sin(2 * np.pi * 0.1 * t) + 0.02 * np.sin(2 * np.pi * 0.3 * t)
    got = hrv_freq_domain(peaks)
    grid = np.arange(peaks[1], peaks[-1], 1.0 / signals.TACHOGRAM_RATE_HZ)
    tach = np.interp(grid, peaks[1:], np.diff(peaks) * 1000.0)
    tach = tach - tach.mean()
    nperseg = min(int(64 * signals.TACHOGRAM_RATE_HZ), len(tach))
    freqs, psd = sps.welch(tach, fs=signals.TACHOGRAM_RATE_HZ, window="hann",
                           nperseg=nperseg, noverlap=nperseg // 2, detrend=False)
    for (lo, hi), value in ((signals.LF_BAND_HZ, got.lf), (signals.HF_BAND_HZ, got.hf)):
        band = (freqs >= lo) & (freqs <= hi)
        assert value == pytest.approx(np.trapezoid(psd[band], freqs[band]), rel=1e-12)


# ---------------------------------------------------------------------------
# electrodermal activity


def test_flat_eda_has_level_but_no_responses():
    x = TimeSeries(np.full(6000, 2.0), FS, "uS")
    feats = extract_eda(x)
    assert feats.scl == pytest.approx(2.0, abs=1e-9)
    assert feats.scr == 0.0
    assert feats.scr_rate == 0.0


def test_three_scripted_bumps_recovered():
    profile = SignalProfile(scr_events=((10.0, 0.5), (30.0, 0.5), (50.0, 0.5)))
    bundle = gen_synthetic_signals(profile, 60.0)
    feats = extract_eda(bundle.eda)
    assert feats.scr == pytest.approx(0.5, rel=0.10)
    assert feats.scr_rate == pytest.approx(3.0, abs=1e-9)
    assert feats.scr_sum == pytest.approx(3 * feats.scr, rel=1e-9)


def test_bump_below_amplitude_floor_ignored():
    profile = SignalProfile(scr_events=((20.0, 0.005),))
    bundle = gen_synthetic_signals(profile, 60.0)
    feats = extract_eda(bundle.eda)
    assert feats.scr == 0.0
    assert feats.scr_rate == 0.0


def test_eda_window_validation():
    x = TimeSeries(np.full(500, 2.0), FS)
    with pytest.raises(SignalError, match="at least 10"):
        extract_eda(x)


def _no_filtering(filt, x):
    raise AssertionError("a record too short to use was filtered")


@pytest.mark.parametrize("n", (10, 500))
def test_short_eda_rejected_before_filtering(monkeypatch, n):
    monkeypatch.setattr(signals, "filtfilt", _no_filtering)
    with pytest.raises(SignalError, match="EDA record must be at least 10 s"):
        extract_eda(TimeSeries(np.full(n, 2.0), FS))


# ---------------------------------------------------------------------------
# ECG / R peaks


def _match_peaks(detected, truth, tol):
    hits = 0
    for t in truth:
        if np.min(np.abs(detected - t)) <= tol:
            hits += 1
    return hits


def test_sixty_bpm_train_found_within_20ms():
    bundle = gen_synthetic_signals(SignalProfile(hr_bpm=60.0), 60.0)
    peaks = detect_r_peaks(bundle.ecg)
    truth = bundle.truth.r_peak_times
    assert len(peaks) == len(truth) == 60
    assert np.abs(peaks - truth).max() <= 0.020 + 1e-9


def test_alternating_rr_all_found_no_doubles():
    bundle = gen_synthetic_signals(SignalProfile(rr_pattern=(0.8, 1.0)), 60.0)
    peaks = detect_r_peaks(bundle.ecg)
    truth = bundle.truth.r_peak_times
    assert len(peaks) == len(truth)
    assert _match_peaks(peaks, truth, 0.02) == len(truth)
    assert np.diff(peaks).min() > 0.2


def test_flatline_raises_no_signal():
    with pytest.raises(NoSignalError):
        detect_r_peaks(TimeSeries(np.zeros(3000), FS))


def test_peak_times_scale_invariant():
    bundle = gen_synthetic_signals(SignalProfile(hr_bpm=72.0), 30.0)
    base = detect_r_peaks(bundle.ecg)
    scaled = TimeSeries(bundle.ecg.samples * 3.7, FS)
    assert np.array_equal(detect_r_peaks(scaled), base)


def test_peak_times_shift_equivariant():
    fs = 100.0
    rr = 1.0
    t = np.arange(int(40 * fs)) / fs

    def train(offset):
        peaks = np.arange(offset, 40.0 - 0.5, rr)
        x = np.zeros_like(t)
        for p in peaks:
            x += np.exp(-0.5 * ((t - p) / 0.01) ** 2)
        return TimeSeries(x, fs), peaks

    delta = 0.25
    x1, truth1 = train(0.5)
    x2, truth2 = train(0.5 + delta)
    p1 = detect_r_peaks(x1)
    p2 = detect_r_peaks(x2)
    # compare on peaks present in both (away from record edges)
    n = min(len(p1), len(p2))
    shifts = p2[:n] - p1[:n]
    assert np.abs(shifts - delta).max() <= 1.0 / fs + 1e-9


def _detect_r_peaks_reference(ecg: TimeSeries) -> np.ndarray:
    """detect_r_peaks as it was before its candidate loop read Python
    lists, kept verbatim as the oracle for the peak arrays."""
    fs = ecg.sample_rate
    if fs < 50.0:
        raise SignalError("ECG sample rate must be at least 50 Hz")
    if ecg.duration < 5.0:
        raise SignalError("ECG record must be at least 5 s")
    if np.ptp(ecg.samples) == 0.0:
        raise NoSignalError("flatline ECG: no heartbeat signal present")

    band = design_butterworth("bandpass", ECG_FILTER_ORDER, ECG_BANDPASS_HZ, fs)
    bp = filtfilt(band, ecg).samples

    # five-point derivative, centered (zero delay)
    kernel = np.array([-1.0, -2.0, 0.0, 2.0, 1.0]) * (fs / 8.0)
    deriv = np.convolve(bp, kernel[::-1], mode="same")
    squared = deriv * deriv
    win = max(int(round(0.150 * fs)), 1)
    mwi = np.convolve(squared, np.full(win, 1.0 / win), mode="same")

    cand = np.flatnonzero((mwi[1:-1] > mwi[:-2]) & (mwi[1:-1] >= mwi[2:])) + 1
    if cand.size == 0:
        raise NoSignalError("no candidate peaks in integrated ECG signal")

    def plateau_center(idx: int) -> int:
        # the integrated energy tops out in a near-flat plateau centered on
        # the QRS; take its midpoint so refinement starts within +-40 ms
        level = 0.95 * mwi[idx]
        lo = idx
        while lo > 0 and mwi[lo - 1] >= level:
            lo -= 1
        hi = idx
        while hi < len(mwi) - 1 and mwi[hi + 1] >= level:
            hi += 1
        return (lo + hi) // 2

    init = mwi[: int(2 * fs)]
    spki = float(init.max()) / 3.0
    npki = float(init.mean()) / 2.0
    refractory = int(round(0.2 * fs))

    accepted: list[int] = []
    rr_history: list[float] = []

    def threshold1() -> float:
        return npki + 0.25 * (spki - npki)

    def rr_average() -> float | None:
        if len(rr_history) < 2:
            return None
        return float(np.mean(rr_history[-8:]))

    for ci, idx in enumerate(cand):
        if accepted and idx - accepted[-1] < refractory:
            continue
        amp = mwi[idx]
        if amp >= threshold1():
            if accepted:
                rr_history.append((idx - accepted[-1]) / fs)
            accepted.append(int(idx))
        else:
            npki = 0.125 * amp + 0.875 * npki
            rr_avg = rr_average()
            if accepted and rr_avg is not None:
                gap = (idx - accepted[-1]) / fs
                if gap > 1.66 * rr_avg:
                    # search back over skipped candidates against the lower threshold
                    lo, hi = accepted[-1] + refractory, idx
                    inside = [c for c in cand[: ci + 1] if lo <= c <= hi]
                    above = [c for c in inside if mwi[c] > 0.5 * threshold1()]
                    if above:
                        best = int(max(above, key=lambda c: mwi[c]))
                        spki = 0.25 * mwi[best] + 0.75 * spki
                        rr_history.append((best - accepted[-1]) / fs)
                        accepted.append(best)
                        continue
        if accepted and accepted[-1] == idx:
            spki = 0.125 * amp + 0.875 * spki

    if not accepted:
        raise NoSignalError("no QRS complexes found")

    # refine to the band-passed local maximum within +-40 ms
    half = max(int(round(0.04 * fs)), 1)
    refined = []
    for idx in accepted:
        center = plateau_center(idx)
        lo = max(center - half, 0)
        hi = min(center + half + 1, len(bp))
        refined.append(lo + int(np.argmax(bp[lo:hi])))
    refined = sorted(set(refined))

    # enforce refractory after refinement, keeping the larger peak
    final: list[int] = []
    for idx in refined:
        if final and idx - final[-1] < refractory:
            if bp[idx] > bp[final[-1]]:
                final[-1] = idx
        else:
            final.append(idx)
    return ecg.start_time + np.asarray(final, dtype=np.float64) / fs


def _mains_drive(fs, mains_hz, weak_scale=1.0, weak_beat=20):
    """60 s at a constant 1 s RR with mains noise; the QRS of beat
    ``weak_beat`` is scaled by ``weak_scale``."""
    profile = SignalProfile(hr_bpm=60.0, mains_hz=mains_hz, mains_amplitude=0.2)
    bundle = gen_synthetic_signals(profile, 60.0, physio_rate=fs)
    x = bundle.ecg.samples.copy()
    t = bundle.truth.r_peak_times[weak_beat]
    x[int((t - 0.1) * fs) : int((t + 0.1) * fs)] *= weak_scale
    return TimeSeries(x, fs), bundle.truth.r_peak_times, t


# (physio rate Hz, mains Hz, weak QRS scale): the mains maxima make
# thousands of below-threshold candidates; a QRS at x0.3 or x0.4 carries
# 9% or 16% of a normal beat's energy, below the primary threshold, so
# only the search-back pass can accept it. At 250 Hz x0.3 is also below
# the search-back threshold: the pass runs on every noise candidate of
# the long gap and the beat stays missed.
_MAINS_DRIVES = [
    (250.0, 50.0, 1.0),
    (250.0, 60.0, 1.0),
    (100.0, 60.0, 1.0),
    (100.0, 60.0, 0.3),
    (250.0, 50.0, 0.4),
    (250.0, 60.0, 0.3),
]


@pytest.mark.parametrize("fs, mains_hz, weak_scale", _MAINS_DRIVES)
def test_r_peaks_match_reference_implementation(fs, mains_hz, weak_scale):
    ecg, _, _ = _mains_drive(fs, mains_hz, weak_scale)
    peaks = detect_r_peaks(ecg)
    reference = _detect_r_peaks_reference(ecg)
    assert peaks.dtype == reference.dtype
    assert peaks.tobytes() == reference.tobytes()


@pytest.mark.parametrize("fs, mains_hz, weak_scale", [(100.0, 60.0, 0.3), (250.0, 50.0, 0.4)])
def test_search_back_finds_a_weak_beat(fs, mains_hz, weak_scale):
    ecg, truth, weak_t = _mains_drive(fs, mains_hz, weak_scale)
    peaks = detect_r_peaks(ecg)
    assert np.min(np.abs(peaks - weak_t)) <= 0.02
    assert len(peaks) == len(truth)
    assert _match_peaks(peaks, truth, 0.02) == len(truth)


# RR intervals as the detector makes them (sample steps over the rate),
# and any finite floats
_rr_values = st.one_of(
    st.builds(lambda k, fs: k / fs, st.integers(1, 1000), st.sampled_from((100.0, 250.0, 500.0))),
    st.floats(-1e300, 1e300),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_rr_values, min_size=2, max_size=8))
def test_rr_window_mean_is_np_mean_bit_for_bit(window):
    assert signals._mean_of(window).hex() == float(np.mean(window)).hex()


# ---------------------------------------------------------------------------
# HRV


def test_uniform_rr_time_domain():
    peaks = np.arange(4) * 0.8
    td = hrv_time_domain(peaks)
    assert td.hr == pytest.approx(75.0, abs=1e-9)
    assert td.rmssd == pytest.approx(0.0, abs=1e-9)
    assert td.sdnn == pytest.approx(0.0, abs=1e-9)


def test_reference_rr_sequence_to_three_decimals():
    rr_s = np.array([0.800, 0.810, 0.790, 0.805])
    peaks = np.concatenate(([0.0], np.cumsum(rr_s)))
    td = hrv_time_domain(peaks)
    assert round(td.hr, 3) == 74.883
    assert round(td.rmssd, 3) == 15.546
    assert round(td.sdnn, 3) == 8.539


def test_two_peaks_is_an_error():
    with pytest.raises(SignalError, match="3 peaks"):
        hrv_time_domain([0.0, 0.8])


def test_hr_sdnn_order_insensitive():
    rng = np.random.default_rng(0)
    rr = rng.uniform(0.7, 0.9, 40)
    shuffled = rng.permutation(rr)
    td1 = hrv_time_domain(np.concatenate(([0.0], np.cumsum(rr))))
    td2 = hrv_time_domain(np.concatenate(([0.0], np.cumsum(shuffled))))
    assert td1.hr == pytest.approx(td2.hr, rel=1e-12)
    assert td1.sdnn == pytest.approx(td2.sdnn, rel=1e-12)


def test_constant_tachogram_has_no_band_power():
    peaks = np.arange(0, 120, 0.8)
    fd = hrv_freq_domain(peaks)
    assert fd.lf <= 1e-9
    assert fd.hf <= 1e-9
    assert np.isnan(fd.lf_hf)


def _modulated_peaks(mod_hz, duration=300.0, mean_rr=0.8, amp_ms=20.0):
    peaks = [0.0]
    while peaks[-1] < duration:
        rr = mean_rr + amp_ms / 1000.0 * np.sin(2 * np.pi * mod_hz * peaks[-1])
        peaks.append(peaks[-1] + rr)
    return np.asarray(peaks)


def test_hf_modulation_lands_in_hf_band():
    fd = hrv_freq_domain(_modulated_peaks(0.25))
    assert fd.hf / (fd.lf + fd.hf) >= 0.90
    assert fd.lf_hf < 0.2


def test_lf_modulation_lands_in_lf_band():
    fd = hrv_freq_domain(_modulated_peaks(0.10))
    assert fd.lf / (fd.lf + fd.hf) >= 0.90


def test_short_record_rejected():
    with pytest.raises(SignalError, match="30 s"):
        hrv_freq_domain(np.arange(0, 20, 0.8))


# ---------------------------------------------------------------------------
# respiration


def test_quarter_hz_sine_metrics():
    bundle = gen_synthetic_signals(SignalProfile(breath_hz=0.25), 120.0)
    feats = extract_resp(bundle.resp)
    assert feats.rr == pytest.approx(15.0, abs=1e-3)
    assert feats.rd == pytest.approx(2.0, rel=0.05)
    assert feats.rv < 1.0


def test_alternating_cycle_lengths_variation():
    # cycle lengths alternate between 3.5 s and 4.5 s in blocks: per-cycle
    # alternation modulates faster than the 0.1-0.35 Hz band can carry, so
    # the block layout keeps the scripted intervals recoverable while the
    # hand-computed interval CV (0.5/4.0 = 12.5%) stays the oracle
    bundle = gen_synthetic_signals(
        SignalProfile(breath_cycle_lengths=(3.5,) * 6 + (4.5,) * 6), 240.0
    )
    feats = extract_resp(bundle.resp)
    assert feats.rv == pytest.approx(12.5, rel=0.10)


def test_dc_only_input_has_no_cycles():
    x = TimeSeries(np.full(12000, 3.0), FS)
    with pytest.raises(NoSignalError):
        extract_resp(x)


def test_resp_too_short():
    x = _sine(0.25, 20.0)
    with pytest.raises(SignalError, match="30 s"):
        extract_resp(x)


@pytest.mark.parametrize("n", (12, 500))
def test_short_resp_rejected_before_filtering(monkeypatch, n):
    monkeypatch.setattr(signals, "filtfilt", _no_filtering)
    with pytest.raises(SignalError, match="respiration record must be at least 30 s"):
        extract_resp(_sine(0.25, n / FS))


# ---------------------------------------------------------------------------
# gaze


def _stationary(n, fs=60.0):
    return GazeRecording(
        np.full(n, 100.0), np.full(n, 200.0), np.full(n, 900.0),
        sample_rate=fs, px_per_deg=35.0,
    )


def test_stationary_gaze_single_fixation():
    events = segment_gaze_ivt(_stationary(600))
    assert len(events) == 1
    assert events[0].kind == "fixation"
    assert events[0].mean_pupil_area == pytest.approx(900.0)


def test_jump_makes_two_fixations_one_saccade():
    profile = SignalProfile(gaze_steps=(
        GazeStep("fixation", 2.0),
        GazeStep("saccade", 0.05, move_deg=5.0),
        GazeStep("fixation", 2.0),
    ))
    bundle = gen_synthetic_signals(profile, 4.05)
    events = segment_gaze_ivt(bundle.gaze)
    kinds = [e.kind for e in events]
    assert kinds == ["fixation", "saccade", "fixation"]
    assert events[1].amplitude_deg == pytest.approx(5.0, rel=0.05)


def test_threshold_above_every_velocity_single_fixation():
    profile = SignalProfile(gaze_steps=(
        GazeStep("fixation", 1.0),
        GazeStep("saccade", 0.05, move_deg=10.0),
        GazeStep("fixation", 1.0),
    ))
    bundle = gen_synthetic_signals(profile, 2.05)
    events = segment_gaze_ivt(bundle.gaze, velocity_threshold=1e9)
    assert len(events) == 1
    assert events[0].kind == "fixation"


def test_missing_scale_is_error():
    gaze = GazeRecording(np.zeros(100), np.zeros(100), np.ones(100), 60.0)
    with pytest.raises(ValidationError, match="px_per_deg"):
        segment_gaze_ivt(gaze)


@pytest.mark.parametrize("name", ["velocity_threshold", "px_per_deg"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -5.0, 0.0])
def test_gaze_params_must_be_finite_and_positive(name, value):
    # a NaN scale or an infinite threshold would find no saccade, and a
    # negative threshold would make every sample one
    params = {"velocity_threshold": 30.0, "px_per_deg": 35.0, name: value}
    gaze = _stationary(600)
    gaze.px_per_deg = params["px_per_deg"]
    with pytest.raises(ValidationError, match=f"{name} must be finite and positive"):
        segment_gaze_ivt(gaze, params["velocity_threshold"])


def _label_runs_reference(flags):
    """The per-sample run labelling, kept verbatim as the oracle."""
    runs = []
    start = 0
    for i in range(1, len(flags)):
        if flags[i] != flags[start]:
            runs.append((start, i, bool(flags[start])))
            start = i
    runs.append((start, len(flags), bool(flags[start])))
    return runs


@settings(max_examples=300, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=200))
@example([True])
@example([False])
@example([True] * 50)
@example([False] * 50)
@example([True, False] * 25)
@example([False, True] * 25 + [False])
def test_label_runs_matches_per_sample_loop(values):
    flags = np.array(values, dtype=bool)
    runs = signals._label_runs(flags)
    assert runs == _label_runs_reference(flags)
    assert all(type(a) is int and type(b) is int and type(kind) is bool
               for a, b, kind in runs)


def test_short_runs_merge_into_their_neighbours(monkeypatch):
    # 60 Hz, 35 px/deg: a one-sample excursion at sample 1 (a short leading
    # run), a there-and-back spike at 30-31 (a two-sample saccade run inside
    # a fixation) and a five-sample ramp at 60-64 (a saccade)
    x = np.zeros(120)
    x[1:] = 70.0
    x[30] = 170.0
    x[60:65] = 70.0 + 100.0 * np.arange(1, 6)
    x[65:] = 570.0
    pupil = 900.0 + np.arange(120.0)
    gaze = GazeRecording(x, np.zeros(120), pupil, sample_rate=60.0, px_per_deg=35.0)
    events = segment_gaze_ivt(gaze)
    assert [(e.kind, round(e.start * 60), round(e.end * 60)) for e in events] == [
        ("saccade", 0, 2), ("fixation", 2, 60), ("saccade", 60, 65), ("fixation", 65, 120)]
    assert events[1].mean_pupil_area == float(pupil[2:60].mean())
    assert events[2].amplitude_deg == pytest.approx(500.0 / 35.0)
    monkeypatch.setattr(signals, "_label_runs", _label_runs_reference)
    assert segment_gaze_ivt(gaze) == events


def _fixations(count, total_time, window):
    each = total_time / count
    gap = (window[1] - window[0]) / count
    return [
        GazeEvent("fixation", window[0] + i * gap, window[0] + i * gap + each,
                  mean_pupil_area=900.0)
        for i in range(count)
    ]


def test_eye_metrics_per_minute_normalization():
    events = _fixations(30, 45.0, (0.0, 60.0))
    m = eye_metrics(events, (0.0, 60.0))
    assert m.fr == pytest.approx(30.0)
    assert m.ft == pytest.approx(45.0)

    m2 = eye_metrics(events, (0.0, 120.0))
    assert m2.fr == pytest.approx(15.0)
    assert m2.ft == pytest.approx(22.5)


def test_mean_saccade_amplitude():
    events = [
        GazeEvent("saccade", 0.0, 0.1, amplitude_deg=3.0),
        GazeEvent("saccade", 1.0, 1.1, amplitude_deg=5.0),
    ]
    m = eye_metrics(events, (0.0, 60.0))
    assert m.sa == pytest.approx(4.0)
    assert np.isnan(m.pa)
    assert m.fr == 0.0


def test_eye_metrics_additive_over_disjoint_windows():
    first = _fixations(10, 20.0, (0.0, 60.0))
    second = _fixations(20, 30.0, (60.0, 120.0))
    m1 = eye_metrics(first, (0.0, 60.0))
    m2 = eye_metrics(second, (60.0, 120.0))
    m = eye_metrics(first + second, (0.0, 120.0))
    assert m.fr == pytest.approx((m1.fr * 1 + m2.fr * 1) / 2)
    assert m.ft == pytest.approx((m1.ft + m2.ft) / 2)
    w1 = sum(e.duration for e in first)
    w2 = sum(e.duration for e in second)
    assert m.pa == pytest.approx((m1.pa * w1 + m2.pa * w2) / (w1 + w2))


def test_binary_timeseries_with_sidecar(tmp_path):
    samples = np.sin(np.linspace(0.0, 6.0, 250))
    path = tmp_path / "ecg.f64"
    samples.astype("<f8").tofile(path)
    (tmp_path / "ecg.json").write_text(json.dumps(
        {"sample_rate": 250.0, "units": "mV", "start_time": 12.5}))
    series = read_timeseries(path)
    assert series.samples.tobytes() == samples.tobytes()
    assert series.sample_rate == 250.0
    assert series.units == "mV"
    assert series.start_time == 12.5
    with pytest.raises(ValidationError, match="sidecar"):
        read_timeseries(tmp_path / "missing.f64")


@pytest.mark.parametrize(
    "sidecar",
    [
        '{"sample_rate": 250.0,', '{"units": "mV"}', '{"sample_rate": "fast"}', "[250]",
        '{"sample_rate": Infinity}', '{"sample_rate": NaN}', '{"sample_rate": 0}',
        '{"sample_rate": -250.0}', '{"sample_rate": 250.0, "start_time": NaN}',
    ],
)
def test_bad_sidecar_is_a_validation_error(tmp_path, sidecar):
    path = tmp_path / "ecg.f64"
    np.zeros(10).astype("<f8").tofile(path)
    (tmp_path / "ecg.json").write_text(sidecar)
    with pytest.raises(ValidationError, match="ecg.json"):
        read_timeseries(path)
    assert main(["extract", "--ecg", str(path)]) == 2


def test_truncated_binary_series_is_a_validation_error(tmp_path):
    path = tmp_path / "ecg.f64"
    path.write_bytes(np.zeros(1000).astype("<f8").tobytes() + b"\x00\x00\x00")
    (tmp_path / "ecg.json").write_text('{"sample_rate": 250.0}')
    with pytest.raises(ValidationError, match="ecg.f64: 8003 bytes"):
        read_timeseries(path)
    assert main(["extract", "--ecg", str(path)]) == 2


def test_signal_csvs_with_byte_order_mark(tmp_path):
    bundle = gen_synthetic_signals(SignalProfile(), 5.0)
    plain, excel = tmp_path / "plain.csv", tmp_path / "excel.csv"
    write_timeseries_csv(bundle.ecg, plain)
    excel.write_text(plain.read_text(encoding="utf-8"), encoding="utf-8-sig")
    assert excel.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read_timeseries(excel).samples.tobytes() == read_timeseries(plain).samples.tobytes()
    write_gaze_csv(bundle.gaze, plain)
    excel.write_text(plain.read_text(encoding="utf-8"), encoding="utf-8-sig")
    gaze = read_gaze_csv(excel, px_per_deg=35.0)
    assert gaze.x_px.tobytes() == read_gaze_csv(plain, px_per_deg=35.0).x_px.tobytes()


@pytest.mark.parametrize("rate", [0.0, -1.0, np.inf, np.nan])
def test_recordings_need_a_finite_positive_rate(rate):
    with pytest.raises(ValidationError, match="finite and positive"):
        TimeSeries(np.zeros(10), rate)
    with pytest.raises(ValidationError, match="finite and positive"):
        GazeRecording(np.zeros(10), np.zeros(10), np.zeros(10), rate)


_SIGNAL_HEADER = "time,value\n"
_GAZE_HEADER = "time,x,y,pupil_area\n"
_BAD_AXIS = "time axis is not finite and uniformly sampled"


@pytest.mark.parametrize(
    "flag, text, message",
    [
        ("--ecg", "", "expected 'time,value' header"),
        ("--ecg", _SIGNAL_HEADER, "need at least two samples"),
        ("--ecg", "t,value\n0.0,1.0\n0.01,2.0\n", "expected 'time,value' header"),
        ("--ecg", _SIGNAL_HEADER + "0.0,1.0\n0.01,abc\n", r"bad row 2: \['0.01', 'abc'\]"),
        ("--gaze", _GAZE_HEADER + "0.0,1,2,3\n0.02,1,2\n", r"bad row 2: \['0.02', '1', '2'\]"),
        ("--ecg", _SIGNAL_HEADER + "0.0,1\n0.01,2\n0.05,3\n", _BAD_AXIS),
        ("--ecg", _SIGNAL_HEADER + "0.0,1\nnan,2\n0.02,3\n", _BAD_AXIS),
    ],
    ids=["empty", "header-only", "wrong-header", "non-numeric", "short-gaze-row",
         "non-uniform", "nan-time"],
)
def test_bad_signal_csv_is_a_validation_error(tmp_path, flag, text, message):
    path = tmp_path / "signal.csv"
    path.write_text(text, encoding="utf-8")
    read = read_gaze_csv if flag == "--gaze" else read_timeseries
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        with pytest.raises(ValidationError, match=f"signal.csv: {message}"):
            read(path)
    assert not record, [str(w.message) for w in record]
    assert main(["extract", flag, str(path)]) == 2


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_gaze_csv_named_as_compressed_is_a_validation_error(tmp_path, suffix):
    # np.loadtxt would decompress the file its path names
    path = tmp_path / f"gaze{suffix}"
    path.write_text(_GAZE_HEADER + "0.0,1,2,3\n0.02,1,2,3\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=f"gaze{suffix}: a CSV name must not end in"):
        read_gaze_csv(path)
    assert main(["extract", "--gaze", str(path)]) == 2


def test_signal_csv_skips_blank_lines_and_counts_them_in_row_numbers(tmp_path):
    path = tmp_path / "signal.csv"
    path.write_text("time,value\n0.0,1.0\n\n0.01,2.0\n0.02,x\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="bad row 4"):
        read_timeseries(path)
    path.write_text("time,value\n0.0,1.0\n\n0.01,2.0\n", encoding="utf-8")
    assert read_timeseries(path).samples.tolist() == [1.0, 2.0]


# NaN is left out: its repr "nan" drops the sign and payload bits
_non_nan = st.floats(allow_nan=False, width=64)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(2, 40),
    rate=st.floats(1.0, 1000.0),
    start=st.floats(-1e3, 1e3),
    data=st.data(),
)
def test_sampled_csv_round_trip_is_bitwise(tmp_path_factory, n, rate, start, data):
    column = st.lists(_non_nan, min_size=n, max_size=n).map(np.asarray)
    path = tmp_path_factory.mktemp("round") / "signal.csv"
    series = TimeSeries(data.draw(column), rate, start_time=start)
    write_timeseries_csv(series, path)
    back = read_timeseries(path)
    assert back.samples.tobytes() == series.samples.tobytes()
    assert back.start_time == series.times()[0]

    gaze = GazeRecording(data.draw(column), data.draw(column), data.draw(column), rate, start)
    write_gaze_csv(gaze, path)
    back = read_gaze_csv(path)
    for name in ("x_px", "y_px", "pupil_area"):
        assert getattr(back, name).tobytes() == getattr(gaze, name).tobytes()


def _parse_rows_reference(lines, n_columns: int) -> np.ndarray:
    with warnings.catch_warnings():  # no rows is reported as too few samples
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, delimiter=",", quotechar='"', comments=None,
                          usecols=range(n_columns), ndmin=2)


def _read_sampled_csv_reference(path: Path, names: tuple) -> tuple[np.ndarray, float, float]:
    """io._read_sampled_csv as it was when it handed np.loadtxt the open
    file, kept verbatim (bar the names) as the oracle for the reader."""
    header = ("time", *names)
    # utf-8-sig drops the byte-order mark Excel writes in "CSV UTF-8"
    with utf8_text(path, csv_rows=True), open(path, encoding="utf-8-sig") as f:
        found = next(csv.reader(f), [])
        if [h.strip().lower() for h in found[: len(header)]] != list(header):
            raise ValidationError(f"{path}: expected '{','.join(header)}' header")
        try:
            data = _parse_rows_reference(f, len(header))
        except ValueError as exc:
            # name the first data row that also fails on its own
            f.seek(0)
            next(csv.reader(f))
            for i, line in enumerate(f, start=1):
                try:
                    _parse_rows_reference([line], len(header))
                except ValueError:
                    row = next(csv.reader([line]))
                    raise ValidationError(f"{path}: bad row {i}: {row}") from None
            raise ValidationError(f"{path}: {exc}") from None
    if len(data) < 2:
        raise ValidationError(f"{path}: need at least two samples")
    # a NaN or infinite time makes a NaN step or spread, and NaN fails the check
    with np.errstate(invalid="ignore", over="ignore"):
        steps = np.diff(data[:, 0])
        step = float(np.median(steps))
        uniform = step > 0 and np.abs(steps - step).max() <= step * 1e-3
    if not uniform:
        raise ValidationError(f"{path}: time axis is not finite and uniformly sampled")
    return data[:, 1:], 1.0 / step, float(data[0, 0])


def _read_outcome(read, path, names):
    """The loaded arrays, rate and start time as bytes, or the error text."""
    try:
        values, rate, start = read(path, names)
    except ValidationError as exc:
        return str(exc)
    return values.shape, values.tobytes(), rate.hex(), start.hex()


_number_text = st.one_of(
    st.floats(width=64).map(repr),
    st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "+1", "1e3", ".5"]),
)
_bad_number_text = st.sampled_from(["abc", "", "1_0", "1.0.0", "0x10"])


@st.composite
def _cell(draw, text=_number_text):
    """A cell's text, now and then not a number, with optional spaces
    around it and optionally quoted."""
    cell = draw(text if draw(st.integers(0, 99)) else _bad_number_text)
    cell = draw(st.sampled_from(["", " ", "  "])) + cell + draw(st.sampled_from(["", " "]))
    return f'"{cell}"' if draw(st.integers(0, 4)) == 0 else cell


# cells past the named columns, which the reader ignores; a quoted one
# may hold a comma or a line end
_extra_cell = st.one_of(
    st.text(alphabet="ab1. ", max_size=3),
    st.text(alphabet="ab1,\n\r", max_size=3).map(lambda s: f'"{s}"'),
)


@st.composite
def _sampled_csv_texts(draw):
    """(column names, CSV text): mostly a good recording, at times a bad one."""
    names = draw(st.sampled_from([("value",), ("x", "y", "pupil_area")]))
    line_end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    header = [draw(st.sampled_from([h, h.upper(), f" {h} "])) for h in ("time", *names)]
    lines = [",".join(header + draw(st.lists(_extra_cell, max_size=2)))]
    rate = draw(st.sampled_from([1.0, 60.0, 256.0]))
    start = draw(st.sampled_from([0.0, -2.5, 1e3]))
    for i in range(draw(st.integers(0, 12))):
        lines += [""] * draw(st.integers(0, 1))
        good_time = draw(st.integers(0, 29)) > 0
        cells = [draw(_cell(st.just(repr(start + i / rate)) if good_time else _number_text))]
        cells += [draw(_cell()) for _ in names]
        if draw(st.integers(0, 9)) == 0:
            cells += draw(st.lists(_extra_cell, min_size=1, max_size=2))
        if draw(st.integers(0, 29)) == 0:
            cells.pop()  # a short row
        lines.append(",".join(cells))
    text = line_end.join(lines) + draw(st.sampled_from([line_end, ""]))
    return names, draw(st.sampled_from(["", "\ufeff"])) + text


@settings(max_examples=400, deadline=None)
@given(case=_sampled_csv_texts())
def test_csv_reader_matches_file_object_reference(tmp_path_factory, case):
    names, text = case
    path = tmp_path_factory.mktemp("csv") / "signal.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = _read_outcome(_read_sampled_csv_reference, path, names)
    assert _read_outcome(drivedml_io._read_sampled_csv, path, names) == expected


def test_csv_header_cell_holding_a_line_end(tmp_path):
    # the header record spans two physical lines, and skipping it must skip both
    path = tmp_path / "signal.csv"
    path.write_bytes(b'time,value,"a\nb"\n0.0,1.0\n0.01,2.0\n0.02,3.0\n')
    assert read_timeseries(path).samples.tolist() == [1.0, 2.0, 3.0]
    expected = _read_outcome(_read_sampled_csv_reference, path, ("value",))
    assert _read_outcome(drivedml_io._read_sampled_csv, path, ("value",)) == expected


def test_csv_readers_hand_numpy_a_path(tmp_path, monkeypatch):
    # numpy reads a path in chunks but iterates a file object or a list one
    # Python line per row, about a fifth slower on a 60 000-row recording
    bundle = gen_synthetic_signals(SignalProfile(), 5.0)
    write_timeseries_csv(bundle.ecg, tmp_path / "ecg.csv")
    write_gaze_csv(bundle.gaze, tmp_path / "gaze.csv")
    sources = []
    loadtxt = np.loadtxt

    def recording_loadtxt(fname, *args, **kwargs):
        sources.append(type(fname))
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recording_loadtxt)
    read_timeseries(tmp_path / "ecg.csv")
    read_gaze_csv(str(tmp_path / "gaze.csv"))
    assert len(sources) == 2
    assert all(issubclass(t, (str, os.PathLike)) for t in sources), sources
