"""Per-drive feature extraction from raw sensor time series.

Covers the four channels used in the study: electrodermal activity
(tonic level and phasic response amplitude), ECG (R-peak detection and
time/frequency HRV), respiration (rate, depth, variation) and eye
tracking (fixation/saccade metrics). Every feature covers the whole
record, and the detection thresholds are the module constants below.

All three preprocessing filters are applied zero-phase (forward plus
time-reversed pass), so feature timing is preserved and the effective
attenuation is the square of the single-pass response.

``scipy.signal`` is imported by the three functions that call it
(``design_butterworth``, ``filtfilt`` and ``hrv_freq_domain``), not by
this module. Every command but ``extract`` imports this module for its
data types only, so it never loads scipy: importing every drivedml
module takes about 34 MiB of RSS and 0.3 s without scipy.signal, and
105 MiB and 1.6 s with it (README, "Memory and import cost").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoSignalError, SignalError, ValidationError

EDA_LOWPASS_HZ = 5.0
EDA_FILTER_ORDER = 4
SCR_ONSET_SLOPE = 0.05      # uS/s of first-difference slope that starts a response
SCR_MIN_AMPLITUDE = 0.01    # uS; smaller responses are discarded
RESP_MIN_DEPTH = 0.05       # peak-to-trough floor of a counted breath cycle
IVT_VELOCITY_THRESHOLD = 30.0  # deg/s of gaze velocity above which a sample is a saccade
ECG_BANDPASS_HZ = (3.0, 45.0)
ECG_FILTER_ORDER = 2
RESP_BANDPASS_HZ = (0.1, 0.35)
RESP_FILTER_ORDER = 2

LF_BAND_HZ = (0.04, 0.15)
HF_BAND_HZ = (0.15, 0.40)
TACHOGRAM_RATE_HZ = 4.0


@dataclass
class TimeSeries:
    """Uniformly sampled sensor channel."""

    samples: np.ndarray
    sample_rate: float
    units: str = ""
    start_time: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if not 0.0 < self.sample_rate < np.inf:
            raise ValidationError("sample_rate must be finite and positive")
        if self.samples.ndim != 1 or len(self.samples) == 0:
            raise ValidationError("samples must be a non-empty vector")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

    def times(self) -> np.ndarray:
        return self.start_time + np.arange(len(self.samples)) / self.sample_rate


@dataclass
class IirFilter:
    """IIR filter as numerator/denominator coefficients at a sample rate."""

    numerator: np.ndarray
    denominator: np.ndarray
    sample_rate: float

    def is_stable(self) -> bool:
        poles = np.roots(self.denominator)
        return bool((np.abs(poles) < 1.0).all())

    def dc_gain(self) -> float:
        return float(self.numerator.sum() / self.denominator.sum())


def design_butterworth(kind: str, order: int, cutoffs_hz, sample_rate: float) -> IirFilter:
    """Digital Butterworth design (analog prototype, bilinear transform).

    Frequencies are pre-warped so the -3 dB points land exactly on the
    requested cutoffs. The returned filter is checked for stability, and
    a lowpass design for unit DC gain.
    """
    if kind not in ("lowpass", "bandpass"):
        raise ValidationError(f"unsupported filter kind {kind!r}")
    if not 1 <= order <= 8:
        raise ValidationError("order must be between 1 and 8")
    cutoffs = tuple(float(c) for c in np.atleast_1d(cutoffs_hz))
    nyquist = sample_rate / 2.0
    for c in cutoffs:
        if not 0.0 < c < nyquist:
            raise ValidationError(f"cutoff {c} Hz outside (0, Nyquist={nyquist})")
    if kind == "lowpass" and len(cutoffs) != 1:
        raise ValidationError("lowpass takes exactly one cutoff")
    if kind == "bandpass":
        if len(cutoffs) != 2 or cutoffs[0] >= cutoffs[1]:
            raise ValidationError("bandpass takes two ascending cutoffs")
    from scipy import signal as sps

    b, a = sps.butter(order, cutoffs if len(cutoffs) > 1 else cutoffs[0],
                      btype=kind, fs=sample_rate)
    filt = IirFilter(
        numerator=np.asarray(b, dtype=np.float64),
        denominator=np.asarray(a, dtype=np.float64),
        sample_rate=sample_rate,
    )
    if not filt.is_stable():
        raise SignalError(f"designed {kind} filter at {cutoffs} Hz is unstable")
    if kind == "lowpass" and abs(filt.dc_gain() - 1.0) > 1e-9:
        raise SignalError("lowpass DC gain deviates from unity")
    return filt


def frequency_response(filt: IirFilter, freqs_hz) -> np.ndarray:
    """Complex gain of the single-pass filter at the given frequencies."""
    freqs = np.atleast_1d(np.asarray(freqs_hz, dtype=np.float64))
    z_inv = np.exp(-2j * np.pi * freqs / filt.sample_rate)
    num = np.polyval(filt.numerator[::-1], z_inv)
    den = np.polyval(filt.denominator[::-1], z_inv)
    return num / den


def filtfilt(filt: IirFilter, x: TimeSeries) -> TimeSeries:
    """Zero-phase application: forward pass then time-reversed pass.

    Edges are padded with an odd-symmetric reflection three filter
    lengths long; output length equals input length.
    """
    padlen = 3 * len(filt.denominator)
    if len(x.samples) <= padlen:
        raise SignalError(
            f"series of {len(x.samples)} samples too short for zero-phase "
            f"filtering (needs more than {padlen})"
        )
    from scipy import signal as sps

    y = sps.filtfilt(filt.numerator, filt.denominator, x.samples,
                     padtype="odd", padlen=padlen)
    return TimeSeries(y, x.sample_rate, x.units, x.start_time)


# ---------------------------------------------------------------------------
# Electrodermal activity


@dataclass
class EdaFeatures:
    """Whole-record EDA summary; an event is one detected phasic response."""

    scl: float            # tonic mean, uS
    scr: float            # mean phasic event amplitude, uS (0 when no events)
    scr_rate: float       # events per minute
    scr_sum: float        # summed event amplitude, uS


def extract_eda(x: TimeSeries) -> EdaFeatures:
    """Tonic level and phasic responses over the whole 5 Hz low-passed record.

    A response onset is a run of first-difference slope above
    ``SCR_ONSET_SLOPE``; its amplitude is the local peak minus the onset
    value, and events below ``SCR_MIN_AMPLITUDE`` are discarded.
    """
    filt = design_butterworth("lowpass", EDA_FILTER_ORDER, EDA_LOWPASS_HZ, x.sample_rate)
    seg = filtfilt(filt, x).samples
    if x.duration < 10.0:
        raise SignalError("EDA record must be at least 10 s")
    scl = float(seg.mean())

    slope = np.diff(seg) * x.sample_rate
    rising = slope > SCR_ONSET_SLOPE
    starts = np.flatnonzero(np.diff(rising.astype(np.int8)) == 1) + 1
    if rising.size and rising[0]:
        starts = np.concatenate(([0], starts))

    amps = []
    for onset in starts:
        after = np.flatnonzero(slope[onset:] <= 0.0)
        if after.size == 0:
            continue  # rise does not complete inside the record
        amplitude = float(seg[onset + int(after[0])] - seg[onset])
        if amplitude >= SCR_MIN_AMPLITUDE:
            amps.append(amplitude)

    return EdaFeatures(
        scl=scl,
        scr=float(np.mean(amps)) if amps else 0.0,
        scr_rate=len(amps) / (x.duration / 60.0),
        scr_sum=float(np.sum(amps)) if amps else 0.0,
    )


# ---------------------------------------------------------------------------
# ECG / heart-rate variability


def detect_r_peaks(ecg: TimeSeries) -> np.ndarray:
    """R-wave times via Pan-Tompkins with adaptive dual thresholds.

    Pipeline: 3-45 Hz band-pass, five-point derivative, squaring, 150 ms
    moving-window integration, then adaptive signal/noise thresholds with
    a 200 ms refractory period and a search-back pass at 1.66x the running
    RR average. Reported times are refined to the local maximum of the
    band-passed signal within +-40 ms.
    """
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

    # The threshold state machine is sequential: each decision moves the
    # levels the next one reads. It reads the candidates through
    # memoryviews, one Python number at a time: these give the same IEEE
    # results as numpy scalars at less cost per read, and unlike tolist()
    # build no list of every candidate (a 600 s drive with 60 Hz mains
    # noise has about 17 000). rr_avg changes only when a beat adds an RR interval.
    amps = mwi[cand]
    accepted: list[int] = []
    rr_history: list[float] = []
    # mean of the last 8 RR intervals once there are two; np.mean, as a
    # Python sum() of 8 values rounds differently from numpy's pairwise sum
    rr_avg = None

    def add_beat(idx: int) -> None:
        nonlocal rr_avg
        if accepted:
            rr_history.append((idx - accepted[-1]) / fs)
            if len(rr_history) >= 2:
                rr_avg = float(np.mean(rr_history[-8:]))
        accepted.append(idx)

    for ci, (idx, amp) in enumerate(zip(memoryview(cand), memoryview(amps))):
        if accepted and idx - accepted[-1] < refractory:
            continue
        if amp >= npki + 0.25 * (spki - npki):
            add_beat(idx)
            spki = 0.125 * amp + 0.875 * spki
            continue
        npki = 0.125 * amp + 0.875 * npki
        if rr_avg is not None and (idx - accepted[-1]) / fs > 1.66 * rr_avg:
            # search back over the skipped candidates for the largest one
            # (the first of equal maxima) above the lower threshold
            first = int(np.searchsorted(cand, accepted[-1] + refractory))
            best = first + int(np.argmax(amps[first : ci + 1]))
            best_amp = float(amps[best])
            if best_amp > 0.5 * (npki + 0.25 * (spki - npki)):
                spki = 0.25 * best_amp + 0.75 * spki
                add_beat(int(cand[best]))

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


@dataclass
class HrvTimeDomain:
    hr: float      # beats per minute
    rmssd: float   # ms
    sdnn: float    # ms


@dataclass
class HrvFreqDomain:
    lf: float      # band power, ms^2
    hf: float      # band power, ms^2
    lf_hf: float   # ratio; NaN when HF power is zero


def hrv_time_domain(peaks) -> HrvTimeDomain:
    """HR, RMSSD and SDNN from R-peak times (RR intervals in ms)."""
    peaks = np.asarray(peaks, dtype=np.float64)
    if len(peaks) < 3:
        raise SignalError("need at least 3 peaks for time-domain HRV")
    rr_ms = np.diff(peaks) * 1000.0
    hr = 60000.0 / float(rr_ms.mean())
    rmssd = float(np.sqrt(np.mean(np.diff(rr_ms) ** 2)))
    sdnn = float(rr_ms.std(ddof=1))
    return HrvTimeDomain(hr=hr, rmssd=rmssd, sdnn=sdnn)


def hrv_freq_domain(peaks) -> HrvFreqDomain:
    """LF/HF band powers of the RR tachogram via Welch's method.

    The tachogram is linearly interpolated to a uniform 4 Hz series and
    mean-subtracted; Welch uses a Hann window with 64 s segments (or the
    whole series when shorter) at 50% overlap. Band powers integrate the
    PSD over 0.04-0.15 Hz and 0.15-0.40 Hz and are reported in ms^2.
    """
    peaks = np.asarray(peaks, dtype=np.float64)
    if len(peaks) < 3 or peaks[-1] - peaks[0] < 30.0:
        raise SignalError("need at least 30 s of peaks for frequency-domain HRV")
    rr_ms = np.diff(peaks) * 1000.0
    rr_times = peaks[1:]
    grid = np.arange(rr_times[0], rr_times[-1], 1.0 / TACHOGRAM_RATE_HZ)
    tach = np.interp(grid, rr_times, rr_ms)
    tach = tach - tach.mean()
    nperseg = min(int(64 * TACHOGRAM_RATE_HZ), len(tach))
    from scipy import signal as sps

    freqs, psd = sps.welch(
        tach,
        fs=TACHOGRAM_RATE_HZ,
        window="hann",
        nperseg=nperseg,
        noverlap=nperseg // 2,
        detrend=False,
    )
    lf_mask = (freqs >= LF_BAND_HZ[0]) & (freqs <= LF_BAND_HZ[1])
    hf_mask = (freqs >= HF_BAND_HZ[0]) & (freqs <= HF_BAND_HZ[1])
    lf = float(np.trapezoid(psd[lf_mask], freqs[lf_mask]))
    hf = float(np.trapezoid(psd[hf_mask], freqs[hf_mask]))
    # a zero-variance tachogram leaves only numerical dust; the ratio is
    # undefined there, reported as NaN rather than raised
    ratio = lf / hf if hf > 1e-12 else float("nan")
    return HrvFreqDomain(lf=lf, hf=hf, lf_hf=ratio)


# ---------------------------------------------------------------------------
# Respiration


@dataclass
class RespFeatures:
    """Whole-record respiration summary over the counted breath cycles."""

    rr: float   # respirations per minute
    rd: float   # mean peak-to-trough depth, signal units
    rv: float   # interval variation, percent


def extract_resp(x: TimeSeries) -> RespFeatures:
    """Breath cycles over the whole 0.1-0.35 Hz band-passed record.

    Cycles are delimited by rising zero crossings; cycles whose
    peak-to-trough amplitude falls under ``RESP_MIN_DEPTH`` are
    discarded. Rate uses breaths per unit of covered cycle time, depth is
    the mean amplitude, and variation is the interval coefficient of
    variation in percent (sample standard deviation).
    """
    band = design_butterworth("bandpass", RESP_FILTER_ORDER, RESP_BANDPASS_HZ, x.sample_rate)
    seg = filtfilt(band, x).samples
    if x.duration < 30.0:
        raise SignalError("respiration record must be at least 30 s")
    fs, t0 = x.sample_rate, x.start_time

    below = seg[:-1] < 0.0
    atabove = seg[1:] >= 0.0
    crossings = np.flatnonzero(below & atabove)
    if crossings.size < 2:
        raise NoSignalError("no detectable breath cycles")
    # interpolated crossing times
    frac = -seg[crossings] / (seg[crossings + 1] - seg[crossings])
    cross_t = t0 + (crossings + frac) / fs
    # the filter's edge transients perturb the outermost cycles; drop up to
    # five per side when enough cycles remain
    n_int = len(crossings) - 1
    trim = min(5, max(0, (n_int - 4) // 4))
    if trim:
        crossings = crossings[trim:-trim]
        cross_t = cross_t[trim:-trim]

    durations = []
    depths = []
    for k in range(len(crossings) - 1):
        lo, hi = crossings[k], crossings[k + 1]
        cycle = seg[lo : hi + 1]
        depth = float(cycle.max() - cycle.min())
        if depth < RESP_MIN_DEPTH:
            continue
        durations.append(cross_t[k + 1] - cross_t[k])
        depths.append(depth)
    if not durations:
        raise NoSignalError("no breath cycles above the prominence floor")

    durations = np.asarray(durations)
    rate = len(durations) / durations.sum() * 60.0
    variation = (
        100.0 * float(durations.std(ddof=1)) / float(durations.mean())
        if len(durations) > 1
        else 0.0
    )
    return RespFeatures(
        rr=float(rate),
        rd=float(np.mean(depths)),
        rv=variation,
    )


# ---------------------------------------------------------------------------
# Eye tracking


@dataclass
class GazeRecording:
    """Sampled gaze position (pixels) with pupil area."""

    x_px: np.ndarray
    y_px: np.ndarray
    pupil_area: np.ndarray
    sample_rate: float
    start_time: float = 0.0
    px_per_deg: float | None = None

    def __post_init__(self):
        self.x_px = np.asarray(self.x_px, dtype=np.float64)
        self.y_px = np.asarray(self.y_px, dtype=np.float64)
        self.pupil_area = np.asarray(self.pupil_area, dtype=np.float64)
        if not len(self.x_px) == len(self.y_px) == len(self.pupil_area):
            raise ValidationError("gaze channels must have equal length")
        if not 0.0 < self.sample_rate < np.inf:
            raise ValidationError("sample_rate must be finite and positive")

    def __len__(self):
        return len(self.x_px)

    @property
    def duration(self) -> float:
        return len(self) / self.sample_rate


@dataclass
class GazeEvent:
    kind: str              # "fixation" | "saccade"
    start: float
    end: float
    mean_pupil_area: float | None = None
    amplitude_deg: float = 0.0

    def __post_init__(self):
        if self.end <= self.start:
            raise ValidationError("gaze event must have positive duration")
        if self.amplitude_deg < 0:
            raise ValidationError("saccade amplitude cannot be negative")

    @property
    def duration(self) -> float:
        return self.end - self.start


_MIN_EVENT_SAMPLES = 3


def check_gaze_params(velocity_threshold: float, px_per_deg: float) -> None:
    """Raise unless the I-VT threshold (deg/s) and the pixel scale are
    finite and positive: a NaN scale or an infinite threshold finds no
    saccade, and a negative threshold makes every sample one."""
    for name, value in (("velocity_threshold", velocity_threshold), ("px_per_deg", px_per_deg)):
        if not 0.0 < value < float("inf"):
            raise ValidationError(f"{name} must be finite and positive, got {value!r}")


def segment_gaze_ivt(gaze: GazeRecording,
                     velocity_threshold: float = IVT_VELOCITY_THRESHOLD) -> list:
    """Velocity-threshold segmentation into fixations and saccades.

    Per-sample angular velocity is the pixel displacement divided by the
    recording's ``px_per_deg`` times the sample rate, so a recording
    without that scale is a ValidationError; runs above the threshold become
    saccades (amplitude = total angular displacement) and runs below
    become fixations. Runs shorter than 3 samples merge into their
    neighbor.
    """
    scale = gaze.px_per_deg
    if scale is None:
        raise ValidationError("px_per_deg scale is required")
    check_gaze_params(velocity_threshold, scale)
    if gaze.sample_rate < 30.0:
        raise SignalError("gaze sample rate must be at least 30 Hz")
    n = len(gaze)
    if n == 0:
        raise ValidationError("empty gaze recording")
    fs = gaze.sample_rate

    disp_px = np.hypot(np.diff(gaze.x_px), np.diff(gaze.y_px))
    disp_deg = np.concatenate(([0.0], disp_px / scale))
    velocity = disp_deg * fs
    is_saccade = velocity > velocity_threshold

    runs = _label_runs(is_saccade)
    runs = _merge_short_runs(runs)

    events = []
    for start, stop, saccade in runs:
        t_start = gaze.start_time + start / fs
        t_end = gaze.start_time + stop / fs
        if saccade:
            amplitude = float(disp_deg[start:stop].sum())
            events.append(GazeEvent("saccade", t_start, t_end, None, amplitude))
        else:
            pupil = float(gaze.pupil_area[start:stop].mean())
            events.append(GazeEvent("fixation", t_start, t_end, pupil, 0.0))
    return events


def _label_runs(flags: np.ndarray) -> list:
    """Contiguous (start, stop, value) runs of a non-empty boolean vector."""
    edges = (np.flatnonzero(flags[1:] != flags[:-1]) + 1).tolist()
    starts = [0] + edges
    return list(zip(starts, edges + [len(flags)], flags[starts].tolist()))


def _merge_short_runs(runs: list) -> list:
    merged = []
    for run in runs:
        start, stop, kind = run
        if stop - start < _MIN_EVENT_SAMPLES and merged:
            pstart, _, pkind = merged[-1]
            merged[-1] = (pstart, stop, pkind)
        elif stop - start < _MIN_EVENT_SAMPLES and len(runs) > 1:
            # a short leading run adopts the kind of what follows
            merged.append((start, stop, not kind))
        else:
            merged.append(run)
    # coalesce neighbors of equal kind
    out = []
    for run in merged:
        if out and out[-1][2] == run[2]:
            out[-1] = (out[-1][0], run[1], run[2])
        else:
            out.append(run)
    return out


@dataclass
class EyeMetrics:
    pa: float   # duration-weighted mean pupil area over fixations (NaN if none)
    fr: float   # fixations per minute
    ft: float   # fixation seconds per minute
    sr: float   # saccades per minute
    st: float   # saccade seconds per minute
    sa: float   # mean saccade amplitude, degrees


def eye_metrics(events, window) -> EyeMetrics:
    """Rate/time/amplitude summary of gaze events over a window."""
    t0, t1 = float(window[0]), float(window[1])
    minutes = (t1 - t0) / 60.0
    if minutes <= 0:
        raise SignalError("window duration must be positive")
    fixations = [e for e in events if e.kind == "fixation"]
    saccades = [e for e in events if e.kind == "saccade"]

    fix_time = sum(e.duration for e in fixations)
    if fix_time > 0:
        pa = sum(e.duration * e.mean_pupil_area for e in fixations) / fix_time
    else:
        pa = float("nan")
    sa = float(np.mean([e.amplitude_deg for e in saccades])) if saccades else 0.0
    return EyeMetrics(
        pa=float(pa),
        fr=len(fixations) / minutes,
        ft=fix_time / minutes,
        sr=len(saccades) / minutes,
        st=sum(e.duration for e in saccades) / minutes,
        sa=sa,
    )


# ---------------------------------------------------------------------------
# Whole-drive convenience


def extract_drive_features(
    ecg: TimeSeries | None = None,
    eda: TimeSeries | None = None,
    resp: TimeSeries | None = None,
    gaze: GazeRecording | None = None,
    velocity_threshold: float = IVT_VELOCITY_THRESHOLD,
) -> dict:
    """All per-drive feature columns available from the given channels.

    The feature window is the whole record for every channel. Gaze uses
    the recording's own ``px_per_deg`` scale.
    """
    out: dict[str, float] = {}
    if eda is not None:
        e = extract_eda(eda)
        out["SCL"] = e.scl
        out["SCR"] = e.scr
    if ecg is not None:
        peaks = detect_r_peaks(ecg)
        td = hrv_time_domain(peaks)
        out["HR"] = td.hr
        out["RMSSD"] = td.rmssd
        out["SDNN"] = td.sdnn
        fd = hrv_freq_domain(peaks)
        out["LF"] = fd.lf
        out["HF"] = fd.hf
        out["LFHF"] = fd.lf_hf
    if resp is not None:
        r = extract_resp(resp)
        out["RR"] = r.rr
        out["RD"] = r.rd
        out["RV"] = r.rv
    if gaze is not None:
        events = segment_gaze_ivt(gaze, velocity_threshold)
        m = eye_metrics(events, (gaze.start_time, gaze.start_time + gaze.duration))
        out["PA"] = m.pa
        out["FR"] = m.fr
        out["FT"] = m.ft
        out["SR"] = m.sr
        out["ST"] = m.st
        out["SA"] = m.sa
    return out
