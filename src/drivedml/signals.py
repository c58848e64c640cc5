"""Per-drive feature extraction from raw sensor time series.

Covers the four channels used in the study. Each extractor returns the
study columns it fills (``study_data.SYMBOL_VARS``) as a dict:

- ``extract_eda``: SCL and SCR in uS;
- ``hrv_time_domain`` of ``detect_r_peaks``' R peaks: HR in bpm, RMSSD
  and SDNN in ms;
- ``hrv_freq_domain``: LF and HF in ms^2, LFHF their ratio (NaN when HF
  power is 0);
- ``extract_resp``: RR in breaths/min, RD in signal units, RV in %;
- ``eye_metrics`` of ``segment_gaze_ivt``'s events: PA in pupil-area
  units, FR and SR per minute, FT and ST in seconds per minute, SA in
  degrees.

Every feature covers the whole record, and the detection thresholds are
the module constants below.

All three preprocessing filters are applied zero-phase (forward plus
time-reversed pass), so feature timing is preserved and the effective
attenuation is the square of the single-pass response.

Everything here is numpy: the Butterworth design, the zero-phase
filter and Welch's PSD are written out below, so ``drivedml extract``
imports no scipy (README, "Memory and import cost"). The filter's one-
BLAS-thread pin comes from the private ``_blas`` module, so this module
and ``io``, which reads the raw recordings, import no estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import _one_blas_thread
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


@dataclass
class IirFilter:
    """IIR filter as cascaded second-order sections at a sample rate.

    Each row of ``sections`` is ``(b0, b1, b2, 1, a1, a2)`` of one section
    ``(b0 + b1 z^-1 + b2 z^-2) / (1 + a1 z^-1 + a2 z^-2)``; the overall
    gain sits in the first row. ``zeros``, ``poles`` and ``gain`` are the
    same filter in factored form.
    """

    sections: np.ndarray
    zeros: np.ndarray
    poles: np.ndarray
    gain: float
    sample_rate: float

    def is_stable(self) -> bool:
        return bool((np.abs(self.poles) < 1.0).all())

    def dc_gain(self) -> float:
        s = self.sections
        return float(np.prod(s[:, :3].sum(axis=1) / s[:, 3:].sum(axis=1)))


def design_butterworth(kind: str, order: int, cutoffs_hz, sample_rate: float) -> IirFilter:
    """Digital Butterworth design (analog prototype, bilinear transform).

    Frequencies are pre-warped so the -3 dB points land exactly on the
    requested cutoffs. The analog prototype's poles are scaled to a
    lowpass or mapped to a bandpass, taken to the z-plane by the bilinear
    transform ``z = (2 + s) / (2 - s)``, and conjugate pairs (or two real
    poles) become one section each, ordered by pole radius so the poles
    nearest the unit circle come last. The returned filter is checked for
    stability, and a lowpass design for unit DC gain.
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

    prototype = -np.exp(1j * np.pi * np.arange(-order + 1, order, 2) / (2 * order))
    warped = [2.0 * np.tan(np.pi * c / sample_rate) for c in cutoffs]
    if kind == "lowpass":
        s_zeros = np.empty(0)
        s_poles = prototype * warped[0]
        s_gain = warped[0] ** order
    else:
        bw = warped[1] - warped[0]
        center_sq = warped[0] * warped[1]
        half = prototype * (bw / 2.0)
        offset = np.sqrt(half**2 - center_sq)
        s_zeros = np.zeros(order)
        s_poles = np.concatenate((half + offset, half - offset))
        s_gain = bw**order
    zeros = np.concatenate(((2.0 + s_zeros) / (2.0 - s_zeros),
                            -np.ones(len(s_poles) - len(s_zeros)))).astype(complex)
    poles = (2.0 + s_poles) / (2.0 - s_poles)
    gain = float(s_gain * np.real(np.prod(2.0 - s_zeros) / np.prod(2.0 - s_poles)))

    # (pole radius, a1, a2) per section: a conjugate pair, two real poles,
    # or the one real pole of an odd lowpass order (a2 = 0)
    upper = poles[poles.imag > 1e-12]
    real = np.sort(poles[np.abs(poles.imag) <= 1e-12].real)
    dens = [(abs(p), -2.0 * p.real, abs(p) ** 2) for p in upper]
    dens += [(max(abs(r1), abs(r2)), -(r1 + r2), r1 * r2)
             for r1, r2 in zip(real[0::2], real[1::2])]
    if len(real) % 2:
        dens.append((abs(real[-1]), -real[-1], 0.0))
    dens.sort()
    # lowpass zeros sit at z = -1, bandpass zeros at z = 1 and z = -1
    if kind == "lowpass":
        nums = [(1.0, 2.0, 1.0) if a2 else (1.0, 1.0, 0.0) for _, _, a2 in dens]
    else:
        nums = [(1.0, 0.0, -1.0)] * len(dens)
    sections = np.array([num + (1.0, a1, a2) for num, (_, a1, a2) in zip(nums, dens)])
    sections[0, :3] *= gain
    filt = IirFilter(sections=sections, zeros=zeros, poles=poles, gain=gain,
                     sample_rate=sample_rate)
    if not filt.is_stable():
        raise SignalError(f"designed {kind} filter at {cutoffs} Hz is unstable")
    if kind == "lowpass" and abs(filt.dc_gain() - 1.0) > 1e-9:
        raise SignalError("lowpass DC gain deviates from unity")
    return filt


def frequency_response(filt: IirFilter, freqs_hz) -> np.ndarray:
    """Complex gain of the single-pass filter at the given frequencies.

    Evaluated from the factors ``gain * prod(1 - z_k/z) / prod(1 - p_k/z)``
    rather than from the sections' polynomials: next to Nyquist each
    lowpass numerator ``1 + 2/z + 1/z^2`` cancels to exactly zero, while
    each factor ``1 + 1/z`` keeps its small imaginary part.
    """
    freqs = np.atleast_1d(np.asarray(freqs_hz, dtype=np.float64))
    z_inv = np.exp(-2j * np.pi * freqs / filt.sample_rate)[:, None]
    num = np.prod(1.0 - filt.zeros * z_inv, axis=1)
    den = np.prod(1.0 - filt.poles * z_inv, axis=1)
    return filt.gain * num / den


_BLOCK = 64  # samples per block of the block recurrence


def _section_state_space(beta1: float, beta2: float, a1: float, a2: float):
    """``(A, B, C)`` with ``C (zI - A)^-1 B = (beta1 z + beta2) / (z^2 + a1 z + a2)``.

    A complex pole pair ``sigma +- i omega`` gets the coupled form
    ``A = [[sigma, -omega], [omega, sigma]]``, a scaled rotation whose
    powers never grow, with B and C of equal norm. In the direct form the
    powers of A grow like ``1 / omega`` (about 400 for the respiration
    band at 500 Hz), and so does the block recurrence's rounding error.
    Two real poles become two first-order stages in series.
    """
    sigma = -a1 / 2.0
    if a2 > sigma * sigma:
        omega = np.sqrt(a2 - sigma * sigma)
        cross = (beta2 + sigma * beta1) / omega
        rho = np.sqrt(np.hypot(beta1, cross))
        return (np.array([[sigma, -omega], [omega, sigma]]),
                np.array([beta1, -cross]) / rho, np.array([rho, 0.0]))
    r1 = sigma + np.copysign(np.sqrt(sigma * sigma - a2), sigma)
    r2 = a2 / r1 if r1 else 0.0
    return (np.array([[r1, 0.0], [1.0, r2]]), np.array([1.0, 0.0]),
            np.array([beta1, beta2 + beta1 * r2]))


@dataclass
class _BlockRecurrence:
    """The cascade of sections as one state-space system, in 64-sample blocks.

    With state ``s`` (two per section) a block's output is ``y = T x + O s``
    and its end state ``P s + R x``, where ``T`` is the lower-triangular
    Toeplitz matrix of the impulse response. ``M`` stacks ``T`` and ``O``
    so that one product gives every block's output. ``steady`` is the
    state a unit step settles in.
    """

    M: np.ndarray        # (L + m, L): [T^T; O^T]
    R: np.ndarray        # (m, L)
    P: np.ndarray        # (m, m)
    steady: np.ndarray   # (m,)

    @classmethod
    def of(cls, sections: np.ndarray) -> "_BlockRecurrence":
        m = 2 * len(sections)
        A = np.zeros((m, m))
        B = np.zeros(m)
        C = np.zeros(m)
        D = 1.0
        for i, (b0, b1, b2, _, a1, a2) in enumerate(sections):
            Ai, Bi, Ci = _section_state_space(b1 - a1 * b0, b2 - a2 * b0, a1, a2)
            # section i reads the output C s + D x of the sections before it
            sl = slice(2 * i, 2 * i + 2)
            A[sl] = np.outer(Bi, C)
            A[sl, sl] = Ai
            B[sl] = Bi * D
            C = b0 * C
            C[sl] += Ci
            D = b0 * D
        # rows C A^k and columns A^k B for k < L, doubled up to L
        O = C[None, :]
        V = B[:, None]
        power = A
        while len(O) < _BLOCK:
            O = np.vstack((O, O @ power))
            V = np.hstack((V, power @ V))
            power = power @ power
        h = np.concatenate(([D], O[:-1] @ B))
        lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
        T = np.where(lag >= 0, h[np.maximum(lag, 0)], 0.0)
        steady = np.linalg.solve(np.eye(m) - A, B)
        return cls(np.vstack((T.T, O.T)), V[:, ::-1], power, steady)

    def run(self, XS: np.ndarray, state: np.ndarray, out: np.ndarray) -> None:
        """Filter the blocks in ``XS[:, :L]`` from the start state ``state``
        into ``out``; ``XS[:, L:]`` receives each block's start state."""
        X, S = XS[:, :_BLOCK], XS[:, _BLOCK:]
        # S[j] = P S[j-1] + R x_(j-1), as a doubling scan
        S[0] = state
        S[1:] = X[:-1] @ self.R.T
        power = self.P
        step = 1
        while step < len(S):
            S[step:] += S[:-step] @ power.T
            power = power @ power
            step *= 2
        np.matmul(XS, self.M, out=out)


def filtfilt(filt: IirFilter, x: TimeSeries) -> TimeSeries:
    """Zero-phase application: forward pass then time-reversed pass.

    Edges are padded with an odd-symmetric reflection three filter
    lengths long (a filter of n poles is n + 1 long); each pass starts
    from the steady state of its first sample. Output length equals input
    length. The passes run as a block recurrence (``_BlockRecurrence``)
    whose matrix products are pinned to one BLAS thread
    (``_blas._one_blas_thread``): a worker thread's wake-up costs more
    than the products themselves.
    """
    padlen = 3 * (len(filt.poles) + 1)
    samples = x.samples
    if len(samples) <= padlen:
        raise SignalError(
            f"series of {len(samples)} samples too short for zero-phase "
            f"filtering (needs more than {padlen})"
        )
    blocks = _BlockRecurrence.of(filt.sections)
    n = len(samples) + 2 * padlen
    full, rest = divmod(n, _BLOCK)
    # Y holds the padded series in whole zero-filled blocks, then each
    # pass's output; XS holds a pass's input blocks and their start states
    Y = np.zeros((full + (rest > 0), _BLOCK))
    y = Y.reshape(-1)[:n]
    y[:padlen] = 2.0 * samples[0] - samples[padlen:0:-1]
    y[padlen:-padlen] = samples
    y[-padlen:] = 2.0 * samples[-1] - samples[-2 : -padlen - 2 : -1]
    XS = np.empty((len(Y), _BLOCK + len(blocks.steady)))
    XS[:, :_BLOCK] = Y
    with _one_blas_thread():
        blocks.run(XS, blocks.steady * y[0], Y)
        backward = y[::-1]
        XS[:full, :_BLOCK] = backward[: full * _BLOCK].reshape(full, _BLOCK)
        XS[full:, :rest] = backward[full * _BLOCK :]
        blocks.run(XS, blocks.steady * backward[0], Y)
    return TimeSeries(y[::-1][padlen:-padlen], x.sample_rate, x.start_time)


# ---------------------------------------------------------------------------
# Electrodermal activity


def extract_eda(x: TimeSeries) -> dict[str, float]:
    """``{"SCL", "SCR"}`` of the whole 5 Hz low-passed record, both in uS.

    SCL is the tonic mean; SCR is the mean amplitude of the phasic
    responses (``_scr_amplitudes``), 0 when there are none.
    """
    if x.duration < 10.0:
        raise SignalError("EDA record must be at least 10 s")
    filt = design_butterworth("lowpass", EDA_FILTER_ORDER, EDA_LOWPASS_HZ, x.sample_rate)
    seg = filtfilt(filt, x).samples
    amps = _scr_amplitudes(seg, x.sample_rate)
    return {"SCL": float(seg.mean()), "SCR": float(np.mean(amps)) if amps else 0.0}


def _scr_amplitudes(seg: np.ndarray, fs: float) -> list[float]:
    """Amplitudes (uS) of the phasic responses in a filtered EDA record.

    A response onset is a run of first-difference slope above
    ``SCR_ONSET_SLOPE``; its amplitude is the local peak minus the onset
    value, and events below ``SCR_MIN_AMPLITUDE`` are discarded.
    """
    slope = np.diff(seg) * fs
    starts = [start for start, _, rising in _label_runs(slope > SCR_ONSET_SLOPE) if rising]
    amps = []
    for onset in starts:
        after = np.flatnonzero(slope[onset:] <= 0.0)
        if after.size == 0:
            continue  # rise does not complete inside the record
        amplitude = float(seg[onset + int(after[0])] - seg[onset])
        if amplitude >= SCR_MIN_AMPLITUDE:
            amps.append(amplitude)
    return amps


# ---------------------------------------------------------------------------
# ECG / heart-rate variability


def _mean_of(values: list) -> float:
    """np.mean of a short list of floats, bit for bit, at under half its cost.

    np.mean is np.add.reduce (numpy's pairwise sum, which a Python sum()
    of 8 values does not round like) divided by the count; calling the
    two directly skips its argument handling.
    """
    return float(np.add.reduce(np.array(values))) / len(values)


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

    energy = memoryview(mwi)  # Python floats, read one at a time below

    def plateau_center(idx: int) -> int:
        # the integrated energy tops out in a near-flat plateau centered on
        # the QRS; take its midpoint so refinement starts within +-40 ms
        level = 0.95 * energy[idx]
        lo = idx
        while lo > 0 and energy[lo - 1] >= level:
            lo -= 1
        hi = idx
        last = len(energy) - 1
        while hi < last and energy[hi + 1] >= level:
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
    # mean of the last 8 RR intervals once there are two
    rr_avg = None

    def add_beat(idx: int) -> None:
        nonlocal rr_avg
        if accepted:
            rr_history.append((idx - accepted[-1]) / fs)
            if len(rr_history) >= 2:
                rr_avg = _mean_of(rr_history[-8:])
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
        refined.append(lo + int(bp[lo:hi].argmax()))
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


def hrv_time_domain(peaks) -> dict[str, float]:
    """``{"HR", "RMSSD", "SDNN"}`` from R-peak times: HR in beats per
    minute, RMSSD and SDNN of the RR intervals in ms."""
    peaks = np.asarray(peaks, dtype=np.float64)
    if len(peaks) < 3:
        raise SignalError("need at least 3 peaks for time-domain HRV")
    rr_ms = np.diff(peaks) * 1000.0
    return {"HR": 60000.0 / float(rr_ms.mean()),
            "RMSSD": float(np.sqrt(np.mean(np.diff(rr_ms) ** 2))),
            "SDNN": float(rr_ms.std(ddof=1))}


def _welch_psd(x: np.ndarray, fs: float, nperseg: int):
    """One-sided power spectral density of ``x`` by Welch's method.

    Segments of ``nperseg`` samples at 50% overlap (a trailing partial
    segment is dropped), each under a periodic Hann window and not
    detrended; the squared spectra are scaled to density
    (``1 / (fs * sum(w^2))``), doubled off DC and Nyquist, and averaged.
    Returns ``(freqs, psd)``.
    """
    step = nperseg - nperseg // 2
    starts = np.arange((len(x) - nperseg // 2) // step) * step
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg)
    spectra = np.fft.rfft(x[starts[:, None] + np.arange(nperseg)] * window, axis=1)
    psd = (spectra.real**2 + spectra.imag**2).mean(axis=0) / (fs * (window**2).sum())
    psd[1 : None if nperseg % 2 else -1] *= 2.0
    return np.fft.rfftfreq(nperseg, 1.0 / fs), psd


def hrv_freq_domain(peaks) -> dict[str, float]:
    """``{"LF", "HF", "LFHF"}``: band powers of the RR tachogram via Welch's method.

    The tachogram is linearly interpolated to a uniform 4 Hz series and
    mean-subtracted; Welch uses a Hann window with 64 s segments (or the
    whole series when shorter) at 50% overlap. LF and HF integrate the
    PSD over 0.04-0.15 Hz and 0.15-0.40 Hz, in ms^2; LFHF is their ratio,
    NaN when HF power is zero.
    """
    peaks = np.asarray(peaks, dtype=np.float64)
    if len(peaks) < 3 or peaks[-1] - peaks[0] < 30.0:
        raise SignalError("need at least 30 s of peaks for frequency-domain HRV")
    rr_ms = np.diff(peaks) * 1000.0
    rr_times = peaks[1:]
    grid = np.arange(rr_times[0], rr_times[-1], 1.0 / TACHOGRAM_RATE_HZ)
    tach = np.interp(grid, rr_times, rr_ms)
    tach = tach - tach.mean()
    freqs, psd = _welch_psd(tach, TACHOGRAM_RATE_HZ, min(int(64 * TACHOGRAM_RATE_HZ), len(tach)))
    lf_mask = (freqs >= LF_BAND_HZ[0]) & (freqs <= LF_BAND_HZ[1])
    hf_mask = (freqs >= HF_BAND_HZ[0]) & (freqs <= HF_BAND_HZ[1])
    lf = float(np.trapezoid(psd[lf_mask], freqs[lf_mask]))
    hf = float(np.trapezoid(psd[hf_mask], freqs[hf_mask]))
    # a zero-variance tachogram leaves only numerical dust; the ratio is
    # undefined there, reported as NaN rather than raised
    ratio = lf / hf if hf > 1e-12 else float("nan")
    return {"LF": lf, "HF": hf, "LFHF": ratio}


# ---------------------------------------------------------------------------
# Respiration


def extract_resp(x: TimeSeries) -> dict[str, float]:
    """``{"RR", "RD", "RV"}`` of the breath cycles in the whole 0.1-0.35 Hz
    band-passed record.

    Cycles are delimited by rising zero crossings; cycles whose
    peak-to-trough amplitude falls under ``RESP_MIN_DEPTH`` are
    discarded. RR is breaths per minute of covered cycle time, RD the
    mean peak-to-trough depth in signal units, and RV the interval
    coefficient of variation in percent (sample standard deviation).
    """
    if x.duration < 30.0:
        raise SignalError("respiration record must be at least 30 s")
    band = design_butterworth("bandpass", RESP_FILTER_ORDER, RESP_BANDPASS_HZ, x.sample_rate)
    seg = filtfilt(band, x).samples
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
    return {"RR": float(rate), "RD": float(np.mean(depths)), "RV": variation}


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


def eye_metrics(events, window) -> dict[str, float]:
    """``{"PA", "FR", "FT", "SR", "ST", "SA"}`` of gaze events over a window.

    PA is the duration-weighted mean pupil area over fixations, in pupil
    area units (NaN with no fixation); FR and SR are fixations and
    saccades per minute; FT and ST their seconds per minute; SA is the
    mean saccade amplitude in degrees (0 with no saccade).
    """
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
    return {"PA": float(pa), "FR": len(fixations) / minutes, "FT": fix_time / minutes,
            "SR": len(saccades) / minutes,
            "ST": sum(e.duration for e in saccades) / minutes, "SA": sa}


# ---------------------------------------------------------------------------
# Whole-drive convenience


def extract_drive_features(
    ecg: TimeSeries | None = None,
    eda: TimeSeries | None = None,
    resp: TimeSeries | None = None,
    gaze: GazeRecording | None = None,
    velocity_threshold: float = IVT_VELOCITY_THRESHOLD,
) -> dict:
    """The study columns that the given channels fill, merged from the
    extractors in this order: EDA, ECG time domain, ECG frequency domain,
    respiration, gaze.

    The feature window is the whole record for every channel. Gaze uses
    the recording's own ``px_per_deg`` scale.
    """
    out: dict[str, float] = {}
    if eda is not None:
        out.update(extract_eda(eda))
    if ecg is not None:
        peaks = detect_r_peaks(ecg)
        out.update(hrv_time_domain(peaks))
        out.update(hrv_freq_domain(peaks))
    if resp is not None:
        out.update(extract_resp(resp))
    if gaze is not None:
        events = segment_gaze_ivt(gaze, velocity_threshold)
        out.update(eye_metrics(events, (gaze.start_time, gaze.start_time + gaze.duration)))
    return out
