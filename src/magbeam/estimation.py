"""Coupling-matrix (magnetic MIMO channel) estimation from training slots.

During training, known source voltages are applied slot by slot and the
resulting TX currents are measured locally while each receiver feeds back
its own (noisy) current.  Writing the slot voltages/currents as matrices,
the TX-side quantities combine into ``G = (j/w) (H - F Y)`` which equals
``M Z`` exactly, so the coupling matrix M is recovered by inverting the
receiver-current matrix (perfect feedback) or by a least-squares fit that
stays real-valued by construction (noisy feedback).

The Monte-Carlo runs keyed chunks of 8192 trials on real arrays, trial axis
last; two worker threads each take a whole chunk, from its draws to its
squared errors.  For LS a chunk draws the sufficient statistics, not the
feedback noise: with ``[Re Z, Im Z] = C V^T`` (V orthonormal, one QR per
SNR), the normal equations see the Q x 2T noise only through Q x Q iid
normals and an independent Wishart_Q(2T - Q) matrix, drawn by its Bartlett
factor (Anderson, An Introduction to Multivariate Statistical Analysis,
sec. 7.2).  At T = 10 and Q = 4 a trial draws 22 normals and 4 gammas
instead of 80 normals.  In process, a 1e5-trial LS row takes about 0.033 s
and a 4e5-trial pairwise row about 0.14 s, both about 3e6 trials/s (best of 7
at T = 10 on ``table2``, one OpenBLAS thread on a 2-vCPU Xeon VM); through the
CLI the ``estimate_mc`` benchmark reads about 2.2e6 and 2.5e6 trials/s.
"""

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import Scenario, build_impedance
from .errors import EstimationError, ScenarioError

RANDOM_VOLTAGE = "random_voltage"
BLOCK_SINGLE_TX = "block_single_tx"

OPEN_CIRCUIT = "open_circuit"
DRIVEN_ZERO = "driven_zero"

_COND_LIMIT = 1e12
_CHUNK = 8192


@dataclass(frozen=True)
class TrainingProtocol:
    """How the training voltages are applied across the T slots.

    ``inactive_tx`` only matters in block mode: ``open_circuit`` breaks the
    loop of every idle TX (it carries no current and its port reads the
    induced EMF), ``driven_zero`` keeps idle loops closed behind a 0 V
    source so the strong TX-TX coupling lets them conduct.
    """

    mode: str = BLOCK_SINGLE_TX
    n_slots: int = 10
    active_voltage: float = 0.75
    seed: int = 0
    inactive_tx: str = OPEN_CIRCUIT

    def __post_init__(self):
        if self.mode not in (RANDOM_VOLTAGE, BLOCK_SINGLE_TX):
            raise ValueError(f"unknown training mode {self.mode!r}")
        if self.inactive_tx not in (OPEN_CIRCUIT, DRIVEN_ZERO):
            raise ValueError(f"unknown inactive-TX model {self.inactive_tx!r}")
        if self.n_slots < 1:
            raise ValueError("need at least one training slot")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.active_voltage) and self.active_voltage != 0.0):
            raise ValueError("training voltage must be finite and nonzero, "
                             f"got {self.active_voltage!r}")


@dataclass(frozen=True)
class TrainingRecord:
    """Matrices of one training session plus the noise level used."""

    scenario: Scenario
    h: np.ndarray            # applied TX voltages, N x T
    y: np.ndarray            # TX currents, N x T
    z: np.ndarray            # true RX currents, Q x T
    z_tilde: np.ndarray      # fed-back RX currents (noisy), Q x T
    f: np.ndarray            # TX-side impedance bookkeeping matrix, N x N
    g: np.ndarray            # (j/w)(H - F Y) = M Z, N x T
    sigma2: float
    snr_db: float

    @property
    def n_slots(self):
        return self.h.shape[1]


@dataclass(frozen=True)
class EstimationResult:
    m_hat: np.ndarray              # N x Q, real
    normalized_mse: float
    squared_error_j: float = None  # residual of the LS fit, henries^2


def coupling_feedthrough_matrix(scenario: Scenario) -> np.ndarray:
    """Diag of TX resistances plus j*w*(TX-TX mutuals): the known TX-side part."""
    f = 1j * scenario.omega * scenario.mutual_tx_tx
    f[np.diag_indices(scenario.n_tx)] = scenario.tx_resistance
    return f


def check_slots(scenario: Scenario, protocol: TrainingProtocol):
    """Raise ``ValueError`` unless block training has a multiple of N slots."""
    if protocol.mode == BLOCK_SINGLE_TX and protocol.n_slots % scenario.n_tx != 0:
        raise ValueError(f"block training needs a multiple of {scenario.n_tx} "
                         f"slots, got {protocol.n_slots}")


def training_voltages(scenario: Scenario, protocol: TrainingProtocol) -> np.ndarray:
    """The N x T matrix of applied source voltages."""
    check_slots(scenario, protocol)
    n, t = scenario.n_tx, protocol.n_slots
    if protocol.mode == BLOCK_SINGLE_TX:
        h = np.zeros((n, t), dtype=complex)
        h[np.arange(t) % n, np.arange(t)] = protocol.active_voltage
        return h
    rng = np.random.default_rng([int(protocol.seed), 0x7631])
    return (rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t))) / math.sqrt(2)


def _single_tx_currents(scenario, protocol):
    """Block-mode TX currents when every idle TX loop is open.

    The active TX sees only the reflected receiver impedances; its port
    equation collapses to ``v = (r_n + w^2 sum_q M_nq^2 / r_q) i_n``.
    """
    n, t = scenario.n_tx, protocol.n_slots
    w = scenario.omega
    refl = w ** 2 * np.sum(scenario.mutual_tx_rx ** 2 / scenario.rx_resistance[None, :],
                           axis=1)
    i_active = protocol.active_voltage / (scenario.tx_resistance + refl)
    y = np.zeros((n, t), dtype=complex)
    idx = np.arange(t) % n
    y[idx, np.arange(t)] = i_active[idx]
    return y


def _noise_variance(power, snr_db):
    """The feedback noise variance ``power / 10^(snr_db / 10)`` (0 at +inf dB).

    A linear SNR above the float range leaves no noise a float can hold, so
    the variance is 0; one that underflows to 0 (-inf dB among them), or a
    variance that overflows, raises ``ValueError``.
    """
    try:
        sigma2 = power / 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return 0.0
    except ZeroDivisionError:
        sigma2 = math.inf
    if not math.isfinite(sigma2):
        raise ValueError(f"an SNR of {snr_db} dB puts the noise variance beyond "
                         "the float range")
    return sigma2


def simulate_training(scenario: Scenario, protocol: TrainingProtocol,
                      snr_db: float) -> TrainingRecord:
    """Run the training circuit over the T slots and add feedback noise.

    Driven modes solve the full N x N system ``v = conj(B) i`` (TX-TX
    coupling included); open-circuit block mode conducts only through the
    active TX and records the induced EMF at the idle ports.  The feedback
    noise variance is set from the mean received-current power of a
    noiseless dry run so that ``mean |i_rx|^2 / sigma^2`` equals the
    requested SNR; an SNR for which that variance leaves the float range
    raises ``ValueError``.
    """
    model = build_impedance(scenario)
    b_conj = model.b_complex.conj()
    if not np.all(np.isfinite(b_conj)):
        raise ScenarioError("impedance matrix is not finite", field="scenario")
    f = coupling_feedthrough_matrix(scenario)
    if protocol.mode == BLOCK_SINGLE_TX and protocol.inactive_tx == OPEN_CIRCUIT:
        check_slots(scenario, protocol)
        y = _single_tx_currents(scenario, protocol)
        z = (1j * scenario.omega / scenario.rx_resistance)[:, None] * (model.m_vectors @ y)
        # port voltages consistent with the open loops: active ports read the
        # applied voltage, idle ports read the induced EMF
        h = f @ y - 1j * scenario.omega * (scenario.mutual_tx_rx @ z)
    else:
        h = training_voltages(scenario, protocol)
        try:
            y = np.linalg.solve(b_conj, h)
        except np.linalg.LinAlgError as exc:
            raise ScenarioError("circuit matrix is singular", field="scenario") from exc
        z = (1j * scenario.omega / scenario.rx_resistance)[:, None] * (model.m_vectors @ y)
    g = (1j / scenario.omega) * (h - f @ y)

    # with no receiver nothing is fed back, so there is no noise
    sigma2 = _noise_variance(float(np.mean(np.abs(z) ** 2)), snr_db) if z.size else 0.0
    rng = np.random.default_rng([int(protocol.seed), 0x7632])
    re, im = _cscg(rng, z.shape, sigma2)
    return TrainingRecord(scenario=scenario, h=h, y=y, z=z, z_tilde=z + (re + 1j * im),
                          f=f, g=g, sigma2=sigma2, snr_db=float(snr_db))


def _cscg(rng, shape, sigma2):
    """CSCG noise of variance ``sigma2`` as (Re, Im) stacked, shape (2,) + shape."""
    return math.sqrt(sigma2 / 2.0) * rng.standard_normal((2,) + shape)


def _truncate_real(m, what, tol=1e-9):
    scale = max(float(np.max(np.abs(m))), 1e-300)
    if float(np.max(np.abs(m.imag))) > tol * scale:
        raise EstimationError(f"{what} has a non-negligible imaginary part")
    return np.ascontiguousarray(m.real)


def _real_rows(x):
    """[Re x, Im x] side by side: ``Re(x y^H)`` is ``_real_rows(x) @ _real_rows(y).T``."""
    return np.concatenate([x.real, x.imag], axis=1)


def _normalized_mse(scenario, m_hat):
    m = scenario.mutual_tx_rx
    return float(np.sum((m - m_hat) ** 2) / np.sum(m ** 2))


def estimate_perfect(record: TrainingRecord) -> EstimationResult:
    """Invert the true receiver-current matrix; needs exactly T = Q slots."""
    q, t = record.z.shape
    if t != q:
        raise EstimationError(f"perfect estimation needs T = Q, got T={t}, Q={q}")
    if q == 0:
        raise EstimationError("no receivers to estimate")
    if np.linalg.cond(record.z) > _COND_LIMIT:
        raise EstimationError("receiver-current matrix is numerically singular")
    m_hat = _truncate_real(record.g @ np.linalg.inv(record.z), "perfect estimate")
    return EstimationResult(m_hat=m_hat,
                            normalized_mse=_normalized_mse(record.scenario, m_hat))


def _ls_normal_equations(k, f, out=None):
    """Real LS normal equations ``M f f^T = k f[:, :m']^T`` of a batch of c trials.

    ``f`` is a real factor of the Gram matrix, (Q, m, c), and ``k`` the known
    rows, (N, m') with m' <= m; returns [Gram; rhs], (Q + N, Q, c), written
    into ``out`` when given.
    """
    q, _, c = f.shape
    n, m_known = k.shape
    aug = np.empty((q + n, q, c)) if out is None else out
    for i in range(q):
        np.matmul(k, f[i, :m_known], out=aug[q:, i])
        for j in range(i + 1):
            np.einsum("mc,mc->c", f[i], f[j], out=aug[i, j])
            aug[j, i] = aug[i, j]
    return aug


def _ls_factor(rng, c_mat, s, dof, out):
    """Draw F = [C + sA, sL] of c trials into ``out``, (Q, 2Q, c), row by row.

    A is iid normal and L the Bartlett factor of a Wishart_Q(dof, I) matrix:
    normals below the diagonal and ``L_ii = sqrt(chi2(dof - i))``.
    """
    q = c_mat.shape[0]
    for i in range(q):
        rng.standard_normal(out=out[i, :q + i])
        diag = out[i, q + i]
        rng.standard_gamma((dof - i) / 2.0, out=diag)
        np.sqrt(np.multiply(diag, 2.0, out=diag), out=diag)
        out[i, q + i + 1:] = 0.0
    out *= s
    out[:, :q] += c_mat[..., None]
    return out


def _ls_estimates(aug):
    """Cholesky-solve the normal equations of every trial in place; returns M, (N, Q, c)."""
    q = aug.shape[1]
    for j in range(q):   # Gram = L L^T in the top Q rows; below them Y, Y L^T = rhs
        aug[j:, j] -= np.einsum("ikc,kc->ic", aug[j:, :j], aug[j, :j])
        aug[j, j] = np.sqrt(aug[j, j])
        aug[j + 1:, j] /= aug[j, j]
    for j in reversed(range(q)):   # M L = Y
        aug[q:, j] -= np.einsum("kc,nkc->nc", aug[j + 1:q, j], aug[q:, j + 1:])
        aug[q:, j] /= aug[j, j]
    return aug[q:]


def estimate_ls(record: TrainingRecord) -> EstimationResult:
    """Least-squares estimate from noisy feedback; real by construction."""
    q, t = record.z_tilde.shape
    if q == 0:
        raise EstimationError("no receivers to estimate")
    if t < q:
        raise EstimationError(f"need at least Q={q} slots, got {t}")
    aug = _ls_normal_equations(_real_rows(record.g), _real_rows(record.z_tilde)[..., None])
    try:
        deficient = np.linalg.cond(aug[:q, :, 0]) > _COND_LIMIT
    except np.linalg.LinAlgError:
        deficient = True
    if deficient:
        raise EstimationError("feedback Gram matrix is rank deficient")
    m_hat = _ls_estimates(aug)[..., 0]
    resid = record.g - m_hat @ record.z_tilde
    j = float(np.real(np.sum(resid * resid.conj())))
    return EstimationResult(m_hat=m_hat,
                            normalized_mse=_normalized_mse(record.scenario, m_hat),
                            squared_error_j=j)


def ls_first_order_nmse(scenario: Scenario, protocol: TrainingProtocol, snr_db: float) -> float:
    """High-SNR LS normalized MSE ``(sigma^2/2) tr(Re(Z Z^H)^-1)``, Z from the noiseless run.

    First order in the feedback noise (Kay, Estimation Theory, 1993, ch. 8).
    """
    record = simulate_training(scenario, protocol, snr_db)
    gram = np.real(record.z @ record.z.conj().T)
    return 0.5 * record.sigma2 * float(np.trace(np.linalg.inv(gram)))


def pairwise_circuit(scenario: Scenario):
    """Isolated two-coil responses for every (TX, RX) pair at unit drive.

    With only TX n and RX q switched on, the TX current is
    ``v / (r_n + w^2 M_nq^2 / r_q)`` and the RX current follows from the
    single-coil coupling; returns (i_tx, i_rx) arrays of shape (N, Q).
    """
    w = scenario.omega
    m = scenario.mutual_tx_rx
    denom = scenario.tx_resistance[:, None] + w ** 2 * m ** 2 / scenario.rx_resistance[None, :]
    i_tx = 1.0 / denom
    i_rx = (1j * w * m / scenario.rx_resistance[None, :]) * i_tx
    return i_tx, i_rx


def _pairwise_setup(scenario: Scenario, snr_db: float, v: float):
    """Two-coil responses at drive ``v`` and the feedback noise variance.

    The noise is set from the mean received-current power over all pairs,
    so that its ratio to the noise variance equals the requested SNR; at a
    finite SNR that power must not underflow to zero.
    """
    i_tx, i_rx = pairwise_circuit(scenario)
    i_tx, i_rx = v * i_tx, v * i_rx
    if snr_db == math.inf:
        return i_tx, i_rx, 0.0
    power = float(np.mean(np.abs(i_rx) ** 2))
    if power == 0.0:
        raise EstimationError("received currents are zero at this training voltage")
    return i_tx, i_rx, _noise_variance(power, snr_db)


def _pairwise_estimates(scenario, i_tx, v, noisy):
    """Pairwise estimates (N, Q, c) from noisy RX currents as (Re, Im), (2, N, Q, c).

    ``Re(a / (j w i)) = Im(a conj(i)) / (w |i|^2)``; ``a = r_n i_tx - v`` is real.
    Computed in place: the estimates overwrite ``noisy[0]``.
    """
    a = (scenario.tx_resistance[:, None] * i_tx - v)[..., None]
    n0, n1 = noisy
    num = np.multiply(-a, n1)
    np.square(noisy, out=noisy)
    n0 += n1
    n0 *= scenario.omega
    with np.errstate(divide="ignore", invalid="ignore"):
        m_hat = np.divide(num, n0, out=n0)
    m_hat[~np.isfinite(m_hat)] = 0.0
    return m_hat


def estimate_pairwise_benchmark(scenario: Scenario, snr_db: float, seed: int = 0,
                                active_voltage: float = 0.75) -> EstimationResult:
    """One-pair-at-a-time benchmark: N*Q slots, one estimate per slot."""
    if scenario.n_rx == 0:
        raise EstimationError("no receivers to estimate")
    i_tx, i_rx, sigma2 = _pairwise_setup(scenario, snr_db, active_voltage)
    rng = np.random.default_rng([int(seed), 0x7633])
    noisy = np.stack([i_rx.real, i_rx.imag]) + _cscg(rng, i_rx.shape, sigma2)
    m_hat = _pairwise_estimates(scenario, i_tx, active_voltage, noisy[..., None])[..., 0]
    return EstimationResult(m_hat=m_hat,
                            normalized_mse=_normalized_mse(scenario, m_hat))


@dataclass(frozen=True)
class MseRow:
    snr_db: float
    mse: float
    stderr: float
    trials: int
    estimator: str
    n_slots: int


def monte_carlo_mse(scenario: Scenario, estimator: str, protocol: TrainingProtocol,
                    snr_db_list, trials: int = 100_000, seed: int = 0):
    """Normalized-MSE table over SNR points, averaged over noise draws.

    A row's trials run in chunks of ``_CHUNK``, each drawn from its own stream
    keyed by (seed, SNR index, chunk index), so results are reproducible and
    do not depend on which thread runs a chunk, or when.  Each row is one map
    of two worker threads over its chunks: a chunk draws, stages, solves and
    writes its squared errors into its slice of the row, holding one of two
    buffer pairs while it runs.  A ``perfect`` row, and any row at an
    infinite SNR, is one noiseless estimate (``trials`` 1).  A negative
    seed, or an SNR whose noise variance leaves the float range, raises
    ``ValueError`` before any row is solved.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if scenario.n_rx == 0:
        raise ValueError("no receivers to estimate")
    if estimator not in ("ls", "perfect", "pairwise"):
        raise ValueError(f"unknown estimator {estimator!r}")
    snr_db_list = [float(snr_db) for snr_db in snr_db_list]
    if any(math.isnan(snr_db) for snr_db in snr_db_list):
        raise ValueError("SNR values must not be NaN")
    m = scenario.mutual_tx_rx
    if estimator == "perfect":
        proto = TrainingProtocol(mode=RANDOM_VOLTAGE, n_slots=scenario.n_rx, seed=protocol.seed)
        return [MseRow(snr_db, estimate_perfect(simulate_training(
            scenario, proto, snr_db)).normalized_mse, 0.0, 1, estimator, proto.n_slots)
            for snr_db in snr_db_list]
    from concurrent.futures import ThreadPoolExecutor  # here: `import magbeam` skips its 7 ms
    from queue import SimpleQueue
    ls = estimator == "ls"
    v = protocol.active_voltage
    q = scenario.n_rx
    drawn_shape = (q, 2 * q) if ls else (2,) + m.shape
    staged_shape = (q + scenario.n_tx, q) if ls else (2,) + m.shape
    # allocated on this thread: a worker's freed arrays would stay in its own malloc arena
    free = SimpleQueue()
    for _ in range(2):
        free.put([np.empty(min(_CHUNK, trials) * math.prod(s))
                  for s in (drawn_shape, staged_shape)])
    failed = []   # a chunk that raised: the chunks of its row not yet begun are skipped

    def run(i, s, fixed, known, mse, start):   # on a worker: one chunk of SNR i, whole
        if failed:
            return
        count = min(_CHUNK, mse.size - start)
        buffers = free.get()
        try:
            drawn = buffers[0][:count * math.prod(drawn_shape)]
            out = buffers[1][:count * math.prod(staged_shape)].reshape(staged_shape + (count,))
            rng = np.random.default_rng([int(seed), i, start // _CHUNK])
            if ls:
                f = _ls_factor(rng, fixed, s, 2 * protocol.n_slots - q,
                               drawn.reshape(drawn_shape + (count,)))
                m_hat = _ls_estimates(_ls_normal_equations(known, f, out=out))
            else:
                noise = drawn.reshape((2, count) + m.shape)
                rng.standard_normal(out=noise)
                np.multiply(noise.transpose(0, 2, 3, 1), s, out=out)
                out += fixed
                m_hat = _pairwise_estimates(scenario, known, v, out)
            m_hat -= m[..., None]
            np.einsum("nqc,nqc->c", m_hat, m_hat, out=mse[start:start + count])
        except BaseException:
            failed.append(start)
            raise
        finally:
            free.put(buffers)

    # every row's noise variance is checked before the first row is solved
    setups = [simulate_training(scenario, protocol, snr_db) if ls
              else _pairwise_setup(scenario, snr_db, v) for snr_db in snr_db_list]
    rows = []
    with ThreadPoolExecutor(2) as pool:
        for i, (snr_db, setup) in enumerate(zip(snr_db_list, setups)):
            if ls:   # C and K
                estimate_ls(setup)   # EstimationError on a rank-deficient Gram
                # Z_r = C V^T with V^T V = I, so the normal equations see the noise W
                # only through W V (Q x Q normals) and a Wishart_Q(2T - Q) matrix
                basis, r = np.linalg.qr(_real_rows(setup.z).T)
                sigma2, fixed, known = setup.sigma2, r.T, _real_rows(setup.g) @ basis
            else:   # clean (Re, Im) and i_tx
                known, i_rx, sigma2 = setup
                fixed = np.stack([i_rx.real, i_rx.imag])[..., None]
            # an infinite SNR is one trial with zero noise: the noiseless estimate
            mse = np.empty(1 if math.isinf(snr_db) else trials)   # squared errors
            list(pool.map(functools.partial(run, i, math.sqrt(sigma2 / 2.0), fixed, known, mse),
                          range(0, mse.size, _CHUNK)))
            mse /= float(np.sum(m ** 2))
            n = mse.size
            rows.append(MseRow(snr_db, float(mse.mean()),
                               float(mse.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
                               n, estimator, protocol.n_slots if ls else m.size))
    return rows


def write_mse_csv(rows, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snr_db", "mse", "stderr", "trials", "estimator", "n_slots"])
        for r in rows:
            writer.writerow([r.snr_db, repr(r.mse), repr(r.stderr),
                             r.trials, r.estimator, r.n_slots])
