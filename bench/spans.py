"""Op clock and call tracing for the benchmark, installed from outside the library.

Both work by replacing a public function at the name its caller looks it
up under (``magbeam.beamforming.solve_sdp``, not ``magbeam.conic.solve_sdp``)
with a wrapper, and putting the original back afterwards.  Nothing under
``src/`` knows about them.

* The op clock is always on.  It times each op and notes the op's outcome
  and whether a feasible relaxation went unrealized by rounding.  For the
  region sweep an op is one boundary point inside a CLI call, so the clock
  has to sit on ``magbeam.region.boundary_point``.
* Tracing is on only in the traced phase.  Every wrapped call becomes a
  span ``[name, start, end, parent, op, error, attrs]`` kept in memory;
  self time is a span's duration minus that of its child spans.
"""

import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from magbeam.errors import InfeasibleError

# (module, attribute, span name); a name is wrapped wherever a caller in the
# library or the CLI looks it up, so every call of the function is seen
TRACED = [
    ("magbeam.cli", "load_scenario", "scenario.load"),
    ("magbeam.scenario", "load_scenario", "scenario.load"),
    ("magbeam.cli", "build_impedance", "circuit.build_impedance"),
    ("magbeam.circuit", "build_impedance", "circuit.build_impedance"),
    ("magbeam.region", "build_impedance", "circuit.build_impedance"),
    ("magbeam.beamforming", "build_impedance", "circuit.build_impedance"),
    ("magbeam.estimation", "build_impedance", "circuit.build_impedance"),
    ("magbeam.geometry", "layout_mutual_matrix", "geometry.layout"),
    ("magbeam.geometry", "mutual_inductance", "geometry.pair"),
    ("magbeam.cli", "sweep_region", "region.sweep"),
    ("magbeam.region", "boundary_point", "region.point"),
    ("magbeam.region", "solve_p0_bisection", "beamforming.p0"),
    ("magbeam.cli", "solve_p0_bisection", "beamforming.p0"),
    ("magbeam.cli", "solve_p1", "beamforming.p1"),
    ("magbeam.beamforming", "solve_p1", "beamforming.p1"),
    ("magbeam.beamforming", "solve_p1_ts_lp", "beamforming.ts_lp"),
    ("magbeam.beamforming", "randomization_extract", "beamforming.randomization"),
    ("magbeam.beamforming", "solve_sdp", "conic.sdp"),
    ("magbeam.beamforming", "solve_lp", "conic.lp"),
    ("magbeam.conic.kernel", "solve_mixed_cone", "conic.kernel"),
    ("magbeam.beamforming", "psd_eigendecomposition", "conic.linalg.eig"),
    ("magbeam.cli", "monte_carlo_mse", "estimation.mc"),
    ("magbeam.estimation", "simulate_training", "estimation.simulate_training"),
]

# PSD block sizes reported per kernel iteration: 0 is the LP (orthant only),
# 10 the five-TX bundled deployment embedded, 32 the sixteen-TX wide array
KERNEL_SIZES = (0, 10, 32)

NAME, START, END, PARENT, OP, ERROR, ATTRS = range(7)


def _kernel_attrs(args, kwargs, result):
    c_psd = kwargs.get("c_psd", args[0] if args else None)
    b = kwargs.get("b", args[4] if len(args) > 4 else ())
    return {"n": 0 if c_psd is None else int(c_psd.shape[0]), "k": len(b),
            "iterations": int(result.iterations), "status": result.status}


def _mc_attrs(args, kwargs, result):
    return {"trials": sum(row.trials for row in result)}


ATTRS_OF = {"conic.kernel": _kernel_attrs, "estimation.mc": _mc_attrs}


@dataclass
class OpRecord:
    seconds: float = 0.0
    outcome: str = "ok"
    unrealized: bool = False
    phase: str = None
    call: dict = None
    input: tuple = None     # which input of the workload's cycle the op ran


class Recorder:
    """Op records and, while tracing, spans; owns every patch it installs."""

    def __init__(self):
        self.ops = []
        self.spans = []
        self.phase = None
        self._stack = []
        self._patches = []
        self._relaxation = None
        self._op_start = None

    # --- patching -------------------------------------------------------

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return
        setattr(module, attr, make(original))
        self._patches.append((module, attr, original))

    def unpatch(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def install(self, op_clock, tracing):
        """Install the tracer (optional) and then the op clock over it."""
        self.unpatch()
        if tracing:
            for module_name, attr, name in TRACED:
                self._patch(module_name, attr,
                            lambda fn, name=name: self._spanned(fn, name))
        self._patch("magbeam.beamforming", "solve_p1_sdr", self._relaxation_probe)
        for module_name in ("magbeam.cli", "magbeam.beamforming"):
            self._patch(module_name, "solve_p1", self._rounding_probe)
        if op_clock:
            self._patch(*op_clock, self._op_clocked)

    # --- ops -------------------------------------------------------------

    @property
    def current(self):
        return self.ops[-1] if self._op_start is not None else None

    def begin_op(self):
        self.ops.append(OpRecord(phase=self.phase))
        self._op_start = perf_counter()

    def end_op(self, outcome="ok"):
        op = self.ops[-1]
        op.seconds = perf_counter() - self._op_start
        op.outcome = outcome
        self._op_start = None

    def _op_clocked(self, fn):
        def op_clock(*args, **kwargs):
            self.begin_op()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.end_op("exception:" + type(exc).__name__)
                raise
            self.end_op()
            return result
        return op_clock

    def _relaxation_probe(self, fn):
        def relaxation_probe(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._relaxation = result[0].status
            return result
        return relaxation_probe

    def _rounding_probe(self, fn):
        # a relaxation that solved to optimality followed by InfeasibleError
        # means no rounding realized it
        def rounding_probe(*args, **kwargs):
            self._relaxation = None
            try:
                return fn(*args, **kwargs)
            except InfeasibleError:
                if self._relaxation == "optimal" and self.current is not None:
                    self.current.unrealized = True
                raise
        return rounding_probe

    # --- spans -----------------------------------------------------------

    @contextmanager
    def span(self, name):
        """Record a span around a block; yields the span record."""
        op = len(self.ops) - 1 if self._op_start is not None else None
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                  op, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        try:
            yield record
        except BaseException as exc:
            record[ERROR] = type(exc).__name__
            raise
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    def _spanned(self, fn, name):
        attrs_of = ATTRS_OF.get(name)

        def spanned(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if attrs_of is not None:
                record[ATTRS] = attrs_of(args, kwargs, result)
            return result
        return spanned


def layer_metrics(spans, first_span, n_ops, setup_spans):
    """Per-layer metrics from the spans of the traced phase and of set-up.

    ``spans[first_span:]`` belong to the traced phase, which ran ``n_ops``
    ops; ``setup_spans`` are those recorded while the benchmark set up its
    inputs.  Times and counts of the phase are per op.
    """
    phase = spans[first_span:]
    self_time = [s[END] - s[START] for s in phase]
    for s in phase:
        if s[PARENT] is not None and s[PARENT] >= first_span:
            self_time[s[PARENT] - first_span] -= s[END] - s[START]

    def named(name):
        return [i for i, s in enumerate(phase) if s[NAME] == name]

    def per_op(value):
        return value / n_ops if n_ops else 0.0

    def self_s(name):
        return per_op(sum(self_time[i] for i in named(name)))

    def under(i, name):
        parent = phase[i][PARENT]
        while parent is not None and parent >= first_span:
            if spans[parent][NAME] == name:
                return True
            parent = spans[parent][PARENT]
        return False

    def accepted(name):
        calls = named(name)
        ok = sum(1 for i in calls if phase[i][ERROR] is None)
        return len(calls), (ok / len(calls) if calls else 0.0)

    kernel = [phase[i][ATTRS] for i in named("conic.kernel")]
    kernel_s = [phase[i][END] - phase[i][START] for i in named("conic.kernel")]
    iterations = sum(a["iterations"] for a in kernel)
    m = {
        "conic.kernel.calls": per_op(len(kernel)),
        "conic.kernel.iters_per_call": iterations / len(kernel) if kernel else 0.0,
        "conic.kernel.self_s": self_s("conic.kernel"),
        "conic.kernel.schur_flop": per_op(sum(
            a["iterations"] * (a["k"] * a["n"] ** 3 + a["k"] ** 2 * a["n"] ** 2)
            for a in kernel)),
    }
    for status in ("optimal", "infeasible", "numerical_failure"):
        m[f"conic.kernel.status.{status}"] = per_op(
            sum(1 for a in kernel if a["status"] == status))
    for size in KERNEL_SIZES:
        iters = sum(a["iterations"] for a in kernel if a["n"] == size)
        secs = sum(t for a, t in zip(kernel, kernel_s) if a["n"] == size)
        m[f"conic.kernel.s_per_iter.n{size}"] = secs / iters if iters else 0.0

    points = named("beamforming.p0")
    m["beamforming.p0.p1_calls_per_point"] = (
        sum(1 for i in named("beamforming.p1") if under(i, "beamforming.p0"))
        / len(points) if points else 0.0)
    m["beamforming.p0.kernel_calls_per_point"] = (
        sum(1 for i in named("conic.kernel") if under(i, "beamforming.p0"))
        / len(points) if points else 0.0)
    m["beamforming.p1.self_s"] = self_s("beamforming.p1")
    m["conic.sdp.self_s"] = self_s("conic.sdp")
    m["conic.lp.calls"] = per_op(len(named("conic.lp")))
    m["conic.lp.self_s"] = self_s("conic.lp")
    for name in ("ts_lp", "randomization"):
        calls, ratio = accepted(f"beamforming.{name}")
        m[f"beamforming.{name}.calls"] = per_op(calls)
        m[f"beamforming.{name}.accepted_ratio"] = ratio
    m["conic.linalg.eig_calls"] = per_op(len(named("conic.linalg.eig")))
    m["conic.linalg.eig_s"] = self_s("conic.linalg.eig")
    m["estimation.simulate_training_s"] = self_s("estimation.simulate_training")
    m["estimation.mc_s"] = self_s("estimation.mc")
    m["estimation.trials"] = per_op(sum(phase[i][ATTRS]["trials"]
                                        for i in named("estimation.mc")))
    m["cli.self_s"] = self_s("cli")
    sweeps = named("region.sweep")
    m["region.points"] = (len(named("region.point")) / len(sweeps)
                          if sweeps else 0.0)

    def setup_total(prefix):
        # spans nested in a span of the same prefix are already counted
        return sum((s[END] - s[START] for s in setup_spans
                    if s[NAME].startswith(prefix) and not (
                        s[PARENT] is not None
                        and spans[s[PARENT]][NAME].startswith(prefix))), 0.0)

    m["scenario.load_s"] = setup_total("scenario.load")
    m["circuit.build_impedance_s"] = setup_total("circuit.build_impedance")
    m["geometry.layout_s"] = setup_total("geometry.")
    m["geometry.pairs"] = float(sum(1 for s in setup_spans
                                    if s[NAME] == "geometry.pair"))
    return m
