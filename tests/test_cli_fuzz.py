"""The command line's contract under any options inside their documented domains.

Every invocation of every subcommand exits 0, 2 or 3.  A failure writes
exactly one line to stderr, starting ``asefilt:``, with no traceback and
no numpy warning text; a success writes only finite numbers into its
CSVs.  The options are drawn inside the domains their help and the
library's checks state, extreme finite values included, and ``anc`` also
reads waveform files of extreme finite samples.  Runs, horizons and
system counts are kept small, so every example runs in milliseconds.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from asefilt.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from asefilt.filters import DCD_UPDATE_MODES, DELTA_SCHEDULES
from asefilt.harness import _NOMINAL, ALGORITHMS
from asefilt.signals import save_waveform

# A failing example drawn from a seed reads as well unshrunk, and shrinking
# an invocation with waveform files reruns the whole command many times.
NO_SHRINK = [Phase.explicit, Phase.generate]

MAX = float(np.finfo(float).max)
TINY = [5e-324, 1e-320, float(np.finfo(float).tiny), 1e-300]
HUGE = [1e300, MAX]

positive = st.one_of(st.sampled_from(TINY + HUGE), st.floats(1e-3, 1e3))
nonnegative = st.one_of(st.just(0.0), positive)
finite = st.one_of(st.just(0.0), positive, positive.map(lambda v: -v))
unit = st.one_of(st.sampled_from([0.0, 5e-324, 1.0]), st.floats(0.0, 1.0))
open_unit = st.one_of(st.sampled_from([5e-324, 1.0 - 2.0**-53]),
                      st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
seed = st.integers(0, 2**64)


def _comma_list(values):
    return st.lists(values, min_size=1, max_size=3, unique=True).map(lambda vs: ",".join(map(repr, vs)))


_FILTER = {
    "lambda": open_unit,
    "rho": positive,
    "c": positive,
    "zeta": positive,
    "kernel_sigma": positive,
    "h": positive,
    "m_bits": st.integers(1, 64),
    "n_updates": st.integers(1, 32),
    "dcd_update": st.sampled_from(DCD_UPDATE_MODES),
    "delta_schedule": st.sampled_from(DELTA_SCHEDULES),
    "algo": st.sampled_from(ALGORITHMS),
}
_ALGOS = {
    "algos": st.lists(st.sampled_from(ALGORITHMS), min_size=1, unique=True).map(",".join),
    "instrument": st.booleans(),
}
# The run size is always given: the defaults (100 runs of 5000 samples) take seconds.
_SIZE = {"length": st.integers(1, 8), "horizon": st.integers(1, 80), "runs": st.integers(1, 3)}
_SCENARIO = {
    "seed": seed,
    "snr_db": st.one_of(st.sampled_from([-300.0, 300.0]), finite),
    "impulse_prob": unit,
    "impulse_var": nonnegative,
    "impulses": st.booleans(),
}
_ANC = {
    "seed": seed,
    "impulse_prob": unit,
    "impulse_var": nonnegative,
    "shaping": finite,
    "pulse_rate": unit,
    "pulse_amplitude": positive,
    "pulse_decay": positive,
    "pulse_freq": st.one_of(st.just(5e-324), st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)),
    "pulse_length": st.integers(2, 200),
}
_DCD_BENCH_SIZE = {
    "length": st.integers(1, 8),
    "systems": st.integers(1, 3),
    "embedded_runs": st.integers(1, 2),
    "embedded_horizon": st.integers(1, 40),
}
_DCD_BENCH = {
    "seed": seed,
    "cond": st.one_of(st.sampled_from([1.0, 1e300, MAX]), st.floats(1.0, 1e6)),
    "m_bits": st.integers(1, 64),
    "h": positive,
    "nu_list": _comma_list(st.integers(1, 8)),
    "embedded": st.booleans(),
}
_SWEEP_VALUES = {
    "c": positive,
    "lambda": open_unit,
    "rho": positive,
    "snr_db": finite,
    "impulse_prob": unit,
    "n_updates": st.integers(1, 32),
}

# One waveform sample: extreme finite magnitudes of either sign, zeros or ordinary values.
sample = st.one_of(st.sampled_from([v * s for v in [0.0, *TINY, *HUGE] for s in (1.0, -1.0)]), st.floats(-10.0, 10.0))


@st.composite
def waveforms(draw):
    """Primary, reference and, or None, clean samples, of one length from 1 on."""
    n = draw(st.integers(1, 60))
    channel = st.one_of(st.lists(sample, min_size=n, max_size=n), sample.map(lambda v: [v] * n))
    return draw(channel), draw(channel), draw(st.none() | channel)


# (subcommand, options, waveform files): each option given or left to its default.
invocations = st.one_of(
    st.tuples(st.just("sysid"), st.fixed_dictionaries(_SIZE, optional={**_SCENARIO, **_FILTER, **_ALGOS}),
              st.none()),
    st.tuples(st.just("anc"), st.fixed_dictionaries(_SIZE, optional={**_ANC, **_FILTER, **_ALGOS}),
              st.none() | waveforms()),
    st.tuples(st.just("dcd-bench"), st.fixed_dictionaries(_DCD_BENCH_SIZE, optional=_DCD_BENCH), st.none()),
    st.sampled_from(sorted(_SWEEP_VALUES)).flatmap(
        lambda param: st.tuples(
            st.just("sweep"),
            st.fixed_dictionaries({**_SIZE, "param": st.just(param), "values": _comma_list(_SWEEP_VALUES[param])},
                                  optional={**_SCENARIO, **_FILTER}),
            st.none(),
        )
    ),
)


def _argv(subcommand: str, opts: dict, folder: Path, files) -> list[str]:
    argv = [subcommand, "--out", str(folder / "out")]
    for name, value in opts.items():
        flag = "--" + name.replace("_", "-")
        if isinstance(value, bool):
            argv.append(flag if value else "--no-" + flag[2:])
        else:
            argv.append(f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}")
    if files is not None:
        for name, samples in zip(("primary", "reference", "clean"), files):
            if samples is not None:
                save_waveform(folder / f"{name}.csv", samples)
                argv.append(f"--{name}-file={folder / f'{name}.csv'}")
    return argv


def _csv_cells_are_finite(out: Path) -> None:
    for path in sorted(out.glob("*.csv")):
        for row in path.read_text().splitlines()[1:]:
            for cell in row.split(","):
                try:
                    value = float(cell)
                except ValueError:  # the algorithm column of ops.csv and dcd_ops.csv
                    assert cell in _NOMINAL, (path.name, cell)
                    continue
                assert math.isfinite(value), (path.name, row)


@settings(derandomize=True, database=None, max_examples=300, deadline=None, phases=NO_SHRINK)
@given(invocation=invocations)
def test_every_invocation_exits_cleanly(invocation):
    subcommand, opts, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        argv = _argv(subcommand, opts, folder, files)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        err = stderr.getvalue()
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME), (argv, err)
        if rc == EXIT_OK:
            assert err == "", (argv, err)
            _csv_cells_are_finite(folder / "out")
        else:
            assert err.startswith("asefilt:") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
            assert "Traceback" not in err and "encountered in" not in err, (argv, err)
