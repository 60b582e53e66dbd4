"""Command-line front end.

Subcommands: spectra, solve, dissipation, concentration, simulate,
structure, lln.  Every output file starts with comment lines carrying the
model hash, seed, package version and the echoed configuration, and floats
are printed with 17 significant digits, so outputs are byte-identical
across runs with the same seed and configuration.  CSV rows are formatted
and written in chunks, so only one chunk's text is in memory at a time.
Every chunk is laid out as a byte matrix, one fixed-width slot a cell
(``_byte_chunk``); all the doubles of a chunk get '%.17g''s exact text from
one call of numpy arithmetic (``_format_floats``), every other cell is
formatted one value at a time.  ``main`` builds only the invoked
subcommand's parser (every one when the first argument names none), ~0.3 ms
a call where all seven take ~1.6 ms.

Exit codes: 0 success, 1 numeric failure, 2 configuration error.  The
exception type decides which: every ``ValueError`` the library or the flag
parsing raises is an input check, as are ``KeyError``, ``OSError`` and
``ResourceLimitError``; a computation that fails raises ``ArithmeticError``
or ``RuntimeError``.  A depth or dimension meets its budget before its size
is formed, and a generation (``lln --n``, ``concentration --n-list``) past
int64 is refused before numpy sees it, so each exits 2 at once.  A stdout
pipe that its reader closed early ends the run quietly with exit 1, an
unbuffered stdout (``python -u``) included.
"""

import argparse
import dataclasses
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__, dissipation, dynamics, field, spectra
from .coefficients import (GeneralCoefficients, RcmModel, _number,
                           lambda_family, model_from_dict)
from .solution import ConstantSolution, pullback
from .tree import ResourceLimitError, check_budget

_FLOAT = "%.17g"
_CHUNK_ROWS = 2**14  # rows per formatted chunk: bounds the live text
_FORMAT_BLOCK = 2**13  # doubles formatted, or rows made text, at once

# _format_floats: for 1e-4 <= |x| < 1e16, '%.17g' is fixed notation of the
# 17-digit significand N = round(|x| * 10**(16 - E)) in [1e16, 1e17), E the
# decimal exponent, and 10**(16 - E) is an exact double
_SLOT = 40  # bytes a value: sign, "0.000", then 17 digits each with a point
_COMMA, _NEWLINE = (np.frombuffer(c, np.uint8) for c in (b",", b"\n"))
_VELTKAMP = 2.0**27 + 1  # splits a double into two 26-bit halves
_POW10 = 10.0 ** np.arange(23)
_POW10_HI = _POW10 * _VELTKAMP - (_POW10 * _VELTKAMP - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _header(model: RcmModel | None, seed, config: dict) -> list[str]:
    lines = [f"# treeshell {__version__}"]
    if model is not None:
        lines.append(f"# model_hash={model.hash()}")
    lines.append(f"# seed={seed}")
    lines.append("# config=" + json.dumps(config, sort_keys=True))
    return lines


def _write_text(path, chunks) -> None:
    """Write the text chunks in order, to path or, if it is None, to stdout."""
    if path is None:
        _write_stdout(chunks)
    else:
        with open(path, "w") as fh:
            fh.writelines(chunks)


def _write_stdout(chunks) -> None:
    """sys.stdout.writelines(chunks).  An unbuffered stdout (python -u,
    PYTHONUNBUFFERED) gets each chunk's bytes on its raw file until all are
    written: its text layer drops what a partial write leaves over, so a
    reader closing the pipe mid-chunk would cut the output with exit 0."""
    raw = getattr(sys.stdout, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        sys.stdout.writelines(chunks)
        return
    sys.stdout.flush()
    for chunk in chunks:
        data = memoryview(chunk.encode(sys.stdout.encoding,
                                       sys.stdout.errors))
        while data:
            data = data[raw.write(data):]


def _write_csv(path, header_lines: list[str], columns: dict) -> None:
    """Header lines, then one row per entry of the named columns (a scalar
    column repeats on every row); floats get 17 digits, the rest ``str``."""
    _write_text(path, _csv_chunks(header_lines, columns))


def _csv_chunks(header_lines: list[str], columns: dict):
    """The header, then the rows as byte rows (_byte_chunk), _CHUNK_ROWS a
    chunk.  The chunks of a table share their two chunk-sized matrices,
    and every other temporary is a block's worth: allocated anew each
    chunk, chunk-sized arrays would be given back to the OS and faulted in
    again every chunk (glibc trims its heap once the free top passes twice
    the largest block it has unmapped)."""
    arrays = [np.asarray(col) for col in columns.values()]
    n_rows = max((len(a) for a in arrays if a.ndim), default=1)
    yield "\n".join([*header_lines, ",".join(columns)]) + "\n"
    buffers = {}
    for start in range(0, n_rows, _CHUNK_ROWS):
        yield _byte_chunk(arrays, slice(start, min(start + _CHUNK_ROWS,
                                                   n_rows)), buffers)


def _reused(buffers: dict, name: str, rows: int, width: int) -> np.ndarray:
    """A (rows, width) uint8 matrix on the bytes of buffers[name], which
    grows when it is too small."""
    buffer = buffers.get(name)
    if buffer is None or len(buffer) < rows * width:
        buffer = buffers[name] = np.empty(rows * width, np.uint8)
    return buffer[:rows * width].reshape(rows, width)


def _byte_chunk(arrays: list[np.ndarray], rows: slice,
                buffers: dict) -> str:
    """The rows' text as one uint8 matrix: each column's cells in a slot of
    fixed width padded with 0xFF, a byte UTF-8 never uses, and the commas
    and newline in fixed columns; the padding is deleted as the matrix
    becomes text.  A scalar column is one row, repeated down the chunk.
    Every double of the chunk, as float64, goes through one _format_floats
    call; any other cell through ``str`` one value at a time.  The slots
    and the byte matrix are laid on `buffers`, kept from chunk to chunk."""
    cells = [a[rows] if a.ndim else a.reshape(1) for a in arrays]
    floats = [c for c in cells if c.dtype.kind == "f"]
    slots = []
    if floats:
        x = np.concatenate(floats, dtype=np.float64)
        slots = np.split(
            _format_floats(x, _reused(buffers, "slots", len(x), _SLOT)),
            np.cumsum([len(c) for c in floats[:-1]]))
    parts = []
    for c in cells:
        parts.append(slots.pop(0) if c.dtype.kind == "f"
                     else _text_slots(["%s" % v for v in c.tolist()]))
        parts.append(_COMMA)
    parts[-1:] = [_NEWLINE]  # the last comma, if any
    out = _reused(buffers, "rows", rows.stop - rows.start,
                  sum(p.shape[-1] for p in parts))
    col = 0
    for part in parts:
        out[:, col:col + part.shape[-1]] = part
        col += part.shape[-1]
    # a block of rows at a time: the bytes of the whole chunk and their
    # translation would be two chunk-sized transients, which the heap trims
    return "".join(out[i:i + _FORMAT_BLOCK].tobytes().translate(None, b"\xff")
                   .decode() for i in range(0, len(out), _FORMAT_BLOCK))


def _text_slots(strings: list[str], width: int | None = None) -> np.ndarray:
    """The strings' UTF-8 bytes as the rows of a uint8 matrix, padded with
    0xFF to `width` bytes (default: the longest)."""
    data = [s.encode() for s in strings]
    if width is None:
        width = max(map(len, data), default=0)
    return np.frombuffer(b"".join(d.ljust(width, b"\xff") for d in data),
                         np.uint8).reshape(len(data), width)


def _divmod(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """divmod(a, b) of a non-negative integer array, as q = a // b and
    a - q*b: numpy's integer divmod misses the fast path of its floor
    division, 1.4x slower on int64 and 4x on uint32."""
    q = a // b
    return q, a - q * b


def _significand(a: np.ndarray, e10: np.ndarray) -> np.ndarray:
    """round-half-even(a * 10**(16 - e10)), exactly, as int64.

    Dekker's two-product with Veltkamp splits gives a * 10**k = p + err
    exactly without an FMA.  Where p >= 2**53 it is an even integer, so
    rounding err alone rounds p + err, ties to even included."""
    k = 16 - e10
    p = a * _POW10.take(k)
    t = a * _VELTKAMP
    a_hi = t - (t - a)
    a_lo = a - a_hi
    c_hi, c_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    err = ((a_hi * c_hi - p) + a_hi * c_lo + a_lo * c_hi) + a_lo * c_lo
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


@functools.cache
def _slot_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lookup tables of _format_floats, built on first use.

    - Layouts, by (sign, E + 4, index of the last digit written): the sign,
      "0." and leading zeros for E < 0, a zero byte for each digit written,
      the point after digit E when a fraction follows, 0xFF elsewhere.
    - Digit words, 8 bytes to OR into a slot: the 10,000 groups of four
      digits, each digit followed by a zero point byte, then the ten lead
      digits at byte 6.
    - The count of trailing zeros of each group of four."""
    sign, e10, last = np.ix_([0, 1], range(-4, 17), range(17))
    rows = np.full((2, 21, 17, _SLOT), 255, np.uint8)
    rows[..., 0] = np.where(sign, ord("-"), 255)
    n_prefix = np.where(e10 < 0, 1 - e10, 0)[..., None]
    rows[..., 1:6] = np.where(np.arange(5) < n_prefix,
                              np.frombuffer(b"0.000", np.uint8), 255)
    digit = np.arange(17)
    rows[..., 6::2] = np.where(digit <= np.maximum(last, e10)[..., None], 0, 255)
    point = (digit == e10[..., None]) & (e10 < last)[..., None]
    rows[..., 7::2] = np.where(point, ord("."), 255)
    group = np.arange(10**4, dtype=np.uint16)
    words = np.zeros((10**4 + 10, 8), np.uint8)
    words[:10**4, 0::2] = (group[:, None] // np.array([1000, 100, 10, 1],
                                                      np.uint16) % 10 + 48)
    words[10**4:, 6] = np.arange(10) + 48
    zeros = sum(group % 10**j == 0 for j in range(1, 5)).astype(np.int8)
    return (rows.reshape(-1, _SLOT).view(np.uint64),
            words.view(np.uint64).ravel(), zeros)


def _format_floats(x: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The '%.17g' text of each value of the float64 array x, written as the
    rows of `slots`, a C-order (len(x), _SLOT) uint8 matrix, padded with
    0xFF; returns `slots`.

    Values with 1e-4 <= |x| < 1e16 are formatted by array arithmetic: the
    significand N, then its lead digit and four groups of four digits as
    digit words, ORed into the layout that the sign, E and N's last nonzero
    digit select.  Zeros, subnormals, inf, NaN and the values printed in
    exponent notation go through '%.17g' one by one.  The values are taken
    _FORMAT_BLOCK at a time (_format_block), so the temporaries stay a few
    hundred kB whatever the length of x: they stay in cache, and the heap
    they are freed to serves the next block and the next chunk."""
    for start in range(0, len(x), _FORMAT_BLOCK):
        block = slice(start, start + _FORMAT_BLOCK)
        _format_block(x[block], slots[block])
    return slots


def _format_block(x: np.ndarray, slots: np.ndarray) -> None:
    """_format_floats of x, written into the (len(x), _SLOT) rows slots."""
    layouts, digit_words, trailing_zeros = _slot_tables()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0  # a stand-in, overwritten at the end
    e10 = np.floor(np.log10(a)).astype(np.intp)
    n = _significand(a, e10)
    # log10 may round across a power of ten: round those rows at E -/+ 1
    off = (n >= 10**17).astype(np.intp) - (n < 10**16)
    redo = np.flatnonzero(off)
    if len(redo):
        e10[redo] += off[redo]
        n[redo] = _significand(a[redo], e10[redo])
    hi, lo = _divmod(n, 10**8)
    lead, hi = _divmod(hi.astype(np.uint32), 10**8)
    groups = [*_divmod(hi, 10**4), *_divmod(lo.astype(np.uint32), 10**4)]
    index = np.empty((len(x), 5), np.intp)  # into digit_words
    index[:, 0] = lead + 10**4
    for j, group in enumerate(groups, 1):
        index[:, j] = group
    # N's trailing zeros: an all-zero group counts 4 and adds the next one's
    z = [trailing_zeros.take(group) for group in groups]
    zeros = z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (
        z[1] + (z[1] == 4) * z[0]))
    # every layout index is in range: "clip" only spares take the buffered
    # copy that its default mode makes of its `out`
    words = slots.view(np.uint64)
    np.take(layouts, (np.signbit(x) * 21 + e10 + 4) * 17 + 16 - zeros,
            axis=0, out=words, mode="clip")
    words |= digit_words.take(index)
    slow = np.flatnonzero(~fast)
    if len(slow):
        slots[slow] = _text_slots([_FLOAT % v for v in x[slow].tolist()],
                                  _SLOT)


def _write_json(path, payload) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:  # a NaN or inf, which JSON cannot hold
        raise ArithmeticError(
            f"a JSON summary value is not finite: {e}") from None
    _write_text(path, [text + "\n"])


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse {what}: {text!r}") from None


def _parse_ints(text: str, what: str) -> list[int]:
    values = _parse_floats(text, what)
    if not all(v.is_integer() for v in values):
        raise ValueError(f"{what} entries must be integers, got {text!r}")
    return [int(v) for v in values]


def _require_positive(values: dict) -> None:
    for flag, value in values.items():
        if not value > 0:
            raise ValueError(f"{flag} must be positive, got {value}")


def _require_finite(values: dict) -> None:
    for flag, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")


def _model_from_args(args) -> RcmModel:
    if args.config:
        given = [flag for flag, value in (
            ("--deltas", args.deltas), ("--lambda", args.lam),
            ("--dim", args.dim), ("--alpha", args.alpha),
            ("--forcing", args.forcing)) if value is not None]
        if given:
            raise ValueError(f"--config gives the model; drop {', '.join(given)}")
        with open(args.config) as fh:
            cfg = json.load(fh)
    else:
        if args.deltas is None and args.lam is None:
            raise ValueError("provide --deltas, --lambda or --config")
        dim = 1 if args.dim is None else args.dim
        alpha = _number("--dim", dim) / 2 + 1 if args.alpha is None \
            else args.alpha
        forcing = 1.0 if args.forcing is None else args.forcing
        cfg = {"d": dim, "alpha": alpha, "f": forcing}
        if args.deltas is not None:
            cfg["deltas"] = _parse_floats(args.deltas, "--deltas")
        if args.lam is not None:
            cfg["lambda"] = args.lam
    try:
        return model_from_dict(cfg)
    except TypeError as e:  # a config file value of the wrong JSON type
        raise ValueError(str(e)) from None


def _add_model_args(sub):
    sub.add_argument("--config", help="JSON model file")
    sub.add_argument("--dim", type=int, help="default 1")
    sub.add_argument("--alpha", type=float, help="default dim/2 + 1")
    sub.add_argument("--forcing", type=float, help="default 1.0")
    sub.add_argument("--deltas", help="comma-separated coefficients")
    sub.add_argument("--lambda", dest="lam", type=float,
                     help="lambda-family parameter")
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--seed", type=int, default=0)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_spectra(args) -> int:
    _require_positive({"--p-step": args.p_step})
    _require_finite({"--mu": args.mu, "--D": args.D, "--p-min": args.p_min,
                     "--p-max": args.p_max})
    if args.p_min < 0:
        raise ValueError(f"--p-min must be >= 0, got {args.p_min}")
    if args.p_min > args.p_max:
        raise ValueError(f"--p-min {args.p_min} is above --p-max {args.p_max}")
    lams = _parse_floats(args.lambdas, "--lambdas")
    models = [lambda_family(lam, d=3, alpha=2.5) for lam in lams]
    names = [f"rcm_lambda={lam:g}" for lam in lams]
    names += spectra.REFERENCE_MODELS
    # np.arange's length as a float, so that an endless grid fails too
    n_p = np.ceil((args.p_max + 1e-9 - args.p_min) / args.p_step)
    check_budget("rows", len(names) * n_p)
    p_grid = np.arange(args.p_min, args.p_max + 1e-9, args.p_step)
    curves = [spectra.zeta(model, p_grid, check_h=False) for model in models]
    curves += [spectra.reference_zeta(name, p_grid, mu=args.mu, D=args.D)
               for name in spectra.REFERENCE_MODELS]
    config = {"lambdas": lams, "mu": args.mu, "D": args.D,
              "p": [args.p_min, args.p_max, args.p_step]}
    _write_csv(args.out, _header(None, args.seed, config),
               {"model_name": np.repeat(names, len(p_grid)),
                "p": np.tile(p_grid, len(names)),
                "zeta": np.concatenate(curves)})
    if args.summary:
        summary = {}
        for name, model in zip(names, models):
            h, intercept = spectra.asymptote(model)
            summary[name] = {"h": h, "asymptote": [h, intercept],
                             "delta": spectra.dim_delta(model),
                             "zeta3": float(spectra.zeta(model, 3.0,
                                                         check_h=False))}
        _write_json(args.summary, summary)
    return 0


def cmd_solve(args) -> int:
    model = _model_from_args(args)
    run = pullback(GeneralCoefficients.from_rcm(model), model.alpha,
                   depth=args.depth, seed=args.x)
    columns = dict(zip(["generation", "q_min", "q_max", "q_mean"],
                       zip(*run.summary())))
    columns["band_lo"], columns["band_hi"] = run.band
    columns["residual_max"] = run.residual_max()
    config = {"model": model.to_dict(), "depth": args.depth, "x": args.x}
    _write_csv(args.out, _header(model, args.seed, config), columns)
    return 0


def cmd_dissipation(args) -> int:
    model = _model_from_args(args)
    band = None if args.band is None else _band_from_args(args, model)
    mu = dissipation.measure(model, args.n)
    config = {"model": model.to_dict(), "n": args.n}
    header = _header(model, args.seed, config)
    if band is not None:
        lo, hi = band
        header.append(f"# band=[{_FLOAT % lo},{_FLOAT % hi}] "
                      f"mass_in_band={_FLOAT % mu.mass_in(lo, hi)}")
    _write_csv(args.out, header, {"n": args.n, "sigma_atom": mu.sigma,
                                  "log2_mass": mu.log2_mass})
    return 0


def _band_from_args(args, model) -> tuple[float, float]:
    if args.band == "auto":
        _require_positive({"--band-width": args.band_width})
        center = model.phi(1.5)
        return center - args.band_width, center + args.band_width
    vals = _parse_floats(args.band, "--band")
    if len(vals) != 2:
        raise ValueError(f"--band needs 'auto' or 'lo,hi', got {args.band!r}")
    if not vals[0] < vals[1]:
        raise ValueError(f"--band needs lo < hi, got {args.band!r}")
    return vals[0], vals[1]


def cmd_concentration(args) -> int:
    model = _model_from_args(args)
    band = _band_from_args(args, model)
    ns = _parse_ints(args.n_list, "--n-list")
    curve = dissipation.concentration_curve(model, band, ns)
    config = {"model": model.to_dict(), "band": list(band), "n_list": ns}
    _write_csv(args.out, _header(model, args.seed, config),
               {"n": curve.n, "mass_in_B": curve.mass_in,
                "tail": [2.0**t for t in curve.log2_tail],
                "point_rate": curve.point_rate,
                "slope_rate": curve.slope_rate,
                "theoretical_rate": curve.theoretical_rate})
    return 0


def cmd_lln(args) -> int:
    model = _model_from_args(args)
    rep = dissipation.lln_sample(model, args.n, args.samples, args.seed)
    config = {"model": model.to_dict(), "n": args.n, "samples": args.samples}
    _write_csv(args.out, _header(model, args.seed, config),
               dataclasses.asdict(rep))
    return 0


def cmd_simulate(args) -> int:
    _require_positive({"--dt": args.dt, "--t-end": args.t_end,
                       "--record-every": args.record_every})
    _require_finite({"--t-end / --dt": args.t_end / args.dt})
    scale = {"zero": 0.0, "constant": 1.0}.get(args.init)
    if args.init.startswith("perturbed:"):
        eps = _parse_floats(args.init.split(":", 1)[1], "--init perturbed:EPS")
        if len(eps) != 1 or not -1 <= eps[0] < math.inf:
            raise ValueError("--init perturbed:EPS needs one finite "
                             f"EPS >= -1, got {args.init!r}")
        scale = 1.0 + eps[0]
    elif scale is None:
        raise ValueError(f"unknown init {args.init!r}")
    model = _model_from_args(args)
    u = dynamics.constant_values(ConstantSolution(model), args.depth)
    with np.errstate(over="ignore"):  # TruncatedState refuses an inf start
        start = u * scale
    state = dynamics.TruncatedState(model, args.depth, start, args.closure)
    steps = int(round(args.t_end / args.dt))
    traj = dynamics.integrate(state, args.dt, steps,
                              record_every=args.record_every)
    config = {"model": model.to_dict(), "depth": args.depth, "dt": args.dt,
              "t_end": args.t_end, "closure": args.closure, "init": args.init}
    # squares past the double range are reported below, in one line
    with np.errstate(over="ignore"):
        energy = (traj.states * traj.states).sum(axis=1)
        distance = ((traj.states - u) ** 2).sum(axis=1)
    if not (np.isfinite(energy).all() and np.isfinite(distance).all()):
        raise ArithmeticError("an energy or distance_to_u is not finite: the "
                              "state's squares leave the double range")
    _write_csv(args.out, _header(model, args.seed, config),
               {"t": traj.times, "energy": energy,
                "v_root": traj.states[:, 0], "distance_to_u": distance,
                "clamp_total": traj.clamp_total})
    return 0


def cmd_structure(args) -> int:
    window = None
    if args.fit_window:
        window = tuple(_parse_ints(args.fit_window, "--fit-window"))
        if len(window) != 2:
            raise ValueError("--fit-window needs 'm_lo,m_hi', "
                             f"got {args.fit_window!r}")
    ps = _parse_floats(args.p_list, "--p-list")
    model = _model_from_args(args)
    # an S_p that leaves the double range is reported below, in one line
    with np.errstate(over="ignore", invalid="ignore"):
        est = field.structure_function(ConstantSolution(model), args.depth,
                                       ps, m_range=window, mother=args.mother)
        s_p = np.array([2.0**x for x in est.log2_S.ravel()])
    # a subnormal or zero S_p would print with few or no significant digits
    normal = (s_p >= sys.float_info.min) & np.isfinite(s_p)
    if not (normal.all() and np.isfinite(est.zeta_hat).all()):
        raise ArithmeticError("an S_p is not a normal positive double or a "
                              "fitted zeta_hat is not finite: S_p leaves the "
                              "double range")
    config = {"model": model.to_dict(), "depth": args.depth,
              "p_list": ps, "fit_window": list(est.fit_window),
              "mother": args.mother}
    _write_csv(args.out, _header(model, args.seed, config),
               {"p": np.repeat(est.p, len(est.m)),
                "m": np.tile(est.m, len(est.p)),
                "S_p": s_p})
    if args.summary:
        formula = spectra.zeta(model, est.p, check_h=False)
        _write_json(args.summary, [
            {"p": p, "zeta_hat": zh, "zeta_formula": zf,
             "rel_err": abs(zh - zf) / abs(zf) if zf else None}
            for p, zh, zf in zip(est.p.tolist(), est.zeta_hat.tolist(),
                                 formula.tolist())])
    return 0


# ---------------------------------------------------------------------------


def _spectra_args(sp):
    sp.add_argument("--lambdas", default="0.1,0.2,0.2307")
    sp.add_argument("--mu", type=float, default=0.2)
    sp.add_argument("--D", type=float, default=2.8)
    sp.add_argument("--p-min", type=float, default=0.0)
    sp.add_argument("--p-max", type=float, default=20.0)
    sp.add_argument("--p-step", type=float, default=0.1)
    sp.add_argument("--out")
    sp.add_argument("--summary", help="also write a JSON summary here")
    sp.add_argument("--seed", type=int, default=0)


def _solve_args(so):
    _add_model_args(so)
    so.add_argument("--depth", type=int, default=8)
    so.add_argument("-x", type=float, default=0.0, help="boundary seed value")


def _dissipation_args(di):
    _add_model_args(di)
    di.add_argument("--n", type=int, default=100)
    di.add_argument("--band", default=None,
                    help="report the band mass too: 'auto' or 'lo,hi'")
    di.add_argument("--band-width", type=float, default=0.1)


def _concentration_args(co):
    _add_model_args(co)
    co.add_argument("--band", default="auto",
                    help="'auto' (centered at phi(3/2)) or 'lo,hi'")
    co.add_argument("--band-width", type=float, default=0.1)
    co.add_argument("--n-list", default="50,100,200,400")


def _lln_args(ll):
    _add_model_args(ll)
    ll.add_argument("--n", type=int, default=10000)
    ll.add_argument("--samples", type=int, default=1000)


def _simulate_args(si):
    _add_model_args(si)
    si.add_argument("--depth", type=int, default=5)
    si.add_argument("--dt", type=float, default=1e-4)
    si.add_argument("--t-end", type=float, default=0.1)
    si.add_argument("--closure", choices=["zero", "stationary"],
                    default="stationary")
    si.add_argument("--init", default="constant",
                    help="zero | constant | perturbed:EPS")
    si.add_argument("--record-every", type=int, default=10)


def _structure_args(st):
    _add_model_args(st)
    st.add_argument("--depth", type=int, default=16)
    st.add_argument("--p-list", default="1,2,3")
    st.add_argument("--fit-window", help="override 'm_lo,m_hi'")
    st.add_argument("--mother", choices=["haar", "hat"], default="haar")
    st.add_argument("--summary", help="also write a JSON summary here")


# name: (help, the function it runs, the function that adds its arguments)
_COMMANDS = {
    "spectra": ("zeta curves for RCM and reference models", cmd_spectra,
                _spectra_args),
    "solve": ("pull-back construction summary", cmd_solve, _solve_args),
    "dissipation": ("the measure mu_n atom by atom", cmd_dissipation,
                    _dissipation_args),
    "concentration": ("mu_n(B) along generations", cmd_concentration,
                      _concentration_args),
    "lln": ("law of large numbers along random paths", cmd_lln, _lln_args),
    "simulate": ("integrate the truncated dynamics", cmd_simulate,
                 _simulate_args),
    "structure": ("empirical structure function", cmd_structure,
                  _structure_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone if it names
    one; its usage, help and error text are the same either way."""
    ap = argparse.ArgumentParser(
        prog="treeshell",
        description="Constant solutions and multifractal analysis of the "
                    "tree dyadic model with repeated coefficients")
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # the one-command parser spells out the usage line's {...} of all
    # seven; the full parser sets no metavar, which would replace "command"
    # in the error for a missing or invalid command
    metavar = None if len(names) > 1 else "{" + ",".join(_COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_, func, add_args = _COMMANDS[name]
        parser = sub.add_parser(name, help=help_)
        add_args(parser)
        parser.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout early: send the interpreter's final flush
        # to os.devnull, as the Python signal docs advise, and say nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, KeyError, OSError, ResourceLimitError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
