"""File formats: panel/label CSVs, model text files, report CSV/JSON.

Every file is UTF-8 with LF line endings and `.` as the decimal point.
Floats are written with 17 significant digits, so write/read round trips
reproduce the in-memory values bit-exactly. Panel-layout files (panels,
windows, value labels) go through two kernels: `write_panel` formats each
distinct value of a block of rows once and joins the cached strings, and
`read_panel` parses every value with one `np.loadtxt` call fed row by row
from the open file, so a panel read holds one line besides its n x T float
array. Panel writers number the series 0..n-1; `read_panel` keeps each row's
id as the file spells it, csv-quoted ids included. Readers raise ValueError
on malformed content, including non-finite numbers, a model count (k, p,
dims) that is not written in decimal digits, and a PCA model that is not a
basis (k outside 1..p, negative or ascending eigenvalues, omega rows not
orthonormal to 1e-9), and OSError on filesystem problems; the CLI maps those
to its exit codes. JSON reports write non-finite floats as null, never as
bare NaN or Infinity.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np

from .pcafeat import PcaModel
from .scorer import ScoringNetwork

PCA_FORMAT_TAG = "panelscan-pca v1"
NET_FORMAT_TAG = "panelscan-net v1"
_FLOAT_FMT = ".17g"
_PANEL_BLOCK_ROWS = 256  # rows formatted together by write_panel
_ORTHONORMAL_TOL = 1e-9  # largest |Omega Omega^T - I| entry a stored basis may show


def _fmt(value):
    return format(float(value), _FLOAT_FMT)


def _open_write(path):
    return open(path, "w", encoding="utf-8", newline="")


def _writer(handle):
    return csv.writer(handle, lineterminator="\n")


def _read_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        try:
            return list(csv.reader(handle))
        except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
            raise ValueError(f"{path}: {exc}") from exc


def _parse_float(text, path, what):
    try:
        return float(text)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed {what} {text!r}") from exc


def _parse_count(text, path, what):
    """A count as the writers write it: ASCII decimal digits only, so never 2.0 or 1e1."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{path}: malformed {what} {text!r}; expected a whole number")
    return int(text)


def _finite(values, path, what):
    """The array itself, or ValueError when any entry is nan or infinite."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: non-finite {what}")
    return values


# -- panels ------------------------------------------------------------------

class _RowError(Exception):
    """A bad panel row id or field count, found while np.loadtxt pulls rows.

    Not a ValueError, so it stays apart from loadtxt's "malformed price" errors."""


def _quoted_id(line, path):
    """Split a row whose first field is csv-quoted into (id, the rest after its comma)."""
    end = 1
    while True:
        end = line.find('"', end)
        if end < 0:
            raise _RowError(f"{path}: unterminated quoted series id in {line[:40]!r}")
        if not line.startswith('""', end):
            break
        end += 2
    if not line.startswith(",", end + 1):
        raise _RowError(f"{path}: quoted series id must be followed by ',' in {line[:40]!r}")
    return line[1:end].replace('""', '"'), line[end + 2:]


def _price_rows(lines, T, ids, path):
    """Yield each row for np.loadtxt, its id appended to ids and its field count checked."""
    for line in lines:
        if line.startswith('"'):
            sid, rest = _quoted_id(line, path)
            line = "," + rest
        else:
            comma = line.find(",")
            sid = line.rstrip("\n") if comma < 0 else line[:comma]
        if line.count(",") != T:
            raise _RowError(f"{path}: row {[sid]} has {line.count(',')} values, expected {T}")
        ids.append(sid)
        yield line


def write_panel(path, prices, fmt=_FLOAT_FMT):
    """Panel CSV: header series_id,t_1,...,t_T, one row per series, ids 0..n-1.

    Rows go out in blocks of `_PANEL_BLOCK_ROWS`. In each block every distinct
    bit pattern is formatted once with `"%" + fmt` (`"%.17g" % v` writes the
    same bytes as `format(v, ".17g")`), and the rows join the cached strings.
    Overlapping windows repeat most of their neighbours' values, so most cells
    cost a lookup. Keying on bits keeps -0.0 apart from 0.0.
    """
    prices = np.atleast_2d(np.asarray(prices))
    n, T = prices.shape
    if T == 0:
        raise ValueError("a panel needs at least one column")
    spec = "%" + fmt
    bits = f"u{prices.dtype.itemsize}"
    with _open_write(path) as handle:
        _writer(handle).writerow(["series_id"] + [f"t_{j}" for j in range(1, T + 1)])
        for start in range(0, n, _PANEL_BLOCK_ROWS):
            block = np.ascontiguousarray(prices[start:start + _PANEL_BLOCK_ROWS])
            distinct, inverse = np.unique(block.view(bits), return_inverse=True)
            text = np.array([spec % v for v in distinct.view(prices.dtype).tolist()],
                            dtype=object)
            rows = text[inverse.reshape(block.shape)].tolist()
            handle.write("".join(f"{sid},{','.join(row)}\n"
                                 for sid, row in enumerate(rows, start)))


def read_panel(path):
    """Read a panel CSV back as (series ids, prices).

    Ids are each row's first field; a csv-quoted id is unquoted. The values
    are parsed by one `np.loadtxt` call, which reads what `float` reads except
    underscores, non-ASCII digits and quoted cells; those are refused. Rows
    stream from the open file into loadtxt through a generator that checks
    each row's id and field count as it passes, so the reader holds one line
    besides the n x T result array.
    """
    ids = []
    with open(path, encoding="utf-8") as handle:  # universal newlines: \r\n and \r end rows
        header = handle.readline().rstrip("\n").split(",")
        if header[0] != "series_id":
            raise ValueError(f"{path}: expected a panel CSV with a series_id header")
        T = len(header) - 1
        if T == 0 or header[1:] != [f"t_{j}" for j in range(1, T + 1)]:
            raise ValueError(f"{path}: panel header columns must be t_1..t_{T}")
        first = handle.readline()
        if not first:
            raise ValueError(f"{path}: panel has no series")
        rows = _price_rows(itertools.chain([first], handle), T, ids, path)
        try:
            prices = np.loadtxt(rows, delimiter=",", usecols=range(1, T + 1), ndmin=2,
                                dtype=float, comments=None)
        except _RowError as exc:
            raise ValueError(str(exc)) from None
        except ValueError as exc:
            raise ValueError(f"{path}: malformed price: {exc}") from exc
    return ids, _finite(prices, path, "price")


def write_value_labels(path, labels):
    """Value-level label matrix in the panel layout, integer cells."""
    write_panel(path, np.atleast_2d(np.asarray(labels, dtype=np.int64)), fmt="d")


def read_value_labels(path):
    ids, values = read_panel(path)
    if not np.array_equal(np.round(values), values):
        raise ValueError(f"{path}: value labels must be integers")
    if not np.all((values == 0) | (values == 1)):
        raise ValueError(f"{path}: value labels must be 0 or 1")
    return ids, values.astype(np.int64)


def write_params(path, panel):
    """Per-series generating parameters: series_id,s0,mu,sigma."""
    write_rows(path, ["series_id", "s0", "mu", "sigma"],
               zip(range(panel.n_stocks), panel.s0, panel.mu, panel.sigma))


def read_params(path):
    rows = _read_rows(path)
    if not rows or rows[0] != ["series_id", "s0", "mu", "sigma"]:
        raise ValueError(f"{path}: expected header series_id,s0,mu,sigma")
    cols = [[], [], []]
    for row in rows[1:]:
        if len(row) != 4:
            raise ValueError(f"{path}: params row needs 4 fields, got {len(row)}")
        for store, value, name in zip(cols, row[1:], ("s0", "mu", "sigma")):
            store.append(_parse_float(value, path, name))
    if not cols[0]:
        raise ValueError(f"{path}: params file has no series")
    s0, mu, sigma = (_finite(c, path, name) for c, name in zip(cols, ("s0", "mu", "sigma")))
    if np.any(s0 <= 0):
        raise ValueError(f"{path}: s0 must be positive")
    if np.any(sigma < 0):
        raise ValueError(f"{path}: sigma must not be negative")
    return s0, mu, sigma


def read_weights(path):
    """(series ids, weights) from a series_id,weight CSV; blank lines are skipped."""
    rows = _read_rows(path)
    if not rows or rows[0] != ["series_id", "weight"]:
        raise ValueError(f"{path}: expected header series_id,weight")
    ids, values = [], []
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(f"{path}: weights row {row!r} needs 2 fields, got {len(row)}")
        ids.append(row[0])
        values.append(_parse_float(row[1], path, "weight"))
    if not values:
        raise ValueError(f"{path}: weights file has no rows")
    return ids, _finite(values, path, "weight")


# -- window labels -----------------------------------------------------------

def write_labels(path, A, L):
    """Label CSV: row_id,A,L with an empty L cell for uncontaminated rows."""
    A = np.asarray(A, dtype=np.int64)
    L = np.asarray(L, dtype=np.int64)
    if A.shape != L.shape:
        raise ValueError("A and L must have the same length")
    write_rows(path, ["row_id", "A", "L"],
               ((row_id, int(a), int(loc) if a else "")
                for row_id, (a, loc) in enumerate(zip(A, L))))


def read_labels(path):
    """(A, L) from a label CSV; A and L only as write_labels writes them, in ASCII digits."""
    rows = _read_rows(path)
    if not rows or rows[0] != ["row_id", "A", "L"]:
        raise ValueError(f"{path}: expected header row_id,A,L")
    A, L = [], []
    for row_id, row in enumerate(rows[1:]):
        if len(row) != 3:
            raise ValueError(f"{path}: label row needs 3 fields, got {len(row)}")
        if row[0] != str(row_id):
            raise ValueError(f"{path}: row_id {row[0]!r} where {row_id} belongs")
        a = _parse_count(row[1], path, "label A")
        loc = _parse_count(row[2], path, "label L") if row[2] != "" else 0
        if a not in (0, 1):
            raise ValueError(f"{path}: A must be 0 or 1, got {a}")
        if a == 1 and loc < 1:
            raise ValueError(f"{path}: contaminated rows need a 1-based location")
        A.append(a)
        L.append(loc if a else 0)
    return np.asarray(A, dtype=np.int64), np.asarray(L, dtype=np.int64)


# -- models ------------------------------------------------------------------

def _write_vector(handle, name, vector):
    handle.write(name + " " + " ".join(_fmt(v) for v in vector) + "\n")


def write_pca_model(path, model: PcaModel):
    """Structured text: tag, k, p, means, eigenvalues, omega row-major."""
    with _open_write(path) as handle:
        handle.write(PCA_FORMAT_TAG + "\n")
        handle.write(f"k {model.k}\n")
        handle.write(f"p {model.window_length}\n")
        _write_vector(handle, "mean", model.mean)
        _write_vector(handle, "eigenvalues", model.eigenvalues)
        handle.write("omega\n")
        for row in model.omega:
            handle.write(" ".join(_fmt(v) for v in row) + "\n")


def _split_tagged(line, tag, path, count=None, parse=_parse_float):
    parts = line.split()
    if not parts or parts[0] != tag:
        raise ValueError(f"{path}: expected a {tag!r} line, got {line!r}")
    values = [parse(v, path, tag) for v in parts[1:]]
    if count is not None and len(values) != count:
        raise ValueError(f"{path}: {tag} needs {count} values, got {len(values)}")
    return values


def read_pca_model(path) -> PcaModel:
    with open(path, encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle]
    if not lines or lines[0] != PCA_FORMAT_TAG:
        raise ValueError(f"{path}: not a {PCA_FORMAT_TAG} file")
    try:
        k = _split_tagged(lines[1], "k", path, 1, _parse_count)[0]
        p = _split_tagged(lines[2], "p", path, 1, _parse_count)[0]
        if not 1 <= k <= p:
            raise ValueError(f"{path}: k must lie in 1..{p}, got {k}")
        mean = np.asarray(_split_tagged(lines[3], "mean", path, p))
        eigenvalues = np.asarray(_split_tagged(lines[4], "eigenvalues", path, k))
        if lines[5] != "omega":
            raise ValueError(f"{path}: expected the omega section, got {lines[5]!r}")
        if len(lines) < 6 + k:
            raise ValueError(f"{path}: omega needs {k} rows")
        omega = []
        for i in range(k):
            row = [_parse_float(v, path, "omega") for v in lines[6 + i].split()]
            if len(row) != p:
                raise ValueError(f"{path}: omega row {i} has {len(row)} values, expected {p}")
            omega.append(row)
        omega = np.asarray(omega)
    except IndexError as exc:
        raise ValueError(f"{path}: truncated PCA model file") from exc
    if len(lines) > 6 + k:
        raise ValueError(f"{path}: unexpected line {lines[6 + k]!r} after the {k} omega rows")
    if omega.shape != (k, p):
        raise ValueError(f"{path}: omega shape {omega.shape} != ({k}, {p})")
    model = PcaModel(mean=_finite(mean, path, "mean"), omega=_finite(omega, path, "omega"),
                     eigenvalues=_finite(eigenvalues, path, "eigenvalues"), k=k)
    _require_basis(model, path)
    return model


def _require_basis(model: PcaModel, path):
    """ValueError unless omega's rows are orthonormal and the eigenvalues sorted and >= 0."""
    eigenvalues = model.eigenvalues
    if np.any(eigenvalues < 0.0):
        raise ValueError(f"{path}: negative eigenvalue {eigenvalues.min()!r}")
    if np.any(np.diff(eigenvalues) > 0.0):
        raise ValueError(f"{path}: eigenvalues must be non-increasing")
    gap = float(np.abs(model.omega @ model.omega.T - np.eye(model.k)).max())
    if gap > _ORTHONORMAL_TOL:
        raise ValueError(f"{path}: omega rows are not orthonormal "
                         f"(max |Omega Omega^T - I| = {gap:.1e} > {_ORTHONORMAL_TOL:.0e})")


def write_network(path, net: ScoringNetwork):
    """Structured text: tag, layer dims, tau, s, then W/b per layer."""
    with _open_write(path) as handle:
        handle.write(NET_FORMAT_TAG + "\n")
        handle.write("dims " + " ".join(str(int(d)) for d in net.layer_dims) + "\n")
        handle.write(f"tau {_fmt(net.temperature)}\n")
        handle.write(f"s {_fmt(net.cutoff)}\n")
        for index, (W, b) in enumerate(zip(net.weights, net.biases), start=1):
            handle.write(f"W{index}\n")
            for row in W:
                handle.write(" ".join(_fmt(v) for v in row) + "\n")
            _write_vector(handle, f"b{index}", b)


def read_network(path) -> ScoringNetwork:
    with open(path, encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle]
    if not lines or lines[0] != NET_FORMAT_TAG:
        raise ValueError(f"{path}: not a {NET_FORMAT_TAG} file")
    try:
        dims = _split_tagged(lines[1], "dims", path, parse=_parse_count)
        tau = _split_tagged(lines[2], "tau", path, 1)[0]
        s = _split_tagged(lines[3], "s", path, 1)[0]
        if len(dims) < 2 or dims[-1] != 1:
            raise ValueError(f"{path}: dims must end in 1, got {dims}")
        weights, biases = [], []
        cursor = 4
        for layer, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:]), start=1):
            if lines[cursor] != f"W{layer}":
                raise ValueError(f"{path}: expected W{layer}, got {lines[cursor]!r}")
            cursor += 1
            W = np.asarray([
                [_parse_float(v, path, f"W{layer}") for v in lines[cursor + r].split()]
                for r in range(fan_out)
            ])
            cursor += fan_out
            if W.shape != (fan_out, fan_in):
                raise ValueError(f"{path}: W{layer} shape {W.shape} != ({fan_out}, {fan_in})")
            b = np.asarray(_split_tagged(lines[cursor], f"b{layer}", path, fan_out))
            cursor += 1
            weights.append(_finite(W, path, f"W{layer}"))
            biases.append(_finite(b, path, f"b{layer}"))
    except IndexError as exc:
        raise ValueError(f"{path}: truncated network file") from exc
    if len(lines) > cursor:
        raise ValueError(f"{path}: unexpected line {lines[cursor]!r} after b{len(dims) - 1}")
    _finite([tau, s], path, "tau or s")
    if tau <= 0:
        raise ValueError(f"{path}: tau must be positive, got {tau!r}")
    return ScoringNetwork(layer_dims=dims, weights=weights, biases=biases,
                          cutoff=s, temperature=tau)


# -- reports -----------------------------------------------------------------

def write_training_log(path, history):
    """Training log CSV: iter,loss,bce,auc_u,auc_c,s."""
    write_rows(path, ["iter", "loss", "bce", "auc_u", "auc_c", "s"],
               ((row.iteration, row.loss, row.bce, row.auc_u, row.auc_c, row.cutoff)
                for row in history))


def write_detect_report(path, reports):
    """Detection report CSV: row_id,pred_A,score,locations,iterations.

    Locations are 1-based window indices joined by ';', empty when none.
    """
    write_rows(path, ["row_id", "pred_A", "score", "locations", "iterations"],
               ((row_id, report.pred_label, report.score,
                 ";".join(str(int(loc)) for loc in report.locations), report.iterations_used)
                for row_id, report in enumerate(reports)))


def read_detect_report(path):
    """Rows as dicts with parsed pred_A/score/locations/iterations."""
    rows = _read_rows(path)
    if not rows or rows[0] != ["row_id", "pred_A", "score", "locations", "iterations"]:
        raise ValueError(f"{path}: expected a detect report header")
    parsed = []
    for row in rows[1:]:
        if len(row) != 5:
            raise ValueError(f"{path}: report row needs 5 fields, got {len(row)}")
        locations = [int(v) for v in row[3].split(";")] if row[3] else []
        parsed.append({
            "row_id": int(row[0]),
            "pred_A": int(row[1]),
            "score": _parse_float(row[2], path, "score"),
            "locations": locations,
            "iterations": int(row[4]),
        })
    return parsed


def write_rows(path, header, rows):
    """A CSV table: strings and ints as they are, every other value as a 17-digit float."""
    with _open_write(path) as handle:
        out = _writer(handle)
        out.writerow(list(header))
        for row in rows:
            out.writerow([v if isinstance(v, (str, int)) else _fmt(v) for v in row])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if hasattr(obj, "as_dict"):
        return _jsonable(obj.as_dict())
    return obj


def write_json(path, payload):
    with _open_write(path) as handle:
        json.dump(_jsonable(payload), handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON: {exc}") from exc
