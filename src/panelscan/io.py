"""File formats: panel/label CSVs, model text files, report CSV/JSON.

Every file is UTF-8 with LF line endings and `.` as the decimal point.
Floats are written with 17 significant digits, so write/read round trips
reproduce the in-memory values bit-exactly. Three readers take files apart:
`read_panel` (panels, windows, value labels) streams rows into one
`np.loadtxt` call and keeps each row's id as the file spells it;
`_read_table` (params, weights, window labels, detect reports) checks the
header, skips blank rows and wants one field per column in every other row;
`_ModelCursor` (`pca.txt`, `net.txt`) checks the format tag, then reads
tagged value lines and name-headed matrix blocks in order, with no line
missing and none left over. All three share one number grammar: a float
reads as `np.loadtxt` reads it (what `float` takes, less underscores and
non-ASCII characters), and a count (k, p, dims, label A and L, a report's
ids, flags, locations and iterations) is ASCII decimal digits only. Readers
raise ValueError on malformed content, including non-finite numbers and a
PCA model that is not a basis (k outside 1..p, negative or ascending
eigenvalues, omega rows not orthonormal to 1e-9), and OSError on filesystem
problems; the CLI maps those to its exit codes. JSON reports write
non-finite floats as null, never as bare NaN or Infinity.
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


def _read_table(path, header, what):
    """The rows after a CSV table's header: blank rows dropped, every other row
    holding one field per header column. ValueError on any other header."""
    with open(path, encoding="utf-8", newline="") as handle:
        try:
            rows = list(csv.reader(handle))
        except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
            raise ValueError(f"{path}: {exc}") from exc
    if not rows or rows[0] != header:
        raise ValueError(f"{path}: expected header {','.join(header)}")
    body = [row for row in rows[1:] if row]
    for row in body:
        if len(row) != len(header):
            raise ValueError(f"{path}: {what} row {row!r} needs {len(header)} fields, "
                             f"got {len(row)}")
    return body


def _parse_float(text, path, what):
    """A float as np.loadtxt reads a cell: what float() takes, less underscores
    and non-ASCII characters once the padding whitespace is stripped."""
    stripped = text.strip()
    if stripped.isascii() and "_" not in stripped:
        try:
            return float(stripped)
        except ValueError:
            pass
    raise ValueError(f"{path}: malformed {what} {text!r}")


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
    rows = _read_table(path, ["series_id", "s0", "mu", "sigma"], "params")
    if not rows:
        raise ValueError(f"{path}: params file has no series")
    s0, mu, sigma = (_finite([_parse_float(row[column], path, name) for row in rows], path, name)
                     for column, name in enumerate(("s0", "mu", "sigma"), start=1))
    if np.any(s0 <= 0):
        raise ValueError(f"{path}: s0 must be positive")
    if np.any(sigma < 0):
        raise ValueError(f"{path}: sigma must not be negative")
    return s0, mu, sigma


def read_weights(path):
    """(series ids, weights) from a series_id,weight table; ids as the file spells them."""
    rows = _read_table(path, ["series_id", "weight"], "weights")
    if not rows:
        raise ValueError(f"{path}: weights file has no rows")
    return ([row[0] for row in rows],
            _finite([_parse_float(row[1], path, "weight") for row in rows], path, "weight"))


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
    A, L = [], []
    for row_id, row in enumerate(_read_table(path, ["row_id", "A", "L"], "label")):
        if row[0] != str(row_id):
            raise ValueError(f"{path}: row_id {row[0]!r} where {row_id} belongs")
        a = _parse_count(row[1], path, "label A")
        loc = _parse_count(row[2], path, "label L") if row[2] != "" else 0
        if a not in (0, 1):
            raise ValueError(f"{path}: A must be 0 or 1, got {a}")
        if a == 1 and loc < 1:
            raise ValueError(f"{path}: contaminated rows need a 1-based location")
        if a == 0 and row[2] != "":
            raise ValueError(f"{path}: clean row {row_id} has a location {row[2]!r}")
        A.append(a)
        L.append(loc)
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


class _ModelCursor:
    """A model file's lines after its format tag, read in order. Each read
    raises ValueError when the file ends first or the line is not what the
    format puts there; `end` refuses a line left over."""

    def __init__(self, path, tag):
        with open(path, encoding="utf-8") as handle:
            self.lines = [line.rstrip("\n") for line in handle]
        if not self.lines or self.lines[0] != tag:
            raise ValueError(f"{path}: not a {tag} file")
        self.path, self.at = path, 1

    def _numbers(self, what, count, parse=_parse_float, tag=None):
        if self.at == len(self.lines):
            raise ValueError(f"{self.path}: truncated file: no {what} line")
        line = self.lines[self.at]
        self.at += 1
        tokens = line.split()
        if tag is not None:
            if tokens[:1] != [tag]:
                raise ValueError(f"{self.path}: expected a {tag!r} line, got {line!r}")
            tokens = tokens[1:]
        if count is not None and len(tokens) != count:
            raise ValueError(f"{self.path}: {what} has {len(tokens)} values, expected {count}")
        return [parse(v, self.path, what) for v in tokens]

    def values(self, tag, count=None, parse=_parse_float):
        """The numbers on a `tag v1 v2 ...` line; `count` of them when given."""
        return self._numbers(tag, count, parse, tag)

    def matrix(self, name, rows, columns):
        """A line reading `name`, then `rows` lines of `columns` floats each."""
        self.values(name, 0)
        return [self._numbers(f"{name} row {i}", columns) for i in range(rows)]

    def end(self, after):
        if self.at < len(self.lines):
            raise ValueError(f"{self.path}: unexpected line {self.lines[self.at]!r} after {after}")


def read_pca_model(path) -> PcaModel:
    lines = _ModelCursor(path, PCA_FORMAT_TAG)
    k, = lines.values("k", 1, _parse_count)
    p, = lines.values("p", 1, _parse_count)
    if not 1 <= k <= p:
        raise ValueError(f"{path}: k must lie in 1..{p}, got {k}")
    mean = _finite(lines.values("mean", p), path, "mean")
    eigenvalues = _finite(lines.values("eigenvalues", k), path, "eigenvalues")
    omega = _finite(lines.matrix("omega", k, p), path, "omega")
    lines.end(f"the {k} omega rows")
    model = PcaModel(mean=mean, omega=omega, eigenvalues=eigenvalues, k=k)
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
    lines = _ModelCursor(path, NET_FORMAT_TAG)
    dims = lines.values("dims", parse=_parse_count)
    if len(dims) < 2 or dims[-1] != 1 or 0 in dims:
        raise ValueError(f"{path}: dims must be positive and end in 1, got {dims}")
    tau, = lines.values("tau", 1)
    s, = lines.values("s", 1)
    _finite([tau, s], path, "tau or s")
    if tau <= 0:
        raise ValueError(f"{path}: tau must be positive, got {tau!r}")
    weights, biases = [], []
    for layer, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:]), start=1):
        weights.append(_finite(lines.matrix(f"W{layer}", fan_out, fan_in), path, f"W{layer}"))
        biases.append(_finite(lines.values(f"b{layer}", fan_out), path, f"b{layer}"))
    lines.end(f"b{len(dims) - 1}")
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
    """Rows as dicts with parsed pred_A/score/locations/iterations; counts in ASCII digits."""
    rows = _read_table(path, ["row_id", "pred_A", "score", "locations", "iterations"], "report")
    return [{
        "row_id": _parse_count(row[0], path, "row_id"),
        "pred_A": _parse_count(row[1], path, "pred_A"),
        "score": _parse_float(row[2], path, "score"),
        "locations": [_parse_count(v, path, "location") for v in row[3].split(";")]
                     if row[3] else [],
        "iterations": _parse_count(row[4], path, "iterations"),
    } for row in rows]


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
