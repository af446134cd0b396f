"""CSV and model-file round trips: 17-digit floats must come back bit-exact."""

import csv
import gc
import json
import re
import warnings
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelscan import cli, detector, io, pcafeat, scorer, simgen, workflows

# awkward float64 values: shortest repr needs the full 17 significant digits,
# subnormals, and the extremes of the exponent range
HARD_FLOATS = np.array([
    0.1,
    1.0 / 3.0,
    np.pi,
    -2.2250738585072014e-308,
    5e-324,
    1.7976931348623157e308,
    -1.2345678901234567e-5,
    0.0,
])


def _rng_matrix(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


# -- panels --------------------------------------------------------------


def test_panel_round_trip_bit_exact(tmp_path):
    path = tmp_path / "panel.csv"
    prices = np.vstack([HARD_FLOATS, _rng_matrix(HARD_FLOATS.size, 7)])
    io.write_panel(path, prices)
    ids, back = io.read_panel(path)
    assert ids == ["0", "1"]
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, prices)


def test_panel_uses_lf_line_endings(tmp_path):
    path = tmp_path / "panel.csv"
    io.write_panel(path, np.ones((2, 3)))
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").splitlines()[0] == "series_id,t_1,t_2,t_3"


def test_panel_custom_series_ids(tmp_path):
    # the writers number series 0..n-1; a user's file may name them
    path = tmp_path / "panel.csv"
    path.write_text("series_id,t_1,t_2\nAAA,1,1\nBBB,1,1\n")
    ids, prices = io.read_panel(path)
    assert ids == ["AAA", "BBB"]
    np.testing.assert_array_equal(prices, np.ones((2, 2)))


def test_read_panel_rejects_bad_header(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("stock,t_1\n0,1.0\n")
    with pytest.raises(ValueError):
        io.read_panel(path)
    for header in ("series_id,t_1,t_3", "series_id,t_1,t_2 ", "series_id"):
        path.write_text(f"{header}\n0,1.0,2.0\n")
        with pytest.raises(ValueError):
            io.read_panel(path)


def test_read_panel_rejects_ragged_and_empty(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("series_id,t_1,t_2\n0,1.0\n")
    with pytest.raises(ValueError):
        io.read_panel(path)
    path.write_text("series_id,t_1,t_2\n")
    with pytest.raises(ValueError):
        io.read_panel(path)
    path.write_text("")
    with pytest.raises(ValueError):
        io.read_panel(path)


def test_read_panel_rejects_malformed_float(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("series_id,t_1,t_2\n0,1.0,oops\n")
    with pytest.raises(ValueError, match="malformed price"):
        io.read_panel(path)


def test_read_panel_streams_a_long_file_and_names_a_late_bad_row(tmp_path):
    path = tmp_path / "panel.csv"
    io.write_panel(path, _rng_matrix((6000, 4), 5))
    lines = path.read_text().splitlines(keepends=True)
    good = "".join(lines)
    damaged = {"ragged": (r"row \['4999'\] has 3 values, expected 4", "4999,1,2,3\n"),
               "quoted": ("unterminated quoted series id", '"4999,1,2,3,4\n'),
               "price": ("malformed price: .* at row 4999", "4999,1,2,x,4\n")}
    for pattern, row in damaged.values():
        path.write_text("".join(lines[:5000] + [row] + lines[5001:]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=pattern):
                io.read_panel(path)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    path.write_text(good)
    ids, prices = io.read_panel(path)
    assert len(ids) == 6000 and ids[4999] == "4999" and prices.shape == (6000, 4)


def test_read_panel_holds_one_line_besides_the_array(tmp_path, traced_peak):
    # seed-0 windows_train.csv: 12 030 rows of 206 values, 45 MB of text
    windows = workflows.build_datasets(workflows.PipelineConfig(seed=0)).train.windows
    path = tmp_path / "windows_train.csv"
    io.write_panel(path, windows)
    (_, back), peak = traced_peak(lambda: io.read_panel(path))
    assert back.tobytes() == windows.tobytes()
    assert peak <= 1.5 * back.nbytes


def test_read_panel_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        io.read_panel(tmp_path / "nope.csv")


def test_write_panel_golden_bytes(tmp_path):
    # bytes written by the csv.writer/format(v, ".17g") writer the row format replaced
    values = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1, 1.0 / 3.0, 100.0]
    path = tmp_path / "panel.csv"
    io.write_panel(path, [values, [-v for v in reversed(values)]])
    rows = (b"-0,4.9406564584124654e-324,2.2250738585072014e-308,1e+308,"
            b"0.10000000000000001,0.33333333333333331,100\n",
            b"-100,-0.33333333333333331,-0.10000000000000001,-1e+308,"
            b"-2.2250738585072014e-308,-4.9406564584124654e-324,0\n")
    header = b"series_id,t_1,t_2,t_3,t_4,t_5,t_6,t_7\n"
    assert path.read_bytes() == header + b"0," + rows[0] + b"1," + rows[1]
    ids, back = io.read_panel(path)
    assert ids == ["0", "1"]
    assert back.tobytes() == np.array([values, [-v for v in reversed(values)]]).tobytes()
    # csv.writer's bytes for the ids AAA and B,"x": the reader unquotes the second
    path.write_bytes(header + b"AAA," + rows[0] + b'"B,""x""",' + rows[1])
    ids, quoted = io.read_panel(path)
    assert ids == ["AAA", 'B,"x"']
    assert quoted.tobytes() == back.tobytes()
    io.write_value_labels(path, [[0, 1, 0], [1, 0, 1]])
    assert path.read_bytes() == b"series_id,t_1,t_2,t_3\n0,0,1,0\n1,1,0,1\n"
    io.write_panel(path, [[1.5, -0.0], [2.0, 1e-300], [0.25, 3.0]])
    assert path.read_bytes() == b"series_id,t_1,t_2\n0,1.5,-0\n1,2,1e-300\n2,0.25,3\n"


# float64 bit patterns the writer must keep apart although some compare equal
# (signed zeros) or never compare equal (NaNs with distinct payloads)
_SPECIAL_BITS = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                          1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0]
                         ).view(np.uint64).tolist() + [
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF4000000BEEF00]
_BLOCK_EDGE_ROWS = st.sampled_from([io._PANEL_BLOCK_ROWS - 1, io._PANEL_BLOCK_ROWS,
                                    io._PANEL_BLOCK_ROWS + 1, 1, 3])


def _reference_panel_bytes(values, spec):
    # the per-value writer: csv.writer rows of format(v, spec) cells, ids 0..n-1
    buffer = StringIO()
    out = csv.writer(buffer, lineterminator="\n")
    out.writerow(["series_id"] + [f"t_{j}" for j in range(1, values.shape[1] + 1)])
    out.writerows([sid] + [format(v, spec) for v in row]
                  for sid, row in enumerate(values.tolist()))
    return buffer.getvalue().encode("utf-8")


@st.composite
def _pooled_panels(draw, values, dtype):
    """A block-edge row count of cells drawn from a small pool."""
    pool = np.array(draw(st.lists(values, min_size=1, max_size=8)), dtype=dtype)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(_BLOCK_EDGE_ROWS), draw(st.integers(1, 5)))
    return pool[rng.integers(0, pool.size, shape)]


@settings(max_examples=100, deadline=None)
@given(drawn=_pooled_panels(st.sampled_from(_SPECIAL_BITS) | st.integers(0, 2**64 - 1),
                            np.uint64))
def test_write_panel_matches_the_per_value_writer_on_repeated_floats(tmp_path_factory, drawn):
    prices = drawn.view(np.float64)
    path = tmp_path_factory.mktemp("pooled") / "panel.csv"
    io.write_panel(path, prices)
    assert path.read_bytes() == _reference_panel_bytes(prices, ".17g")


@settings(max_examples=50, deadline=None)
@given(drawn=_pooled_panels(st.sampled_from([0, 1]) | st.integers(-2**63, 2**63 - 1),
                            np.int64))
def test_write_panel_matches_the_per_value_writer_on_int_labels(tmp_path_factory, drawn):
    path = tmp_path_factory.mktemp("pooled") / "labels.csv"
    io.write_value_labels(path, drawn)
    assert path.read_bytes() == _reference_panel_bytes(drawn, "d")


def test_sliding_windows_round_trip_bit_exact(tmp_path):
    # overlapping windows repeat their neighbours' values across block edges
    prices = _rng_matrix((3, 300), 11)
    prices[1, 40:43] = [-0.0, 0.0, 5e-324]
    windows, _, _ = simgen.slide(prices, np.zeros(prices.shape, dtype=int), 20)
    path = tmp_path / "windows.csv"
    io.write_panel(path, windows)
    assert path.read_bytes() == _reference_panel_bytes(windows, ".17g")
    ids, back = io.read_panel(path)
    assert ids == [str(i) for i in range(len(windows))]
    assert back.tobytes() == windows.tobytes()


def test_write_panel_refuses_a_panel_without_columns(tmp_path):
    path = tmp_path / "panel.csv"
    with pytest.raises(ValueError, match="at least one column"):
        io.write_panel(path, np.ones((2, 0)))


def test_value_labels_round_trip(tmp_path):
    path = tmp_path / "labels.csv"
    labels = np.array([[0, 1, 0], [1, 0, 0]])
    io.write_value_labels(path, labels)
    _, back = io.read_value_labels(path)
    assert back.dtype == np.int64
    np.testing.assert_array_equal(back, labels)


def test_read_value_labels_rejects_fractions(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("series_id,t_1\n0,0.5\n")
    with pytest.raises(ValueError, match="must be 0 or 1"):
        io.read_value_labels(path)
    for cell in ("2", "-1"):
        path.write_text(f"series_id,t_1,t_2\n0,0,{cell}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: value labels must be 0 or 1")):
            io.read_value_labels(path)


# -- panel reader against the csv.reader loop it replaced --------------------


def _reference_read_panel(path):
    """The csv.reader/float read_panel that the loadtxt kernel replaced."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0][:1] != ["series_id"]:
        raise ValueError("no series_id header")
    T = len(rows[0]) - 1
    if rows[0][1:] != [f"t_{j}" for j in range(1, T + 1)]:
        raise ValueError("header columns")
    series_ids, prices = [], []
    for row in rows[1:]:
        if len(row) != T + 1:
            raise ValueError("row length")
        series_ids.append(row[0])
        prices.append([float(v) for v in row[1:]])
    if not prices:
        raise ValueError("no series")
    prices = np.asarray(prices, dtype=float)
    if not np.all(np.isfinite(prices)):
        raise ValueError("non-finite")
    return series_ids, prices


_FINITE_CELLS = st.floats(allow_nan=False, allow_infinity=False).map(
    lambda v: format(v, ".17g")) | st.sampled_from(["0", "-0.0", "1e-400", "5e-324", "+7", ".5"])
_AWKWARD_CELLS = st.sampled_from([
    "nan", "inf", "-inf", "Infinity", "1e400", "1_000", " 2.5", "3.5 ", " ", "", '"4.5"',
    '"1,5"', "x", "0x10", "1e", "\u00a01", "\u0661", "1\x002", "\x0c1", "2\x85", "3\u2028",
    "1\udcc3"])  # lone surrogates become stray non-UTF-8 bytes in the file
_WELL_FORMED_IDS = st.sampled_from(["0", "AAA", "", " 7", "#1", "\u00e9", '"a,b"', '"q""x"',
                                    '""'])
_AWKWARD_IDS = st.sampled_from(['"open', 'a"b', '"x"y', '"x"12', '"a"",b', "\udcff", "A\udc80"])
_HEADERS = st.sampled_from(["missing", "renamed", "gap", "padded", "quoted", "bom", "stray"])


def _header(kind, T):
    columns = [f"t_{j}" for j in range(1, T + 1)]
    return {"ok": ["series_id"] + columns, "missing": [], "renamed": ["stock"] + columns,
            "gap": ["series_id"] + columns[:-1] + [f"t_{T + 1}"],
            "padded": ["series_id"] + columns[:-1] + [columns[-1] + " "],
            "quoted": ['"series_id"'] + columns,
            "bom": ["\ufeffseries_id"] + columns,
            "stray": ["series_id\udcff"] + columns}[kind]


@st.composite
def _panel_files(draw, awkward=True):
    """Small panel CSVs as bytes; with `awkward`, each file has at most one kind of damage."""
    damage = draw(st.sampled_from(["none", "header", "width", "cell", "id", "blank"])
                  if awkward else st.just("none"))
    T = draw(st.integers(1, 4))
    rows = [[draw(_WELL_FORMED_IDS)] + [draw(_FINITE_CELLS) for _ in range(T)]
            for _ in range(draw(st.integers(0 if awkward else 1, 4)))]
    if rows:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if damage == "width" and draw(st.booleans()):
            row.append(draw(_FINITE_CELLS))
        elif damage == "width":
            row.pop()
        elif damage == "cell":
            row[draw(st.integers(1, T))] = draw(_AWKWARD_CELLS)
        elif damage == "id":
            row[0] = draw(_AWKWARD_IDS)
    lines = [",".join(_header(draw(_HEADERS) if damage == "header" else "ok", T))]
    lines += [",".join(row) for row in rows]
    if damage == "blank":
        lines.insert(draw(st.integers(1, len(lines))), "")
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines) + (ending if draw(st.booleans()) else "")
    return text.encode("utf-8", "surrogateescape")


@pytest.mark.parametrize("row, ids", [
    ('"a,b",1,2', ["a,b"]),
    ('"say ""hi""",1,2', ['say "hi"']),
    ('"",1,2', [""]),
    ('a"b,1,2', ['a"b']),
    ('"x"12,2', None),  # csv reads id x12 and one value
    ('"open,1,2', None),
    ('"a"",b,1,2', None),
])
def test_read_panel_quoted_ids(tmp_path, row, ids):
    path = tmp_path / "panel.csv"
    path.write_text(f"series_id,t_1,t_2\n{row}\n")
    if ids is None:
        with pytest.raises(ValueError):
            io.read_panel(path)
    else:
        assert io.read_panel(path)[0] == ids == _reference_read_panel(path)[0]


def _read_or_refuse(path):
    try:
        return io.read_panel(path)
    except ValueError:
        return None


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A 5-column model, clean panel, labels and params; fuzzed panels have 1-4 columns."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(3)
    io.write_pca_model(root / "pca.txt", pcafeat.fit_pca(rng.normal(size=(20, 5)), k=2))
    io.write_network(root / "net.txt", scorer.ScoringNetwork(
        weights=[rng.normal(size=(3, 5)), rng.normal(size=(1, 3))],
        biases=[np.zeros(3), np.zeros(1)], cutoff=0.0, temperature=0.2))
    io.write_panel(root / "clean.csv", 100.0 + rng.random((2, 5)))
    io.write_value_labels(root / "value_labels.csv", np.zeros((2, 5)))
    (root / "params.csv").write_text("series_id,s0,mu,sigma\n0,100,0.1,0.2\n1,100,0.1,0.2\n")
    return root


@settings(max_examples=200, deadline=None)
@given(raw=_panel_files())
def test_read_panel_returns_what_the_csv_reader_did_or_refuses(fuzz_dir, raw):
    path = fuzz_dir / "panel.csv"
    path.write_bytes(raw)
    got = _read_or_refuse(path)
    if got is not None:
        ids, prices = got
        want_ids, want = _reference_read_panel(path)
        assert ids == want_ids
        assert prices.dtype == np.float64 and prices.tobytes() == want.tobytes()


@settings(max_examples=50, deadline=None)
@given(raw=_panel_files(awkward=False))
def test_read_panel_reads_every_well_formed_file(fuzz_dir, raw):
    path = fuzz_dir / "panel.csv"
    path.write_bytes(raw)
    ids, prices = io.read_panel(path)
    want_ids, want = _reference_read_panel(path)
    assert ids == want_ids and prices.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(raw=_panel_files())
def test_cli_exits_2_3_or_4_on_fuzzed_panels(fuzz_dir, raw):
    path = fuzz_dir / "panel.csv"
    path.write_bytes(raw)
    expected = {2} if _read_or_refuse(path) is None else {3, 4}
    model = ["--pca", fuzz_dir / "pca.txt", "--net", fuzz_dir / "net.txt"]
    out = ["--out-dir", fuzz_dir, "--quiet"]
    commands = (["detect", *out, "--windows", path, *model],
                ["var", *out, "--clean", fuzz_dir / "clean.csv", "--panel", path,
                 "--value-labels", fuzz_dir / "value_labels.csv",
                 "--params", fuzz_dir / "params.csv", *model])
    for argv in commands:
        assert cli.main([str(a) for a in argv]) in expected


# -- generating parameters and weights -------------------------------------


def test_params_round_trip_bit_exact(tmp_path):
    panel = simgen.simulate_gbm(simgen.DiffusionConfig(n_stocks=4, n_steps=12, seed=3))
    path = tmp_path / "params.csv"
    io.write_params(path, panel)
    s0, mu, sigma = io.read_params(path)
    np.testing.assert_array_equal(s0, panel.s0)
    np.testing.assert_array_equal(mu, panel.mu)
    np.testing.assert_array_equal(sigma, panel.sigma)


def test_read_params_validation(tmp_path):
    path = tmp_path / "params.csv"
    path.write_text("series_id,s0,mu,sigma\n0,1_00,0.1,0.0_5\n")  # float() reads 100 and 0.05
    with pytest.raises(ValueError, match="malformed s0 '1_00'"):
        io.read_params(path)
    path.write_text("series_id,s0,mu,sigma\n")
    with pytest.raises(ValueError, match="no series"):
        io.read_params(path)
    for row, message in (("0,0,0.1,0.2", "s0 must be positive"),
                         ("0,-97.5,0.1,0.2", "s0 must be positive"),
                         ("0,100,0.1,-0.2", "sigma must not be negative")):
        path.write_text(f"series_id,s0,mu,sigma\n1,100,0.1,0.2\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            io.read_params(path)
    path.write_text("series_id,s0,mu,sigma\n0,100,-0.1,0\n")
    s0, mu, sigma = io.read_params(path)
    assert (s0[0], mu[0], sigma[0]) == (100.0, -0.1, 0.0)


def test_weights_round_trip_bit_exact(tmp_path):
    path = tmp_path / "weights.csv"
    weights = _rng_matrix(5, 11)
    io.write_rows(path, ["series_id", "weight"], zip(range(weights.size), weights))
    ids, back = io.read_weights(path)
    assert ids == ["0", "1", "2", "3", "4"]
    np.testing.assert_array_equal(back, weights)


def test_read_weights_validation(tmp_path):
    path = tmp_path / "weights.csv"
    path.write_text("series_id,weight\n")
    with pytest.raises(ValueError, match="no rows"):
        io.read_weights(path)
    path.write_text("series_id,weight\n0,much\n")
    with pytest.raises(ValueError, match="malformed weight"):
        io.read_weights(path)


# reader, header and two rows of each table CSV
_TABLES = {
    "params": (io.read_params, "series_id,s0,mu,sigma", ["0,100,0.1,0.2", "1,97.5,-0.1,0"]),
    "weights": (io.read_weights, "series_id,weight", ["0,0.5", "1,0.25"]),
    "labels": (io.read_labels, "row_id,A,L", ["0,1,3", "1,0,"]),
    "report": (io.read_detect_report, "row_id,pred_A,score,locations,iterations",
               ["0,1,0.5,3;7,2", "1,0,-0.25,,0"]),
}


@pytest.mark.parametrize("name", list(_TABLES))
def test_table_readers_share_the_header_field_count_and_blank_row_rules(tmp_path, name):
    reader, header, rows = _TABLES[name]
    path = tmp_path / f"{name}.csv"

    def read(*lines):
        path.write_text("".join(line + "\n" for line in lines))
        return reader(path)

    np.testing.assert_equal(read(header, "", rows[0], "", rows[1], ""), read(header, *rows))
    with pytest.raises(ValueError, match=re.escape(f"{path}: expected header {header}")):
        read(header.rsplit(",", 1)[0], *rows)
    width = header.count(",") + 1
    for row, got in ((rows[0].rsplit(",", 1)[0], width - 1), (rows[0] + ",1", width + 1)):
        with pytest.raises(ValueError, match=re.escape(f"row {row.split(',')!r} needs "
                                                       f"{width} fields, got {got}")):
            read(header, row, rows[1])


@pytest.mark.parametrize("token, value", [
    ("1_0", None), ("\u0663", None), (" 1.5", 1.5), ("\u00a01.5", 1.5), ("+1", 1.0),
    (".5", 0.5), ("inf", np.inf), ("nan", np.nan),
])
def test_parse_float_reads_a_cell_as_np_loadtxt_does(token, value):
    # value None: refused; float() itself reads 1_0 as 10 and the Arabic-Indic digit as 3
    def loadtxt():
        return np.loadtxt([token], delimiter=",", dtype=float, comments=None, ndmin=1)[0]

    for read in (loadtxt, lambda: io._parse_float(token, "f.csv", "cell")):
        if value is None:
            with pytest.raises(ValueError):
                read()
        else:
            np.testing.assert_array_equal(read(), value)


NON_FINITE = ("nan", "inf", "-inf", "1e400")


@pytest.mark.parametrize("token", NON_FINITE)
def test_csv_readers_reject_non_finite_values(tmp_path, token):
    path = tmp_path / "file.csv"
    path.write_text(f"series_id,t_1,t_2\n0,1.0,2.0\n1,{token},2.0\n")
    with pytest.raises(ValueError, match="non-finite price"):
        io.read_panel(path)
    path.write_text(f"series_id,s0,mu,sigma\n0,1.0,0.1,{token}\n")
    with pytest.raises(ValueError, match="non-finite sigma"):
        io.read_params(path)
    path.write_text(f"series_id,weight\n0,0.5\n1,{token}\n")
    with pytest.raises(ValueError, match="non-finite weight"):
        io.read_weights(path)


def test_csv_readers_refuse_a_field_past_the_csv_size_limit(tmp_path):
    path = tmp_path / "file.csv"
    huge = "1" * 200_000
    for reader, text in ((io.read_labels, f"row_id,A,L\n0,1,{huge}\n"),
                         (io.read_params, f"series_id,s0,mu,sigma\n0,1,0.1,{huge}\n"),
                         (io.read_weights, f"series_id,weight\n0,{huge}\n"),
                         (io.read_detect_report,
                          f"row_id,pred_A,score,locations,iterations\n0,1,0.5,{huge},1\n")):
        path.write_text(text)
        with pytest.raises(ValueError, match="field larger than field limit"):
            reader(path)


# -- window labels ---------------------------------------------------------


def test_labels_round_trip(tmp_path):
    path = tmp_path / "rows.csv"
    A = np.array([1, 0, 1, 0])
    L = np.array([7, 0, 206, 0])
    io.write_labels(path, A, L)
    A_back, L_back = io.read_labels(path)
    np.testing.assert_array_equal(A_back, A)
    np.testing.assert_array_equal(L_back, L)


def test_labels_clean_rows_have_empty_location_cell(tmp_path):
    path = tmp_path / "rows.csv"
    io.write_labels(path, [1, 0], [3, 5])
    lines = path.read_text().splitlines()
    assert lines == ["row_id,A,L", "0,1,3", "1,0,"]


def test_write_labels_length_mismatch():
    with pytest.raises(ValueError):
        io.write_labels("unused.csv", [1, 0], [1])


def test_read_labels_validation(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("row_id,A,L\n0,2,1\n")
    with pytest.raises(ValueError, match="0 or 1"):
        io.read_labels(path)
    path.write_text("row_id,A,L\n0,1,\n")
    with pytest.raises(ValueError, match="1-based"):
        io.read_labels(path)
    path.write_text("row_id,A,L\n0,one,2\n")
    with pytest.raises(ValueError, match="malformed label"):
        io.read_labels(path)
    path.write_text("row_id,A,L\n0,1,3\n1,0,2\n")  # write_labels leaves a clean row's L empty
    with pytest.raises(ValueError, match="clean row 1 has a location '2'"):
        io.read_labels(path)


@pytest.mark.parametrize("row, what", [
    ("0,1,1_0", "L '1_0'"),
    ("0,+1,3", "A '+1'"),
    ("0,1, 3", "L ' 3'"),
    ("0,0,-1", "L '-1'"),
    ("0,1,\u0663", "L '\u0663'"),
])
def test_read_labels_takes_counts_only_as_ascii_digits(tmp_path, row, what):
    # int() accepts each of these: 1_0 as 10, +1 as 1, ' 3' and the Arabic-Indic digit as 3
    path = tmp_path / "rows.csv"
    path.write_text(f"row_id,A,L\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"malformed label {what}")):
        io.read_labels(path)


def test_read_labels_requires_row_ids_in_order(tmp_path):
    path = tmp_path / "rows.csv"
    io.write_labels(path, [0, 1, 0, 1], [0, 3, 0, 5])
    lines = path.read_text().splitlines()
    for bad in ("0x2", "3", "02", " 2", ""):
        damaged = list(lines)
        damaged[3] = bad + damaged[3][1:]
        path.write_text("\n".join(damaged) + "\n")
        with pytest.raises(ValueError, match=f"row_id {bad!r} where 2 belongs"):
            io.read_labels(path)
    path.write_text("\n".join(lines[:2] + lines[3:]) + "\n")  # a dropped row
    with pytest.raises(ValueError, match="row_id '2' where 1 belongs"):
        io.read_labels(path)


# -- model files -------------------------------------------------------------


def _fitted_pca():
    X = _rng_matrix((30, 6), 21)
    return pcafeat.fit_pca(X, k=3)


def test_pca_model_round_trip_bit_exact(tmp_path):
    model = _fitted_pca()
    path = tmp_path / "pca.txt"
    io.write_pca_model(path, model)
    back = io.read_pca_model(path)
    assert back.k == model.k
    np.testing.assert_array_equal(back.mean, model.mean)
    np.testing.assert_array_equal(back.eigenvalues, model.eigenvalues)
    np.testing.assert_array_equal(back.omega, model.omega)


def test_read_pca_model_rejects_wrong_tag(tmp_path):
    path = tmp_path / "pca.txt"
    path.write_text("panelscan-pca v2\nk 1\n")
    with pytest.raises(ValueError, match="not a"):
        io.read_pca_model(path)


def test_read_pca_model_rejects_truncation(tmp_path):
    model = _fitted_pca()
    path = tmp_path / "pca.txt"
    io.write_pca_model(path, model)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        io.read_pca_model(path)


def test_read_pca_model_rejects_bad_omega_width(tmp_path):
    model = _fitted_pca()
    path = tmp_path / "pca.txt"
    io.write_pca_model(path, model)
    lines = path.read_text().splitlines()
    lines[-1] = " ".join(lines[-1].split()[:-1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="omega row"):
        io.read_pca_model(path)


@pytest.mark.parametrize("extra", ["duplicate", "garbage", "blank"])
def test_read_pca_model_refuses_lines_after_omega(tmp_path, extra):
    path = tmp_path / "pca.txt"
    io.write_pca_model(path, _fitted_pca())
    lines = path.read_text().splitlines()
    if extra == "duplicate":  # a repeated omega row pushes the last one out
        lines.insert(7, lines[7])
    else:
        lines.append("0.5 0.5" if extra == "garbage" else "")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="unexpected line .* after the 3 omega rows"):
        io.read_pca_model(path)


def _shift_one_omega_value(model):
    model.omega[1, 2] += 0.01


def _ascending_eigenvalues(model):
    model.eigenvalues = model.eigenvalues[::-1].copy()


def _negative_eigenvalue(model):
    model.eigenvalues[-1] = -model.eigenvalues[-1]


def _k_beyond_p(model):
    model.omega = np.vstack([model.omega, np.zeros((5, 6))])
    model.eigenvalues = np.concatenate([model.eigenvalues, np.zeros(5)])


@pytest.mark.parametrize("damage, message", [
    (_shift_one_omega_value, "omega rows are not orthonormal"),
    (_ascending_eigenvalues, "eigenvalues must be non-increasing"),
    (_negative_eigenvalue, "negative eigenvalue"),
    (_k_beyond_p, "k must lie in 1..6, got 7"),
], ids=["omega-shifted", "eigenvalues-ascending", "eigenvalue-negative", "k-beyond-p"])
def test_read_pca_model_refuses_a_basis_that_is_not_one(tmp_path, damage, message):
    model = pcafeat.fit_pca(_rng_matrix((30, 6), 21), k=2)
    path = tmp_path / "pca.txt"
    io.write_pca_model(path, model)
    assert io.read_pca_model(path).k == 2
    damage(model)
    io.write_pca_model(path, model)
    with pytest.raises(ValueError, match=message):
        io.read_pca_model(path)


@pytest.mark.parametrize("kind, line, text", [
    ("pca", 1, "k 2.0"),
    ("pca", 2, "p 6e0"),
    ("net", 1, "dims 4.0 3.9 1e0"),
], ids=["pca-k", "pca-p", "net-dims"])
def test_model_readers_refuse_a_count_that_is_not_a_whole_number(tmp_path, kind, line, text):
    path = tmp_path / f"{kind}.txt"
    if kind == "pca":
        io.write_pca_model(path, pcafeat.fit_pca(_rng_matrix((30, 6), 21), k=2))
        read = io.read_pca_model
    else:
        io.write_network(path, _toy_network())
        read = io.read_network
    read(path)
    lines = path.read_text().splitlines()
    lines[line] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="expected a whole number"):
        read(path)


def _toy_network():
    rng = np.random.default_rng(33)
    weights = [rng.normal(size=(3, 4)), rng.normal(size=(1, 3))]
    biases = [rng.normal(size=3), rng.normal(size=1)]
    return scorer.ScoringNetwork(weights=weights, biases=biases, cutoff=rng.normal(),
                                 temperature=0.2)


def test_network_round_trip_bit_exact(tmp_path):
    net = _toy_network()
    path = tmp_path / "net.txt"
    io.write_network(path, net)
    back = io.read_network(path)
    assert back.layer_dims == net.layer_dims
    assert back.cutoff == net.cutoff
    assert back.temperature == net.temperature
    for W, W_back in zip(net.weights, back.weights):
        np.testing.assert_array_equal(W_back, W)
    for b, b_back in zip(net.biases, back.biases):
        np.testing.assert_array_equal(b_back, b)


def test_network_round_trip_preserves_forward_pass(tmp_path):
    net = _toy_network()
    path = tmp_path / "net.txt"
    io.write_network(path, net)
    back = io.read_network(path)
    X = _rng_matrix((5, 4), 44)
    np.testing.assert_array_equal(scorer.forward(back, X), scorer.forward(net, X))


def test_read_network_validation(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text("panelscan-net v0\n")
    with pytest.raises(ValueError, match="not a"):
        io.read_network(path)
    path.write_text("panelscan-net v1\ndims 4 3 2\ntau 1\ns 0\n")
    with pytest.raises(ValueError, match="end in 1"):
        io.read_network(path)
    net = _toy_network()
    io.write_network(path, net)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        io.read_network(path)


@pytest.mark.parametrize("extra", ["b2 0.5", "W3", ""])
def test_read_network_refuses_lines_after_the_last_bias(tmp_path, extra):
    path = tmp_path / "net.txt"
    io.write_network(path, _toy_network())
    path.write_text(path.read_text() + extra + "\n")
    with pytest.raises(ValueError, match=f"unexpected line {extra!r} after b2"):
        io.read_network(path)


def test_stored_benchmark_model_files_still_load():
    root = Path(__file__).resolve().parents[1] / "perfbench" / "model"
    pca = io.read_pca_model(root / "pca.txt")
    assert pca.omega.shape == (40, 206)
    assert (root / "pca.txt").read_text().splitlines()[1] == f"k {pca.k}"
    assert io.read_network(root / "net.txt").layer_dims == [206, 64, 32, 1]


@pytest.mark.parametrize("token", NON_FINITE)
def test_model_readers_reject_non_finite_values(tmp_path, token):
    path = tmp_path / "model.txt"
    io.write_network(path, _toy_network())
    lines = path.read_text().splitlines()
    for index, prefix in ((2, "tau "), (3, "s "), (5, ""), (len(lines) - 1, "b2 ")):
        bad = list(lines)
        bad[index] = prefix + " ".join([token] + bad[index][len(prefix):].split()[1:])
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ValueError, match="non-finite"):
            io.read_network(path)
    io.write_pca_model(path, _fitted_pca())
    lines = path.read_text().splitlines()
    lines[-1] = " ".join([token] + lines[-1].split()[1:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="non-finite omega"):
        io.read_pca_model(path)


def test_read_network_rejects_non_positive_tau(tmp_path):
    path = tmp_path / "net.txt"
    for tau in (0.0, -0.2):
        net = _toy_network()
        net.temperature = tau
        io.write_network(path, net)
        with pytest.raises(ValueError, match="tau must be positive"):
            io.read_network(path)


# -- reports -----------------------------------------------------------------


def test_training_log_format(tmp_path):
    history = [scorer.TrainLogRow(0, 1.5, 0.5, 0.25, 0.75, -0.125),
               scorer.TrainLogRow(1, 1.0 / 3.0, 0.1, 0.2, 0.3, 0.4)]
    path = tmp_path / "log.csv"
    io.write_training_log(path, history)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,loss,bce,auc_u,auc_c,s"
    assert len(lines) == 3
    fields = lines[2].split(",")
    assert int(fields[0]) == 1
    assert float(fields[1]) == 1.0 / 3.0


def test_detect_report_round_trip(tmp_path):
    reports = [
        detector.DetectionReport(pred_label=1, score=0.875,
                                 locations=[3, 41], imputed_series=np.zeros(4)),
        detector.DetectionReport(pred_label=0, score=-1.0 / 7.0,
                                 locations=[], imputed_series=np.zeros(4)),
    ]
    path = tmp_path / "detect.csv"
    io.write_detect_report(path, reports)
    parsed = io.read_detect_report(path)
    assert parsed[0] == {"row_id": 0, "pred_A": 1, "score": 0.875,
                         "locations": [3, 41], "iterations": 2}
    assert parsed[1]["score"] == -1.0 / 7.0
    assert parsed[1]["locations"] == []


def test_read_detect_report_validation(tmp_path):
    # int() and float() accept each bad cell: "1_0; 3" reads as locations [10, 3]
    path = tmp_path / "detect.csv"
    for row, what in (("1_0,1,0.5,3,2", "row_id '1_0'"), ("0,+1,0.5,3,2", "pred_A '+1'"),
                      ("0,1,0_5,3,2", "score '0_5'"), ("0,1,0.5,1_0; 3,2", "location '1_0'"),
                      ("0,1,0.5,3; 3,2", "location ' 3'"), ("0,1,0.5,3,+2", "iterations '+2'")):
        path.write_text(f"row_id,pred_A,score,locations,iterations\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"malformed {what}")):
            io.read_detect_report(path)


def test_write_rows_formats_numbers_only(tmp_path):
    path = tmp_path / "table.csv"
    io.write_rows(path, ["name", "count", "value"],
                  [["a", 3, 0.1], ["b", 0, np.float64(1.0 / 3.0)]])
    lines = path.read_text().splitlines()
    assert lines[0] == "name,count,value"
    assert lines[1].split(",")[:2] == ["a", "3"]
    assert float(lines[2].split(",")[2]) == 1.0 / 3.0


def test_table_writers_golden_bytes(tmp_path):
    # bytes written by the per-file csv.writer loops that write_rows replaced
    panel = simgen.PricePanel(prices=np.ones((3, 2)), s0=np.array([100.0, 1.0 / 3.0, 5e-324]),
                              mu=np.array([-0.0, 0.1, 1e308]),
                              sigma=np.array([0.2, 2.2250738585072014e-308, 0.0]), dt=1.0 / 252.0)
    io.write_params(tmp_path / "params.csv", panel)
    io.write_labels(tmp_path / "labels.csv", np.array([1, 0, 1]), np.array([3, 5, 206]))
    io.write_training_log(tmp_path / "log.csv", [
        scorer.TrainLogRow(0, 1.5, 0.5, 0.25, 0.75, -0.125),
        scorer.TrainLogRow(1, 1.0 / 3.0, 0.1, 5e-324, -0.0, np.float64(-6.6))])
    io.write_detect_report(tmp_path / "detect.csv", [
        detector.DetectionReport(pred_label=1, score=np.float64(0.875), locations=[3, 41],
                                 imputed_series=np.zeros(4)),
        detector.DetectionReport(pred_label=0, score=-1.0 / 7.0, locations=[],
                                 imputed_series=np.zeros(4))])
    expected = {
        "params.csv": b"series_id,s0,mu,sigma\n0,100,-0,0.20000000000000001\n"
                      b"1,0.33333333333333331,0.10000000000000001,2.2250738585072014e-308\n"
                      b"2,4.9406564584124654e-324,1e+308,0\n",
        "labels.csv": b"row_id,A,L\n0,1,3\n1,0,\n2,1,206\n",
        "log.csv": b"iter,loss,bce,auc_u,auc_c,s\n0,1.5,0.5,0.25,0.75,-0.125\n"
                   b"1,0.33333333333333331,0.10000000000000001,4.9406564584124654e-324,-0,"
                   b"-6.5999999999999996\n",
        "detect.csv": b"row_id,pred_A,score,locations,iterations\n0,1,0.875,3;41,2\n"
                      b"1,0,-0.14285714285714285,,0\n",
    }
    for name, content in expected.items():
        assert (tmp_path / name).read_bytes() == content, name


def test_json_round_trip_with_numpy_payload(tmp_path):
    path = tmp_path / "report.json"
    payload = {
        "alpha": np.float64(0.99),
        "counts": np.arange(3),
        "nested": {"flag": np.int64(1), "values": [0.1, 1.0 / 3.0]},
    }
    io.write_json(path, payload)
    back = io.read_json(path)
    assert back["alpha"] == 0.99
    assert back["counts"] == [0, 1, 2]
    assert back["nested"]["flag"] == 1
    assert back["nested"]["values"][1] == 1.0 / 3.0
    assert json.loads(path.read_text()) == back


def test_write_json_uses_as_dict_hook(tmp_path):
    class Wrapped:
        def as_dict(self):
            return {"x": np.float64(2.5)}

    path = tmp_path / "hook.json"
    io.write_json(path, {"inner": Wrapped()})
    assert io.read_json(path) == {"inner": {"x": 2.5}}


def _refuse_constant(name):
    raise ValueError(f"bare {name} in JSON")


def test_write_json_writes_null_for_non_finite_floats(tmp_path):
    path = tmp_path / "report.json"
    payload = {"nan": float("nan"), "inf": np.float64(np.inf), "fine": 0.25,
               "values": np.array([1.0, -np.inf, np.nan]), "nested": [{"x": -np.inf}]}
    io.write_json(path, payload)
    back = json.loads(path.read_text(), parse_constant=_refuse_constant)
    assert back == {"nan": None, "inf": None, "fine": 0.25,
                    "values": [1.0, None, None], "nested": [{"x": None}]}


def test_read_json_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="malformed JSON"):
        io.read_json(path)
