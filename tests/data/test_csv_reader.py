"""``iter_csv_batches`` against the ``csv``-module reference reader.

The block parser must give the reference reader's batches exactly:
the same boundaries, the same values bit for bit, the same dtypes, and
every column a C-contiguous array of its own.  Malformed rows raise a
``ValueError`` that names their file line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.data import TrajectoryDataset, iter_csv_batches
from repro.data import dataset as dataset_module
from repro.model.batch import NO_LAST_TIME
from tests.data.reference_csv import batch_from_csv_rows, reference_csv_batches

COLUMNS = ("oids", "xs", "ys", "times", "last_times")
HEADER = "oid,x,y,time,last_time"

INT64 = st.integers(-(2**63), 2**63 - 1)
IDS = st.one_of(
    st.integers(0, 10_000),
    st.integers(2**62 - 1_000, 2**62 + 1_000),
    INT64,
)
#: Shortest round-trip, save_csv's fixed six decimals, exponents in both
#: cases, 17 significant digits and a long mantissa.
FLOAT_FORMATS = [
    repr,
    "{:.6f}".format,
    "{:e}".format,
    "{:E}".format,
    "{:.17g}".format,
    "{:.25f}".format,
]
FLOAT_TEXT = st.tuples(
    st.floats(allow_nan=False), st.sampled_from(FLOAT_FORMATS)
).map(lambda pair: pair[1](pair[0]))
ROW = st.tuples(
    IDS.map(str),
    FLOAT_TEXT,
    FLOAT_TEXT,
    INT64.map(str),
    st.one_of(st.just(""), INT64.map(str), st.integers(-50, -1).map(str)),
)


def assert_same_batches(path, batch_size):
    new = list(iter_csv_batches(path, batch_size))
    reference = list(reference_csv_batches(path, batch_size))
    assert [len(batch) for batch in new] == [len(batch) for batch in reference]
    for got, want in zip(new, reference):
        for name in COLUMNS:
            column, expected = getattr(got, name), getattr(want, name)
            assert column.dtype == expected.dtype
            assert column.flags.c_contiguous and column.flags.owndata
            assert column.tobytes() == expected.tobytes(), name
    return new


def write_csv(path, rows, newline="\n", final_newline=True, header=HEADER):
    lines = [header] + [",".join(row) for row in rows]
    text = newline.join(lines) + (newline if final_newline else "")
    path.write_bytes(text.encode())
    return path


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(ROW, max_size=24),
        newline=st.sampled_from(["\n", "\r\n"]),
        final_newline=st.booleans(),
    )
    def test_generated_files(self, csv_dir, rows, newline, final_newline):
        path = write_csv(csv_dir / "gen.csv", rows, newline, final_newline)
        for batch_size in range(1, len(rows) + 2):
            assert_same_batches(path, batch_size)

    def test_empty_last_time_only_is_missing(self, tmp_path):
        rows = [
            ("1", "0.5", "1.5", "3", ""),
            ("2", "0.5", "1.5", "3", "-1"),
            ("3", "0.5", "1.5", "3", str(NO_LAST_TIME)),
            ("4", "0", "0", "-7", "-8"),
        ]
        (batch,) = assert_same_batches(write_csv(tmp_path / "t.csv", rows), 8)
        assert batch.last_times.tolist() == [NO_LAST_TIME, -1, NO_LAST_TIME, -8]

    def test_ids_near_two_to_the_62(self, tmp_path):
        big = 2**62 + 12_345
        rows = [(str(big), "1", "2", str(big + 1), str(big - 1))]
        (batch,) = assert_same_batches(write_csv(tmp_path / "t.csv", rows), 1)
        assert batch.oids.tolist() == [big]
        assert batch.times.tolist() == [big + 1]
        assert batch.last_times.tolist() == [big - 1]

    def test_header_only_yields_nothing(self, tmp_path):
        for text in (HEADER, HEADER + "\n", HEADER + "\r\n", ""):
            path = tmp_path / "h.csv"
            path.write_text(text)
            assert list(iter_csv_batches(path, 3)) == []

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_batches_span_blocks(self, tmp_path, monkeypatch, newline):
        # Blocks of 64 bytes hold a few rows each, so batches of 1, 7 and
        # 50 rows start and end inside blocks, at their edges and across
        # several of them.
        monkeypatch.setattr(dataset_module, "_BLOCK_BYTES", 64)
        rows = [
            (str(i), f"{i * 0.1:.6f}", f"{-i * 1.5:.6f}", str(i // 3),
             "" if i % 4 == 0 else str(i // 3 - 1))
            for i in range(97)
        ]
        path = write_csv(tmp_path / "t.csv", rows, newline, final_newline=False)
        for batch_size in (1, 7, 50, 97, 200):
            assert_same_batches(path, batch_size)


class TestMalformedRows:
    GOOD = "1,0.5,0.5,1,"

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize(
        "bad",
        [
            "2,0.5,0.5",  # short row
            "2,0.5,0.5,2",  # four fields
            "2,0.5,0.5,2,1,9",  # six fields
            "2,,0.5,2,1",  # empty coordinate
            ",0.5,0.5,2,1",  # empty id
            "2,0.5,0.5,2.0,1",  # time written as a float
            "2,abc,0.5,2,1",  # not a number
            "9223372036854775808,0.5,0.5,2,1",  # beyond int64
            '"2",0.5,0.5,2,1',  # quoted field
            "",  # blank line
        ],
    )
    def test_names_the_line(self, tmp_path, newline, bad):
        lines = [HEADER, self.GOOD, self.GOOD, bad, self.GOOD]
        path = tmp_path / "bad.csv"
        path.write_bytes(newline.join(lines).encode() + newline.encode())
        expected = r"bad\.csv: line 4: malformed row"
        with pytest.raises(ValueError, match=expected):
            list(iter_csv_batches(path, 2))

    def test_names_the_line_in_a_later_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset_module, "_BLOCK_BYTES", 40)
        lines = [HEADER] + [self.GOOD] * 30 + ["2,0.5,x,2,1"] + [self.GOOD] * 5
        path = tmp_path / "bad.csv"
        path.write_text("\r\n".join(lines))
        expected = r"line 32: malformed row '2,0\.5,x,2,1'"
        with pytest.raises(ValueError, match=expected):
            list(iter_csv_batches(path, 4))

    def test_last_line_without_newline(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([HEADER, self.GOOD, "3,1,1"]))
        with pytest.raises(ValueError, match="line 3"):
            list(iter_csv_batches(path, 5))


class TestLoadCsv:
    def test_load_csv_boxes_and_sorts(self, tmp_path):
        rows = [
            ("5", "1.25", "2.5", "3", "2"),
            ("2", "0.5", "1.5", "1", ""),
            ("5", "1.0", "2.0", "2", ""),
            ("1", "3.0", "4.0", "3", "1"),
            ("2", "0.75", "1.75", "3", "1"),
        ]
        path = write_csv(tmp_path / "shuffled.csv", rows, "\r\n")
        loaded = TrajectoryDataset.load_csv(path)
        boxed = batch_from_csv_rows(rows).to_records()
        assert loaded.records == sorted(boxed, key=lambda r: (r.time, r.oid))
        assert loaded.name == "shuffled"

    def test_load_csv_raises_the_readers_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"{HEADER}\n1,2,3,4,\n1,2,3\n")
        with pytest.raises(ValueError, match="line 3"):
            TrajectoryDataset.load_csv(path)


def test_import_repro_does_not_load_networkx():
    code = (
        "import sys; import repro; from repro import open_session; "
        "from repro.data import iter_csv_batches; "
        "print('networkx' in sys.modules)"
    )
    src = Path(repro.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "False"
