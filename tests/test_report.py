import collections
import json
import os
import sys
import threading

import numpy as np
import pytest

from flagf import report
from flagf.report import atomic_write_text


GOLDEN = """{
  "empty": {
    "dict": {},
    "list": [],
    "tuple": []
  },
  "nested": {
    "list": [
      1,
      [
        2,
        [
          3,
          {}
        ]
      ]
    ],
    "dict": {
      "a": {
        "b": null
      }
    }
  },
  "bool_vs_int": [
    true,
    1,
    false,
    0
  ],
  "tuple": [
    1,
    "two",
    3.0
  ],
  "floats": [
    0.10000000000000001,
    0.33333333333333331,
    1.152921504606847e+18,
    -0.0,
    1.0000000000000001e-05,
    1.0000000000000001e+300,
    4.9406564584124654e-324,
    123456789.0
  ],
  "subclasses": [
    0.33333333333333331,
    {
      "k": 2.0
    }
  ],
  "text": "a \\"quoted\\" \\u00e9\\n"
}
"""


class TestJsonDumps:
    def test_golden_bytes(self):
        # np.float64 and OrderedDict are subclasses of float and dict: they
        # take the reference walk and must give the same bytes.
        doc = {
            "empty": {"dict": {}, "list": [], "tuple": ()},
            "nested": {"list": [1, [2, [3, {}]]], "dict": {"a": {"b": None}}},
            "bool_vs_int": [True, 1, False, 0],
            "tuple": (1, "two", 3.0),
            "floats": [0.1, 1.0 / 3.0, 2.0**60, -0.0, 1e-05, 1e300, 5e-324, 123456789.0],
            "subclasses": [np.float64(1.0) / 3.0, collections.OrderedDict([("k", np.float64(2.0))])],
            "text": 'a "quoted" \u00e9\n',
        }
        assert report.json_dumps(doc) == GOLDEN

    @pytest.mark.parametrize("bad", [{1: 2.0}, {"a": [{(1, 2): 0}]}, collections.OrderedDict([(1, 2)])])
    def test_non_string_key_rejected(self, bad):
        with pytest.raises(TypeError, match="keys must be strings"):
            report.json_dumps(bad)

    @pytest.mark.parametrize("bad", [float("nan"), {"x": [1.0, float("inf")]}, [np.float64("-inf")]])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            report.json_dumps(bad)


class TestRows:
    def test_rows_render_as_the_row_dicts(self):
        # Float and bool columns in nested dicts, keys with braces and a NUL,
        # at three nesting levels.
        s, r, flag = np.array([0.25, 1.0 / 3.0, 2.0**60]), np.array([-0.0, 7.0, 1e-300]), np.array([True, False, True])
        layout = {"s": s, "{key} 100%": {"flag": flag, "r": r}, "nul\0": {"deep": {"s": s, "flag": flag}}}
        rows = [
            {
                "s": float(s[i]),
                "{key} 100%": {"flag": bool(flag[i]), "r": float(r[i])},
                "nul\0": {"deep": {"s": float(s[i]), "flag": bool(flag[i])}},
            }
            for i in range(3)
        ]
        for doc, want in (({"rows": report.Rows(layout)}, {"rows": rows}), (report.Rows(layout), rows)):
            assert report.json_dumps(doc) == report.json_dumps(want)

    @pytest.mark.parametrize(
        "col",
        [[1.0, 2.0], (1.0, 2.0), np.array([1.0, 2.0], dtype=np.float32), np.ones((2, 1)), np.array([1, 2])],
        ids=["list", "tuple", "float32", "2-D", "int64"],
    )
    def test_other_columns_raise_type_error(self, col):
        with pytest.raises(TypeError, match="1-D float64 or bool array"):
            report.json_dumps(report.Rows({"s": np.array([1.0, 2.0]), "x": {"y": col}}))

    def test_no_rows_is_an_empty_list(self):
        empty = report.Rows({"s": np.zeros(0), "r": {"kill": np.zeros(0, dtype=bool)}})
        assert report.json_dumps({"sweep": empty}) == report.json_dumps({"sweep": []})

    def test_non_finite_column_value_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            report.json_dumps(report.Rows({"s": np.array([1.0, np.nan])}))


class TestColumns:
    EDGES = [0.0, -0.0, 1.0, 3.0, 1e16, 1e17, 2.0**60, 0.1, 1.0 / 3.0, 5e-324, 1e-320, 1.7976931348623157e308]

    def test_float_column_is_fmt_float_of_each_cell(self):
        values = self.EDGES + [-x for x in self.EDGES] + [99999999999999984.0, 1e16 + 2.0, 0.5, 1e-5, 123456789.0]
        assert report.fmt_table([np.array(values)]).ravel().tolist() == list(map(report.fmt_float, values))
        assert report.fmt_table([np.zeros(0)]).shape == (0, 1) and report.fmt_table([]).shape == (0, 0)

    def test_float_column_matches_on_random_bit_patterns(self):
        # Any finite double, and whole numbers on both sides of 1e17, where
        # "%.17g" turns to exponent form; next to each, its neighbour above.
        rng = np.random.default_rng(7)
        values = rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        wholes = np.round(rng.uniform(-1.0, 1.0, 4000) * 10.0 ** rng.integers(0, 20, 4000))
        cols = [values[:4000], wholes, np.nextafter(wholes, np.inf), np.arange(-2000.0, 2000.0) / 4]
        assert report.fmt_table(cols).T.tolist() == [list(map(report.fmt_float, col.tolist())) for col in cols]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_raises_as_fmt_float(self, bad):
        with pytest.raises(ValueError) as want:
            report.fmt_float(bad)
        with pytest.raises(ValueError) as got:
            report.fmt_table([np.array([True, False, True]), np.array([1.0, 2.0, 3.0]), np.array([1.0, bad, -bad])])
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("dtype", [np.float64, bool])
    def test_array_columns_write_the_bytes_of_their_row_dicts(self, dtype):
        # A column is formatted as one batch; each row must read as json_dumps
        # writes the elements of its tolist(), empty columns too.
        values = self.EDGES + [-x for x in self.EDGES] + [2.0, -7.0, 0.5]
        for col in (np.array(values, dtype=dtype), np.zeros(0, dtype=dtype)):
            layout = {"x": col, "y": {"same": col[::-1]}}
            rows = [{"x": x, "y": {"same": y}} for x, y in zip(col.tolist(), col[::-1].tolist())]
            assert report.json_dumps(report.Rows(layout)) == report.json_dumps(rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_cell_raises(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            report.json_dumps(report.Rows({"x": np.array([1.0, bad])}))

    def test_repeated_values_write_the_bytes_of_their_row_dicts(self):
        # Cells repeat within and across the float columns; each distinct bit
        # pattern is formatted once, so 0.0 and -0.0 in one column must keep
        # their own texts, as must whole numbers on both sides of 1e17 and
        # subnormals.
        values = np.array([0.0, -0.0, 1e17, 1e16, -1e17, 2.0**60, 5e-324, -5e-324, 1e-310, 0.1, 3.0, -0.0])
        rng = np.random.default_rng(11)
        a, b, c = (rng.choice(values, 40) for _ in range(3))
        b[:2], c[:2] = [0.0, -0.0], [-0.0, 0.0]
        flag = a > 0
        layout = {"a": a, "r": {"b": b, "flag": flag, "c": c}, "again": a}
        rows = [{"a": x, "r": {"b": y, "flag": f, "c": z}, "again": x}
                for x, y, f, z in zip(a.tolist(), b.tolist(), flag.tolist(), c.tolist())]
        assert report.json_dumps(report.Rows(layout)) == report.json_dumps(rows)

    def test_bool_column(self):
        flags = np.array([True, False, True])
        assert report.fmt_table([flags]).ravel().tolist() == ["true", "false", "true"]
        starred = report.fmt_table([flags, np.ones(3)], bools=("", "*"))
        assert starred.tolist() == [["*", "1.0"], ["", "1.0"], ["*", "1.0"]]

    def test_strings_are_quoted_as_json_dumps_quotes_them(self):
        texts = ["", "plain", 'a "quoted" \\ \u00e9\n\t\0', "\u2028\U0001f600", "\ud800 lone", "{key} 100%"]
        assert report.json_dumps(texts) == json.dumps(texts, indent=2) + "\n"
        assert report.json_dumps({t: t for t in texts}) == json.dumps({t: t for t in texts}, indent=2) + "\n"

    def test_fill_repeats_the_template(self):
        assert report.fill(["(", "=", ";"], "|", np.array([["a", "1"], ["b", "2"]], dtype=object)) == "(a=1;|(b=2;"
        assert report.fill(["x"], ",", np.empty((0, 0), dtype=object)) == ""

    def test_columns_of_unequal_length_are_refused(self):
        # a short column would otherwise shift or drop cells without a word
        rows = report.Rows({"a": np.array([1.0, 2.0, 3.0]), "b": np.array([True, False])})
        with pytest.raises(ValueError, match=r"columns differ in length: \[3, 2\]"):
            report.json_dumps(rows)
        with pytest.raises(ValueError, match=r"columns differ in length: \[1, 2\]"):
            report.fmt_table([np.ones(1), np.ones(2)])


class TestAtomicWrite:
    def test_concurrent_writers_on_one_path(self, tmp_path):
        path = tmp_path / "out.json"
        texts = [f"writer {w}\n" * (200 + w) for w in range(6)]
        errors = []
        start = threading.Barrier(len(texts))

        def write(text):
            try:
                start.wait()
                for _ in range(25):
                    atomic_write_text(path, text)
            except Exception as exc:  # collected, asserted below
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(t,)) for t in texts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert path.read_text(encoding="utf-8") in texts
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_failed_replace_leaves_target_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        atomic_write_text(path, "old\n")

        def failing_replace(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(report.os, "replace", failing_replace)
        with pytest.raises(OSError, match="simulated"):
            atomic_write_text(path, "new\n")
        assert path.read_text(encoding="utf-8") == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(path, "\ud800")  # a lone surrogate cannot be encoded
        assert list(tmp_path.iterdir()) == []

    def test_file_mode_follows_umask(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "x\n")
        plain = tmp_path / "plain.json"
        plain.write_text("x\n", encoding="utf-8")
        assert os.stat(path).st_mode == os.stat(plain).st_mode
