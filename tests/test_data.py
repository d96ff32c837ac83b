import ast
import csv
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ilrgp.data import (
    ConfigError,
    Dataset,
    NormStats,
    SplitSpec,
    _check_output_dir,
    _check_output_file,
    apply_normalizer,
    circle_centers,
    default_circle_mix_sd,
    fit_normalizer,
    gen_circle_mixture,
    gen_overlap_toy,
    load_table,
    read_json,
    save_table,
    split,
    split_indices,
    write_text,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "ilrgp"


class TestGenerators:
    def test_balanced_counts_with_remainder(self):
        ds = gen_circle_mixture(3, 10, 0.1, seed=0)
        counts = np.bincount(ds.labels, minlength=4)[1:]
        assert list(counts) == [4, 3, 3]

    def test_two_class_centers(self):
        ds = gen_circle_mixture(2, 100, 1e-9, seed=1)
        centers = {tuple(np.round(c).astype(int)) for c in circle_centers(2)}
        assert centers == {(1, 0), (-1, 0)}

    def test_zero_spread_sits_on_centers(self):
        ds = gen_circle_mixture(4, 40, 0.0, seed=2)
        C = circle_centers(4)
        for k in range(1, 5):
            pts = ds.X[ds.labels == k]
            assert np.abs(pts - C[k - 1]).max() <= 1e-12

    def test_seed_determinism(self):
        a = gen_circle_mixture(5, 50, 0.3, seed=7)
        b = gen_circle_mixture(5, 50, 0.3, seed=7)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = gen_circle_mixture(5, 50, 0.3, seed=8)
        assert not np.array_equal(a.X, c.X)

    def test_class_means_near_centers(self):
        K, n, sd = 4, 2000, 0.2
        ds = gen_circle_mixture(K, n, sd, seed=3)
        C = circle_centers(K)
        tol = 3 * sd / math.sqrt(n / K)
        for k in range(1, K + 1):
            mean = ds.X[ds.labels == k].mean(axis=0)
            assert np.linalg.norm(mean - C[k - 1]) <= 2 * tol

    def test_overlap_toy_separated_at_low_s(self):
        ds = gen_overlap_toy(0.1, 300, seed=4)
        C = circle_centers(3)
        d2 = ((ds.X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        err = np.mean(d2.argmin(axis=1) + 1 != ds.labels)
        assert err <= 0.01

    def test_overlap_toy_bayes_error_at_high_s(self):
        # numeric integration of 1 - E[max_k posterior] over a grid
        s = 0.7
        C = circle_centers(3)
        grid = np.linspace(-1 - 4 * s, 1 + 4 * s, 161)
        xx, yy = np.meshgrid(grid, grid)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        dens = np.stack([
            np.exp(-((pts - c) ** 2).sum(axis=1) / (2 * s * s)) / (2 * math.pi * s * s)
            for c in C
        ])
        cell = (grid[1] - grid[0]) ** 2
        mix = dens.mean(axis=0)
        bayes_correct = (dens.max(axis=0) / 3).sum() * cell
        bayes_error = 1.0 - bayes_correct
        assert 0.05 <= bayes_error <= 0.45

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            gen_circle_mixture(1, 10, 0.1, 0)
        with pytest.raises(ValueError):
            gen_circle_mixture(3, 2, 0.1, 0)
        with pytest.raises(ValueError):
            gen_overlap_toy(0.0, 10, 0)

    def test_default_mix_sd_is_half_chord(self):
        K = 8
        C = circle_centers(K)
        chord = np.linalg.norm(C[0] - C[1])
        assert default_circle_mix_sd(K) == pytest.approx(chord / 2, abs=1e-12)


class TestNormalization:
    def test_zscore_train_statistics(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.random((50, 3)) * 4 - 1, rng.integers(1, 3, 50), 2)
        normed = apply_normalizer(ds, fit_normalizer(ds.X, "zscore"))
        assert np.abs(normed.X.mean(axis=0)).max() <= 1e-9
        assert np.abs(normed.X.std(axis=0) - 1).max() <= 1e-9

    def test_zscore_constant_feature(self):
        X = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        stats = fit_normalizer(X, "zscore")
        out = stats.apply(X)
        assert np.abs(out[:, 0]).max() == 0.0

    def test_zscore_idempotent(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.random((40, 2)), rng.integers(1, 3, 40), 2)
        once = apply_normalizer(ds, fit_normalizer(ds.X, "zscore"))
        twice = apply_normalizer(once, fit_normalizer(once.X, "zscore"))
        assert np.abs(twice.X - once.X).max() <= 1e-9

    def test_minmax_range(self):
        rng = np.random.default_rng(2)
        X = rng.random((30, 2)) * 7 - 3
        stats = fit_normalizer(X, "minmax11")
        out = stats.apply(X)
        assert out.min(axis=0) == pytest.approx([-1, -1], abs=1e-12)
        assert out.max(axis=0) == pytest.approx([1, 1], abs=1e-12)

    def test_minmax_constant_feature_maps_to_minus_one(self):
        X = np.column_stack([np.full(5, 2.0), np.arange(5.0)])
        out = fit_normalizer(X, "minmax11").apply(X)
        assert np.all(out[:, 0] == -1.0)

    def test_train_stats_applied_to_other_split(self):
        rng = np.random.default_rng(3)
        train = Dataset(rng.random((20, 2)), rng.integers(1, 3, 20), 2)
        test = Dataset(rng.random((10, 2)) + 5, rng.integers(1, 3, 10), 2)
        stats = fit_normalizer(train.X, "zscore")
        out = apply_normalizer(test, stats)
        expected = (test.X - train.X.mean(axis=0)) / train.X.std(axis=0)
        np.testing.assert_allclose(out.X, expected, atol=1e-12)

    def test_stats_round_trip(self):
        stats = NormStats("zscore", np.array([1.0, 2.0]), np.array([0.5, 2.0]))
        rebuilt = NormStats.from_dict(stats.to_dict())
        assert rebuilt.mode == stats.mode
        np.testing.assert_array_equal(rebuilt.center, stats.center)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            fit_normalizer(np.zeros((3, 1)), "standard")


class TestSplits:
    def test_fraction_sizes(self):
        spec = SplitSpec(0.72, 0.08, 0.2, seed=0)
        assert spec.sizes(1000) == (720, 80, 200)

    def test_partition(self):
        spec = SplitSpec(0.6, 0.2, 0.2, seed=5)
        tr, va, te = split_indices(100, spec)
        merged = np.concatenate([tr, va, te])
        assert len(merged) == 100
        assert len(np.unique(merged)) == 100

    def test_count_mode(self):
        spec = SplitSpec(70, 10, 20, seed=1)
        tr, va, te = split_indices(100, spec)
        assert (len(tr), len(va), len(te)) == (70, 10, 20)
        with pytest.raises(ValueError):
            SplitSpec(70, 10, 10, seed=1).sizes(100)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.2, 0.2, seed=0).sizes(100)

    def test_determinism_and_seed_dependence(self):
        spec = SplitSpec(0.5, 0.25, 0.25, seed=9)
        a = split_indices(40, spec)
        b = split_indices(40, spec)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        c = split_indices(40, SplitSpec(0.5, 0.25, 0.25, seed=10))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_split_datasets(self):
        ds = gen_circle_mixture(3, 60, 0.2, seed=0)
        tr, va, te = split(ds, SplitSpec(0.5, 0.25, 0.25, seed=2))
        assert tr.n + va.n + te.n == 60
        assert tr.num_classes == 3


class TestLoadTable:
    def test_round_trip(self, tmp_path):
        ds = gen_circle_mixture(3, 30, 0.5, seed=0)
        path = tmp_path / "data.csv"
        save_table(ds, path)
        loaded = load_table(path, "label")
        np.testing.assert_allclose(loaded.X, ds.X, atol=0)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.num_classes == 3

    @settings(max_examples=200, deadline=None)
    @given(
        ds=st.tuples(st.integers(1, 20), st.integers(1, 5), st.integers(2, 4)).flatmap(
            lambda s: st.builds(
                Dataset,
                arrays(np.float64, (s[0], s[1]), elements=st.one_of(
                    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308,
                                     1.7976931348623157e308, -1.7976931348623157e308]),
                    st.floats(allow_nan=False, allow_infinity=False),
                )),
                arrays(np.int64, s[0], elements=st.integers(1, s[2])),
                st.just(s[2]),
            )
        ),
        label_column=st.sampled_from(["label", "class, name", 'a "quoted", name']),
    )
    def test_save_matches_csv_writer_and_round_trips(self, ds, label_column):
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow([f"x{j + 1}" for j in range(ds.X.shape[1])] + [label_column])
        for row, label in zip(ds.X, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            save_table(ds, path, label_column)
            assert path.read_bytes() == ref.getvalue().encode("utf-8")
            loaded = load_table(path, label_column)
        assert loaded.X.tobytes() == ds.X.tobytes()
        np.testing.assert_array_equal(loaded.labels, np.unique(ds.labels, return_inverse=True)[1] + 1)

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,label\n1.0,2.0,1\n1.5,oops,2\n")
        with pytest.raises(ValueError, match=r"row 3.*column 'x2'"):
            load_table(path, "label")

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbfx1,label\n0.5,1\n0.25,2\n")
        ds = load_table(path, "label")
        np.testing.assert_array_equal(ds.X, [[0.5], [0.25]])
        np.testing.assert_array_equal(ds.labels, [1, 2])

    @pytest.mark.parametrize("text", ["x1,label\n0.5,1\n0.25,2\n\n", "x1,label\n0.5,1\n\n0.25,2\r\n\r\n"],
                             ids=["trailing", "inner-and-crlf"])
    def test_blank_lines_are_skipped(self, tmp_path, text):
        path = tmp_path / "blank-lines.csv"
        path.write_bytes(text.encode())
        ds = load_table(path, "label")
        np.testing.assert_array_equal(ds.X, [[0.5], [0.25]])
        np.testing.assert_array_equal(ds.labels, [1, 2])

    @pytest.mark.parametrize("line, message", [(",", "non-numeric value '' at row 4"),
                                               ("  ", "row 4 has 1 cells, expected 2")])
    def test_line_of_commas_or_spaces_is_not_blank(self, tmp_path, line, message):
        path = tmp_path / "not-blank.csv"
        path.write_text(f"x1,label\n0.5,1\n\n{line}\n")
        with pytest.raises(ConfigError, match=message):
            load_table(path, "label")

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("x1,x2,y\n1.0,2.0,1\n")
        with pytest.raises(ValueError, match="label"):
            load_table(path, "label")

    def test_string_labels_mapped_sorted(self, tmp_path):
        path = tmp_path / "str.csv"
        path.write_text("x1,label\n0.5,dog\n0.25,ant\n0.75,cat\n0.1,ant\n")
        ds = load_table(path, "label")
        assert ds.num_classes == 3
        np.testing.assert_array_equal(ds.labels, [3, 1, 2, 1])

    def test_numeric_labels_keep_numeric_order(self, tmp_path):
        path = tmp_path / "num.csv"
        path.write_text("x1,label\n0.5,10\n0.25,2\n0.75,10\n")
        ds = load_table(path, "label")
        np.testing.assert_array_equal(ds.labels, [2, 1, 2])

    @pytest.mark.parametrize("labels, expected", [
        (["1.0", "2", "1", "01"], [3, 4, 2, 1]),  # numeric order, ties on the text
        (["10", "2", "nan"], [1, 2, 3]),  # a non-finite label: code-point order
        (["10", "2", "-inf"], [2, 3, 1]),
    ], ids=["numeric-ties", "nan", "infinity"])
    def test_label_order_rule(self, tmp_path, labels, expected):
        path = tmp_path / "labels.csv"
        path.write_text("x1,label\n" + "".join(f"{i},{v}\n" for i, v in enumerate(labels)))
        np.testing.assert_array_equal(load_table(path, "label").labels, expected)

    @pytest.mark.parametrize("cell", ["", "  ", "\t"])
    def test_empty_label_reports_location(self, tmp_path, cell):
        path = tmp_path / "blank.csv"
        path.write_text(f"x1,label\n0.5,1\n0.25,{cell}\n")
        with pytest.raises(ConfigError, match=r"empty label at row 3, column 'label'"):
            load_table(path, "label")

    def test_label_mapping_ignores_the_hash_seed(self, tmp_path):
        path = tmp_path / "mixed.csv"
        labels = ["1", "1.0", "2", "nan", "3"]
        path.write_text("x1,label\n" + "".join(f"{i},{v}\n" for i, v in enumerate(labels)))
        script = f"from ilrgp.data import load_table; print(load_table({str(path)!r}, 'label').labels.tolist())"
        outputs = set()
        for seed in ("0", "1"):
            proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONHASHSEED": seed},
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert outputs == {"[1, 2, 3, 5, 4]\n"}

    @settings(max_examples=150, deadline=None)
    @given(
        labels=st.lists(
            st.one_of(
                st.sampled_from(["", " ", "\t", "\u3000", " a ", "1", "1.0", "01", "-0", "0", "1e3", "nan",
                                 "inf", "-inf", "2", "été", "日本", "ß", "1_0"]),
                st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=4),
                st.integers(-5, 5).map(str),
            ),
            min_size=1, max_size=12,
        ),
        data=st.data(),
    )
    def test_odd_labels_map_independent_of_row_order(self, labels, data):
        order = data.draw(st.permutations(range(len(labels))))
        mappings = []
        with tempfile.TemporaryDirectory() as tmp:
            for i, rows in enumerate([range(len(labels)), order]):
                path = Path(tmp) / f"{i}.csv"
                with open(path, "w", newline="", encoding="utf-8") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["x1", "label"])
                    writer.writerows([r, labels[r]] for r in rows)
                if any(not label.strip() for label in labels):
                    with pytest.raises(ConfigError, match="empty label"):
                        load_table(path, "label")
                    return
                ds = load_table(path, "label")
                mappings.append({labels[r].strip(): int(k) for r, k in zip(rows, ds.labels)})
        assert mappings[0] == mappings[1]
        assert sorted(mappings[0].values()) == list(range(1, len(mappings[0]) + 1))

    @pytest.mark.parametrize("text, message", [
        # A second label column would be read as a feature and leak the label.
        ("x1,label,label\n1.0,1,1\n2.0,2,2\n", "column 'label' occurs 2 times in header"),
        ("label\n1\n2\n", "no feature column besides 'label'"),
        ("label\n", "no feature column besides 'label'"),
    ], ids=["label-column-twice", "no-feature-column", "no-feature-column-no-rows"])
    def test_bad_header_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "header.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: {message}"):
            load_table(path, "label")

    @pytest.mark.parametrize("names", [("1", "2", "3"), ("setosa", "versicolor", "virginica")],
                             ids=["digits", "words"])
    def test_memory_per_row_is_the_features(self, tmp_path, names):
        # 100k rows of 2 features are 1.6 MB as float64. A list of per-row
        # lists of floats, or one label string per row, costs several times
        # that; the words case checks that equal labels share one string.
        n = 100_000
        rng = np.random.default_rng(7)
        X = rng.standard_normal((n, 2))
        picks = rng.integers(len(names), size=n)
        path = tmp_path / "big.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["x1", "x2", "label"]] + [
                [repr(a), repr(b), names[k]] for (a, b), k in zip(X.tolist(), picks.tolist())])
        tracemalloc.start()
        try:
            ds = load_table(path, "label")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6
        with open(path, newline="", encoding="utf-8") as fh:
            reference = [[float(cell) for cell in row[:2]] for row in list(csv.reader(fh))[1:]]
        assert ds.X.tobytes() == np.array(reference).tobytes()
        np.testing.assert_array_equal(ds.labels, picks + 1)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_table(path, "label")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x1,x2,label\n1.0,2.0,1\n1.0,2\n")
        with pytest.raises(ValueError, match="row 3"):
            load_table(path, "label")


class TestWriteText:
    def test_shorter_rewrite_leaves_only_new_bytes(self, tmp_path):
        path = tmp_path / "f.txt"
        write_text(path, "a much longer first version\n" * 50)
        write_text(path, "short\n")
        assert path.read_bytes() == b"short\n"
        write_text(path, "")
        assert path.read_bytes() == b""

    def test_utf8_bytes(self, tmp_path):
        path = tmp_path / "f.txt"
        write_text(path, "σ_f² — ℓ\r\n")
        assert path.read_bytes() == "σ_f² — ℓ\r\n".encode("utf-8")

    def test_new_file_mode_follows_umask(self, tmp_path):
        old = os.umask(0o002)
        try:
            write_text(tmp_path / "f.txt", "x")
        finally:
            os.umask(old)
        assert (tmp_path / "f.txt").stat().st_mode & 0o777 == 0o666 & ~0o002

    def test_creates_missing_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "f.txt"
        write_text(path, "x\n")
        assert path.read_bytes() == b"x\n"

    def test_output_directory_check_creates_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for directory in ("", ".", "a/b/", "a/b", str(tmp_path / "c" / "d")):
            _check_output_dir(directory)
        assert list(tmp_path.iterdir()) == []
        (tmp_path / "file").write_text("x")
        for directory in ("file", "file/sub/", str(tmp_path / "file" / "a" / "b")):
            with pytest.raises(NotADirectoryError, match="file: not a directory"):
                _check_output_dir(directory)

    def test_output_file_check_rejects_a_directory_and_creates_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for path in ("out.json", "a/b/out.json", str(tmp_path / "c" / "out.json")):
            _check_output_file(path)
        assert list(tmp_path.iterdir()) == []
        (tmp_path / "dir").mkdir()
        for path in ("dir", "dir/", str(tmp_path / "dir")):
            with pytest.raises(IsADirectoryError, match="Is a directory"):
                _check_output_file(path)
        (tmp_path / "file").write_text("x")
        with pytest.raises(NotADirectoryError, match="file: not a directory"):
            _check_output_file("file/out.json")

    def test_failed_write_leaves_empty_file(self, tmp_path, failing_writes):
        path = tmp_path / "f.txt"
        path.write_text("old content that must not survive\n")
        with pytest.raises(OSError):
            write_text(path, "new content\n" * 100)
        assert failing_writes.writes == 2
        assert path.read_bytes() == b""

    def test_save_table_bytes_match_text_mode_writer(self, tmp_path):
        ds = gen_circle_mixture(3, 200, 0.5, seed=4)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "x2", "label"])
            writer.writerows(row + [label] for row, label in zip(ds.X.tolist(), ds.labels.tolist()))
        path = tmp_path / "data.csv"
        path.write_text("x" * 100_000)  # a longer file to overwrite
        save_table(ds, path)
        assert path.read_bytes() == ref.read_bytes()


class TestCodec:
    @pytest.mark.parametrize("raw", [b'{"a": "\xff"}', b'{"a": 1'], ids=["not-utf8", "truncated"])
    def test_read_json_names_the_file(self, raw, tmp_path):
        path = tmp_path / "f.json"
        path.write_bytes(raw)
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: not a JSON thing file"):
            read_json(path, "thing file")

    def test_only_data_encodes_and_places_files(self):
        # The file codec lives in ilrgp.data; json.loads for --set values is not file I/O.
        banned = {("json", "dump"), ("json", "dumps"), ("json", "load"), ("csv", "writer"), ("os", "open")}
        found = sorted(
            f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
            for path in SRC.glob("*.py") if path.name != "data.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) in banned
        )
        assert (SRC / "data.py").exists() and not found, found
