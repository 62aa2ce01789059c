import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shumfit import (
    Coefficients,
    MarkerDataset,
    anchored_to_full,
    extract_theta,
    load_csv,
    project_scores,
)
from shumfit.errors import (
    DimensionMismatch,
    EmptyCategory,
    FewerThanTwoCategories,
    IndexOutOfRange,
    MissingColumn,
    ShumFitError,
    UnparseableNumeric,
)

from oracles import dot_scores


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_csv_groups_and_rank_maps_labels(tmp_path):
    path = write_csv(tmp_path / "t.csv", (
        "id,grade,a,b\n"
        "1,3,0.5,1.0\n"
        "2,1,0.1,0.2\n"
        "3,7,0.9,1.1\n"
        "4,1,0.3,0.4\n"
    ))
    data = load_csv(path, "grade", ["a", "b"])
    assert data.category_labels == (1.0, 3.0, 7.0)
    assert data.sizes == (2, 1, 1)
    assert data.marker_names == ("a", "b")
    np.testing.assert_allclose(data.categories[0], [[0.1, 0.2], [0.3, 0.4]])


def test_load_csv_complete_case_drops(tmp_path):
    path = write_csv(tmp_path / "t.csv", (
        "y,a,b\n"
        "0,1.0,2.0\n"
        "0,NA,2.0\n"
        "1,1.5,\n"
        "1,2.0,3.0\n"
        "1,oops,3.0\n"
    ))
    data = load_csv(path, "y", ["a", "b"])
    assert data.n_dropped == 3
    assert data.sizes == (1, 1)
    assert sum(data.sizes) == 5 - data.n_dropped


def test_load_csv_missing_column(tmp_path):
    path = write_csv(tmp_path / "t.csv", "y,a\n0,1\n1,2\n")
    with pytest.raises(MissingColumn, match="b"):
        load_csv(path, "y", ["a", "b"])
    with pytest.raises(MissingColumn):
        load_csv(path, "grade", ["a"])


def test_load_csv_single_level(tmp_path):
    path = write_csv(tmp_path / "t.csv", "y,a\n1,1\n1,2\n")
    with pytest.raises(FewerThanTwoCategories):
        load_csv(path, "y", ["a"])


def test_load_csv_bad_outcome(tmp_path):
    path = write_csv(tmp_path / "t.csv", "y,a\n0,1\nmild,2\n")
    with pytest.raises(UnparseableNumeric) as err:
        load_csv(path, "y", ["a"])
    assert err.value.row_index == 2


def test_load_csv_category_emptied_by_drops(tmp_path):
    path = write_csv(tmp_path / "t.csv", "y,a\n0,1\n1,NA\n1,\n")
    with pytest.raises(EmptyCategory):
        load_csv(path, "y", ["a"])


@pytest.mark.parametrize("label", ["nan", "inf", "-inf", "1e400"])
def test_load_csv_rejects_non_finite_labels(tmp_path, label):
    path = write_csv(tmp_path / "t.csv", f"y,a\n0,1\n1,2\n{label},3\n")
    with pytest.raises(UnparseableNumeric, match="is not a finite number") as err:
        load_csv(path, "y", ["a"])
    assert (err.value.row_index, err.value.value) == (3, label)


def test_load_csv_short_row_missing_a_marker_is_dropped(tmp_path):
    path = write_csv(tmp_path / "t.csv", "y,a,b\n0,1,2\n0,3\n1,4,5\n1\n")
    data = load_csv(path, "y", ["a", "b"])
    assert data.n_dropped == 2
    assert data.sizes == (1, 1)


def test_load_csv_short_row_missing_its_outcome_raises(tmp_path):
    path = write_csv(tmp_path / "t.csv", "a,b,y\n1,2,0\n3,4\n5,6,1\n")
    with pytest.raises(UnparseableNumeric) as err:
        load_csv(path, "y", ["a", "b"])
    assert (err.value.row_index, err.value.value) == (2, "")


def test_load_csv_drops_non_finite_marker_cells(tmp_path):
    path = write_csv(tmp_path / "t.csv", "y,a\n0,1\n0,NaN\n1,2\n1,1e400\n1,-inf\n")
    data = load_csv(path, "y", ["a"])
    assert data.n_dropped == 3
    assert data.sizes == (1, 1)


@pytest.mark.parametrize("markers", [["a", "a"], ["y", "a"], ["a", "y"]])
def test_load_csv_rejects_repeated_or_outcome_markers(tmp_path, markers):
    path = write_csv(tmp_path / "t.csv", "y,a,b\n0,1,2\n1,3,4\n")
    with pytest.raises(ShumFitError, match="distinct"):
        load_csv(path, "y", markers)


@pytest.mark.parametrize("header", ["y,a,b,a", "y,a,y,b"])
def test_load_csv_rejects_a_requested_column_named_twice(tmp_path, header):
    path = write_csv(tmp_path / "t.csv", header + "\n0,1,2,3\n1,3,4,0\n")
    with pytest.raises(ShumFitError, match="2 times"):
        load_csv(path, "y", ["a", "b"])


def test_load_csv_ignores_a_repeated_column_it_does_not_read(tmp_path):
    path = write_csv(tmp_path / "t.csv", "y,a,note,note\n0,1,x,x\n1,3,x,x\n")
    assert load_csv(path, "y", ["a"]).sizes == (1, 1)


def test_load_csv_non_utf8_file_raises_package_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("y,a,note\n0,1,café\n1,2,x\n".encode("latin-1"))
    with pytest.raises(ShumFitError, match="UTF-8"):
        load_csv(str(path), "y", ["a"])


def test_load_csv_malformed_csv_raises_package_error(tmp_path):
    path = write_csv(tmp_path / "t.csv", "y,a\n0,1\n1," + "9" * 200_000 + "\n")
    with pytest.raises(ShumFitError, match="UTF-8 CSV"):
        load_csv(path, "y", ["a"])


CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["", " ", "NA", "nan", "NaN", "inf", "-inf", "1e400", "x", " 2.5 "]),
)


@given(st.lists(st.tuples(st.sampled_from([0, 1]), st.lists(CELLS, min_size=2, max_size=2)),
                max_size=30))
@settings(max_examples=60, deadline=None)
def test_load_csv_keeps_exactly_the_rows_with_finite_markers(tmp_path_factory, rows):
    rows = [(0, ["0.5", "1"]), (1, ["2", "-3"])] + rows
    path = tmp_path_factory.mktemp("prop") / "t.csv"
    path.write_text("y,a,b\n" + "".join(f"{y},{a},{b}\n" for y, (a, b) in rows),
                    encoding="utf-8")
    kept = {0: [], 1: []}
    for y, cells in rows:
        try:
            values = [float(c) for c in cells]
        except ValueError:
            continue
        if np.isfinite(values).all():
            kept[y].append(values)
    data = load_csv(str(path), "y", ["a", "b"])
    assert data.category_labels == (0.0, 1.0)
    assert data.n_dropped == len(rows) - len(kept[0]) - len(kept[1])
    for x, expected in zip(data.categories, (kept[0], kept[1])):
        np.testing.assert_array_equal(x, np.asarray(expected, dtype=float))


def test_round_trip_simulated_dataset(tmp_path):
    from shumfit import ScenarioConfig, generate_scenario

    data = generate_scenario(ScenarioConfig(2, (5, 4, 6), master_seed=9), 3)
    path = tmp_path / "sim.csv"
    with open(path, "w") as fh:
        fh.write("y," + ",".join(data.marker_names) + "\n")
        for label, x in zip(data.category_labels, data.categories):
            for row in x:
                fh.write(f"{label}," + ",".join(repr(float(v)) for v in row) + "\n")
    back = load_csv(str(path), "y", list(data.marker_names))
    assert back.sizes == data.sizes
    for a, b in zip(back.categories, data.categories):
        np.testing.assert_array_equal(a, b)


def test_dataset_validation():
    ok = np.zeros((2, 2))
    with pytest.raises(FewerThanTwoCategories):
        MarkerDataset((ok,), ("a", "b"), (0,))
    with pytest.raises(DimensionMismatch):
        MarkerDataset((ok, np.zeros((2, 3))), ("a", "b"), (0, 1))
    with pytest.raises(EmptyCategory):
        MarkerDataset((ok, np.zeros((0, 2))), ("a", "b"), (0, 1))
    bad = np.array([[0.0, np.nan], [1.0, 2.0]])
    with pytest.raises(ShumFitError,
                       match="a marker value in category 0 is non-finite"):
        MarkerDataset((bad, ok), ("a", "b"), (0, 1))


def test_project_scores_matches_dot_oracle():
    rng = np.random.default_rng(5)
    x0, x1 = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
    data = MarkerDataset((x0, x1), ("a", "b"), (0, 1))
    beta = rng.normal(size=2)
    scores = project_scores(data, beta)
    np.testing.assert_allclose(scores[0], dot_scores(x0, beta))
    np.testing.assert_allclose(scores[1], dot_scores(x1, beta))
    with pytest.raises(DimensionMismatch):
        project_scores(data, [1.0, 2.0, 3.0])


@given(st.integers(1, 6), st.data())
def test_project_scores_is_linear(d, data_st):
    rng = np.random.default_rng(data_st.draw(st.integers(0, 10**6)))
    data = MarkerDataset(
        (rng.normal(size=(3, d)), rng.normal(size=(2, d))),
        tuple(f"m{i}" for i in range(d)), (0, 1),
    )
    b1, b2 = rng.normal(size=d), rng.normal(size=d)
    a, b = 2.5, -1.25
    mixed = project_scores(data, a * b1 + b * b2)
    s1 = project_scores(data, b1)
    s2 = project_scores(data, b2)
    for m, u, v in zip(mixed, s1, s2):
        np.testing.assert_allclose(m, a * u + b * v, atol=1e-10)


def test_anchored_to_full_examples():
    np.testing.assert_array_equal(anchored_to_full([2.0, 3.0], 2), [2.0, 3.0, 1.0])
    np.testing.assert_array_equal(anchored_to_full([], 0), [1.0])
    np.testing.assert_array_equal(anchored_to_full([5.0], 0), [1.0, 5.0])
    with pytest.raises(IndexOutOfRange):
        anchored_to_full([1.0], 2)


@given(st.integers(1, 7), st.integers(0, 6), st.integers(0, 10**6))
@settings(max_examples=40)
def test_anchored_round_trip(d, anchor, seed):
    anchor = anchor % d
    rng = np.random.default_rng(seed)
    beta = rng.normal(size=d)
    beta[anchor] = 1.0
    theta = extract_theta(beta, anchor)
    np.testing.assert_array_equal(anchored_to_full(theta, anchor), beta)


def test_coefficients_invariants():
    c = Coefficients(np.array([2.0, 1.0, 3.0]), 1)
    np.testing.assert_array_equal(c.free, [2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        Coefficients(np.array([2.0, 2.0]), 1)
    with pytest.raises(IndexOutOfRange):
        Coefficients(np.array([1.0]), 4)
    unanchored = Coefficients(np.array([0.5, 0.5]))
    np.testing.assert_array_equal(unanchored.free, [0.5, 0.5])
