import io
import xml.dom.minidom

import numpy as np
import pytest

import phondist as pd
from phondist.errors import InputError, UnknownSegmentError
from phondist.matrix import DistanceMatrix, PcaResult, export_matrix_tsv, export_pca_svg, export_pca_tsv

from oracles import jacobi_eigh

# (grapheme pair, value) spot checks from the bundled reference table.
FIXTURE_SPOT_CHECKS = [
    ("a", "i", 0.29),
    ("k", "p", 0.11),
    ("i", "j", 0.01),
    ("u", "w", 0.01),
    ("s", "m", 0.99),
    ("m", "n", 0.12),
    ("s", "n", 0.99),
    ("a", "s", 0.89),
]


def random_distance_matrix(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.05, 0.95, size=(n, n))
    values = np.tril(values, k=-1)
    values = values + values.T
    return DistanceMatrix([f"g{i}" for i in range(n)], values)


class TestDistanceMatrixInvariants:
    def test_rejects_asymmetry(self):
        values = np.array([[0.0, 0.2], [0.3, 0.0]])
        with pytest.raises(InputError, match="symmetric"):
            DistanceMatrix(["a", "b"], values)

    def test_rejects_nonzero_diagonal(self):
        values = np.array([[0.1, 0.2], [0.2, 0.0]])
        with pytest.raises(InputError, match="diagonal"):
            DistanceMatrix(["a", "b"], values)

    def test_rejects_out_of_range(self):
        values = np.array([[0.0, 1.2], [1.2, 0.0]])
        with pytest.raises(InputError, match=r"\[0, 1\]"):
            DistanceMatrix(["a", "b"], values)

    def test_rejects_non_finite(self):
        values = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(InputError, match="finite"):
            DistanceMatrix(["a", "b"], values)

    def test_rejects_a_shape_that_does_not_match_the_segments(self):
        with pytest.raises(InputError, match=r"matrix shape \(3, 3\) does not match 2 segments"):
            DistanceMatrix(["a", "b"], np.zeros((3, 3)))

    def test_rejects_duplicate_graphemes(self):
        values = np.zeros((2, 2))
        with pytest.raises(InputError, match="duplicate"):
            DistanceMatrix(["a", "a"], values)

    def test_rejects_empty_grapheme(self):
        values = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(InputError, match="empty segment name"):
            DistanceMatrix(["", "a"], values)

    @pytest.mark.parametrize("grapheme", ["\x01", "a\nb", "\x1b[31m", "\ud800", "\ufffe"],
                             ids=["control", "line-break", "escape", "surrogate", "noncharacter"])
    def test_rejects_unprintable_grapheme(self, grapheme):
        values = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(InputError, match="in matrix header is not printable") as info:
            DistanceMatrix(["a", grapheme], values)
        assert str(info.value).isprintable()


class TestBuildMatrix:
    def test_dimensions_without_and_with_null(self, demo_model, demo_inventory):
        dm = pd.build_matrix(demo_model, demo_inventory, include_null=False)
        n = len(demo_inventory) - 1
        assert len(dm) == n
        assert "∅" not in dm
        dm_null = pd.build_matrix(demo_model, demo_inventory, include_null=True)
        assert len(dm_null) == n + 1
        assert "∅" in dm_null

    def test_zero_diagonal_and_exact_symmetry(self, demo_matrix):
        assert np.array_equal(demo_matrix.values, demo_matrix.values.T)
        assert np.all(np.diagonal(demo_matrix.values) == 0.0)
        assert np.all(demo_matrix.values >= 0.0)
        assert np.all(demo_matrix.values <= 1.0)

    def test_entries_match_predictions(self, demo_model, demo_inventory, demo_matrix):
        for a, b in [("p", "b"), ("a", "∅"), ("t͡s", "s"), ("ǃ", "k")]:
            expected = pd.predict_distance(
                demo_model, demo_inventory.get_segment(a), demo_inventory.get_segment(b)
            )
            assert demo_matrix.get(a, b) == expected
        # Every ordered pair, bit for bit: build_matrix's array path agrees with
        # the one-pair view predict_distance, signed zeros included.
        for include_null in (False, True):
            dm = pd.build_matrix(demo_model, demo_inventory, include_null=include_null)
            segments = [demo_inventory.get_segment(g) for g in dm.segments]
            expected = np.array([[pd.predict_distance(demo_model, a, b) for b in segments]
                                 for a in segments])
            assert dm.values.tobytes() == expected.tobytes()

    def test_fingerprint_mismatch_propagates(self, demo_model):
        from conftest import mini_inventory

        with pytest.raises(pd.model.FingerprintError):
            pd.build_matrix(demo_model, mini_inventory())


class TestLoadReferenceMatrix:
    def test_fixture_spot_values(self, fixture_matrix):
        for a, b, expected in FIXTURE_SPOT_CHECKS:
            assert fixture_matrix.get(a, b) == expected

    def test_symmetric_lookup(self, fixture_matrix):
        assert fixture_matrix.get("j", "i") == fixture_matrix.get("i", "j")
        assert fixture_matrix.get("i", "j") == 0.01

    def test_diagonal_zero(self, fixture_matrix):
        for g in fixture_matrix.segments:
            assert fixture_matrix.get(g, g) == 0.0

    def test_full_square_accepted(self, fixture_matrix, tmp_path):
        path = tmp_path / "full.tsv"
        export_matrix_tsv(fixture_matrix, path)
        again = pd.load_reference_matrix(path)
        assert again.segments == fixture_matrix.segments
        assert np.max(np.abs(again.values - fixture_matrix.values)) < 1e-6

    def test_asymmetric_full_matrix_rejected(self):
        text = "segment\ta\tb\na\t0.0\t0.2\nb\t0.3\t0.0\n"
        with pytest.raises(InputError, match="asymmetric"):
            pd.load_reference_matrix(io.StringIO(text))

    def test_out_of_range_rejected(self):
        text = "segment\ta\tb\na\t0.0\nb\t1.3\t0.0\n"
        with pytest.raises(InputError, match=r"\[0, 1\]"):
            pd.load_reference_matrix(io.StringIO(text))

    def test_row_label_mismatch_rejected(self):
        text = "segment\ta\tb\na\t0.0\nc\t0.3\t0.0\n"
        with pytest.raises(InputError, match="labelled"):
            pd.load_reference_matrix(io.StringIO(text))

    def test_empty_file_rejected(self):
        with pytest.raises(InputError):
            pd.load_reference_matrix(io.StringIO("# nothing here\n"))

    @pytest.mark.parametrize("text,match", [
        ("segment\ta\tb\na\t0.0\nb\tx\t0.0\n", "row 'b': could not convert"),
        ("segment\ta\tb\na\t0.0\t0.1\t0.2\nb\t0.1\t0.0\n", "row 'a' has 3 entries, expected 1 or 2"),
        ("segment\ta\ti\tu\na\t0\t0\t0\ni\t0.3\t0\t0\nu\t0.5\t0.7\t0\n", "asymmetric"),
        # An empty cell inside a row, not at its end: the cells after it must not move left.
        ("segment\ta\tb\tc\td\na\t0\nb\t0.3\t0\nc\t\t0.3\t0\t0\nd\t0.5\t0.2\t0.4\t0\n",
         "row 'c': the entry for 'a' is empty"),
    ])
    def test_malformed_row_rejected(self, text, match):
        with pytest.raises(InputError, match=match):
            pd.load_reference_matrix(io.StringIO(text))

    def test_lower_triangle_rows_may_end_in_tabs(self):
        text = "segment\ta\tb\tc\na\t0\t\t\nb\t0.3\t0\t\nc\t0.5\t0.2\t0\t\n"
        dm = pd.load_reference_matrix(io.StringIO(text))
        assert [dm.get("b", "a"), dm.get("a", "c"), dm.get("c", "b"), dm.get("c", "c")] == [0.3, 0.5, 0.2, 0.0]

    def test_missing_grapheme_lookup_errors(self, fixture_matrix):
        with pytest.raises(UnknownSegmentError):
            fixture_matrix.get("q", "x")


class TestPca:
    def test_rank_one_rows_give_zero_second_eigenvalue(self):
        # Rows proportional along one direction: variance lives on one axis.
        base = np.array([0.0, 0.3, 0.6, 0.9])
        values = np.zeros((4, 4))
        # Symmetric rank-structured toy: d(i, j) = |base_i - base_j|
        for i in range(4):
            for j in range(4):
                values[i, j] = abs(base[i] - base[j])
        dm = DistanceMatrix(["a", "b", "c", "d"], values)
        result = pd.pca(dm, 4)
        # eigenvalues sorted nonincreasing
        assert np.all(np.diff(result.eigenvalues) <= 1e-12)

    def test_collinear_toy_second_eigenvalue_zero(self):
        # Rows lie on a line in R^3 by construction.
        values = np.array([
            [0.0, 0.2, 0.4],
            [0.2, 0.0, 0.2],
            [0.4, 0.2, 0.0],
        ])
        dm = DistanceMatrix(["a", "b", "c"], values)
        result = pd.pca(dm, 3)
        assert result.eigenvalues[1] <= result.eigenvalues[0]
        assert result.eigenvalues[2] < 1e-9

    def test_components_orthonormal(self):
        dm = random_distance_matrix(8, seed=42)
        result = pd.pca(dm, 8)
        gram = result.components @ result.components.T
        assert np.max(np.abs(gram - np.eye(8))) < 1e-9

    def test_matches_jacobi_oracle_up_to_sign(self):
        dm = random_distance_matrix(6, seed=7)
        result = pd.pca(dm, 6)
        X = dm.values
        centered = X - X.mean(axis=0)
        cov = centered.T @ centered / (len(dm) - 1)
        eigenvalues, vectors = jacobi_eigh(cov)
        assert np.max(np.abs(result.eigenvalues - eigenvalues)) < 1e-6
        oracle_coords = centered @ vectors
        for k in range(6):
            got = result.coordinates[:, k]
            ref = oracle_coords[:, k]
            assert (
                np.max(np.abs(got - ref)) < 1e-6 or np.max(np.abs(got + ref)) < 1e-6
            )

    def test_total_variance_conserved(self, fixture_matrix):
        result = pd.pca(fixture_matrix, len(fixture_matrix))
        column_var = fixture_matrix.values.var(axis=0, ddof=1).sum()
        assert abs(result.eigenvalues.sum() - column_var) < 1e-6

    def test_projection_variance_equals_eigenvalue(self, fixture_matrix):
        result = pd.pca(fixture_matrix, 3)
        for k in range(3):
            var = result.coordinates[:, k].var(ddof=1)
            assert abs(var - result.eigenvalues[k]) < 1e-6

    def test_sign_convention(self):
        dm = random_distance_matrix(5, seed=3)
        result = pd.pca(dm, 5)
        for row in result.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_k_out_of_range(self, fixture_matrix):
        with pytest.raises(InputError):
            pd.pca(fixture_matrix, 0)
        with pytest.raises(InputError):
            pd.pca(fixture_matrix, len(fixture_matrix) + 1)

    def test_figure_echo_report(self, demo_matrix, demo_inventory):
        # Report-only: 2-means on (PC1, PC2) of the full fitted matrix,
        # compared against the continuant feature. Two broad groups of
        # continuant vs non-continuant sounds are the expected picture.
        result = pd.pca(demo_matrix, 2)
        keep = [i for i, g in enumerate(result.segments) if g != "∅"]
        segs = [result.segments[i] for i in keep]
        points = result.coordinates[keep, :2]

        # Lloyd's algorithm with deterministic init at the PC1 extremes.
        centers = np.array([points[np.argmin(points[:, 0])], points[np.argmax(points[:, 0])]])
        labels = np.zeros(len(points), dtype=int)
        for _ in range(50):
            dists = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
            new_labels = np.argmin(dists, axis=1)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for c in (0, 1):
                if np.any(labels == c):
                    centers[c] = points[labels == c].mean(axis=0)

        cont_idx = demo_inventory.feature_names.index("continuant")
        continuant = np.array(
            [demo_inventory.get_segment(g).features[cont_idx] for g in segs], dtype=int
        )
        match = float(np.mean(labels == continuant))
        agreement = max(match, 1.0 - match)
        print(f"\n[pca report] 2-means vs continuant agreement: {agreement:.2f} "
              f"over {len(segs)} segments")

    def test_k_greater_than_data_rank_still_valid(self, fixture_matrix):
        result = pd.pca(fixture_matrix, len(fixture_matrix))
        assert np.all(result.eigenvalues >= 0.0)


class TestExport:
    # a header with a line break or a lone surrogate is escaped into one comment line
    @pytest.mark.parametrize("header", ["params: demo", "a\nb", "\ud800"], ids=["plain", "line-break", "surrogate"])
    def test_matrix_tsv_round_trip(self, fixture_matrix, tmp_path, header):
        path = tmp_path / "m.tsv"
        export_matrix_tsv(fixture_matrix, path, header=header)
        again = pd.load_reference_matrix(path)
        assert np.max(np.abs(again.values - fixture_matrix.values)) < 1e-6

    def test_pca_tsv_shape(self, fixture_matrix, tmp_path):
        result = pd.pca(fixture_matrix, 2)
        path = tmp_path / "pca.tsv"
        export_pca_tsv(result, path)
        lines = [
            line for line in path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")
        ]
        assert lines[0].split("\t") == ["segment", "pc1", "pc2"]
        assert len(lines) == 1 + len(fixture_matrix)
        assert all(len(line.split("\t")) == 3 for line in lines[1:])

    def test_svg_one_label_per_segment(self, fixture_matrix, tmp_path):
        result = pd.pca(fixture_matrix, 2)
        path = tmp_path / "scatter.svg"
        export_pca_svg(result, path)
        svg = path.read_text(encoding="utf-8")
        assert svg.count('class="seg-label"') == len(fixture_matrix)
        for g in fixture_matrix.segments:
            assert f">{g}</text>" in svg
        assert 'width="800" height="600"' in svg
        assert "http://" not in svg.replace("http://www.w3.org/2000/svg", "")

    def test_svg_constant_pc2_lands_mid_frame(self, tmp_path):
        result = PcaResult(components=np.eye(2, 3), eigenvalues=np.array([1.0, 0.0]),
                           coordinates=np.array([[0.0, 0.5], [1.0, 0.5], [2.0, 0.5]]), segments=("a", "b", "c"))
        path = tmp_path / "scatter.svg"
        export_pca_svg(result, path)
        circles = xml.dom.minidom.parse(str(path)).getElementsByTagName("circle")
        assert [(c.getAttribute("cx"), c.getAttribute("cy")) for c in circles] == [
            ("60.0", "300.0"), ("400.0", "300.0"), ("740.0", "300.0")]

    def test_svg_header_with_characters_xml_cannot_hold_is_xml(self, fixture_matrix, tmp_path):
        path = tmp_path / "scatter.svg"
        export_pca_svg(pd.pca(fixture_matrix, 2), path, header="a\x00b\x1b\ud800\ufffe&<c>--")
        doc = xml.dom.minidom.parse(str(path))
        comment = next(n for n in doc.documentElement.childNodes if n.nodeType == n.COMMENT_NODE)
        assert comment.data == " a\\x00b\\x1b\\ud800\\ufffe&<c>- -  "

    def test_svg_needs_two_components(self, fixture_matrix, tmp_path):
        result = pd.pca(fixture_matrix, 1)
        with pytest.raises(InputError):
            export_pca_svg(result, tmp_path / "x.svg")
