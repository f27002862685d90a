"""Tests for the figure generators: layout and headline claims (size 1)."""

import pytest

from repro.harness import figures
from repro.harness.tables import Table, pct, render_all


def get_pct(cell: str) -> float:
    return float(cell.rstrip("%"))


@pytest.fixture(scope="module", autouse=True)
def warm_cache():
    """Share runs across the module's tests (figures cache internally)."""
    yield
    figures.clear_cache()


class TestTableRendering:
    def test_render_alignment_and_title(self):
        t = Table("My Title", ["a", "bb"])
        t.add_row(1, "x")
        out = t.render()
        assert out.splitlines()[0] == "My Title"
        assert "a" in out and "bb" in out and "x" in out

    def test_row_arity_checked(self):
        t = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_column_and_row_access(self):
        t = Table("T", ["name", "v"])
        t.add_row("x", 1)
        t.add_row("y", 2)
        assert t.column("v") == ["1", "2"]
        assert t.row_for("y") == ["y", "2"]
        with pytest.raises(KeyError):
            t.row_for("z")

    def test_pct_format(self):
        assert pct(61.4) == "61%"

    def test_render_all_joins(self):
        a = Table("A", ["x"])
        b = Table("B", ["y"])
        assert "A" in render_all([a, b]) and "B" in render_all([a, b])


class TestFig41:
    def test_shape_and_claims(self):
        t = figures.fig4_1(1)
        assert len(t.rows) == 8
        # Headline claims of the paper, as ordering relations:
        raytrace = t.row_for("raytrace")
        assert get_pct(raytrace[5]) > 90          # ~98% collectable
        jess = t.row_for("jess")
        assert get_pct(jess[5]) - get_pct(jess[4]) > 15  # big opt gap
        compress = t.row_for("compress")
        assert get_pct(compress[5]) < 20          # compute-bound

    def test_opt_never_collects_less(self):
        t = figures.fig4_1(1)
        for row in t.rows:
            assert get_pct(row[5]) >= get_pct(row[4])


class TestFig42:
    def test_population_sums_to_100(self):
        t = figures.fig4_2_3_4(1)
        for row in t.rows:
            total = sum(get_pct(c) for c in row[1:])
            assert 98 <= total <= 102  # rounding

    def test_javac_is_the_thread_outlier(self):
        t = figures.fig4_2_3_4(1)
        shares = {row[0]: get_pct(row[3]) for row in t.rows}
        assert shares["javac"] == max(shares.values())
        assert shares["javac"] > 40


class TestFig45:
    def test_small_blocks_dominate(self):
        t = figures.fig4_5(1)
        for row in t.rows:
            total_blocks = sum(int(c) for c in row[2:9])
            if total_blocks == 0:
                continue
            small = int(row[2]) + int(row[3]) + int(row[4])
            assert small >= 0.7 * total_blocks

    def test_db_exact_is_zero(self):
        t = figures.fig4_5(1)
        assert get_pct(t.row_for("db")[9]) == 0


class TestFig46:
    def test_raytrace_long_distance_deaths(self):
        t = figures.fig4_6(1)
        row = t.row_for("raytrace")
        assert int(row[7]) > 0  # the >5 column

    def test_jack_peaks_at_distance_one(self):
        t = figures.fig4_6(1)
        row = t.row_for("jack")
        assert int(row[2]) > int(row[1])


class TestTimingFigures:
    def test_fig4_7_small_run_direction(self):
        t = figures.fig4_7(1)
        speedups = {row[0]: float(row[3]) for row in t.rows}
        # Small runs: CG within ~35% of base either way; javac the best.
        for name, s in speedups.items():
            assert 0.6 <= s <= 1.4, (name, s)
        assert speedups["javac"] == max(speedups.values())
        assert speedups["javac"] > 1.0

    def test_fig4_10_large_runs_win(self):
        t = figures.fig4_10(sizes=(1, 100))
        s1 = {row[0]: float(row[1]) for row in t.rows}
        s100 = {row[0]: float(row[2]) for row in t.rows}
        for name in ("jess", "jack", "raytrace", "javac"):
            assert s100[name] > 1.25, (name, s100[name])
            assert s100[name] > s1[name] * 1.1  # the crossover
        for name in ("compress", "mpegaudio"):
            assert 0.9 <= s100[name] <= 1.1

    def test_overhead_isolation_close_to_base(self):
        """Section 4.5: CG-only overhead 'within 10%-20% of the base'."""
        t = figures.fig4_7(1)
        for row in t.rows:
            assert 0.6 <= float(row[4]) <= 1.0


class TestResetAndRecycleFigures:
    def test_fig4_11_reports_reset_activity(self):
        t = figures.fig4_11(1)
        assert len(t.rows) == 8
        cycles = [int(row[3]) for row in t.rows]
        assert all(c >= 1 for c in cycles)
        msa = {row[0]: int(row[1]) for row in t.rows}
        assert msa["raytrace"] >= 0

    def test_fig4_12_speedups_near_one(self):
        t = figures.fig4_12(1)
        for row in t.rows:
            assert 0.9 <= float(row[3]) <= 1.15  # paper: within ~4%

    def test_fig4_13_recycle_counts(self):
        t = figures.fig4_13(1)
        shares = {row[0]: float(row[2]) for row in t.rows}
        assert shares["jack"] > shares["compress"]


class TestAppendixTables:
    def test_A1_thread_attribution(self):
        t = figures.figA_1(1)
        shares = {row[0]: get_pct(row[2]) for row in t.rows}
        assert shares["javac"] > 50   # paper: 72%
        assert shares["compress"] == 0

    def test_A2_breakdown_counts(self):
        t = figures.figA_2_3_4(1)
        for row in t.rows:
            assert all(int(c) >= 0 for c in row[1:])

    def test_registry_covers_every_figure(self):
        expected = {
            "4.1", "4.2", "4.3", "4.4", "4.5", "4.6", "4.7", "4.8", "4.9",
            "4.10", "4.11", "4.12", "4.13",
            "A.1", "A.2", "A.3", "A.4", "A.5", "A.6", "A.7",
        }
        assert set(figures.ALL_FIGURES) == expected


class TestCLI:
    def test_cli_prints_figure(self, capsys):
        from repro.harness.cli import main

        assert main(["4.1"]) == 0
        out = capsys.readouterr().out
        assert "Fig 4.1" in out

    def test_cli_list(self, capsys):
        from repro.harness.cli import main

        assert main(["--list"]) == 0
        assert "4.10" in capsys.readouterr().out

    def test_cli_rejects_unknown(self, capsys):
        from repro.harness.cli import main

        assert main(["9.9"]) == 2

    def test_cli_no_args_shows_help(self, capsys):
        from repro.harness.cli import main

        assert main([]) == 2
