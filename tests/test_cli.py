"""Config parsing, CLI subcommands, CSV schema, and SVG emission."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmetro
from qmetro.cli import main
from qmetro.config import ConfigError, parse_config
from qmetro.report import CSV_HEADER, format_number, parse_csv, render_csv, rows_from_sweep
from qmetro.ensemble import sweep, relative_uncertainty
from qmetro.quantum import NOISELESS
from qmetro.svgplot import line_plot


class TestParseConfig:
    def test_empty_document_defaults(self):
        cfg = parse_config("")
        assert cfg.alphas == (0.0, 1 / 6, 1 / 3, 0.5)
        assert cfg.eta == 1.0
        assert cfg.nus == tuple(range(1, 11))
        assert cfg.resolved_n_e == 1000 and cfg.resolved_n_phi == 20
        assert cfg.grid_size == 1024 and cfg.y == 0.95 and cfg.tau == 1e-3
        assert cfg.domain == (0.0, math.pi / 2)

    def test_high_noise_defaults(self):
        cfg = parse_config("eta=0.5\nn_steps=5")
        assert cfg.eta == 0.5 and cfg.n_steps == 5
        assert cfg.resolved_n_e == 500 and cfg.resolved_n_phi == 10

    def test_eta_range_error(self):
        with pytest.raises(ConfigError, match=r"\[0\.0, 1\.0\]"):
            parse_config("eta=1.5")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key 'bogus'"):
            parse_config("eta=0.9\nbogus=1")

    def test_malformed_value_names_key_and_line(self):
        with pytest.raises(ConfigError, match="line 1.*'n_e'"):
            parse_config("n_e=lots")

    def test_comments_and_lists(self):
        cfg = parse_config("# comment\nalphas=0,0.5 # inline\nnus=1,5,10\ndomain=0,3.14159\nseed=7")
        assert cfg.alphas == (0.0, 0.5)
        assert cfg.nus == (1, 5, 10)
        assert cfg.seed == 7
        assert cfg.domain[1] == pytest.approx(3.14159)

    def test_bad_domain(self):
        with pytest.raises(ConfigError, match="lo < hi"):
            parse_config("domain=2,1")

    @pytest.mark.parametrize("key, raw", [("alphas", "0,0.5,0.0"), ("nus", "1,2,1")])
    def test_duplicate_list_values(self, key, raw):
        with pytest.raises(ConfigError, match=f"line 2: key '{key}': duplicate values"):
            parse_config(f"eta=1\n{key}={raw}")


class TestProbsCommand:
    def test_bell_quarter_turn(self, capsys):
        assert main(["probs", "--alpha", "0.5", "--phi", "1.5707963", "--eta", "1"]) == 0
        values = [float(v) for v in capsys.readouterr().out.strip().split(", ")]
        assert values == pytest.approx([0.5, 0, 0, 0.5], abs=1e-7)

    def test_identity(self, capsys):
        assert main(["probs", "--alpha", "0.25", "--phi", "0"]) == 0
        values = [float(v) for v in capsys.readouterr().out.strip().split(", ")]
        assert values == pytest.approx([0, 0.25, 0.75, 0])

    def test_eta_out_of_range_exits_nonzero(self, capsys):
        assert main(["probs", "--alpha", "0.5", "--phi", "0", "--eta", "2"]) == 2


class TestPosteriorCommand:
    def test_uniform_posterior(self, tmp_path, capsys):
        out = tmp_path / "post.csv"
        assert main(["posterior", "--counts", "0,0,0,0", "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "phi,density"
        assert len(lines) - 1 == 1024
        densities = [float(l.split(",")[1]) for l in lines[1:]]
        assert densities == pytest.approx([2 / math.pi] * 1024, abs=1e-9)

    def test_cos4_closed_form(self, tmp_path):
        out = tmp_path / "post.csv"
        code = main([
            "posterior", "--alpha", "1", "--counts", "0,1,0,0",
            "--domain", f"0,{math.pi}", "--grid-size", "2048", "--output", str(out),
        ])
        assert code == 0
        rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
        phis = np.array([float(r[0]) for r in rows])
        dens = np.array([float(r[1]) for r in rows])
        expected = (8 / (3 * math.pi)) * np.cos(phis / 2) ** 4
        assert np.max(np.abs(dens - expected)) <= 1e-4

    def test_impossible_counts_exit_code(self, tmp_path, capsys, monkeypatch):
        # zero evidence cannot arise from counts drawn from this model, so
        # exercise the error mapping directly
        import qmetro.cli as cli_mod
        from qmetro.bayes import DegenerateEvidenceError

        def explode(*args, **kwargs):
            raise DegenerateEvidenceError("likelihood is zero everywhere for counts [1, 0, 0, 0]")

        monkeypatch.setattr(cli_mod.bayes, "posterior_from_log_profiles", explode)
        out = tmp_path / "post.csv"
        code = main(["posterior", "--counts", "1,0,0,0", "--output", str(out)])
        assert code == 3
        assert "counts" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--grid-size", "2", "grid_size must be >= 3, got 2"),
            ("--grid-size", "1", "grid_size must be >= 3, got 1"),
            ("--domain", "0,inf", "got (0.0, inf)"),
        ],
        ids=["grid-size-2", "grid-size-1", "domain-inf"],
    )
    def test_bad_grid_rejected(self, tmp_path, flag, value, named):
        # a fresh interpreter, so any numpy warning would reach stderr as a user sees it
        out = tmp_path / "post.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(qmetro.__file__).parents[1]))
        argv = [sys.executable, "-m", "qmetro.cli", "posterior", flag, value, "--output", str(out)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        assert named in proc.stderr and "Warning" not in proc.stderr
        assert not out.exists()

    def test_plot_emitted_and_deterministic(self, tmp_path):
        out = tmp_path / "post.csv"
        args = ["posterior", "--counts", "1,2,3,4", "--output", str(out), "--plot"]
        assert main(args) == 0
        first = (tmp_path / "post.svg").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "post.svg").read_bytes() == first
        assert first.startswith(b"<svg")


SMALL_CONFIG = """
alphas=0,0.5
nus=1,2,3
n_e=6
n_phi=2
grid_size=256
"""


class TestSweepCommand:
    @pytest.fixture
    def config_path(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(SMALL_CONFIG)
        return p

    def test_row_accounting_and_roundtrip(self, tmp_path, config_path):
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(config_path), "--seed", "5", "--output", str(out)]) == 0
        text = out.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        rows = parse_csv(text)
        # 2 alphas x 3 nus x (2 angle rows + 1 mean row)
        assert len(rows) == 2 * 3 * 3
        mean_rows = [r for r in rows if r.phi_true is None]
        assert len(mean_rows) == 6
        assert all(r.baseline_ratio is not None for r in mean_rows)
        assert render_csv(rows) == text

    def test_same_seed_byte_identical(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--config", str(config_path), "--seed", "9", "--output", str(out1)])
        main(["sweep", "--config", str(config_path), "--seed", "9", "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_plots_emitted(self, tmp_path, config_path):
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(config_path), "--output", str(out), "--plot"]) == 0
        absolute = (tmp_path / "r_absolute.svg").read_text()
        relative = (tmp_path / "r_relative.svg").read_text()
        assert absolute.startswith("<svg") and relative.startswith("<svg")
        assert "1/sqrt(2)" in relative

    def test_invalid_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("eta=7")
        assert main(["sweep", "--config", str(bad)]) == 2

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.cfg")]) == 4

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, config_path, capsys, workers):
        out = tmp_path / "r.csv"
        args = ["sweep", "--config", str(config_path), "--output", str(out), "--workers", workers]
        assert main(args) == 2
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()


class TestCsvSchema:
    def test_mean_token_and_blank_fields(self):
        res = relative_uncertainty(
            sweep([0.0], NOISELESS, [1], n_phi=2, n_e=4, seed=3, grid_size=128), 0.0
        )
        text = render_csv(rows_from_sweep(res))
        mean_line = [l for l in text.splitlines() if ",mean," in l][0]
        fields = mean_line.split(",")
        assert fields[4] == "mean"
        assert fields[5] == "" and fields[6] == "" and fields[8] == ""
        assert fields[9] == "1"

    def test_twelve_significant_digits(self):
        assert format_number(math.pi) == "3.14159265359"
        assert format_number(1 / 3) == "0.333333333333"


class TestSvgPlot:
    def test_deterministic_output(self):
        series = [("a", [1, 2, 3], [0.5, 0.4, 0.3])]
        assert line_plot(series, hlines=[("ref", 0.35)]) == line_plot(series, hlines=[("ref", 0.35)])

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            line_plot([])
