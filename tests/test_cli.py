"""Config parsing, CLI subcommands, CSV schema, and SVG emission."""

import gc
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qmetro
from qmetro import cli, ensemble
from qmetro.bayes import min_confidence_interval
from qmetro.cli import main
from qmetro.config import PARSERS, ConfigError, ExperimentConfig, parse_config
from qmetro.report import CSV_HEADER, ResultRow, format_number, render_csv, rows_from_sweep
from qmetro.ensemble import grid_tables, sweep, relative_uncertainty
from qmetro.quantum import NOISELESS
from qmetro.svgplot import line_plot

from oracles import parse_csv


class TestParseConfig:
    def test_empty_document_defaults(self):
        cfg = parse_config("")
        assert cfg.alphas == (0.0, 1 / 6, 1 / 3, 0.5)
        assert cfg.eta == 1.0
        assert cfg.nus == tuple(range(1, 11))
        assert cfg.n_e == 1000 and cfg.n_phi == 20
        assert cfg.grid_size == 1024 and cfg.y == 0.95 and cfg.tau == 1e-3
        assert cfg.domain == (0.0, math.pi / 2)

    def test_high_noise_defaults(self):
        cfg = parse_config("eta=0.5\nn_steps=5")
        assert cfg.eta == 0.5 and cfg.n_steps == 5
        assert cfg.n_e == 500 and cfg.n_phi == 10

    def test_eta_range_error(self):
        # the parser takes any finite number; NoiseModel checks the range
        cfg = parse_config("eta=1.5")
        with pytest.raises(ValueError, match=r"eta must be in \[0, 1\], got 1\.5"):
            cfg.noise

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key 'bogus'"):
            parse_config("eta=0.9\nbogus=1")

    def test_malformed_value_names_key_and_line(self):
        with pytest.raises(ConfigError, match="line 1.*'n_e'"):
            parse_config("n_e=lots")

    def test_line_without_equals_named(self, tmp_path, capsys):
        message = "line 2: expected key=value, got 'seed 7'"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config("eta=1\nseed 7\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("eta=1\nseed 7\n")
        assert main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "r.csv")]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_comments_and_lists(self):
        cfg = parse_config("# comment\nalphas=0,0.5 # inline\nnus=1,5,10\ndomain=0,3.14159\nseed=7")
        assert cfg.alphas == (0.0, 0.5)
        assert cfg.nus == (1, 5, 10)
        assert cfg.seed == 7
        assert cfg.domain[1] == pytest.approx(3.14159)

    def test_hash_inside_value_is_kept(self):
        # a config line and the flag that sets the same key read a value alike
        cfg = parse_config("output=run#3.csv\n#output=x.csv\noutput=run#3.csv\t# tab-led comment")
        assert cfg.output == "run#3.csv" == parse_config("", {"output": "run#3.csv"}).output

    def test_hash_glued_to_number_named(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match=r"^line 1: key 'alphas': not a number: '0\.5#x'$"):
            parse_config("alphas=0,0.5#x")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("alphas=0,0.5#x\n")
        assert main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "r.csv")]) == 2
        assert "'0.5#x'" in capsys.readouterr().err

    def test_bad_domain(self):
        cfg = parse_config("domain=2,1")
        with pytest.raises(ValueError, match=r"lo < hi, got \(2\.0, 1\.0\)"):
            grid_tables(0.5, NOISELESS, cfg.domain, cfg.grid_size)

    @pytest.mark.parametrize("key, raw", [("alphas", "0,0.5,0.0"), ("nus", "1,2,1")])
    def test_duplicate_list_values(self, key, raw):
        cfg = parse_config(f"eta=1\n{key}={raw}")
        message = f"{key} must be distinct, got {list(getattr(cfg, key))}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep(cfg)

    def test_flag_overrides_file_and_is_named(self):
        cfg = parse_config("seed=3\nn_steps=2", {"seed": "7", "n_steps": None})
        assert cfg.seed == 7 and cfg.n_steps == 2
        with pytest.raises(ConfigError, match=r"^--n-steps: not an integer: 'x'$"):
            parse_config("", {"n_steps": "x"})

    def test_readme_key_table_matches_parser(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(\w+)` \|[^|]*\|([^|]*)\|", readme, flags=re.MULTILINE)
        assert sorted(key for key, _ in rows) == sorted(PARSERS)
        # every key is its own ExperimentConfig field
        assert set(PARSERS) == set(ExperimentConfig.__dataclass_fields__)
        # the flags column names each command's setting flags, as the parser adds them
        table_flags = {}
        for key, flags in rows:
            for command, flag in re.findall(r"`(\w+) (--[\w-]+)`", flags):
                assert flag == "--" + key.replace("_", "-")
                table_flags.setdefault(command, set()).add(key)
        assert table_flags == {command: set(keys) for command, keys in cli.SETTING_FLAGS.items()}


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

    @pytest.mark.parametrize("eta", ["1", "0.9"], ids=["pure", "noisy"])
    @pytest.mark.parametrize("phi", ["inf", "nan"])
    def test_non_finite_phi_named(self, capsys, phi, eta):
        assert main(["probs", "--alpha", "0.5", "--phi", phi, "--eta", eta]) == 2
        assert f"angles must be finite, got {phi}" in capsys.readouterr().err

    def test_n_steps_default_is_config_default(self, capsys):
        printed = []
        for extra in ([], ["--n-steps", "5"], ["--n-steps", "1"]):
            assert main(["probs", "--alpha", "0.3", "--phi", "0.7", "--eta", "0.9", *extra]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] != printed[2]


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

    def test_empty_output_rejected(self, tmp_path, capsys, monkeypatch):
        # checked like the output config key, before any posterior is solved
        import qmetro.cli as cli_mod

        monkeypatch.chdir(tmp_path)
        checked = []
        monkeypatch.setattr(cli_mod.ensemble, "check_sweep", checked.append)
        assert main(["posterior", "--counts", "300,40,50,310", "--output", ""]) == 2
        assert "error: --output: empty path" in capsys.readouterr().err
        assert checked == [] and not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--grid-size", "2", "grid_size must be >= 3, got 2"),
            ("--grid-size", "1", "grid_size must be >= 3, got 1"),
            ("--domain", "0,inf", "--domain: not finite: 'inf'"),
            ("--domain", "-1e308,1e308", "finite width hi - lo and lo < hi, got (-1e+308, 1e+308)"),
            ("--domain", "1,1.0000000000001", "(1.0, 1.0000000000001) is too narrow: 1024 nodes must be 2.33e-10 apart"),
            ("--domain", "0,1e-310", "(0.0, 1e-310) is too narrow: 1024 nodes must be 2.23e-308 apart"),
        ],
        ids=["grid-size-2", "grid-size-1", "domain-inf", "domain-width-inf", "domain-narrow", "domain-subnormal"],
    )
    def test_bad_grid_rejected(self, tmp_path, flag, value, named):
        # a fresh interpreter, so any numpy warning would reach stderr as a user sees it
        out = tmp_path / "post.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(qmetro.__file__).parents[1]))
        # flag=value, since argparse takes a separate "-1e308,1e308" for a flag
        argv = [sys.executable, "-m", "qmetro.cli", "posterior", f"{flag}={value}", "--output", str(out)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        assert named in proc.stderr and "Warning" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "alpha, counts, named",
        [
            ("0.5", "1,2,3", "[1, 2, 3]"),
            ("0.5", "1,-2,3,4", "[1, -2, 3, 4]"),
            ("0.5", "1,two,3,4", "'1,two,3,4'"),
            # a total of 2**62 or more: a product map would double it past int64
            ("0", "0,4611686018427387904,0,0", "[0, 4611686018427387904, 0, 0]"),
            (
                "0.5",
                "5000000000000000000,0,0,5000000000000000000",
                "[5000000000000000000, 0, 0, 5000000000000000000]",
            ),
        ],
        ids=["three", "negative", "word", "product-total", "total"],
    )
    def test_bad_counts_rejected(self, tmp_path, capsys, alpha, counts, named):
        out = tmp_path / "post.csv"
        assert main(["posterior", "--alpha", alpha, f"--counts={counts}", "--output", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "alpha, eta, counts, swapped",
        [
            ("0.3", "1", "5,2,7,1", "1,2,7,5"),
            ("0.3", "0.9", "5,2,7,1", "1,2,7,5"),
            ("0.5", "1", "5,2,7,1", "5,7,2,1"),
            ("0.5", "0.9", "5,2,7,1", "5,7,2,1"),
            ("0", "1", "1,0,0,1", "0,1,1,0"),
            ("0", "0.9", "1,0,0,1", "0,1,1,0"),
            ("1", "1", "1,0,0,1", "0,1,1,0"),
            ("1", "0.9", "1,0,0,1", "0,1,1,0"),
            ("0", "1", "300,100,200,400", "400,150,250,200"),
            ("1", "0.9", "300,100,200,400", "400,150,250,200"),
        ],
        ids=[
            "dd-uu", "dd-uu-noisy", "du-ud-bell", "du-ud-bell-noisy",
            "product-0", "product-0-noisy", "product-1", "product-1-noisy",
            "product-0-large", "product-1-large-noisy",
        ],
    )
    def test_equal_outcomes_swap_freely(self, tmp_path, alpha, eta, counts, swapped):
        # outcomes of equal probability enter only through the sum of their
        # counts; a product probe's outcomes only through its qubits' counts
        # (dd + uu and du + ud both hold one flipped and one unflipped qubit).
        # At large counts the likelihoods of the two records are equal only
        # if the table scores them through the same qubit counts.
        outputs = []
        for i, record in enumerate((counts, swapped)):
            out = tmp_path / f"post{i}.csv"
            argv = ["posterior", "--alpha", alpha, "--eta", eta, "--counts", record, "--output", str(out), "--plot"]
            assert main(argv) == 0
            outputs.append((out.read_bytes(), out.with_suffix(".svg").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_plot_over_own_output_rejected(self, tmp_path, capsys):
        # the SVG would be written over the CSV at the same path; the message
        # names the flag or the config key that set it
        out, cfg = tmp_path / "p.svg", tmp_path / "p.cfg"
        assert main(["posterior", "--counts", "1,2,3,4", "--output", str(out), "--plot"]) == 2
        assert f"error: --output '{out}' is the path --plot writes the SVG to" in capsys.readouterr().err
        cfg.write_text(f"output={out}\n")
        assert main(["posterior", "--config", str(cfg), "--counts", "1,2,3,4", "--plot"]) == 2
        assert f"error: output '{out}' is the path --plot writes the SVG to" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "in_file, flag, written",
        [
            ("output=fromcfg.csv\n", None, "fromcfg.csv"),
            ("output=fromcfg.csv\n", "flag.csv", "flag.csv"),
            ("", None, "posterior.csv"),
        ],
        ids=["file", "flag-over-file", "default"],
    )
    def test_output_precedence(self, tmp_path, monkeypatch, in_file, flag, written):
        # the flag, then the config file, then the command's own default
        monkeypatch.chdir(tmp_path)
        Path("p.cfg").write_text(in_file)
        argv = ["posterior", "--config", "p.cfg", "--counts", "3,1,2,4"]
        assert main(argv + (["--output", flag] if flag else [])) == 0
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == [written]

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

    def test_plots_emitted(self, tmp_path, config_path, monkeypatch):
        hlines = []

        def spy(series, **kwargs):
            hlines.append(list(kwargs["hlines"]))
            return line_plot(series, **kwargs)

        monkeypatch.setattr(cli.svgplot, "line_plot", spy)
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(config_path), "--output", str(out), "--plot"]) == 0
        absolute = (tmp_path / "r_absolute.svg").read_text()
        relative = (tmp_path / "r_relative.svg").read_text()
        assert absolute.startswith("<svg") and relative.startswith("<svg")
        assert "1/sqrt(2)" in relative
        # the relative plot's reference line is the two-qubit asymptote 1/sqrt(2)
        assert hlines == [[], [("1/sqrt(2)", 1 / math.sqrt(2))]]

    def test_invalid_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("eta=7")
        assert main(["sweep", "--config", str(bad)]) == 2

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.cfg")]) == 4

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_rejected(self, tmp_path, config_path, capsys, seed):
        # checked by sweep, for the flag and the config file's seed key alike
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(config_path), "--output", str(out), "--seed", seed]) == 2
        assert f"seed must be in [0, {2**64 - 1}], got {seed}" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_output_rejected(self, tmp_path, config_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--config", str(config_path), "--output", ""]) == 2
        assert "--output: empty path" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, config_path, capsys, workers):
        out = tmp_path / "r.csv"
        args = ["sweep", "--config", str(config_path), "--output", str(out), "--workers", workers]
        assert main(args) == 2
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_nu_runs(self, tmp_path, config_path):
        # twice the largest total fits int64, so a product table takes it; the
        # plots widen the one nu's x range by a 1 that survives at that size
        config_path.write_text(SMALL_CONFIG + f"nus={2**62 - 1}\n")
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(config_path), "--output", str(out), "--plot"]) == 0
        assert f",{2**62 - 1},mean," in out.read_text()
        # one point per plotted probe
        for suffix, probes in (("absolute", 2), ("relative", 1)):
            assert (tmp_path / f"r_{suffix}.svg").read_text().count("<circle") == probes

    def test_huge_lone_y_value_plots(self, tmp_path, config_path):
        # one mean length of ~9.5e99: a y pad of 0.5 would round away there
        config_path.write_text("alphas=0.5\nnus=1\nn_e=2\nn_phi=1\ngrid_size=64\ndomain=0,1e100\n")
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(config_path), "--output", str(out), "--plot"]) == 0
        assert parse_csv(out.read_text())[-1].mu_l_ci > 1e99
        assert (tmp_path / "r_absolute.svg").read_text().count("<circle") == 1

    def test_only_the_process_entry_point_freezes(self, tmp_path, config_path, monkeypatch):
        # main, which tests call in-process, leaves the collector alone; run
        # freezes every object, so the exit skips their final collection
        frozen = gc.get_freeze_count()
        assert main(["sweep", "--config", str(config_path), "--output", str(tmp_path / "r.csv")]) == 0
        assert gc.get_freeze_count() == frozen
        monkeypatch.setattr(cli, "main", lambda: 3)
        try:
            with pytest.raises(SystemExit) as exit_info:
                cli.run()
            assert exit_info.value.code == 3 and gc.get_freeze_count() > frozen
        finally:
            gc.unfreeze()

    def test_baseline_alone_plots_absolute_only(self, tmp_path, config_path):
        # a relative plot needs a probe besides the baseline to draw
        config_path.write_text("alphas=0\nnus=1,2\nn_e=5\nn_phi=2\ngrid_size=64\n")
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(config_path), "--output", str(out), "--plot"]) == 0
        assert (tmp_path / "r_absolute.svg").read_text().count("<circle") == 2
        assert not (tmp_path / "r_relative.svg").exists()

    def test_bits_hold_for_one_blas_kernel(self, tmp_path):
        # The log likelihood calls no BLAS, so a noiseless sweep's bytes are
        # the same under every OpenBLAS kernel. The dephasing channel's
        # batched products do go through BLAS: under the Prescott kernel a
        # noisy sweep moves last digits of the printed lengths and SDs, and
        # no more than that.
        env = dict(os.environ, PYTHONPATH=str(Path(qmetro.__file__).parents[1]))
        env.pop("OPENBLAS_CORETYPE", None)

        def run(name, settings, kernels):
            config = tmp_path / f"{name}.cfg"
            config.write_text("alphas=0,0.5\nnus=100,1000\nn_e=40\nn_phi=4\ngrid_size=256\n" + settings)
            texts = []
            for kernel in kernels:
                out = tmp_path / f"{name}-{kernel or 'default'}.csv"
                argv = ["sweep", "--config", str(config), "--seed", "1", "--output", str(out)]
                kernel_env = {"OPENBLAS_CORETYPE": kernel} if kernel else {}
                subprocess.run([sys.executable, "-m", "qmetro.cli", *argv], env={**env, **kernel_env}, check=True)
                texts.append(out.read_text())
            return texts

        noiseless = run("noiseless", "", (None, "Prescott", "Haswell", "Sandybridge"))
        assert len(set(noiseless)) == 1
        noisy = run("noisy", "eta=0.9\n", (None, "Prescott"))
        for row, other in zip(parse_csv(noisy[0]), parse_csv(noisy[1]), strict=True):
            for field, value in row._asdict().items():
                # an SD is compared against its row's mean: it can be a
                # difference of values that agree to their last digits
                scale = getattr(row, field.replace("sigma", "mu"))
                if isinstance(value, float):
                    assert abs(getattr(other, field) - value) <= 1e-10 * abs(scale), (row, field)
                else:
                    assert getattr(other, field) == value

    def test_import_loads_no_process_pool(self):
        # a serial run never starts a pool, so the CLI imports it only where one starts
        env = dict(os.environ, PYTHONPATH=str(Path(qmetro.__file__).parents[1]))
        modules = "'concurrent.futures', 'concurrent.futures.process'"
        code = f"import sys, qmetro.cli; print([m in sys.modules for m in ({modules})])"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.strip() == "[False, False]"


# (key, invalid value, text naming it on stderr): out of range, non-finite,
# malformed, or a repeated list entry
INVALID_SETTINGS = [
    ("alphas", "0,1.5", "1.5"),
    ("alphas", "0,inf", "inf"),
    ("alphas", "0,x", "'x'"),
    ("alphas", "0.25,0.5,0.25", "0.25"),
    ("eta", "1.5", "1.5"),
    ("eta", "nan", "nan"),
    ("eta", "x", "'x'"),
    ("n_steps", "-3", "-3"),
    ("n_steps", "2.5", "2.5"),
    ("nus", "1,-4", "-4"),
    ("nus", "8,1,8", "8"),
    ("nus", "1,x", "'x'"),
    ("nus", "1,10000000000000000000", "10000000000000000000"),
    ("nus", "4611686018427387904", "4611686018427387904"),
    ("n_e", "-5", "-5"),
    ("n_e", "many", "'many'"),
    ("n_phi", "-2", "-2"),
    ("grid_size", "-9", "-9"),
    ("grid_size", "1e3", "1e3"),
    ("y", "1.5", "1.5"),
    ("y", "inf", "inf"),
    ("y", "1e-17", "1e-17"),
    ("tau", "-0.5", "-0.5"),
    ("tau", "nan", "nan"),
    ("domain", "2.5,1.5", "2.5"),
    ("domain", "0.5", "0.5"),
    ("domain", "0,inf", "inf"),
    ("domain", "-1e308,1e308", "(-1e+308, 1e+308)"),
    ("domain", "1,1.0000000000001", "(1.0, 1.0000000000001)"),
    ("domain", "0,1e-310", "(0.0, 1e-310)"),
    ("domain", "0,1e300", "(0.0, 1e+300)"),
    ("domain", "-1e154,1e154", "(-1e+154, 1e+154)"),
    ("domain", "1e308,1.7e308", "(1e+308, 1.7e+308)"),
    ("seed", "-1", "-1"),
    ("seed", str(2**64), str(2**64)),
    ("seed", "x", "'x'"),
    ("output", "", "empty path"),
]
# the commands with a flag that sets each key ("sweep --output ''" has its own test)
FLAG_COMMANDS = {
    "eta": ("probs", "posterior"),
    "n_steps": ("probs", "posterior"),
    "grid_size": ("posterior",),
    "domain": ("posterior",),
    "seed": ("sweep",),
}
SETTING_CASES = [
    pytest.param(source, key, raw, named, id=f"{source}-{key}={raw}")
    for key, raw, named in INVALID_SETTINGS
    for source in ("sweep-config", "posterior-config", *FLAG_COMMANDS.get(key, ()))
]


@pytest.mark.parametrize("source, key, raw, named", SETTING_CASES)
def test_invalid_setting_rejected(tmp_path, capsys, source, key, raw, named):
    cfg, out = tmp_path / "exp.cfg", tmp_path / "r.csv"
    in_file = source.endswith("-config")
    cfg.write_text(SMALL_CONFIG + (f"{key}={raw}\n" if in_file else ""))
    command = source.removesuffix("-config")
    argv = {
        "probs": ["probs", "--alpha", "0.5", "--phi", "0.3"],
        "posterior": ["posterior", "--config", str(cfg), "--output", str(out), "--plot"],
        "sweep": ["sweep", "--config", str(cfg), "--output", str(out), "--plot"],
    }[command]
    if not in_file:
        argv.append(f"--{key.replace('_', '-')}={raw}")
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits on a flag value it cannot convert
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert named in err
    assert "Traceback" not in err and "Warning" not in err
    assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.svg"))


# another valid value of each sweep key
CHANGED_SETTINGS = [
    ("alphas", "0,0.25"),
    ("eta", "0.9"),
    ("n_steps", "2"),
    ("nus", "1,2,4"),
    ("n_e", "7"),
    ("n_phi", "3"),
    ("grid_size", "128"),
    ("y", "0.9"),
    ("tau", "1e-4"),
    ("domain", "0,1.5"),
    ("seed", "1"),
]


@pytest.mark.parametrize("key, raw", CHANGED_SETTINGS, ids=[key for key, _ in CHANGED_SETTINGS])
def test_every_sweep_key_reaches_the_cell(tmp_path, monkeypatch, key, raw):
    # a cell that read a default in place of the record's value would write the same bytes
    cfg, out = tmp_path / "exp.cfg", tmp_path / "r.csv"
    if key == "tau":
        # tau is the tolerance the interval's mass is checked against, so it
        # changes no output: each cell's interval search must be handed it
        taus = []

        def spy(grid, y, tau):
            taus.append(tau)
            return min_confidence_interval(grid, y, tau)

        monkeypatch.setattr(ensemble, "min_confidence_interval", spy)
        cfg.write_text(SMALL_CONFIG + f"{key}={raw}\n")
        assert main(["sweep", "--config", str(cfg), "--output", str(out)]) == 0
        assert taus and set(taus) == {float(raw)}
        return
    outputs = []
    for extra in ("", f"{key}={raw}\n"):
        cfg.write_text(SMALL_CONFIG + extra)
        assert main(["sweep", "--config", str(cfg), "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] != outputs[1]


class TestCsvSchema:
    def test_mean_token_and_blank_fields(self):
        cfg = ExperimentConfig(alphas=(0.0,), nus=(1,), n_phi=2, n_e=4, seed=3, grid_size=128)
        res = relative_uncertainty(sweep(cfg))
        text = render_csv(rows_from_sweep(res))
        mean_line = [l for l in text.splitlines() if ",mean," in l][0]
        fields = mean_line.split(",")
        assert fields[4] == "mean"
        assert fields[5] == "" and fields[6] == "" and fields[8] == ""
        assert fields[9] == "1"

    @given(
        st.lists(
            st.builds(
                ResultRow,
                alpha=st.floats(allow_nan=False, allow_infinity=False),
                eta=st.floats(0.0, 1.0),
                n_steps=st.integers(1, 10**6),
                nu=st.integers(0, 10**18),
                phi_true=st.none() | st.floats(allow_nan=False, allow_infinity=False),
                mu_phi_mp=st.none() | st.floats(allow_nan=False, allow_infinity=False),
                sigma_phi_mp=st.none() | st.floats(0.0, allow_infinity=False),
                mu_l_ci=st.floats(allow_nan=False, allow_infinity=False),
                sigma_l_ci=st.none() | st.floats(0.0, allow_infinity=False),
                baseline_ratio=st.none() | st.floats(allow_nan=False, allow_infinity=False),
            )
        )
    )
    def test_roundtrip(self, rows):
        # blank fields, mean rows, -0.0 and large nu come back as written
        text = render_csv(rows)
        assert render_csv(parse_csv(text)) == text

    def test_twelve_significant_digits(self):
        assert format_number(math.pi) == "3.14159265359"
        assert format_number(1 / 3) == "0.333333333333"


class TestSvgPlot:
    LABELS = {"title": "t", "xlabel": "x", "ylabel": "y"}

    def test_deterministic_output(self):
        series = [("a", [1, 2, 3], [0.5, 0.4, 0.3])]
        svg = line_plot(series, hlines=[("ref", 0.35)], **self.LABELS)
        assert svg == line_plot(series, hlines=[("ref", 0.35)], **self.LABELS)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            line_plot([], **self.LABELS)
