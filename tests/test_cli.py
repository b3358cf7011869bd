import math

import numpy as np
import pytest

from rescode import Pmf, RandomBitSource, build_code, cli, generate_stream


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCurve:
    def test_default_grid_row_count(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        code, _, _ = run(capsys, ["curve", "--p", "0.211,0.789", "--grid-table", "default",
                                  "--schemes", "f2v,b2b", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 1 + 28

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, ["curve", "--p", "0.211,0.789", "--grid-table", "default", "--out", str(a)])
        run(capsys, ["curve", "--p", "0.211,0.789", "--grid-table", "default", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_do_not_change_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, ["curve", "--p", "0.211,0.789", "--m", "6", "--n-list", "3,4,5",
                     "--out", str(a)])
        run(capsys, ["curve", "--p", "0.211,0.789", "--m", "6", "--n-list", "3,4,5",
                     "--jobs", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_trivial_uniform_row(self, capsys):
        code, out, _ = run(capsys, ["curve", "--p", "0.5,0.5", "--m", "4", "--n-list", "4",
                                    "--schemes", "f2v"])
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[:3] == ["f2v", "4", "16"]
        assert float(row[8]) == 0.0   # kl_bits
        assert float(row[5]) == 1.0   # rate

    def test_extra_size_row(self, capsys):
        code, out, _ = run(capsys, ["curve", "--p", "0.211,0.789", "--m", "12",
                                    "--extra-size", "3072", "--schemes", "f2v"])
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 1
        fields = rows[0].split(",")
        assert fields[:3] == ["f2v", "12", "3072"]
        assert float(fields[3]) == pytest.approx(math.log2(3072), abs=1e-12)

    def test_every_row_satisfies_rate_and_bound_invariants(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        run(capsys, ["curve", "--p", "0.211,0.789", "--grid-table", "default", "--out", str(out)])
        for line in out.read_text().splitlines()[1:]:
            f = line.split(",")
            scheme, rate, entropy_rate = f[0], float(f[5]), float(f[6])
            kl, kl_bound = float(f[8]), float(f[9])
            assert rate >= entropy_rate - 1e-9
            if scheme == "f2v":
                assert kl <= kl_bound + 1e-9

    def test_round_trip_floats(self, capsys):
        _, out, _ = run(capsys, ["curve", "--p", "0.211,0.789", "--m", "6", "--n-list", "3",
                                 "--schemes", "f2v"])
        row = out.splitlines()[1].split(",")
        assert float(row[5]) == 1.5867768595041323

    def test_gnuplot_companion(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        run(capsys, ["curve", "--p", "0.211,0.789", "--m", "6", "--n-list", "3,4",
                     "--schemes", "f2v", "--out", str(out), "--emit-gnuplot"])
        layout = (tmp_path / "curve.csv.gnuplot").read_text()
        assert "# scheme=f2v m=6" in layout
        assert layout.startswith("# target_entropy_bits")

    def test_usage_error_without_sizes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["curve", "--p", "0.5,0.5", "--m", "4"])
        assert exc.value.code == 2

    def test_invalid_size_needs_round_flag(self, capsys, tmp_path):
        out = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["curve", "--p", "0.4,0.3,0.3", "--m", "4", "--n-list", "2",
                      "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()  # atomic: nothing partial on failure
        code, _, _ = run(capsys, ["curve", "--p", "0.4,0.3,0.3", "--m", "4", "--n-list", "2",
                                  "--schemes", "f2v", "--round-size", "--out", str(out)])
        assert code == 0
        assert out.exists()


class TestGenerate:
    ARGS = ["generate", "--p", "0.8,0.2", "--m", "3", "--size", "3", "--symbols", "4"]

    def test_deterministic(self, capsys):
        code1, out1, err1 = run(capsys, self.ARGS + ["--seed", "1"])
        code2, out2, err2 = run(capsys, self.ARGS + ["--seed", "1"])
        assert code1 == code2 == 0
        assert out1 == out2
        assert "empirical_rate=" in err1

    def test_bits_file(self, capsys, tmp_path):
        bits = tmp_path / "sixbits.bin"
        bits.write_bytes(bytes([0b00010100]))
        code, out, _ = run(capsys, self.ARGS + ["--bits-file", str(bits)])
        assert code == 0
        assert out == "0001\n"

    def test_bits_file_exhaustion(self, capsys, tmp_path):
        bits = tmp_path / "short.bin"
        bits.write_bytes(bytes([0b00010100]))
        code, _, err = run(capsys, ["generate", "--p", "0.8,0.2", "--m", "3", "--size", "3",
                                    "--symbols", "100", "--bits-file", str(bits)])
        assert code == 1
        assert "exhausted" in err

    def test_missing_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(self.ARGS)
        assert exc.value.code == 2

    def test_text_wraps_at_64(self, capsys):
        code, out, _ = run(capsys, ["generate", "--p", "0.5,0.5", "--m", "4", "--size", "16",
                                    "--symbols", "100", "--seed", "3"])
        assert code == 0
        lines = out.splitlines()
        assert all(len(line) == 64 for line in lines[:-1])
        assert 1 <= len(lines[-1]) <= 64

    def test_packed_output(self, capsys, tmp_path):
        out_path = tmp_path / "sym.bin"
        run(capsys, ["generate", "--p", "0.8,0.2", "--m", "3", "--size", "3", "--symbols", "4",
                     "--seed", "1", "--format", "packed", "--out", str(out_path)])
        text_code, text_out, _ = run(capsys, self.ARGS + ["--seed", "1"])
        bits = "".join(text_out.split())
        packed = int.from_bytes(out_path.read_bytes(), "big")
        width = 8 * len(out_path.read_bytes())
        assert packed >> (width - len(bits)) == int(bits, 2)

    def test_text_rejects_more_than_ten_symbols(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--p", ",".join([repr(1 / 12)] * 12), "--m", "6", "--size", "12",
                      "--symbols", "21", "--seed", "1"])
        assert exc.value.code == 2
        assert "--format packed" in capsys.readouterr().err

    def test_packed_alphabet_above_256(self, capsys, tmp_path):
        # 300 symbols need 9 bits each and a symbol table wider than one byte
        probs = ",".join([repr(1 / 300)] * 300)
        out_path = tmp_path / "sym.bin"
        code, _, _ = run(capsys, ["generate", "--p", probs, "--m", "10", "--size", "300", "--symbols", "1000",
                                  "--seed", "1", "--format", "packed", "--out", str(out_path)])
        assert code == 0
        bits = np.unpackbits(np.frombuffer(out_path.read_bytes(), dtype=np.uint8))[: 1000 * 9]
        symbols = bits.reshape(1000, 9).astype(np.int64) @ (1 << np.arange(8, -1, -1))
        expected = generate_stream(build_code(Pmf([1 / 300] * 300), 300, 10), RandomBitSource(1), 1000)
        assert np.array_equal(symbols, expected.symbols)
        assert symbols.max() >= 256


class TestValidate:
    def test_exhaustive_pass(self, capsys):
        code, out, _ = run(capsys, ["validate", "--p", "0.8,0.2", "--m", "3", "--size", "3",
                                    "--symbols", "20000", "--seed", "7", "--tv-threshold", "0.05"])
        assert code == 0
        assert "exhaustive_induced_equals_counts=True" in out
        assert out.strip().endswith("PASS")

    def test_uniform_passes_tight_threshold(self, capsys):
        # the sample must be large enough for the multinomial noise floor
        # (~sqrt(N/k)) to sit below the default threshold
        code, out, _ = run(capsys, ["validate", "--p", "0.5,0.5", "--m", "4", "--size", "16",
                                    "--symbols", "4000000", "--seed", "11"])
        assert code == 0

    def test_failure_exit_code(self, capsys):
        # tiny run over many codewords cannot meet a tight threshold
        code, out, _ = run(capsys, ["validate", "--p", "0.211,0.789", "--m", "12", "--size", "3072",
                                    "--symbols", "1000", "--seed", "5", "--tv-threshold", "0.01"])
        assert code == 1
        assert out.strip().endswith("FAIL")

    def test_alphabet_above_256(self, capsys):
        probs = ",".join([repr(1 / 300)] * 300)
        code, out, _ = run(capsys, ["validate", "--p", probs, "--m", "10", "--size", "300",
                                    "--symbols", "100000", "--seed", "1", "--tv-threshold", "0.1"])
        assert code == 0
        assert "exhaustive_induced_equals_counts=True" in out


def exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class TestUsageErrors:
    @pytest.mark.parametrize("round_size", [False, True])
    @pytest.mark.parametrize("argv", [
        ["generate", "--p", "1.0", "--m", "4", "--size", "4", "--symbols", "10", "--seed", "1"],
        ["curve", "--p", "1.0", "--m", "4", "--n-list", "2", "--schemes", "f2v"],
    ], ids=["generate", "curve"])
    def test_single_symbol_alphabet(self, capsys, argv, round_size):
        assert exit_code(argv + ["--round-size"] * round_size) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["generate", "--p", "0.8,0.2", "--m", "3", "--size", "3", "--symbols", "4", "--bits-file", "{missing}"],
        ["generate", "--p", "0.8,0.2", "--m", "3", "--size", "3", "--symbols", "4", "--seed", "1",
         "--out", "{missing}"],
        ["curve", "--p", "0.5,0.5", "--m", "4", "--n-list", "2", "--out", "{missing}"],
    ], ids=["bits-file", "generate-out", "curve-out"])
    def test_bad_path(self, capsys, tmp_path, argv):
        missing = str(tmp_path / "no-such-dir" / "x")
        assert exit_code([arg.format(missing=missing) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no-such-dir" in err


class TestQuantizeCommand:
    def test_prints_counts_and_kl(self, capsys):
        code, out, _ = run(capsys, ["quantize", "--q", "0.64,0.16,0.2", "--M", "8"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "counts=5,1,2"
        assert lines[1].startswith("kl_bits=0.0145792")

    def test_bad_target_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["quantize", "--q", "0.5,0.4", "--M", "8"])
        assert exc.value.code == 2
