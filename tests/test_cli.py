import contextlib
import io
import math
import os
import stat
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rescode
from rescode import (Pmf, RandomBitSource, block, build_block_code, build_code, cli, codetree, f2v,
                     generate_stream, rate_report, tunstall)
from references import digit_lines, interval_map, pack_chunks, pack_symbols, paths, served_bits


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def traced_peak(argv):
    """cli.main's exit code and the peak of the memory it allocated, in bytes."""
    import numpy.random  # numpy imports it when first used; its 0.7 MiB are not the command's
    tracemalloc.start()
    try:
        code = cli.main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    def test_sizes_that_round_alike_give_one_row(self, capsys):
        code, out, _ = run(capsys, ["curve", "--p", "0.5,0.3,0.2", "--m", "10", "--n-list", "5",
                                    "--extra-size", "31", "--schemes", "f2v"])
        assert code == 0
        assert [row.split(",")[:3] for row in out.splitlines()[1:]] == [["f2v", "10", "31"]]

    def test_repeated_n_gives_one_row(self, capsys):
        code, out, _ = run(capsys, ["curve", "--p", "0.5,0.5", "--m", "4", "--n-list", "3,3", "--schemes", "f2v,b2b"])
        assert code == 0
        assert [row.split(",")[:3] for row in out.splitlines()[1:]] == [["b2b", "4", "8"], ["f2v", "4", "8"]]

    def test_round_trip_floats(self, capsys):
        _, out, _ = run(capsys, ["curve", "--p", "0.211,0.789", "--m", "6", "--n-list", "3",
                                 "--schemes", "f2v"])
        row = out.splitlines()[1].split(",")
        assert float(row[5]) == 1.5867768595041323

    def test_rows_use_p_as_parsed(self, capsys):
        # Pmf renormalizes this p to a vector that a second Pmf would move again
        text = "0.46335848984461653,0.3373961461805628,0.1992453639748208"
        code, out, _ = run(capsys, ["curve", "--p", text, "--m", "10", "--n-list", "5,6"])
        assert code == 0
        p = Pmf([float(t) for t in text.split(",")])
        codes = [build_block_code(p, 5, 10), build_block_code(p, 6, 10), build_code(p, 31, 10), build_code(p, 63, 10)]
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == len(codes)
        for row, code in zip(rows, codes):
            r = rate_report(code)
            assert row[:3] == [r.scheme, "10", str(r.num_codewords)]
            assert [float(v) for v in row[3:]] == [r.n_bits, r.q_bits, r.rate, r.entropy_rate, r.hv_rate,
                                                   r.kl, r.kl_bound, r.exp_len]

    def test_each_target_is_built_once_and_requantized_at_every_m(self, capsys, monkeypatch):
        # only the counts depend on m: each Tunstall codebook and product leaf distribution is built at one m,
        # and each target is released before the next one is built
        built, alive = {"tunstall": [], "product": []}, []

        def counting(name, fn):
            def wrapper(p, size_or_codebook):
                assert all(ref() is None for ref in alive), "the previous target is still referenced"
                built[name].append(len(size_or_codebook) if name == "product" else size_or_codebook)
                target = fn(p, size_or_codebook)
                alive.append(weakref.ref(target))
                return target
            return wrapper

        monkeypatch.setattr(tunstall, "build_tunstall", counting("tunstall", tunstall.build_tunstall))
        monkeypatch.setattr(block, "leaf_distribution", counting("product", block.leaf_distribution))
        code, out, _ = run(capsys, ["curve", "--p", "0.211,0.789", "--m", "6", "--m", "9", "--m", "12",
                                    "--n-list", "5,6", "--schemes", "f2v,b2b"])
        assert code == 0
        assert sorted(built["tunstall"]) == [32, 64] and sorted(built["product"]) == [32, 64]
        monkeypatch.undo()
        p = Pmf([0.211, 0.789])
        points = ((build_block_code, (5, 6)), (build_code, (32, 64)))
        oracle = [rate_report(build(p, size, m)) for build, sizes in points for m in (6, 9, 12) for size in sizes]
        assert out == cli.CSV_HEADER + "\n" + "".join(cli._format_row(r) + "\n" for r in oracle)

    def test_b2b_row_at_m_56(self, capsys):
        # M q passes 2^53 here: a count clipped to its cap in float64 rounded above it and ran the finish dry
        code, out, _ = run(capsys, ["curve", "--p", "0.211,0.789", "--m", "56", "--n-list", "3", "--schemes", "b2b"])
        assert code == 0
        assert [row.split(",")[:3] for row in out.splitlines()[1:]] == [["b2b", "56", "8"]]

    def test_usage_error_without_sizes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["curve", "--p", "0.5,0.5", "--m", "4"])
        assert exc.value.code == 2

    def test_sizes_round_down_to_a_valid_size(self, capsys):
        # 2^2 = 4 leaves no ternary tree has: the row is the largest valid size below it
        code, out, _ = run(capsys, ["curve", "--p", "0.4,0.3,0.3", "--m", "4", "--n-list", "2", "--schemes", "f2v"])
        assert code == 0
        assert [row.split(",")[:3] for row in out.splitlines()[1:]] == [["f2v", "4", "3"]]


class TestGenerate:
    ARGS = ["generate", "--p", "0.8,0.2", "--m", "3", "--size", "3", "--symbols", "4"]
    # m above f2v.GUIDE_BITS: about 6% of this N = 2^16 code's words fall in split guide buckets
    M24 = ["--p", "0.211,0.789", "--m", "24", "--size", "65536", "--symbols", "20000", "--seed", "9"]

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
        assert out_path.read_bytes()[: 1000 * 9 // 8] == pack_symbols(expected.symbols, 300)

    @pytest.mark.parametrize("argv", [
        ["--p", "0.5,0.3,0.2", "--m", "8", "--size", "99", "--symbols", "1001", "--seed", "4"],
        ["--p", "0.211,0.789", "--m", "9", "--size", "64", "--symbols", "1003", "--seed", "5",
         "--format", "packed"],
        ["--p", "0.1,0.2,0.3,0.15,0.25", "--m", "8", "--size", "61", "--symbols", "999", "--seed", "6",
         "--format", "packed"],
        ["--p", ",".join([repr(1 / 300)] * 300), "--m", "10", "--size", "300", "--symbols", "1001",
         "--seed", "7", "--format", "packed"],
        ["--p", "0.5,0.3,0.2", "--m", "9", "--size", "99", "--symbols", "100000", "--bits-file", "{bits}"],
        ["--p", ",".join([repr(1 / 10)] * 10), "--m", "8", "--size", "91", "--symbols", "1001", "--seed", "8"],
        # 1005 symbols before the file runs out: the last line holds 45 digits
        ["--p", ",".join([repr(1 / 10)] * 10), "--m", "10", "--size", "190", "--symbols", "100000",
         "--bits-file", "{bits}", "--format", "text"],
        M24,
        M24 + ["--format", "packed"],
    ], ids=["text-D3", "packed-D2", "packed-D5", "packed-D300", "bits-file-exhausted", "text-D10",
            "text-bits-file-exhausted", "text-m24", "packed-m24"])
    def test_output_does_not_depend_on_chunk_size(self, capsys, tmp_path, monkeypatch, argv):
        bits = tmp_path / "bits.bin"
        bits.write_bytes(bytes((i * 151 + 7) % 256 for i in range(600)))
        argv = ["generate"] + [arg.format(bits=bits) for arg in argv]
        out = tmp_path / "default.out"
        expected = run(capsys, argv + ["--out", str(out)])
        assert expected[0] == (1 if "--bits-file" in argv else 0)
        for words in (1, 3, 64):
            monkeypatch.setattr(f2v, "STREAM_CHUNK_WORDS", words)
            chunked = tmp_path / f"{words}.out"
            assert run(capsys, argv + ["--out", str(chunked)]) == expected
            assert chunked.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("fmt", ["text", "packed"])
    def test_stdout_gets_the_bytes_of_out(self, capsysbinary, tmp_path, fmt):
        # text is written as memoryviews and packed output as uint64 arrays, to a file and to sys.stdout.buffer alike
        argv, path = ["generate", *self.M24, "--format", fmt], tmp_path / "sym"
        assert cli.main(argv + ["--out", str(path)]) == 0
        capsysbinary.readouterr()
        assert cli.main(argv) == 0
        assert capsysbinary.readouterr().out == path.read_bytes()

    @pytest.mark.parametrize("fmt", ["text", "packed"])
    def test_split_guide_buckets_match_encode_word(self, capsys, tmp_path, fmt):
        out = tmp_path / "sym"
        code, _, err = run(capsys, ["generate", *self.M24, "--format", fmt, "--out", str(out)])
        assert code == 0
        fields = dict(field.split("=") for field in err.split())
        symbols, words = int(fields["output_symbols"]), int(fields["input_bits"]) // 24
        data = np.frombuffer(out.read_bytes(), dtype=np.uint8)
        got = data[data != 10] - 48 if fmt == "text" else np.unpackbits(data)[:symbols]
        built = build_code(Pmf([0.211, 0.789]), 65536, 24)
        bits = served_bits(RandomBitSource(9), words * 24).reshape(words, 24).astype(np.int64)
        us = bits @ (1 << np.arange(23, -1, -1))
        idx = interval_map(built, us)
        marked = built.guide[us >> (24 - f2v.GUIDE_BITS)] == built.num_codewords - 1
        assert np.count_nonzero(marked & (idx != built.num_codewords - 1)) > 10  # words of split buckets
        leaves = paths(built.codebook)
        assert got.tolist() == [s for i in idx.tolist() for s in leaves[i]]

    @pytest.mark.parametrize("command, unpacks", [
        (["generate", "--format", "packed", "--out", "{tmp}/sym.bin"], False),
        (["validate", "--tv-threshold", "1"], False),
        (["generate", "--format", "text", "--out", "{tmp}/sym.txt"], True),
    ])
    def test_only_text_output_derives_the_table(self, capsys, tmp_path, command, unpacks):
        # packed output reads the codes as pieces, validate only counts codewords; only text output builds the table
        argv = [arg.format(tmp=tmp_path) for arg in command] + ["--p", "0.5,0.3,0.2", "--m", "12", "--size", "99",
                                                                "--symbols", "1000", "--seed", "1"]
        built, build = [], f2v.build_code

        def keep(*args):
            built.append(build(*args))
            return built[-1]

        with mock.patch.object(f2v, "build_code", keep), \
                mock.patch.object(codetree, "_unpack", wraps=codetree._unpack) as unpack:
            code, _, _ = run(capsys, argv)
        assert code == 0
        assert unpack.called == unpacks
        derived = {"pieces"} if "packed" in command else {"table"} if unpacks else set()
        assert set(vars(built[0].codebook)) & {"pieces", "table"} == derived

    def test_packed_peak_memory_is_bounded(self, capsys, tmp_path):
        # the benchmark's stream_packed code; holding the whole stream would
        # cost about 7 B per symbol
        argv = ["generate", "--p", "0.211,0.789", "--m", "12", "--size", "3072", "--symbols", "4000000",
                "--seed", "42", "--format", "packed", "--out", str(tmp_path / "sym.bin")]
        code, peak = traced_peak(argv)
        assert code == 0
        assert peak < 8 * 2**20

    def test_text_peak_memory_is_bounded(self, capsys, tmp_path):
        # the benchmark's stream_text code; formatting one Python str per
        # symbol would peak near 40 MB, and copying each chunk's symbols
        # with the carried line before formatting them peaks at 4.37 MiB
        argv = ["generate", "--p", "0.5,0.3,0.2", "--m", "16", "--size", "16385", "--symbols", "1000000",
                "--seed", "42", "--format", "text", "--out", str(tmp_path / "sym.txt")]
        code, peak = traced_peak(argv)
        assert code == 0
        assert peak < 4 * 2**20


def with_line_boundary_lengths(test):
    """Add explicit examples at the lengths where lines start and end: 0, 1, 63..65 and 128, 129."""
    for n in (0, 1, 63, 64, 65, 128, 129):
        test = example(digits=[(7 * i + 9) % 10 for i in range(n)])(test)
    return test


@pytest.mark.parametrize("d", range(2, 11))
@settings(max_examples=30)
@given(digits=st.lists(st.integers(0, 9), max_size=300))
@with_line_boundary_lengths
def test_text_lines_match_per_symbol_formatter(d, digits):
    symbols = np.asarray(digits, dtype=np.uint8) % d
    assert cli._text_lines(symbols) == digit_lines(symbols)


BINARY_CODE = build_code(Pmf([0.5, 0.5]), 2, 1)  # codeword i is the one symbol i


@given(st.lists(st.integers(0, 1), max_size=100))
def test_binary_symbols_pack_as_their_own_bits(bits):
    packed = np.frombuffer(pack_chunks(BINARY_CODE, [np.asarray(bits, dtype=np.int64)])[0], dtype=np.uint8)
    assert packed.size == -(-len(bits) // 8)
    assert np.unpackbits(packed).tolist() == bits + [0] * (8 * packed.size - len(bits))


class TestValidate:
    def test_expands_no_symbols(self, capsys, monkeypatch, tmp_path):
        # validate reads counts and packed output packs codeword indices; only text output reads symbols
        expand, reads = f2v.StreamResult.symbols.func, []
        monkeypatch.setattr(f2v.StreamResult, "symbols", property(lambda r: reads.append(r) or expand(r)))
        argv = ["--p", "0.211,0.789", "--m", "12", "--size", "3072", "--symbols", "100000", "--seed", "42"]
        assert run(capsys, ["validate", *argv, "--tv-threshold", "2"])[0] == 0
        assert run(capsys, ["generate", *argv, "--format", "packed", "--out", str(tmp_path / "sym.bin")])[0] == 0
        assert reads == []
        assert run(capsys, ["generate", *argv, "--out", str(tmp_path / "sym.txt")])[0] == 0
        assert reads

    def test_exhaustive_pass(self, capsys):
        code, out, _ = run(capsys, ["validate", "--p", "0.8,0.2", "--m", "3", "--size", "3",
                                    "--symbols", "20000", "--seed", "7", "--tv-threshold", "0.05"])
        assert code == 0
        assert [line.split("=")[0] for line in out.split()] == [
            "codewords", "output_symbols", "empirical_rate", "code_kl_bits", "tv_empirical_vs_code", "threshold", "PASS"]

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

    @pytest.mark.parametrize("data", [b"", bytes([0b00010100])], ids=["no-words", "two-words"])
    def test_bits_file_exhaustion(self, capsys, tmp_path, data):
        # the word count can be 0: the exhaustion check comes before the rate and TV divide by it
        bits = tmp_path / "short.bin"
        bits.write_bytes(data)
        argv = ["validate", "--p", "0.8,0.2", "--m", "3", "--size", "3", "--symbols", "100", "--bits-file", str(bits)]
        assert run(capsys, argv) == (1, "", "bit source exhausted before the requested symbol count\n")

    def test_alphabet_above_256(self, capsys):
        probs = ",".join([repr(1 / 300)] * 300)
        code, out, _ = run(capsys, ["validate", "--p", probs, "--m", "10", "--size", "300",
                                    "--symbols", "100000", "--seed", "1", "--tv-threshold", "0.1"])
        assert code == 0
        assert out.strip().endswith("PASS")


def exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class TestUsageErrors:
    GEN = ["generate", "--p", "0.8,0.2", "--m", "3", "--size", "3", "--symbols", "4"]
    HUGE = ["--p", "0.211,0.789", "--m", "12", "--size", "3072", "--seed", "1", "--symbols", str(10**400)]
    VAL = ["validate", "--p", "0.8,0.2", "--m", "3", "--size", "3", "--symbols", "5", "--seed", "1"]

    @pytest.mark.parametrize("argv", [
        ["curve", "--p", "0.5,0.5", "--m", "4", "--n-list", "2", "--schemes", "f2v,x2y"],
        ["curve", "--p", "0.5,0.5", "--m", "4"],
        ["curve", "--p", "0.211,0.789", "--m", "12", "--extra-size", "3072", "--schemes", "b2b"],
        ["curve", "--p", "0.211,0.789", "--m", "12", "--n-list", "3", "--extra-size", "3072", "--schemes", "b2b"],
        ["generate", "--p", "0.4,0.3,0.3", "--m", "4", "--size", "4", "--symbols", "4", "--seed", "1"],
        ["generate", "--p", "0.8,0.2", "--m", "3", "--size", "3", "--symbols", "0", "--seed", "1"],
        GEN,
        ["generate", "--p", ",".join([repr(1 / 12)] * 12), "--m", "6", "--size", "12", "--symbols", "21",
         "--seed", "1"],
        ["quantize", "--q", "0.5,0.4", "--M", "8"],
        ["generate", "--p", "0.8,0.2", "--m", "70", "--size", "3", "--symbols", "4", "--seed", "1"],
        GEN + ["--bits-file", "{missing}"],
        GEN + ["--seed", "1", "--out", "{missing}"],
        ["generate", *HUGE],
        ["validate", *HUGE],
        VAL + ["--tv-threshold", "nan"],
        VAL + ["--tv-threshold", "-1"],
        ["curve", "--p", "0.2,x", "--m", "4", "--n-list", "2"],
        ["curve", "--p", "0.5,0.5", "--m", "4", "--n-list", ""],
        ["curve", "--p", "0.5,0.5", "--m", "x", "--n-list", "2"],
        ["curve", "--m", "4", "--n-list", "2"],
        ["curve", "--p", "0.5,0.5", "--grid-table", "default", "--m", "6"],
        ["curve", "--p", "0.5,0.5", "--n-list", "2"],
    ], ids=["unknown-scheme", "no-sizes", "b2b-extra-size-only", "b2b-extra-size-with-n-list", "unreachable-size",
            "no-symbols", "no-seed", "text-above-ten", "bad-q", "m-70", "missing-bits-file", "unwritable-out",
            "symbols-beyond-float", "validate-symbols-beyond-float", "tv-threshold-nan", "tv-threshold-negative",
            "p-not-a-number", "empty-n-list", "m-not-an-integer", "missing-p", "grid-table-with-m", "no-m"])
    def test_one_error_line_and_exit_2(self, capsys, tmp_path, argv):
        missing = str(tmp_path / "no-such-dir" / "x")
        with pytest.raises(SystemExit) as exc:
            cli.main([arg.format(missing=missing) for arg in argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1

    @pytest.mark.parametrize("n_list", [[], ["--n-list", "3"]], ids=["alone", "with-n-list"])
    def test_extra_size_without_f2v_names_the_flag(self, capsys, n_list):
        # --extra-size sizes f2v codebooks only: with b2b alone it is refused, not asked for or dropped
        argv = ["curve", "--p", "0.211,0.789", "--m", "12", *n_list, "--extra-size", "3072", "--schemes", "b2b"]
        assert exit_code(argv) == 2
        assert capsys.readouterr().err == "error: --extra-size sets f2v codebook sizes, but --schemes has no f2v\n"

    def test_every_m_is_checked_before_any_build(self, capsys, monkeypatch):
        # m = 20 is valid and would be built first; m = 63 must fail before it is
        def refuse(*args):
            raise AssertionError("a codebook was built")

        monkeypatch.setattr(tunstall, "build_tunstall", refuse)
        assert exit_code(["curve", "--p", "0.211,0.789", "--m", "20", "--m", "63", "--n-list", "20",
                          "--schemes", "f2v"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: input length must be in [1, {f2v.MAX_INPUT_BITS}] bits\n"

    def test_every_block_length_is_checked_before_any_build(self, capsys, monkeypatch):
        # n = 20 is valid and would be built first, with 2^20 leaves; n = 21 must fail before it is
        def refuse(*args):
            raise AssertionError("a block code was built")

        monkeypatch.setattr(block, "build_block_code", refuse)
        assert exit_code(["curve", "--p", "0.211,0.789", "--m", "20", "--n-list", "20,21", "--schemes", "b2b"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: product codebook would have D^n = 2^21 leaves, "
                                     f"above the cap {codetree.MAX_PRODUCT_LEAVES}\n")

    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize("argv", [
        ["generate", "--p", "1.0", "--m", "4", "--size", "4", "--symbols", "10", "--seed", "1"],
        ["curve", "--p", "1.0", "--m", "4", "--n-list", "2", "--schemes", "f2v"],
    ], ids=["generate", "curve"])
    def test_single_symbol_alphabet(self, capsys, tmp_path, argv, to_file):
        out = tmp_path / "never.txt"
        assert exit_code(argv + ["--out", str(out)] * to_file) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "alphabet size must be at least 2" in err
        assert not out.exists() and not list(tmp_path.glob(".rescode-*"))

    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize("argv, d", [
        (["curve", "--p", "0.2,0.8", "--m", "12", "--n-list", "0", "--schemes", "f2v"], 2),
        (["generate", "--p", "0.2,0.3,0.5", "--m", "8", "--size", "2", "--symbols", "10", "--seed", "1"], 3),
    ], ids=["curve", "generate"])
    def test_size_below_the_alphabet_names_the_smallest_size(self, capsys, tmp_path, argv, d, to_file):
        out = tmp_path / "never.txt"
        assert exit_code(argv + ["--out", str(out)] * to_file) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"the smallest valid size is {d}" in err
        assert not out.exists()

    def test_invalid_size_names_the_largest_below(self, capsys, tmp_path):
        out = tmp_path / "never.txt"
        assert exit_code(["generate", "--p", "0.4,0.3,0.3", "--m", "14", "--size", "4096", "--symbols", "4",
                          "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: invalid codebook size 4096: must be 3 + k*(2) for some k >= 0; "
                                           "the largest below it is 4095\n")
        assert not out.exists() and not list(tmp_path.glob(".rescode-*"))  # atomic: nothing partial on failure

    @pytest.mark.parametrize("p, n", [("0.2,0.8", 20000), ("0.3,0.3,0.4", 100_000_000)])
    def test_product_cap_is_checked_without_the_power(self, capsys, p, n):
        start = time.perf_counter()
        assert exit_code(["curve", "--p", p, "--m", "12", "--n-list", str(n), "--schemes", "b2b"]) == 2
        assert time.perf_counter() - start < 5  # 3^(10^8) alone takes minutes
        err = capsys.readouterr().err
        assert f"D^n = {p.count(',') + 1}^{n} leaves" in err and f"cap {codetree.MAX_PRODUCT_LEAVES}" in err

    N_RANGE, N_CAP = f"must be in [0, {f2v.MAX_INPUT_BITS}]", f"above the cap {tunstall.MAX_LEAVES}"

    @pytest.mark.parametrize("argv, names", [
        (["curve", "--p", "0.3,0.7", "--m", "12", "--n-list", "2000", "--schemes", "f2v"], N_RANGE),
        (["curve", "--p", "0.3,0.3,0.4", "--m", "12", "--n-list", "100000"], N_RANGE),
        (["curve", "--p", "0.3,0.7", "--m", "12", "--n-list", "-1", "--schemes", "f2v"], N_RANGE),
        (["generate", "--p", "0.3,0.7", "--m", "12", "--size", str(10**20), "--symbols", "10", "--seed", "1"], N_CAP),
        (["generate", "--p", "0.3,0.7", "--m", "40", "--size", str(2**40), "--symbols", "10", "--seed", "1"], N_CAP),
        # a size no ternary tree reaches: the cap, with the size as requested, comes before the largest valid size
        (["generate", "--p", "0.3,0.3,0.4", "--m", "12", "--size", str(10**20), "--symbols", "10", "--seed", "1"],
         f"codebook size {10**20} is {N_CAP}"),
    ], ids=["curve-n-2000", "curve-n-100000", "curve-n-negative", "generate-1e20", "generate-2^40",
            "generate-ternary-1e20"])
    def test_sizes_are_capped_before_any_build(self, capsys, argv, names):
        start = time.perf_counter()
        assert exit_code(argv) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and names in err

    @pytest.mark.parametrize("argv", [
        ["generate", "--p", "0.8,0.2", "--m", "3", "--size", "3", "--symbols", "4", "--bits-file", "{missing}"],
        ["generate", "--p", "0.8,0.2", "--m", "3", "--size", "3", "--symbols", "4", "--seed", "1",
         "--out", "{missing}"],
        ["curve", "--p", "0.5,0.5", "--m", "4", "--n-list", "2", "--out", "{missing}"],
        ["validate", "--p", "0.8,0.2", "--m", "3", "--size", "3", "--symbols", "4", "--bits-file", "{missing}"],
        ["generate", "--p", "0.8,0.2", "--m", "3", "--size", "3", "--symbols", "4", "--seed", "1",
         "--out", "{file}/x"],
        ["curve", "--p", "0.5,0.5", "--m", "4", "--n-list", "2", "--out", "{file}/x"],
    ], ids=["bits-file", "generate-out", "curve-out", "validate-bits-file", "generate-out-under-a-file",
            "curve-out-under-a-file"])
    def test_bad_path(self, capsys, monkeypatch, tmp_path, argv):
        def refuse(*args):
            raise AssertionError("a code was built")

        for module, name in ((f2v, "build_code"), (block, "build_block_code"), (f2v, "stream")):
            monkeypatch.setattr(module, name, refuse)
        plain = tmp_path / "plain"
        plain.touch()
        argv = [arg.format(missing=tmp_path / "no-such-dir" / "x", file=plain) for arg in argv]
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        # the path the user gave (the last argument), not the writer's temporary file
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(argv[-1]) in err and ".rescode-" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["plain"]

    @pytest.mark.parametrize("slash", ["", "/"])
    @pytest.mark.parametrize("argv", [
        ["generate", "--p", "0.8,0.2", "--m", "3", "--size", "3", "--symbols", "4", "--seed", "1"],
        ["curve", "--p", "0.5,0.5", "--m", "4", "--n-list", "2"],
    ], ids=["generate", "curve"])
    def test_out_naming_a_directory(self, capsys, monkeypatch, tmp_path, argv, slash):
        def refuse(*args):
            raise AssertionError("a code was built or symbols were generated")

        for module, name in ((f2v, "build_code"), (block, "build_block_code"), (f2v, "stream")):
            monkeypatch.setattr(module, name, refuse)
        target = tmp_path / "dir"
        target.mkdir()
        assert exit_code(argv + ["--out", f"{target}{slash}"]) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(target) + slash!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["dir"] and not any(target.iterdir())

    @pytest.mark.parametrize("argv", [
        ["generate", "--p", "0.8,0.2", "--m", "3", "--size", "3", "--symbols", "4", "--seed", "1"],
        ["curve", "--p", "0.5,0.5", "--m", "4", "--n-list", "2"],
    ], ids=["generate", "curve"])
    def test_out_naming_a_fifo(self, capsys, monkeypatch, tmp_path, argv):
        # renaming the written file over the path would replace the FIFO; a device node would go the same way
        def refuse(*args):
            raise AssertionError("a code was built or symbols were generated")

        for module, name in ((f2v, "build_code"), (block, "build_block_code"), (f2v, "stream")):
            monkeypatch.setattr(module, name, refuse)
        fifo = tmp_path / "f"
        os.mkfifo(fifo)
        assert exit_code(argv + ["--out", str(fifo)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --out {str(fifo)!r} exists and is not a regular file\n"
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["f"]  # no .rescode-* file is left

    @pytest.mark.parametrize("source", [[], ["--bits-file", "{tmp}/missing"]], ids=["no-seed", "missing-bits-file"])
    def test_bit_source_is_checked_before_the_build(self, capsys, monkeypatch, tmp_path, source):
        def refuse(*args):
            raise AssertionError("a code was built")

        monkeypatch.setattr(f2v, "build_code", refuse)
        argv = ["generate", "--p", "0.211,0.789", "--m", "30", "--size", "1048576", "--symbols", "10", *source]
        assert exit_code([arg.format(tmp=tmp_path) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestQuantizeCommand:
    def test_prints_counts_and_kl(self, capsys):
        code, out, _ = run(capsys, ["quantize", "--q", "0.64,0.16,0.2", "--M", "8"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "counts=5,1,2"
        assert lines[1].startswith("kl_bits=0.0145792")

    def test_kl_is_never_negative(self, capsys):
        # at M = 2^62 the float sum of the divergence terms rounds to -3.2e-17
        code, out, _ = run(capsys, ["quantize", "--q", "0.64,0.16,0.2", "--M", str(2**62)])
        assert code == 0
        assert out.splitlines()[1] == "kl_bits=0.0"

    def test_bad_target_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["quantize", "--q", "0.5,0.4", "--M", "8"])
        assert exc.value.code == 2


def test_written_files_get_the_umask_mode(capsys, tmp_path):
    plain = tmp_path / "plain"
    open(plain, "w").close()
    curve, generated = tmp_path / "curve.csv", tmp_path / "sym.txt"
    run(capsys, ["curve", "--p", "0.5,0.5", "--m", "4", "--n-list", "2", "--out", str(curve)])
    run(capsys, TestGenerate.ARGS + ["--seed", "1", "--out", str(generated)])
    mode = stat.S_IMODE(plain.stat().st_mode)
    for path in (curve, generated):
        assert stat.S_IMODE(path.stat().st_mode) == mode, path
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curve.csv", "plain", "sym.txt"]


def test_console_exit_status():
    src = str(Path(rescode.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}

    def console(*argv):
        return subprocess.run([sys.executable, "-m", "rescode.cli", *argv], env=env, capture_output=True, text=True)

    error = console("quantize", "--q", "0.5,0.4", "--M", "8")
    assert error.returncode == 2 and error.stderr.startswith("error: ")
    done = console("quantize", "--q", "0.64,0.16,0.2", "--M", "8")
    assert done.returncode == 0 and done.stdout.startswith("counts=5,1,2\n")


def test_print_only_commands_run_on_a_text_stdout():
    # quantize and validate print text and write no bytes, so a stdout without a binary buffer serves them
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert cli.main(["quantize", "--q", "0.64,0.16,0.2", "--M", "8"]) == 0
    assert text.getvalue().startswith("counts=5,1,2\n")


TOO_BIG = "probabilities must be finite and in [0, 1 + 1e-09]"


@pytest.mark.parametrize("argv, error_line", [
    (["quantize", "--q", "1e308,1e308", "--M", "4"], f"error: {TOO_BIG}"),
    (["curve", "--p", "1e308,1e308", "--m", "4", "--n-list", "2"], f"error: argument --p: {TOO_BIG}"),
], ids=["q", "p"])
def test_huge_probabilities_fail_without_a_warning(argv, error_line):
    # the entries' sum overflows, so they are rejected before it is taken
    src = str(Path(rescode.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-m", "rescode.cli", *argv], env=env, capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stderr == error_line + "\n"


def test_import_leaves_the_process_pool_unloaded():
    src = str(Path(rescode.__file__).resolve().parent.parent)
    probe = "import sys, rescode.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("argv, allowed", [
    (["curve", "--p", "0.211,0.789", "--m", "8", "--n-list", "4,6", "--schemes", "f2v,b2b"], ()),
    (["generate", "--p", "0.211,0.789", "--m", "8", "--size", "16", "--symbols", "1000", "--seed", "1"],
     ("numpy.random",)),
], ids=["curve", "generate"])
def test_commands_import_no_numpy_module_they_do_not_need(argv, allowed):
    # a numpy submodule imported on first use (numpy.ma, which np.unique without return_inverse reaches through
    # np.ma.is_masked, for one) costs milliseconds inside every command; only the seeded bit source needs one
    src = str(Path(rescode.__file__).resolve().parent.parent)
    probe = ("import contextlib, io, sys\nfrom rescode import cli\nbefore = set(sys.modules)\n"
             "with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), "
             f"contextlib.redirect_stderr(io.StringIO()):\n    cli.main({argv!r})\n"
             "print(' '.join(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'numpy')))")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert [m for m in result.stdout.split() if not any(m == a or m.startswith(a + ".") for a in allowed)] == []
