import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from onebitcs import cli, expander, harness, serialize
from onebitcs import partition_sketch as ps

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    return cli.main(list(argv))


def run_fresh(*argv) -> subprocess.CompletedProcess:
    """``python argv...`` in a fresh process that imports onebitcs from this checkout."""
    return subprocess.run(
        [sys.executable, *argv], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )


class TestFreshProcess:
    @pytest.mark.parametrize("argv", [("-c", "import onebitcs"), ("-m", "onebitcs.cli", "--help")])
    def test_loads_no_scipy_stats(self, argv):
        # -X importtime lists every module the process imports on stderr
        done = run_fresh("-X", "importtime", *argv)
        assert done.returncode == 0, done.stderr
        modules = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
        assert {"onebitcs.partition_sketch", "scipy.special"} <= modules
        assert not [m for m in modules if m == "scipy.stats" or m.startswith("scipy.stats.")]

    def test_encode_and_decode_of_a_pipeline_file_write_no_stderr(self, tmp_path):
        sig = tmp_path / "signal.txt"
        sig.write_text("".join(f"{v!r}\n" for v in [0.0] * 500 + [1.0, -0.5] + [0.01] * 10))
        bits, out = tmp_path / "m.bits", tmp_path / "rec.csv"
        for argv in (
            ("encode", "--scheme", "pipeline", "--signal", str(sig), "--k", "2",
             "--b", "4", "--mg", "400", "--out", str(bits)),
            ("decode", "--bits", str(bits), "--out", str(out)),
        ):
            done = run_fresh("-m", "onebitcs.cli", *argv)
            assert done.returncode == 0 and done.stderr == "", done.stderr
        assert out.read_text().startswith("# index,value\n500,")


class TestExperiment:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = run_cli(
            "experiment", "--scheme", "ppcs", "--n", "256", "--k", "2",
            "--trials", "4", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        records = harness.parse_report(str(out))
        assert len(records) == 4

    def test_stdout_without_out(self, capsys):
        code = run_cli(
            "experiment", "--scheme", "ppcs", "--n", "256", "--k", "2",
            "--trials", "2", "--seed", "3",
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "trial_id,scheme" in captured.out

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scheme=ppcs\nn=256\nk=2\ntrials=2\nseed=5\n")
        out = tmp_path / "r.csv"
        code = run_cli(
            "experiment", "--config", str(cfg), "--trials", "3", "--out", str(out)
        )
        assert code == 0
        assert len(harness.parse_report(str(out))) == 3


class TestEncodeDecode:
    @pytest.mark.parametrize("scheme", ["ppcs", "btree", "expander", "heavy-hitters", "pipeline"])
    def test_offline_round_trip(self, tmp_path, scheme, capsys):
        n, k = 256, 2
        rng = np.random.default_rng(9)
        x = np.zeros(n)
        sup = rng.choice(n, size=k, replace=False)
        x[sup] = rng.choice([-1.0, 1.0], size=k) / math.sqrt(k)
        sig = tmp_path / "signal.txt"
        sig.write_text("".join(f"{float(v)!r}\n" for v in x))
        bits = tmp_path / "m.bits"
        out = tmp_path / "rec.csv"
        assert run_cli(
            "encode", "--scheme", scheme, "--signal", str(sig), "--out", str(bits),
            "--k", str(k), "--delta", "0.05", "--b", "4", "--mg", "600",
            "--seed", "17",
        ) == 0
        assert run_cli("decode", "--bits", str(bits), "--out", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        if scheme == "pipeline":
            found = {int(l.split(",")[0]) for l in lines}
        elif scheme == "ppcs":
            parts = {int(l) for l in lines}
            width = -(-n // min(n, harness.PARTS_PER_SPARSITY * k))
            found = set()
            for p in parts:
                found.update(range(p * width, min((p + 1) * width, n)))
        else:
            found = {int(l) for l in lines}
        assert set(sup.tolist()) <= found


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert run_cli("selftest", "--seed", "7") == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert out.count("[PASS]") == 5


class TestBadInput:
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_encode_rejects_non_finite_signal(self, tmp_path, capsys, bad):
        sig = tmp_path / "signal.txt"
        sig.write_text(f"0.5\n{bad}\n-1.0\n0.0\n")
        bits = tmp_path / "m.bits"
        code = run_cli("encode", "--scheme", "btree", "--signal", str(sig),
                       "--out", str(bits), "--k", "1", "--b", "2")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("onebitcs: error:") and "non-finite" in err
        assert err.count("\n") == 1
        assert not bits.exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_encode_rejects_a_non_finite_noise_sigma(self, tmp_path, capsys, sigma):
        sig = tmp_path / "signal.txt"
        sig.write_text("0.5\n-1.0\n0.0\n0.25\n" * 64)
        bits = tmp_path / "m.bits"
        code = run_cli("encode", "--scheme", "pipeline", "--signal", str(sig),
                       "--out", str(bits), "--k", "2", "--sigma", sigma)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("onebitcs: error:") and "noise_sigma" in err
        assert err.count("\n") == 1
        assert not bits.exists()

    def test_decode_rejects_malformed_bits_file(self, tmp_path, capsys):
        bits = tmp_path / "m.bits"
        bits.write_bytes(b"onebitcs-bits v2 ppcs\n{\"scheme\": \"ppcs\"}\n")
        assert run_cli("decode", "--bits", str(bits)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("onebitcs: error:")
        assert captured.err.count("\n") == 1

    def test_decode_rejects_ill_typed_header(self, tmp_path, capsys):
        schema = expander.build_schema(256, 2, seed=3)
        bits = tmp_path / "m.bits"
        serialize.save(str(bits), schema, expander.measure(schema, np.zeros(256)))
        scheme, header, blocks = serialize.read_blocks(str(bits))
        serialize.write_blocks(str(bits), scheme, {**header, "degree": "3"}, blocks)
        assert run_cli("decode", "--bits", str(bits)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("onebitcs: error:") and "'degree'" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("field", ["bucket_factor", "rep_factor", "cap_factor"])
    def test_decode_rejects_a_zero_constant(self, tmp_path, capsys, field):
        schema = ps.build_schema(ps.PartitionFamily.contiguous(256, 32), 2, 0.1, seed=3)
        bits = tmp_path / "m.bits"
        serialize.save(str(bits), schema, ps.measure(schema, np.zeros(256)))
        scheme, header, blocks = serialize.read_blocks(str(bits))
        constants = {**header["constants"], field: 0}
        serialize.write_blocks(str(bits), scheme, {**header, "constants": constants}, blocks)
        assert run_cli("decode", "--bits", str(bits)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("onebitcs: error:") and field in captured.err
        assert captured.err.count("\n") == 1

    def test_decode_rejects_an_impossible_sign_pair(self, tmp_path, capsys):
        schema = ps.build_schema(ps.PartitionFamily.contiguous(256, 32), 2, 0.1, seed=3)
        bits = tmp_path / "m.bits"
        serialize.save(str(bits), schema, ps.measure(schema, np.zeros(256)))
        scheme, header, blocks = serialize.read_blocks(str(bits))
        serialize.write_blocks(str(bits), scheme, header, [bytes(1) + blocks[0][1:]])
        assert run_cli("decode", "--bits", str(bits)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("onebitcs: error:") and "(-1, -1)" in captured.err
        assert captured.err.count("\n") == 1
