"""Every scheme through the harness and the CLI, pinned by digest.

The digests were recorded before the schemes were put behind one table, so
they check that the table reproduces the earlier per-scheme code byte for
byte: the harness CSV rows, the bits files and the decoded outputs.  The
b-tree's sparse-plus-tail report and its file digests were re-recorded when
its levels began to share one gaussian draw, which changes its bits, and
its bits-file digest again when its header gained the levels' ``widths``
(the bits and the decoded output stayed the same).
"""

import argparse
import hashlib

import numpy as np
import pytest

from oracles import sparse_unit

from onebitcs import partition_sketch as ps
from onebitcs import btree, cli, expander, harness, heavy_hitters, recovery, serialize, signals
from onebitcs.prf import RandomSource

# scheme -> small experiment; k = 12 at n = 2^10 buckets the heavy hitters
EXPERIMENTS = {
    "ppq": dict(n=256, k=2),
    "ppcs": dict(n=256, k=2),
    "btree": dict(n=256, k=2, b=4),
    "expander": dict(n=1 << 10, k=2),
    "heavy-hitters": dict(n=1 << 10, k=12),
    "pipeline": dict(n=256, k=2, delta=0.4, mg=600),
}

# (scheme, signal model) -> sha256 of the CSV without its config comment
REPORT_DIGESTS = {
    ('ppq', 'exact-sparse'): '297d2fb8820f877f5881b593054526ffc2cbb7213103b13be431a4becae6d697',
    ('ppq', 'sparse-plus-tail'): '305a2886d218d2169d24a511946ba4f1947839d77175407a002955ba6a68220f',
    ('ppcs', 'exact-sparse'): 'a900b6d8f2fa26cbd728b5cf16ba3f01ebceb01509603624779d65d926cf4777',
    ('ppcs', 'sparse-plus-tail'): 'dc5281dba85cf6795108393142a94466affcf99ef1828b5859f9ce1b895082c5',
    ('btree', 'exact-sparse'): 'c58cf53bbca9d2eee79b60e9032685d2ba1d29ec1d85eaf225c6956453eb744e',
    ('btree', 'sparse-plus-tail'): 'dc176937c852651573c8523c6b332751cd8dcc6ce792f67d46c025002fa6f0a3',
    ('expander', 'exact-sparse'): 'f7a6f313df3fd0f53ceb8a7f83510b1b4677889a606a4d7d9c3406dc63107557',
    ('expander', 'sparse-plus-tail'): '8a57a6d5f08e8a0e8aeb7ca485bd0cdc24a8980e8f9f3a6f370396f9e276f361',
    ('heavy-hitters', 'exact-sparse'): 'cdde39f56865a73b77e1419ddd8ede67142e98dfc3e022eaa332289167471f34',
    ('heavy-hitters', 'sparse-plus-tail'): '82808afdaf321ecb54a209c8980b0ac521a6862770c1dac0bca894fa399a4ff7',
    ('pipeline', 'exact-sparse'): '439ad16c1904053044f862d8ad6fd4b6b807035e49907fb665d2cb19efe3cfb4',
    ('pipeline', 'sparse-plus-tail'): '51036f0a081a2e86a0cf6709704d4c79e1898ca3233fff894a9bba7529fa8993',
}

# scheme -> (sha256 of the bits file, sha256 of the decoded output)
FILE_DIGESTS = {
    'ppcs': (
        'd6028f18b3bfa46dd0a7bb5bcd795f1f20bfe1da60c7ffe25476c5a81f7418d9',
        '90833e86c904454d76d91502c5cd200029e41e1e3c2230251e67f81789d74e5b',
    ),
    'btree': (
        '5e5cd54bc71da6828ecc9554b90b95eead27328196f3fe7974990810ca8f323f',
        '32e665153c9deca2905f821bf186c7ccbc7d9256cf98930bbc2d2633e972dd8b',
    ),
    'expander': (
        '5db5331c217525f5cbd483c35faee086e77bc422e6350c0657ba5ac1cbd97bd9',
        '4cb8af919316feb0d1ab08d11f4dc1939a8aa0abc5bfea1f787187a78ea64fb7',
    ),
    'heavy-hitters': (
        '46a4e8e9562f9119e71f002b56f3b2991b26030117b44b84562cd27e77420f73',
        '4cb8af919316feb0d1ab08d11f4dc1939a8aa0abc5bfea1f787187a78ea64fb7',
    ),
    'pipeline': (
        '9d04b740f0bff2d0ad48bce1fdb435e48349961626293b81f27140164f1d2f86',
        'fa7191b428679a5ca9fa9f509c3dd4ef1e20d8f4a5bf7fc4b061f6b924e7c9a9',
    ),
}


def sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


@pytest.mark.parametrize("scheme", list(EXPERIMENTS))
@pytest.mark.parametrize("model", [signals.EXACT_SPARSE, signals.SPARSE_PLUS_TAIL])
def test_report_digest(scheme, model):
    config = harness.ExperimentConfig(
        scheme=scheme, model=model, trials=3, seed=5, **EXPERIMENTS[scheme]
    )
    report = harness.render_report(harness.run_experiment(config))
    assert sha256(report) == REPORT_DIGESTS[scheme, model]


@pytest.fixture(scope="module")
def signal_file(tmp_path_factory):
    x = signals.gen_signal(signals.SPARSE_PLUS_TAIL, 512, 2, RandomSource(8))
    path = tmp_path_factory.mktemp("signal") / "signal.txt"
    path.write_text("".join(f"{float(v)!r}\n" for v in x))
    return path


@pytest.mark.parametrize("scheme", ["ppcs", "btree", "expander", "heavy-hitters", "pipeline"])
def test_file_digests(tmp_path, signal_file, scheme, capsys):
    bits, out = tmp_path / "m.bits", tmp_path / "m.out"
    assert cli.main([
        "encode", "--scheme", scheme, "--signal", str(signal_file), "--out", str(bits),
        "--k", "2", "--delta", "0.1", "--b", "4", "--mg", "400", "--seed", "5",
    ]) == 0
    assert cli.main(["decode", "--bits", str(bits), "--out", str(out)]) == 0
    assert bits.read_bytes().startswith(f"{serialize.MAGIC} {scheme}\n".encode())
    assert (sha256(bits.read_bytes()), sha256(out.read_text())) == FILE_DIGESTS[scheme]


def test_harness_cli_and_files_name_the_same_schemes():
    parser = cli.build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices

    def scheme_choices(command):
        return set(next(a for a in commands[command]._actions if a.dest == "scheme").choices)

    # every scheme with a file layout is encodable and has pinned file digests
    file_schemes = {name for name, scheme in harness.SCHEMES.items() if scheme.layout}
    assert scheme_choices("experiment") == set(harness.SCHEMES)
    assert scheme_choices("encode") == file_schemes == set(FILE_DIGESTS)


@pytest.mark.parametrize("model", [signals.EXACT_SPARSE, signals.SPARSE_PLUS_TAIL])
@pytest.mark.parametrize("scheme", [name for name, s in harness.SCHEMES.items() if s.layout])
def test_positive_scaling_keeps_the_bits(scheme, model):
    # sign measurements see x only up to a positive scale; x * 4 and x / 4
    # are exact in floating point, and the pipeline's noise_sigma is 0
    steps = harness.SCHEMES[scheme]
    schema = build(scheme, 9)
    x = signals.gen_signal(model, schema.n, EXPERIMENTS[scheme]["k"], RandomSource(9))
    want = serialize._blocks(steps.measure(schema, x))
    for scale in (4.0, 0.25):
        assert serialize._blocks(steps.measure(schema, x * scale)) == want, scale


def build(scheme, seed):
    """The scheme's schema for its small experiment, built from ``seed``."""
    config = harness.ExperimentConfig(scheme=scheme, **EXPERIMENTS[scheme])
    return harness.SCHEMES[scheme].build(config, config.n, seed)


@pytest.mark.parametrize("seed", [2.7, np.float64(2.0), True])
@pytest.mark.parametrize("scheme", list(harness.SCHEMES))
def test_build_rejects_a_seed_that_is_not_an_integer(scheme, seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        build(scheme, seed)


@pytest.mark.parametrize("scheme", list(FILE_DIGESTS))
def test_numpy_integer_seed_round_trips_through_a_file(tmp_path, scheme):
    steps = harness.SCHEMES[scheme]
    schema = build(scheme, np.int64(5))
    assert type(schema.seed) is int
    path = tmp_path / "m.bits"
    x, _ = sparse_unit(schema.n, 2, 6)
    serialize.save(str(path), schema, steps.measure(schema, x))
    _, loaded, _ = serialize.load_measurement(str(path))
    assert steps.header(loaded) == steps.header(build(scheme, 5))


def wrong_bits(entry):
    """A decoder entry point called with bits of the wrong type: arrays or
    tuples where it takes the bits dataclasses, or an int where it takes a
    list of them."""
    x, _ = sparse_unit(256, 2, 7)
    if entry == "count_sketch_decode":
        schema = ps.build_schema(ps.PartitionFamily.contiguous(256, 16), 2, 0.1, seed=1)
        return ps.count_sketch_decode(schema, ps.measure(schema, x).bits)
    if entry.startswith("btree.decode"):
        schema = btree.build_schema(256, 2, 4, 0.1, seed=1)
        if entry == "btree.decode(5)":
            return btree.decode(schema, 5)
        return btree.decode(schema, [b.bits for b in btree.measure(schema, x)])
    if entry == "heavy_hitters.decode(5)":
        return heavy_hitters.decode(heavy_hitters.build_schema(256, 2, seed=1), 5)
    if entry.startswith("recovery.decode"):
        schema = recovery.build_pipeline(256, 2, 0.4, seed=1, gauss_rows=64)
        bits = recovery.measure(schema, x)
        if entry == "recovery.decode(support_bits=5)":
            return recovery.decode(schema, recovery.PipelineBits(5, bits.sign_bits))
        return recovery.decode(schema, (bits.support_bits, bits.sign_bits))
    schema = expander.build_schema(256, 2, seed=1)
    if entry == "recover(5)":
        return expander.recover(schema, 5)
    bits = expander.measure(schema, x)
    if entry == "layer_decode":
        return expander.layer_decode(schema, 0, (bits[0].heavy, bits[0].check))
    return expander.recover(schema, [layer.heavy.bits for layer in bits])


@pytest.mark.parametrize("entry", [
    "count_sketch_decode", "btree.decode", "btree.decode(5)", "heavy_hitters.decode(5)",
    "layer_decode", "recover", "recover(5)", "recovery.decode",
    "recovery.decode(support_bits=5)",
])
def test_decoders_reject_bits_of_the_wrong_type(entry):
    with pytest.raises(ValueError, match="bits must be"):
        wrong_bits(entry)
