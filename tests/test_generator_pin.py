"""Pins the synthetic generator's draw order with stream digests.

Every profile under two seeds is generated in the two shapes the
simulator consumes: one ``operations(n)`` call, and a warmup/measured
split whose first call ends right after a compute block (the access in
flight there is dropped, and the measured call starts on a fresh draw).
The sha256 of each stream was recorded before the generator was
rewritten, so any change to what is drawn, or in which order, fails
here.  The streams are long enough to cross the chunk boundaries of a
streaming ``operations`` call.
"""

import hashlib

import pytest

from repro.fastsim import ColumnarTrace, ColumnarTraceStore
from repro.trace.format import ComputeBlock
from repro.workloads import SyntheticTraceGenerator, get_profile, profile_names

NUM_OPS = 9000

# (profile, seed, warmup ops ending on a compute block,
#  digest of operations(NUM_OPS),
#  digest of operations(warmup) + operations(NUM_OPS))
PINNED = [
    ("mcf_like", 1, 302,
     "1b6dbb15c078bbf581eca14d8d6dcc863e2d2f79838cb3acf9bdac21827302ac",
     "924a6c9ac2891b2acf7d849547808b55dced98cdf75af1680664415ed2be9e11"),
    ("mcf_like", 7, 302,
     "6992b7c177a2391931f3a14e158e00f2259881397cacfee3113e04d3ede07f8d",
     "b747be91d11a97424b913f36cb80799081a68517390610148772515c63d85204"),
    ("gems_like", 1, 301,
     "7fef37edd068679a393ac446b8619cc9021d44e0ec0440f03a06aebc251aaac0",
     "995abc4bc2541b5f24fe93bf34e35aa46a1bc8761b688ece4bfd977b26644960"),
    ("gems_like", 7, 301,
     "759cfbbc347fd84ed643427060e18fdb2f958cbdac6c8e1c162611214fea1185",
     "b2b80b0d0bc1c2985da8b48fcfe187f956275609db786ae1ceb9860800433718"),
    ("libquantum_like", 1, 301,
     "4f930a4d12211dd2f91ab0b53c4ff9e7ff99eaefa13e5c20b8e276953d377ac5",
     "d58afc10405d2a1667eb13904fa5f82c8bf40490414d7dbe136d0211f3591035"),
    ("libquantum_like", 7, 301,
     "0b0b8407307432081b0ef415a6bc1848c4dd87990782b6ff0e820ea366633ddd",
     "fbfdf165093192e398fcaff1b35f6e72b7fe2635457e0da22755a81db807341e"),
    ("lbm_like", 1, 301,
     "e52f7467ba1ce8252788ef113981d8d0e1030ff416bd448fab579318e207bec5",
     "7772b234713a7921444d158cefb433abfb7dde8fc3640cbe4c292b491a55d294"),
    ("lbm_like", 7, 302,
     "d0e42375f8ffacf30996cd3499577e9fa0f6794e3c5390b05b5a6f989d45a855",
     "c741c8cc0545e295e1a9e9cc3fed9acc565548ceff38e09aaa0dd1512df6ac47"),
    ("milc_like", 1, 301,
     "c48e58f5dc878f604eeca386b024baf6905050faa19332f823c0977e0d182a3e",
     "faacdb446352891de6001e77a282d108576138e1f7e7115aefac97ee18f42d24"),
    ("milc_like", 7, 302,
     "a086ef7433d2850e19c42277ff5ef83ae5498fbdf27b3bfdd77b3cf5a408c8fc",
     "9ea6606cbb830758036bf50909f2a016fa89f3c2323cc6b5413363648f397b00"),
    ("soplex_like", 1, 301,
     "eacaa420440bb12120df61a6bdf40016fd4fa498c665508f042c77da36353f0c",
     "159623c2a2ac1a007db4caeac28f42f8fd9c3d312cb69f14654d93df77b22901"),
    ("soplex_like", 7, 301,
     "a49b37622db217a73c07a9230d21272d1d37b481a41facabd56322f6d42d1f1e",
     "06695f13237f5a7534283d14adfbde8e90c2a7c2f78c4c92f70228aa0cf3b420"),
    ("gcc_like", 1, 302,
     "e236078fada6818e37831ca50fb739b8c14bdb7b412bbd6857cc4d0806a3704e",
     "002cbbb6b011e7fccf25a1186e988608bf7cbfe9cdb7011fac5c41d5756d5661"),
    ("gcc_like", 7, 301,
     "317a6fa1679d463521015787da2c786f107b57fffe631fef8aea8d507210c3c1",
     "757202053ebfae19aa4832a09ca37a8698ae6ada1e1692f98f32c0f973d1ab10"),
    ("astar_like", 1, 301,
     "9f666c7d77faa4448183df2f1ddcc15709a9595fd523b5eaff55838918477aae",
     "00603841a7cb4416b6c1a32e16eb9da74fe655e464d9c5f0aa327fb66d10f386"),
    ("astar_like", 7, 302,
     "0b3efd53d04a5b0addef0e10bfe61bd86d57f598c36762a16267839bb10490c5",
     "7bc8a444b89622b0a95581ccfb70f8361f2cbf26e653afa32634c66b5a491b22"),
    ("omnetpp_like", 1, 302,
     "bfd93aa6eb535009f253936fee2b48c3a29611f97cab9a06712f90ea646f82a6",
     "65e6a821bc4d6bc8a74c46d9139275e3229e6eccc5c13ced8307fadeb7c95ed7"),
    ("omnetpp_like", 7, 303,
     "6afe548863f53bf857973f082427213335b383a30281a5497f0707ad132f4d90",
     "dd660768d92d19e2ef5d461bd2c18ca11b7dbb4e7c42955a7edfc550a842800a"),
    ("bzip2_like", 1, 302,
     "7cffe7c316b693401d5c9330d8e67a51e5a6ccbc030ce770c27384942660bf74",
     "7af41cd9c0f7e44b3cbbb5e866da3bf6c6397d33516f51d3bc7cd46df9bd847f"),
    ("bzip2_like", 7, 301,
     "e3038bde274c3439da9dfe199c652e7b543cbf880cd3d66031e61704e3e23d02",
     "6c4345f8398cdecff06f6a51073db82cf6f31a600e8c61729c620b36d90b8f03"),
    ("sjeng_like", 1, 302,
     "ca5f943a3d8a2b06ba9252f0abd2fe59ae597bd1974329859f8ecb94553c2079",
     "e9773c3afd85542e0ab5f5905c9a80b5335ca5bf3c589b1097cb9dfec4acfe68"),
    ("sjeng_like", 7, 302,
     "d895e9cb8803ac8205e84b45d155522e87e2d55e2de81d6130b6566ae2ac9a30",
     "2822089a5b13e90b447f75d05f6d0e132c82bbaf2ac0a49e4fe09d52ab2f7b44"),
    ("hmmer_like", 1, 302,
     "6b3ea1fadb0eb70c6046b0812f5c01782ba5139b998d4d45305f6e6bd985e6c7",
     "43f7fbcadfb8f084d067d2b31ab53bbc48f6c7d8b84ccd6e4135aaea45bcd612"),
    ("hmmer_like", 7, 301,
     "79ffefade611fdadcbd5837dee2cd94ffebb95db914d69dad0c155afa5ff56a9",
     "48853516e817145b2b7e2e0bf9d964a0b3a8b99bd2f19694be924d549664995f"),
    ("perlbench_like", 1, 302,
     "e2682a8f7e4971049fe7ac1aa95c9f3210d0ec9a4edbff5a26476c07ac95bf31",
     "16d61ff789c42b6aa16d3788a174e6e665a4e22cbfed06be4babc40de4356110"),
    ("perlbench_like", 7, 303,
     "6276e48af1cb623e7ad34d749dff510d7126e12d68758ed5e11a359454db12be",
     "c0bfebba9e0c04bfc304b6dbc0e828842ca53cbb495f2ded7dda2b22398f5f26"),
    ("povray_like", 1, 302,
     "2e8518142e8b40daf19141ec151e20ccf2dbb8ad52c025c2e034b0b02a1e8604",
     "a4c38ee7fc924406e75c13dc5f40ddf88e5bae602a5deceec4ee2c94eff7e601"),
    ("povray_like", 7, 302,
     "c49975a09f0a181d6e57a9606358f9690b00fc8fc2996a757d7a0f40a3c7a155",
     "46c17dae263bfa8c1f872ab257300d3be49f49f8233b933ad41b00a933aa27b7"),
]

COLUMNS = ("addresses", "pcs", "write_flags", "dependent_flags",
           "block_instructions", "block_bounds", "num_memory_ops",
           "num_blocks", "num_ops", "total_block_instructions")


def stream_digest(ops):
    digest = hashlib.sha256()
    for op in ops:
        if type(op) is ComputeBlock:
            digest.update(b"C%d;" % op.instructions)
        else:
            digest.update(b"M%d,%d,%d,%d;" % (op.address, op.pc, op.is_write,
                                               op.dependent))
    return digest.hexdigest()


def split_streams(profile, seed, warmup_ops):
    generator = SyntheticTraceGenerator(get_profile(profile), seed=seed)
    return (list(generator.operations(warmup_ops)),
            list(generator.operations(NUM_OPS)))


def assert_same_columns(actual, expected):
    for name in COLUMNS:
        assert getattr(actual, name) == getattr(expected, name), name


def test_every_profile_is_pinned():
    assert sorted({profile for profile, *_ in PINNED}) == sorted(profile_names())


@pytest.mark.parametrize("profile,seed,warmup_ops,single,split", PINNED)
def test_single_call_stream(profile, seed, warmup_ops, single, split):
    generator = SyntheticTraceGenerator(get_profile(profile), seed=seed)
    assert stream_digest(generator.operations(NUM_OPS)) == single


@pytest.mark.parametrize("profile,seed,warmup_ops,single,split", PINNED)
def test_warmup_measured_split(profile, seed, warmup_ops, single, split):
    warm, measured = split_streams(profile, seed, warmup_ops)
    assert len(warm) == warmup_ops and len(measured) == NUM_OPS
    assert type(warm[-1]) is ComputeBlock  # the shape this case pins
    assert stream_digest(warm + measured) == split


@pytest.mark.parametrize("profile,seed,warmup_ops", [
    (profile, seed, warmup_ops)
    for profile, seed, warmup_ops, _, _ in PINNED if seed == 1])
def test_store_pairs_equal_ingested_streams(profile, seed, warmup_ops):
    warm_ops, measured_ops = split_streams(profile, seed, warmup_ops)
    warm, measured = ColumnarTraceStore().traces(
        profile, NUM_OPS, seed=seed, warmup_ops=warmup_ops)
    assert_same_columns(warm, ColumnarTrace(warm_ops))
    assert_same_columns(measured, ColumnarTrace(measured_ops))
