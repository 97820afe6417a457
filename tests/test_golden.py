"""Golden circuit hashes: synthesis output must stay gate-for-gate identical.

Each hash is the sha256 of ``repr((gates, permutation.mapping,
emitted_order))`` with every gate as ``(kind, qubits, angle)``, for
``random_polynomial(RandomSpec(q, 30, seed=seed))`` on the topology.  A
refactor that changes any of them changes the compiled circuits; a change
that does so on purpose must say why and re-record the table.  grid:4x4 and
cycle:8 are there because pivot selection sees many candidates only at such
sizes.
"""

import hashlib

import pytest

import paulisynth as ps

GOLDEN = {
    ("line:4", 1, "arbitrary", True): "91872633a4f1189d426d6228ec6b621974287570751bee626bba8436949a7d61",
    ("line:4", 1, "arbitrary", False): "91872633a4f1189d426d6228ec6b621974287570751bee626bba8436949a7d61",
    ("line:4", 1, "commuting-sets", True): "51bfa621a3daed69cd90ea2ce5f2863d9bc0cbebc41c57833564d6c854a22293",
    ("line:4", 1, "commuting-sets", False): "51bfa621a3daed69cd90ea2ce5f2863d9bc0cbebc41c57833564d6c854a22293",
    ("line:4", 1, "naive", None): "0f65d438a98f06d107491d28ec69ae284d352032c3c50771688afa598037fa85",
    ("line:4", 2, "arbitrary", True): "1d35339739b963523134e9cdabb26429af2e3decc2b4ea5d30d95b24f0b98d47",
    ("line:4", 2, "arbitrary", False): "7a8312f1abe38a73e80be1e1686435e81f2ffa489ad8bd786e3c821f1030af06",
    ("line:4", 2, "commuting-sets", True): "3ba77b53d5299d59b30075804c1fb9f0e8e97144b3c806b2d4ffd293faa1b68e",
    ("line:4", 2, "commuting-sets", False): "6109dd94d18ed17b12acbf57fcb0018df02e9bb68ccfa829c57fd0ab34d3baca",
    ("line:4", 2, "naive", None): "b3463c3de83fc8c4829d63b73f590ad5aec5dfab75044ba71731ec274c121219",
    ("line:4", 3, "arbitrary", True): "adffde2e712576f6bcb7ec09c24648a30484817a815e5aec9faec0e5c60a1241",
    ("line:4", 3, "arbitrary", False): "d8c95b5db72f8d9508303c900ce634782131e6c520729eba3ca4b7c4ab55d1dc",
    ("line:4", 3, "commuting-sets", True): "e0e4dfdbf71a82358a1df96a359f882bff5ecd874a4ff60be72797972fe6e812",
    ("line:4", 3, "commuting-sets", False): "e0e4dfdbf71a82358a1df96a359f882bff5ecd874a4ff60be72797972fe6e812",
    ("line:4", 3, "naive", None): "c3f185a8f20554676281faa52bb1d57f651970846f535568b0e6821de58b452a",
    ("cycle:5", 1, "arbitrary", True): "0aaca1c6cdb3f18390c39c233452f4c8f3ae6a8f082e6f577916adac252c6b9c",
    ("cycle:5", 1, "arbitrary", False): "d7b0f4a7ab7f94f1eb44c638e090b75eff03d1bb8b461630bf64061fe13f5b2f",
    ("cycle:5", 1, "commuting-sets", True): "89b13ebe825ed589afd331f30a2a46e0f61623f7dfbe48ed2f92823c0e07864b",
    ("cycle:5", 1, "commuting-sets", False): "df67af7f08e16c36a1308e3382346ff8866e337d63b71ada369b23b854c2bce5",
    ("cycle:5", 1, "naive", None): "efe4b6c77fa7e8247f999db8aa80ae74f119f370d6f8ed33970e7fb5098a242e",
    ("cycle:5", 2, "arbitrary", True): "c919920462dec1ea55af2d424d69b1fc9948e0dd1eb39ff905792adddeda8f3e",
    ("cycle:5", 2, "arbitrary", False): "bc1103dd6ebfcb85d1fe5f14e5bc6705f0a8f297da05a809bf8ba33e8a9c41eb",
    ("cycle:5", 2, "commuting-sets", True): "253ee6abb178add6ac3dea776b43e84d03db29abe2cb9f9f537ff4c819356ee9",
    ("cycle:5", 2, "commuting-sets", False): "85eff83dbe5f788b32887c2fb54ab75da6b7920d9a3b71e09ba33dc1e1894f6d",
    ("cycle:5", 2, "naive", None): "2b33d0ded752e2fbd16389ff5e6fd15aac3c450f0fc8982b269f4d79298d0149",
    ("cycle:5", 3, "arbitrary", True): "58a25cd211299d2ea03eecfd456d8aac7ad544ddb4777e287c307b74ab0231ac",
    ("cycle:5", 3, "arbitrary", False): "360839cba9dacfe47938339e58dcd62caf52e73d818c089a3993f46f09848579",
    ("cycle:5", 3, "commuting-sets", True): "3f196ad35a7ec9a0e23204141373e2a5b839094300f1cb92e2baef1a93f19723",
    ("cycle:5", 3, "commuting-sets", False): "4ddbe49cf58f416a9bc1a1ac198ffcdb4a5daedc2e9020ba610e90b8e97f7032",
    ("cycle:5", 3, "naive", None): "7f85ba07219a2cdb9acc7a0b86eab4e7e20a62c765c9127b4b565e5005e1fc09",
    ("grid:2x3", 1, "arbitrary", True): "91d1d120cb6795731c4dc70e0569c0087b154a125e4661400ee98a8134aa5798",
    ("grid:2x3", 1, "arbitrary", False): "ef4bf35cee1bf2930ebc60290b18a19a8cbbff46f2051c9785bb5f7a142edc16",
    ("grid:2x3", 1, "commuting-sets", True): "91677fc05af533d6973f3452c643cb70b1d32c6d880c5790a27b30ccf49699a2",
    ("grid:2x3", 1, "commuting-sets", False): "0efce411d00f6fe1d6ae8b9acfd1e10c2034375bc164295cf6ceb99e3a7ed696",
    ("grid:2x3", 1, "naive", None): "1f336086467282c2f5217b913062abc13dc80f5d8fd0d2d878052d6b35af6a47",
    ("grid:2x3", 2, "arbitrary", True): "1eb79512314683de43b4a2a6d9e14400d925557147badd606269c69ea62d2ee0",
    ("grid:2x3", 2, "arbitrary", False): "ac8c942be56c4f21b0874c6e87d251e67dca2c71690812c3fa0a1e0fff35e13d",
    ("grid:2x3", 2, "commuting-sets", True): "b5104d5b446d7bf9d94aef35af2d84814895d111e83f37ea309efb831c4c55cd",
    ("grid:2x3", 2, "commuting-sets", False): "ad676a0c0d1e527026e5f5ba3697ab06eca9a2e09b19359108c7976e69d4c516",
    ("grid:2x3", 2, "naive", None): "8ae18c1cd485291955ed2b1b0a6dd36fb42e7cbc61ff7e6556f65a671319c1d8",
    ("grid:2x3", 3, "arbitrary", True): "bc729690dc9128cf8578c3a2c83884003398af30eff40a8255e49e6933a4acfa",
    ("grid:2x3", 3, "arbitrary", False): "7cf54a837d55b491245b80756e8da3fd7adc4aed1420315cf877ed155d606fff",
    ("grid:2x3", 3, "commuting-sets", True): "61cb0405cff3856de69a06c9cc1fb9dfd9e8d1396eda598983d9213f83030186",
    ("grid:2x3", 3, "commuting-sets", False): "523e57ee78a7fa836aeecc9a1cda9bdf0a835860aeb5e64f1adc6539ae45310c",
    ("grid:2x3", 3, "naive", None): "a27794aba9d8bb4f71652fde5e7f3d876ddc13e9cabd53746c3826cc4a1755ee",
    ("complete:4", 1, "arbitrary", True): "333cd17ebe5b9224debed9614e0b593b5b543469801931aeb2ae48b0343c0146",
    ("complete:4", 1, "arbitrary", False): "333cd17ebe5b9224debed9614e0b593b5b543469801931aeb2ae48b0343c0146",
    ("complete:4", 1, "commuting-sets", True): "7eeba4a4ff9417b925b9f6acaf9e1b437ecac1965e73f4853bde64fce66cecc6",
    ("complete:4", 1, "commuting-sets", False): "7eeba4a4ff9417b925b9f6acaf9e1b437ecac1965e73f4853bde64fce66cecc6",
    ("complete:4", 1, "naive", None): "242c6e725857a6320fa4a52bcb1fca5c461f26eb24b5d2044c387d0580e26031",
    ("complete:4", 2, "arbitrary", True): "5b66b0a03f2f2870804b11385474c0df88c9a2406511be2e3f6685cbf02f5a2f",
    ("complete:4", 2, "arbitrary", False): "5b66b0a03f2f2870804b11385474c0df88c9a2406511be2e3f6685cbf02f5a2f",
    ("complete:4", 2, "commuting-sets", True): "8957a69e47ece6e7d0f8bdb657d25cec557aba4532ba2a84840e157b1222c67a",
    ("complete:4", 2, "commuting-sets", False): "8957a69e47ece6e7d0f8bdb657d25cec557aba4532ba2a84840e157b1222c67a",
    ("complete:4", 2, "naive", None): "f1c45d992980aed8174f3dcf639e3351f99c0f14821017be92513290d2ae0411",
    ("complete:4", 3, "arbitrary", True): "9c1b345de917b336511c1ed8187e6c00df0ea357ab1ba6fb483fbf0436991a1a",
    ("complete:4", 3, "arbitrary", False): "eed8fc162b1c5ecc83b11b3d42ce6e2088117b9abb637d208e14ebfec47e7ed8",
    ("complete:4", 3, "commuting-sets", True): "ff867037c64a6238f41402ec36fa8b4807db4c6d9447e9891e54201e9f73dfdc",
    ("complete:4", 3, "commuting-sets", False): "ff867037c64a6238f41402ec36fa8b4807db4c6d9447e9891e54201e9f73dfdc",
    ("complete:4", 3, "naive", None): "08228137f18b1257758df42182431e00d9ea51385384d7081c6a68db37c684a7",
    ("grid:4x4", 1, "arbitrary", True): "909ce1ebbf365157724838c58aa95a9d5f01c48e58a842849be3c099cce4e4dd",
    ("grid:4x4", 1, "arbitrary", False): "4c06ebb12be5ede33b35877c31bff3a9d9678eb7a9e9759bec384bb3a334eb61",
    ("grid:4x4", 1, "commuting-sets", True): "25c292741a2a6e7bd295a4ca9ee13a623366493f129ae01c082612b1e26fd192",
    ("grid:4x4", 1, "commuting-sets", False): "d21de88aa0c3197e0184fa054647c256c370db38061c05ea394f9a564269eac8",
    ("grid:4x4", 1, "naive", None): "59dfb4ea41558030f3c49babffe0876714615a10ff602d80458aaa838fd929cd",
    ("grid:4x4", 2, "arbitrary", True): "4d35393740b356380573388d0fdbfbe6427bb7181b899c49b903f154a15b95cc",
    ("grid:4x4", 2, "arbitrary", False): "9e6692999617fb503d9824dba32eb237323b1a259f94f212a74e50de489a370b",
    ("grid:4x4", 2, "commuting-sets", True): "7aed40866fab861ae55e88911287eee37b351e7987c27abcc1f832790a9e1c7e",
    ("grid:4x4", 2, "commuting-sets", False): "5ed339a8cb815acc25e7932d31247a01764027096f47c6b359a90843b2efb910",
    ("grid:4x4", 2, "naive", None): "8c16d418b52e59d09c22d7f30fcd24dc6084c27d3d0d91bc7d74aeefe1ffa8b4",
    ("grid:4x4", 3, "arbitrary", True): "2b6c282bc559c2835edae6170402356cafd7ea656f6d36f8b7d3b6197798666b",
    ("grid:4x4", 3, "arbitrary", False): "b1d9040b7f232bfeae8d9cafd9f7de363e663030cd177e8ecd39a5291c182e60",
    ("grid:4x4", 3, "commuting-sets", True): "40db97fca522d4c5d074307666ec026f836649d7164b98d129a292f5206837ff",
    ("grid:4x4", 3, "commuting-sets", False): "0214317b344afeba09c49d6beb87f13ae348e6c0ae3392d00d0337973e2b2e33",
    ("grid:4x4", 3, "naive", None): "426f20acc1bed12fee3db4b5f867f18a4f9e4c78dce90f9ff200092da1d4cc73",
    ("cycle:8", 1, "arbitrary", True): "258086f594ecc3bd188b2a6ecce4c8776ba34c9f626868248409eaf7e03a1e5e",
    ("cycle:8", 1, "arbitrary", False): "3a033dec15ae251d58c4db0feaca0cafc15182ab9840ad1af9409653c38e185b",
    ("cycle:8", 1, "commuting-sets", True): "da6b470a2438ef6e09cb510f23e9fed23ccc1a6f22944fe36245776fb5a67a1c",
    ("cycle:8", 1, "commuting-sets", False): "1b2628630e14d2a8af8e7fd57dac635dc5fccf2b5399af578684c9f3ac3e7311",
    ("cycle:8", 1, "naive", None): "b08805bd81d82e7e4b120a22006828920cd92097fae32c2bb4b86b1d9535c7f8",
    ("cycle:8", 2, "arbitrary", True): "b6cad5f9a738285dd4525d99cb348dec274aa57428a8acb34d1ee03f4c196ab9",
    ("cycle:8", 2, "arbitrary", False): "cbffc28c992f674ff659da1ef4a18c2cc443a4ac69c3e8719f9252bee8133e8a",
    ("cycle:8", 2, "commuting-sets", True): "435be1a0b5b4e6c5bb2f831b7de6ac5ba9a5ec1ed3a8f72ec3403feca419628d",
    ("cycle:8", 2, "commuting-sets", False): "dcb72264ec99fc016cc2efd62845cdd462dc107400aa756a9027e195b2e86e73",
    ("cycle:8", 2, "naive", None): "af84a4180dd5f5e7f25f85da320da86253efd63d1275392dbe6b29df742da011",
    ("cycle:8", 3, "arbitrary", True): "bc60af81cd4ff28c021b23d014130dd3dccf7016e22c16ba2b19a1bda4cb22fb",
    ("cycle:8", 3, "arbitrary", False): "ecac230bc2ff955db5e968206f9e6732edad6013e299ba1309172f3ecd67d5af",
    ("cycle:8", 3, "commuting-sets", True): "394fc2b04d07f04fe890598c9a02d02b93c43f2f8d83e6e6ae91927fd2db3216",
    ("cycle:8", 3, "commuting-sets", False): "3137af47b10f9eff635d99993e88180e4ee8b7f23c2373f53b72c63c57af90af",
    ("cycle:8", 3, "naive", None): "b18bfe7712f1019b2c661b07b1bdad03b18a82f867cb91867556b1c10e1726b6",
}


def digest(result):
    gates = tuple((g.kind, g.qubits, g.angle) for g in result.circuit.gates)
    key = repr((gates, tuple(result.permutation.mapping),
                tuple(int(i) for i in result.emitted_order)))
    return hashlib.sha256(key.encode()).hexdigest()


@pytest.mark.parametrize("spec", ["line:4", "cycle:5", "grid:2x3", "complete:4",
                                  "grid:4x4", "cycle:8"])
def test_circuits_match_golden_hashes(spec):
    topo = ps.Topology.from_spec(spec)
    for seed in (1, 2, 3):
        poly = ps.random_polynomial(ps.RandomSpec(topo.num_qubits, 30, seed=seed))
        for mode in ("arbitrary", "commuting-sets"):
            for perm in (True, False):
                cfg = ps.SynthConfig(mode=mode, allow_permutation=perm)
                got = digest(ps.synthesize(poly, topo, cfg))
                assert got == GOLDEN[(spec, seed, mode, perm)], (spec, seed, mode, perm)
        got = digest(ps.naive_synthesize(poly, topo))
        assert got == GOLDEN[(spec, seed, "naive", None)], (spec, seed, "naive")
