"""Pinned values: one sha256 per (operation, vertex count) over the text
of every value the operation takes on the forests, or pairs of forests,
of that size, on Omega={a,b}, X={x}.

The suites compare two routes of an operation, so a change that moves
the values of both routes at once passes them; this file does not. A
value is hashed as its str, whose rows are sorted, so no digest depends
on dict or hash order. It is a regression net, not a second route: it
says that values did not move, not that they are right. A change that
moves a value or its rendering on purpose updates the digests in the
same change, printed by

    PYTHONPATH=src python tests/test_values.py
"""

import hashlib
from fractions import Fraction

import pytest

from forest_bialg.coalgebra import (coproduct, coproduct_biideal,
                                    coproduct_lin, coproduct_rec, counit,
                                    counit_left, counit_right)
from forest_bialg.dualprod import star, star_lin, star_weighted
from forest_bialg.forest import Alphabet, enumerate_forests
from forest_bialg.morphisms import phi, phi_forest, theta
from forest_bialg.prelie import bracket, bracket_lin, prelie, prelie_lin

AB = Alphabet(omega=("a", "b"), xset=("x",))
POINT = dict(lam=Fraction(2, 3), mu=Fraction(-1, 5), nu=Fraction(7, 3))

# name -> (the bound on the vertex count, the value at a forest)
FOREST_OPS = {
    "coproduct_rec": (5, coproduct_rec),
    "coproduct_biideal": (5, coproduct_biideal),
    "counit": (5, counit),
    "phi_forest": (5, phi_forest),
    "theta": (5, theta),
    "counit_left": (5, lambda F: counit_left(coproduct(F))),
    "counit_right": (5, lambda F: counit_right(coproduct(F))),
    "coproduct_rec@point": (
        5, lambda F: coproduct_rec(F).subst_partial(**POINT)),
    "phi_forest@point": (5, lambda F: phi_forest(F).subst_partial(**POINT)),
    "coproduct_lin(phi)": (4, lambda F: coproduct_lin(phi(F))),
}
# name -> the value at a pair of forests; pairs of total at most 4
PAIR_BOUND = 4
PAIR_OPS = {
    "star": star,
    "star_weighted": lambda F, G: star_weighted(F, G, AB),
    "prelie": prelie,
    "bracket": bracket,
    "star_lin(star)": lambda F, G: star_lin(star(F, G), G),
    "prelie_lin(prelie)": lambda F, G: prelie_lin(prelie(F, G), F),
    "bracket_lin(bracket)": lambda F, G: bracket_lin(bracket(F, G), G),
}


def _digests(name) -> list:
    """The digest of name's values at each vertex count, from 0 up to its
    bound: the text of every argument and value, in enumeration order."""
    if name in FOREST_OPS:
        bound, f = FOREST_OPS[name]
        cases = [((F,), F.nvertices) for F in enumerate_forests(bound, AB)]
    else:
        bound, f = PAIR_BOUND, PAIR_OPS[name]
        forests = list(enumerate_forests(bound, AB))
        cases = [((F, G), F.nvertices + G.nvertices)
                 for F in forests for G in forests
                 if F.nvertices + G.nvertices <= bound]
    hashes = [hashlib.sha256() for _ in range(bound + 1)]
    for args, n in cases:
        text = " | ".join(map(str, args)) + "\n" + str(f(*args)) + "\n\n"
        hashes[n].update(text.encode())
    return [h.hexdigest() for h in hashes]


# name -> the digest at vertex count 0, 1, ... (sha256, hex)
DIGESTS = {
    "coproduct_rec": [
        "c5d5d31ed01141cefedc285183b9e59fd9b48285c97d77a3b002950d42e3911b",
        "1d1583d4cc43d5e2290d7ff55cd6be4d42ba53099b466a980c4010d3ea3424b1",
        "4824601c858de71beae5513412cabc3d9487a11a9d8b8ce4b4208e35727ae920",
        "ed63df8436fa7a301a519823d8a1facab2461109f3e63f0f56fb06a917b030df",
        "4c86a16763cc98231c2af05d3b6cec857a63e689d9519eed762c26e31b2a7f5a",
        "815954da202c169b23459bc739b2e8600d61e2fb3c8a758b4d16ef911b32cf69",
    ],
    "coproduct_biideal": [
        "c5d5d31ed01141cefedc285183b9e59fd9b48285c97d77a3b002950d42e3911b",
        "1d1583d4cc43d5e2290d7ff55cd6be4d42ba53099b466a980c4010d3ea3424b1",
        "4824601c858de71beae5513412cabc3d9487a11a9d8b8ce4b4208e35727ae920",
        "ed63df8436fa7a301a519823d8a1facab2461109f3e63f0f56fb06a917b030df",
        "4c86a16763cc98231c2af05d3b6cec857a63e689d9519eed762c26e31b2a7f5a",
        "815954da202c169b23459bc739b2e8600d61e2fb3c8a758b4d16ef911b32cf69",
    ],
    "counit": [
        "066413564d45c27ef15bf54eb6aae8bc626b0117cae2eea1df77b0927c397a69",
        "c6d9d525dfed3080e92d5e8eff8cba21d9cf3976d2783a018f50abf6e4423da3",
        "4086a1898c288a2ac33e481b6509aa554d749a58a89cb6654e460756df0e7743",
        "bc24ccf94a47804aba0feab362a0892ae9ebf1afbc1f1113504a95314a5d1877",
        "4d7a1143e7266a409067f24269f67fbfdeadae913d502e8889cf723a0a6cbb7e",
        "11d938382bb9ce3149c8538b2bac0d5d44c26777793d3c4bc76a332f8f245fe4",
    ],
    "phi_forest": [
        "ea454357a8a4ba1637d99086d767e04ace8490640772f7c975ca50553b0c4f73",
        "86342b73b5b7c94f9b8e43a7ffdb162f4d1fba623607273728ca66610ccf715c",
        "2be9dbf484cecdc6716cf14fb8cbb5723e99c062747523f3f3a0d89808561653",
        "804b5b536c5d6555c622b991ec64a53594d80a6fc228fb92cdbe3e7854547605",
        "0a3f3518585ca0974361a47d4454342499e264aca84a5710933e831cca990860",
        "c0f0207ba16849a3c24907ab442039884c9c7e93c9dc105aa521afcf13633252",
    ],
    "theta": [
        "ea454357a8a4ba1637d99086d767e04ace8490640772f7c975ca50553b0c4f73",
        "bb9acb83db7f977986e4ed298b7ca599d1af29adf15832192fcfb0601572d283",
        "67482e91ce985e50f5ba3131811e34e8926e593c9690568573fbb6b9b808efa9",
        "2621002c96d6b83b0ef9f101f568ae946dbcaf97a65ece7874581f0180f841ea",
        "f9a1d9c4a9d9cb40dc69e93a3aa6dc612b5fc4e2ef71cde1b644f9e0430cfe41",
        "f6e0f0c36260ce9e1be8a32f65d8b20d682c60276752cdd05955f8c7dfb67ca3",
    ],
    "counit_left": [
        "ea454357a8a4ba1637d99086d767e04ace8490640772f7c975ca50553b0c4f73",
        "12a32e15c4a5b1ab54954f105ed266e6fea50d6508accb5e6b2f99bcb05ad951",
        "37a3057eb9260dcc1eaa043fe1df04f1004b6f0e8adee62b41216415bdcf7cf3",
        "ed78356ae28e3754886dbff7ce8d9161bc74285cef43c923bc1a4a84349e0630",
        "80fcd60a61dbc7baec48a0f8c9547009b6ca17a7e084ebd8b83fe1330e3cc33a",
        "a965745ba6e23cfec916930b08accc995e5aa8572f9f8a9f391c9001fcbbeec8",
    ],
    "counit_right": [
        "ea454357a8a4ba1637d99086d767e04ace8490640772f7c975ca50553b0c4f73",
        "12a32e15c4a5b1ab54954f105ed266e6fea50d6508accb5e6b2f99bcb05ad951",
        "37a3057eb9260dcc1eaa043fe1df04f1004b6f0e8adee62b41216415bdcf7cf3",
        "ed78356ae28e3754886dbff7ce8d9161bc74285cef43c923bc1a4a84349e0630",
        "80fcd60a61dbc7baec48a0f8c9547009b6ca17a7e084ebd8b83fe1330e3cc33a",
        "a965745ba6e23cfec916930b08accc995e5aa8572f9f8a9f391c9001fcbbeec8",
    ],
    "coproduct_rec@point": [
        "3c8273bb879b6a6713c3b2839d145b52ba1ee08a1f901939a44c44152c506ef4",
        "56bb8ab168d44cb2569ac009ecd7225ec4bedc12724b6d10e2aca5a9aad65590",
        "c3d45c9805bbd90a7d573d72e078bf67de1ad825ac57cf7b8dcb585ece6a0982",
        "4009d24018d4e179956182d3de9ca98e3c9779e58e951b615afdc0497dc01dfd",
        "b78e396314a1f648facdb1db258e4fe2381464bf38d143a599f3033062c579f6",
        "53c10f64041ec18b0e45e4094421ad0b62fcd51e6c4151fb8efdac81464ac20f",
    ],
    "phi_forest@point": [
        "ea454357a8a4ba1637d99086d767e04ace8490640772f7c975ca50553b0c4f73",
        "60bd116b6d19b9cb199c357d2a00081c860a7d981ea1347d3a569b0494e072b0",
        "aa7a780ef85c63897efbf1f3d01f80489a5e554844970ccd53ed3270f2493641",
        "6ba4b589329f797ec2dbfe85f29affc12823780e0cbf2d5eb36cdabd89f0ceed",
        "b9db37e54d6ea6e285caf52aefbfbd7c0c688ab0548d6b5e80a3a4069e654db2",
        "72cc98f94690a30261203f2c6aef391d6e76f10fadc60ad205602d2cb21ac3d5",
    ],
    "coproduct_lin(phi)": [
        "c5d5d31ed01141cefedc285183b9e59fd9b48285c97d77a3b002950d42e3911b",
        "a763f24faf26f5aae8e5a7009edd8076a574a737c1e26337ed8b3a46592a981d",
        "65d52fbe36a2cb279794b55f39b50db1262fc72a9a0135574d8f756ffebca6a3",
        "0d4a7dbc98cabe4c51022c9e9bf2730cb2c3308502fde2d6ccb43d9eeb7cf2f2",
        "49df19d91e3143260827e74e906ba3de7ed356445ea24109f4743001413bbbf3",
    ],
    "star": [
        "e8f748a643c0c5fbcb259f1c911e1b6cbca4c6b65af46e39634084a0a7b336ed",
        "6e494f316806a2fb5aeb0fce468b79415e010dc196dc77832d307f237cbf11cd",
        "1edd3a536ca5c666a7d32c37cbcf628df39d6ad4c9c96e53b759486e7861e8e3",
        "653da660209a63520af57db915be66c318f270dff4ec2ceb0d3cf3d2907f9f7b",
        "7b5e04b3f928e651456c9dd025bc42fc3fa617d8754839ca0391824e76741713",
    ],
    "star_weighted": [
        "2d7aceb73c77164da83a1097e0bd8def539eee333d6cce81b188da17b5c57649",
        "51b0f8335eca770978fc2a0897f4c676beb3b8ee47327d7918e027dbddfce621",
        "96d80428eb9b8e557ad8a5ff4d27459e43c2c82cb05b271dfa5b89e4f2cbaae5",
        "763eb151f0946a0d1bec14886262cfb2b204c8f836fc5c65f1deff4101304a8a",
        "97afa1176fe8a4e72b8ea7be906ee81356911373545284450201d323b8d96af3",
    ],
    "prelie": [
        "8accc0f7d07b687fed7f9a03b77e3b0aa9effc3f8122af3843fa50723ac65d3c",
        "28d1eeba5a4fc11cb9d1c76cd0f7599387d853d8668428643b74c6c052437347",
        "d7f7d31a7dbbcc85f419cdd3b2a5d564846e3e0ce78207abdaadd0333978db47",
        "63159d3965cfe2911a15281ed5603aec521ab90b37be228cffab829cc58742ba",
        "0cb37484ce7781b1d13d828eca50ab5bfcaea4cfb2dc6596da13f52de756c417",
    ],
    "bracket": [
        "9e4e00f54d1265967492122b7d2ee79b647ed888148ae8f8497fe367a1cb76e0",
        "abc5f5ff54dd4885b6925a083d34fe626b471bad6d52da631190f5e4a300da03",
        "1333e4ec5d4dfc188e9584c0143d3a13fef64f9f8f2bdf9d187dda5675ad0856",
        "2cb776f148c998afb83604f07c7435108962150f59ab03d2dda0126669335518",
        "ef8335259485387254e4be6f8f46b1848c347d8bdc10b851d9b56cba893eed0f",
    ],
    "star_lin(star)": [
        "e8f748a643c0c5fbcb259f1c911e1b6cbca4c6b65af46e39634084a0a7b336ed",
        "3dd6663dbc16d9370921aa2322dc105547373390815347676a7d32f4fe829975",
        "3371cf3a22f2c0a8aecbea3bee7eee51a9a6992b34910948fbf21f85abc84a5e",
        "25a18047f81023ade7497cb094a5285f23f02ff832bf8014f57f5a5b42e52b32",
        "739e986e97e079e24a0d18a9704a1a0ee5205ffebc67b8a5bca6b3b035eca5f7",
    ],
    "prelie_lin(prelie)": [
        "cc80ae793e2259002ddf44640487fc700665c80cb4525a66bcc58969ad3ee034",
        "09a48251cb4ed014bf110dd2606bc775477a00cc99b84e3fb2ed713cf695e05a",
        "5df41e00e617e0b24e1d4d9f52461eaaf44c0b08dac50bc0090dbd6276764e23",
        "29f0a96cc37bb2bf6cbbfedbf377e95b38bbb49eb537f23da462e4cff2fdf234",
        "adc33248bc34e66d48ddb891214e18f75a65b2274bf1a4e7528fda5e56209ac8",
    ],
    "bracket_lin(bracket)": [
        "9e4e00f54d1265967492122b7d2ee79b647ed888148ae8f8497fe367a1cb76e0",
        "f4489af8435c7e590739f92a262e34b42d0659a96edee9c7d7e89cc42f8100a8",
        "cc00555e69bb020918958f675961da55ec4f28adcba2b9f9961b87688b8b87e6",
        "4d95cfa463a10cc54ff0798f11529f248aa71dce865edc6339329aa1bf531484",
        "e08cf14872a71b68ee1aeea5174f521d47126736e43a5e86aba72d146dc9dd94",
    ],
}


@pytest.mark.parametrize("name", [*FOREST_OPS, *PAIR_OPS])
def test_values_are_pinned(name):
    got = _digests(name)
    want = DIGESTS[name]
    assert len(got) == len(want)
    for n, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{name} moved at vertex count {n}"


if __name__ == "__main__":
    print("DIGESTS = {")
    for name in [*FOREST_OPS, *PAIR_OPS]:
        print(f'    "{name}": [')
        for digest in _digests(name):
            print(f'        "{digest}",')
        print("    ],")
    print("}")
