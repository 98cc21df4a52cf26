"""Byte-identity gate: every canonical report below, with its `timings`
block removed, is pinned by SHA-256 together with the command's exit code.

The cases are the 11 worked examples, all 50 random cyclotomic pairs of
the shared battery (degree <= 12), the ten pads of the base quintic that
exit 0 (the nine coprime degree-2 choices of (P, Q) and P = Q = 1),
`examples --json`, three inputs that fail validation (exit 2): a pair
sharing Phi(3), P = Q, and coprime P, Q whose padded f and g share x - 1,
and a quintic whose residual diagonal has entries of up to 81 bits, which
the anisotropy scan reduces by the squares of its primes only.  Each pad
is also checked to be the analysis of its padded pair.  A performance
change must leave every digest alone;
a change that alters a report on purpose updates the digests here and
records the new values, and why, in CHANGES.md.
"""
import hashlib
import json

import pytest

from orthomono import cli, corpus
from orthomono.monodromy import classify_type
from orthomono.padding import pad_pair
from orthomono.parsing import parse_poly
from orthomono.polynomials import render
from orthomono.quadform import DEFAULT_SEARCH_BOUND

from conftest import BASE_F, BASE_G, random_cyclotomic_pairs

PADS = (("1", "1"),
        ("y^2-y+1", "y^2+1"), ("y^2-y+1", "y^2+y+1"),
        ("y^2-y+1", "y^2+2*y+1"), ("y^2+1", "y^2-y+1"),
        ("y^2+1", "y^2+y+1"), ("y^2+1", "y^2+2*y+1"),
        ("y^2+y+1", "y^2-y+1"), ("y^2+y+1", "y^2+1"),
        ("y^2+y+1", "y^2+2*y+1"))


def _cases() -> list[tuple[str, list[str]]]:
    cases = [(f"entry-{e.name}", ["analyze", "--f", e.f_text, "--g", e.g_text])
             for e in corpus.ENTRIES]
    for i, (f, g) in enumerate(random_cyclotomic_pairs()):
        cases.append((f"battery-{i:02d}",
                      ["analyze", "--f", render(f), "--g", render(g)]))
    for P, Q in PADS:
        cases.append((f"pad({P},{Q})", ["pad", "--f0", BASE_F, "--g0", BASE_G,
                                        "--P", P, "--Q", Q]))
    cases.append(("examples", ["examples"]))
    cases.append(("invalid-analyze-shared-factor",
                  ["analyze", "--f", "x^3-1", "--g", "(x^2+x+1)*(x+1)"]))
    for P, Q in (("y^2+1", "y^2+1"), ("y^2+1", "y^2-2*y+1")):
        cases.append((f"invalid-pad({P},{Q})",
                      ["pad", "--f0", BASE_F, "--g0", BASE_G,
                       "--P", P, "--Q", Q]))
    cases.append(("anisotropy-large-entries",
                  ["analyze", "--f", "x^5-8*x^4+22*x^3-22*x^2+8*x-1",
                   "--g", "x^5-28*x^4+77*x^3+77*x^2-28*x+1"]))
    return cases


CASES = _cases()

# label: (exit code, SHA-256 of the canonical report without `timings`)
DIGESTS = {
    "entry-base": (
        0, "08c6172cc106d3686310a9339b0a5e830ff3703f13406b172e878132a83a5a12"),
    "entry-ex01": (
        0, "3cec620dd2b1212dc141edf0f816b815d6b6cca217431ad43558172edaae4233"),
    "entry-ex02": (
        0, "3cd546486356acaf19015bb649a07c2501adf2a46364d4f002710818ab56ac5e"),
    "entry-ex03": (
        0, "9d59ada5977d6e3d3a283f8507357148f81a78c796572e006a3814f02d21eac1"),
    "entry-ex04": (
        0, "a40dcc46cfa0aff84bf74913c04fc8153b4287d53f366f7245e8d733a613cda8"),
    "entry-ex05": (
        0, "59a80592f0af854c370ec3c0e20193e0676679ad45d9fedda76287ffa524922f"),
    "entry-ex06": (
        0, "adb743891fe0b9483bc4f8558cdf1d61c4b7c3b844b2adb442e8f035891f2da9"),
    "entry-ex07": (
        0, "07fc4b2c7bb496ef411c75c0333b35e9b2c3bab91c1452913d6d22287ec7669a"),
    "entry-ex08": (
        0, "7b28dd41c93a80d38a8ac0dcfe9aac88cad0ae18944e5b5ca1fef01728b92efc"),
    "entry-ex09": (
        0, "decbfbd99e324b7828c2ab905d141bfb8b735c685880a50aa922e88d04340837"),
    "entry-ex10": (
        0, "f3cd847fa66a2ed719180e732fc8be4a2af5959e839d970b393321c07dd3fd92"),
    "battery-00": (
        0, "3d652eedc6f5693d13b24cfc8fd9ef7c19f9085debef3c19e5c75b3c5efb3365"),
    "battery-01": (
        0, "567225322bfafed5e60f296e702fdf549f607920461919b420504be305aea0dc"),
    "battery-02": (
        0, "9851efeb168ea20cb443d1d672e736d2a2c8adff9ffa07bd9d7494aab51f6789"),
    "battery-03": (
        0, "294e15b0cb82a17523ce05f49fe2682ffc326364ab14e9722ce594b8271ccea9"),
    "battery-04": (
        0, "c1696f67a308f7e523771a05194131b642c89fd0fb2127f80271bdd9147cff5b"),
    "battery-05": (
        0, "6e2e307b7213b4ccf2aeb58150c182c7661d59b5dc55215ed012ede5800907f0"),
    "battery-06": (
        0, "c324214dd09c4f90e9016f13784f7e57fc96c1b9b5fe04282ee8d2c83270157d"),
    "battery-07": (
        0, "483ce248e3109fd354f2dad213c22a0974beb0ce5017feed9575bc81b5d201bf"),
    "battery-08": (
        0, "735248707c3e6543dd26a9465aee225ec769a6d4bfec2e4d310e03e1d579544c"),
    "battery-09": (
        0, "e66a0ba70c36b7249e63d47ff332f292d267ecf81ad7918a8382abdabedd8869"),
    "battery-10": (
        0, "0d8ec6a6e0b21c807f094b962c721ed072640519e5aae9ee5158e89354180a1b"),
    "battery-11": (
        0, "7132abde6a96b86d8500d0f0da5b72121f20c72c0836ddc787b673fd453f96a2"),
    "battery-12": (
        0, "df04a94e5ffd4738d8f7ecc2cd81315c8515570ecd67c0bbf1d0972f02ecdaec"),
    "battery-13": (
        0, "70e071a8bffb2a55ebcb652902daca4a7c70bba4a8fc374cd378bdcebdfdae3b"),
    "battery-14": (
        0, "83cb392a40bc9d816a76c9e51d81d9c348c0900887341a88558b2caacfa4d440"),
    "battery-15": (
        0, "9d06a5de6e79f0c9277a5576bff0475f068f06634ffa97fe3ffe01a8cfba19f7"),
    "battery-16": (
        0, "9ad0482b63ee7ffc83ee4ef135199c1f5d5ba659339238c24810d458038fa9e4"),
    "battery-17": (
        0, "d516c41d654e03600b7122117c8f14c9ca3130a4270f2c49157235480578e825"),
    "battery-18": (
        0, "1ea3ce446df1ca8834b3e903d3e7d771535c12640fbcf4e6408adb5c0455bc82"),
    "battery-19": (
        0, "f77fabff571c35865cb6b8a60ea9a5bf8cccf3edadaa227e9cfa3a141d0ef071"),
    "battery-20": (
        0, "285e1061242d4af7a38b7b883d6bac142ee3f699b887bbf250b93a5d4aca0248"),
    "battery-21": (
        0, "f63d60cbe870f9ce51828098dff5b5e8dd45a6087e9e9ff9488141af771fb63d"),
    "battery-22": (
        0, "c29dc068e5c9909f061c937a48a0e24aae969387a8337eb3b6f89148a0a8c8ee"),
    "battery-23": (
        0, "d25ca83bcba5aaab89c5961757b7195aa5e7b8a3824854a1ef7e84e191d0c3bd"),
    "battery-24": (
        0, "d14caf09f3cadbedd6094679d0f661c1322346e99e3934fdf89d2d3080e6c4e8"),
    "battery-25": (
        0, "fd46cf84c9c141c9ebaab50f1cf185a3e8142c11724858a873336d576c4fec3b"),
    "battery-26": (
        0, "c83e37fe1375125e64f217b08e8903bf7e29a6b7d9941624526e92494634e506"),
    "battery-27": (
        0, "2cf36e027a4d13daef10673215f29920c4aea965c6f4b73976bed181f284f004"),
    "battery-28": (
        0, "f9461ac88dcca3c8b45cb4fe897c705f3545b4ec11481044eaf9d776f649e2bf"),
    "battery-29": (
        0, "daee13774a6382c5f3601f3ccf639606a2dcb89efd349ff7b987759af8531a16"),
    "battery-30": (
        0, "6ed24a419f2a49533590b11792de6b7e86c2f3f90f18ce2714e9b1e0235e1733"),
    "battery-31": (
        0, "045d179da954bf96f75daa3a8168f7c422c1ce46169592cd4a25a2be309e3a58"),
    "battery-32": (
        0, "a661b4e87387a40748c318f92d4f0d7a1d21f5aae4687d37db14efff0d8aae20"),
    "battery-33": (
        0, "52612c78934f6b2340aa952d731f23bc28dba77b3a9cbb0d2b47351e3d3f7547"),
    "battery-34": (
        0, "c6f786f544d5953b4f629a778a55db70a9d705809ed37151f2d722a4c66a3386"),
    "battery-35": (
        0, "d44341a9122b3e8823b8d015e792c4ec91e38cbf319285080c27ada20e59a966"),
    "battery-36": (
        0, "bcabfb167b2ab4a5ff4e0b209e5f728b4167eac291a20532beb2a81c4a7ef632"),
    "battery-37": (
        0, "aa38023bb195554fdb2b9f29fc676d51006bc0389b01410af5ce997fb447fe82"),
    "battery-38": (
        0, "24c08e6fcecd10ce5cf79f6de87b5f798c5949a531a0cfedebe881573b6bbed2"),
    "battery-39": (
        0, "a5b7449db75c87663cae042aa8b69925080c80ce6002d83e4e4169d1d9ddaab5"),
    "battery-40": (
        0, "560e0a073e38d9e39a5e54485891a3c0369cb66fa6bf266277df8e46a7719f5b"),
    "battery-41": (
        0, "447d99c68398872c36ec6e6a5240ea5f2c4d72cb934df0711c6fde869675a8ab"),
    "battery-42": (
        0, "8a0d537d409b27823bfda30efb2be68d3fec9dc35ccb1083f4ad92d2114f50db"),
    "battery-43": (
        0, "8ff64dc35347e4ccf726b85caa7625840f5327ae9f24f731bf7cad61cf0863f3"),
    "battery-44": (
        0, "f7ef031be9c1145cd4555ab20f4a980beb7374e765ccdaaa31f4eb0ca9c089d5"),
    "battery-45": (
        0, "fa83132dbc04bd7c35d47025bbf861f2343f4fac28f0a11994cf4155c4e222db"),
    "battery-46": (
        0, "ea53f19d12ce9b50ad06a73d14a8665072c331e434479ba062c973be963c720c"),
    "battery-47": (
        0, "6cab9a449fcf4fdc0418645ef8d96a0dd3a1272f6fadd12d496279675dc33a83"),
    "battery-48": (
        0, "240e77a21b7f6dbf2292350033d4c816a7aaa5c65d994e5ccc1961536a5b9405"),
    "battery-49": (
        0, "740376bdb023380d99964739a11ff4048903a53fd3da000f6c1f1ea554a660d2"),
    "pad(1,1)": (
        0, "c98b531b2cc820a445698ec5c1060b8508d650fbd0de1f379c6ded86810b092d"),
    "pad(y^2-y+1,y^2+1)": (
        0, "b69372aa0fc094c731822ff71f4a4b8bb0d982ec011f90a968b40dec248e0154"),
    "pad(y^2-y+1,y^2+y+1)": (
        0, "00ea9cff8b511753d32d8e3b9dc0b9853453d4dc0e3ce2525229ef8a80436dbc"),
    "pad(y^2-y+1,y^2+2*y+1)": (
        0, "596be06367965ece959a0eaa1bdb6c5584035db44989120152e6ba57d6a100b6"),
    "pad(y^2+1,y^2-y+1)": (
        0, "53e6b46e22253c207f267ee66d026c8332fdd7067ef3ab11f2d411b30ded1fff"),
    "pad(y^2+1,y^2+y+1)": (
        0, "0345c442d2b39ec71019d774cccfe4266ffdf1040991f3200217929f3972bb2c"),
    "pad(y^2+1,y^2+2*y+1)": (
        0, "11551780f292a498e8286bfcf144a8dfe6119358d43fd5ca059c13b83eabff97"),
    "pad(y^2+y+1,y^2-y+1)": (
        0, "8790f0035d1fb8d044e86581c417156da8391a4f536805f3022b2daae34dd7b7"),
    "pad(y^2+y+1,y^2+1)": (
        0, "4f50796c8fe41e0e7d021a94284dc592c140f3b001737b5670e674ec76e1b707"),
    "pad(y^2+y+1,y^2+2*y+1)": (
        0, "ec62f4b4508f21a32186826e277ffd5f3c2428718828a87b76b04bc93ef040a6"),
    "examples": (
        0, "8cf3dd1dbe7fc3ca4411f9403eb4d92b225a99a063ae4c36294a691a0a3f2071"),
    "invalid-analyze-shared-factor": (
        2, "e36054796a87775ec1c0b973a345a4441769143e1e394dc786a55dd908f5bb82"),
    "invalid-pad(y^2+1,y^2+1)": (
        2, "bd86e7f47b76d008e5d5ab69b0cf80e47ee6081ccb9891aa76f8740aa02f75ef"),
    "invalid-pad(y^2+1,y^2-2*y+1)": (
        2, "e36054796a87775ec1c0b973a345a4441769143e1e394dc786a55dd908f5bb82"),
    "anisotropy-large-entries": (
        0, "6b505d280e2dc7fb447bc391206c193afcea81327e5c229b49200ad86f59f2f9"),
}


def test_every_case_is_pinned():
    assert [label for label, _ in CASES] == list(DIGESTS)


@pytest.mark.parametrize("label, argv", CASES, ids=[c[0] for c in CASES])
def test_report_is_byte_identical(label, argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(argv + ["--quiet", "--json", str(out)])
    capsys.readouterr()
    doc = cli.parse_report(out.read_text())
    doc.pop("timings", None)
    text = cli.serialize_report(doc)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (code, digest) == DIGESTS[label]


@pytest.mark.parametrize("label, argv", CASES, ids=[c[0] for c in CASES])
def test_report_text_is_the_stdlib_json_text(label, argv, tmp_path, capsys):
    # what a command writes, timings included, is the text the stdlib
    # gives for its document, so a reader can reproduce the digests
    out = tmp_path / "report.json"
    cli.main(argv + ["--quiet", "--json", str(out)])
    capsys.readouterr()
    text = out.read_text()
    doc = cli.parse_report(text)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert cli.serialize_report(doc) == text


# a pad is the analysis of its padded pair, with the base quintic's rank
# witnesses, zero-padded, as the seeds of its Q-rank search: the two
# documents agree apart from input, padding and timings

def _analysis(doc: dict) -> dict:
    return {k: v for k, v in doc.items()
            if k not in ("input", "padding", "timings")}


@pytest.mark.parametrize("P, Q", PADS, ids=[f"{P},{Q}" for P, Q in PADS])
def test_pad_is_the_analysis_of_its_padded_pair(P, Q):
    pad = cli.build_pad_report(BASE_F, BASE_G, P, Q)
    pp = pad_pair(parse_poly(BASE_F), parse_poly(BASE_G),
                  parse_poly(P, var="y"), parse_poly(Q, var="y"))
    base = cli.build_report(BASE_F, BASE_G)["q_rank"]["witnesses"]
    seeds = [tuple(w) + (0,) * (pp.f.degree - 5) for w in base]
    doc = cli._analyze_pair(
        cli._new_doc({}, pp.f, pp.g, classify_type(pp.f, pp.g), False),
        pp.pair, seeds, DEFAULT_SEARCH_BOUND, cli.DEFAULT_WORD_BOUND, 0.0)
    assert _analysis(pad) == _analysis(doc)


def test_trivial_pad_is_the_analysis_of_the_base_quintic():
    pad = cli.build_pad_report(BASE_F, BASE_G, "1", "1")
    base = cli.build_report(BASE_F, BASE_G)
    assert _analysis(pad) == _analysis(base)
    assert pad["witness"]["conclusion"] == "witnessed-arithmetic"
