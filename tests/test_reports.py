"""Byte-identity gate: every canonical report below, with its `timings`
block removed, is pinned by SHA-256 together with the command's exit code.

The cases are the 11 worked examples, all 50 random cyclotomic pairs of
the shared battery (degree <= 12), the ten pads of the base quintic that
exit 0 (the nine coprime degree-2 choices of (P, Q) and P = Q = 1),
`examples --json`, three inputs that fail validation (exit 2): a pair
sharing Phi(3), P = Q, and coprime P, Q whose padded f and g share x - 1,
and a quintic whose residual diagonal has entries of up to 81 bits, which
the anisotropy scan reduces by the squares of its primes only.  Each pad
is also checked to be the analysis of its padded pair, and the reports
of the benchmark's traffic are pinned by the lines of
tools/traffic_digest.py.  A performance change must leave every digest
alone;
a change that alters a report on purpose updates the digests here and
records the new values, and why, in CHANGES.md.
"""
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import pathlib
import tempfile

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
        0, "8cb3b4336e60772949a54b10debb21eaf87165b293a23311b41172f1fd36950f"),
    "entry-ex01": (
        0, "1ea14463fa738c320e03570f679550d4e1f4476617ed251662e813944411a410"),
    "entry-ex02": (
        0, "428545fb7d1a0a1eec41c8874733beb64d16a8fa7b215f6ccb68d620a88bd3aa"),
    "entry-ex03": (
        0, "1b4068770fcda86b1dd1800f77d266c3fd1981ce3536478f1a76fe4193b28c92"),
    "entry-ex04": (
        0, "9e5e36b9f2d329f49c79f562361cbc6f6f1046ea0c4feae9f8b00c3186007d7c"),
    "entry-ex05": (
        0, "fb8e221f5135422e47d2bf23f2ac3c06c2ee986bf80b72b06bb3e0644aa44fcf"),
    "entry-ex06": (
        0, "1856449c94bf552ad96e283c0139a36ae0c47e2ba903177128c268863137d720"),
    "entry-ex07": (
        0, "df6f33c23afcd4a58682312ce94cf1b956e41dfac6aa09b6f796ab61ff569e8b"),
    "entry-ex08": (
        0, "cdfcb2b615f3641eededfe70cd98d1728c972a54296c66dd7450f402f6f2994e"),
    "entry-ex09": (
        0, "2ad12c143b7f892a90339105f5a50af77db3fb615cc1e2d6b352cdbb2af7887f"),
    "entry-ex10": (
        0, "2bad3f7a4e3ca3cf5bab852171b8ca71685ff535517eeff3051a0930b7f53871"),
    "battery-00": (
        0, "aa15b049b011c0344dc4c55c0ef060170091c403beeec38d3e9198aacf09dd6a"),
    "battery-01": (
        0, "ed6d1edad34febe6c53c67d9bb5df194aaa5cc14fbec157e9e42ca3adf1825cb"),
    "battery-02": (
        0, "229b5d37b0dbe5a3dcc6bc42f2ba29da4476bd64ef896ec8ba6b3d3efb98c73c"),
    "battery-03": (
        0, "0675fa8cb3e481539b318908614d44a49ecfc190642dcfe38b216ba6a4bdb1c1"),
    "battery-04": (
        0, "5473e2d1f197d60d62311b37c40f28a132dfaad8adc67378ade0cffed3092c82"),
    "battery-05": (
        0, "c28a4102b0c42bf042f9f825e66a4ee6a0ce78f034bf5ae33f4962ddf9fb1c25"),
    "battery-06": (
        0, "c8a002bb79f1e64d4f2270169c708f341f788704e264ae5ded32324b7978c12b"),
    "battery-07": (
        0, "e263aa73e9014d3928fd70368a61f1dbb76184a63ffafbdc1c971098e540cd89"),
    "battery-08": (
        0, "090a1e6524de7a70d64354f6212f79807ab595527fd9d19c91e21c7e28dd1415"),
    "battery-09": (
        0, "cee538f42d8484f6b6ff18553a334dc9e21239a035e7ab39a980ecee91d6b65a"),
    "battery-10": (
        0, "87feb3e1a71752154a50ead44ff8b6c0e23c3ba6b742e90e288cb6454ca5ba15"),
    "battery-11": (
        0, "911a01421b4614b1405463a183d59e47cc8975e028c72be2a42c93797ba6035d"),
    "battery-12": (
        0, "71b6710eeaed79e51d8f8d73e74be76fbba8c1f332086beddaeb5a1bce3bbf90"),
    "battery-13": (
        0, "665c65ab2609eff6166dc3b3b891ae7c7376786ec9dc51cc23ab86d2e4e1f16c"),
    "battery-14": (
        0, "1eee9239e6933811a2e77bc8f0caf6f39c897abb3d51a6aeae35c977a2373190"),
    "battery-15": (
        0, "0e570615c10be2a688ca7cd25abcd2a7e8631b723e6345a6ed2f61deffb9f2fa"),
    "battery-16": (
        0, "50426c98422b7fb2ca2eda9a565789b78b56df34c6b0cde28e610725969ad81c"),
    "battery-17": (
        0, "6e0533d1b73494e70dff987a36de0809ef82b2ca54a2cadbd8e9fbd2288b2773"),
    "battery-18": (
        0, "bca8f89455460a00e86e172e383a772f3d2c29cd9f0324b369333fc3d5643660"),
    "battery-19": (
        0, "6b65128a25a537220ceeedf87d4a5787a033b9e1b7f35f5c30c543fea7d963fd"),
    "battery-20": (
        0, "6606daf5fc33d8e4d121f0229d12400f6acec01967397a280a01d67ce5850a4c"),
    "battery-21": (
        0, "00771bd4ca81ef362e4cd4cc8d1aca0e352acfe6f9d410ec3e3e559bb759102b"),
    "battery-22": (
        0, "565c378ebc9db0b282a19d19d79035c0427b286bf2f93f3bd15fc5aff8c04bd9"),
    "battery-23": (
        0, "c2449da2cd0297c1490609c152ebcfbd685ff8c48c0d9c785ab7fb60eaa5fc00"),
    "battery-24": (
        0, "36a39055191ee622aea59cf0eee6389f958fa945a2eb911fe2e02cb3488d05da"),
    "battery-25": (
        0, "556a8de39bb6392f21e49138777bc7289c6bf14e365a2e1a8ed05b1f87023367"),
    "battery-26": (
        0, "ec4180433ade1358af1a41941cf8a45b72d21a0e165bfb861905454507591329"),
    "battery-27": (
        0, "3368fc573e5ab99f3cde77c0c8eaa7178e889b8b5fb347f953781059245b30e8"),
    "battery-28": (
        0, "3f0c676cffac3094f6eae2ee13da8990b52302eee198526e575ae696c67bb5cc"),
    "battery-29": (
        0, "26e50c0e2f9e9300766e593f169f81a1cc6ffcd03f9a2db58de340a478d8eccf"),
    "battery-30": (
        0, "215b5b8c06ecb7d074509fd8b2ce4bad2e8a982dd300c33d653cf6ee4b475016"),
    "battery-31": (
        0, "d17be551109bd9b1c08d07d2a9deeb8dead857151bb4ad3127d5a34f9ec283b6"),
    "battery-32": (
        0, "5bda75dbd7a2171f14082e384bd3ee7c6bd0829ae2830219a2814f255629ccb4"),
    "battery-33": (
        0, "6808b62d4941a49df44deeb624ae385ff951494fcff72e8f706ca6da71e21208"),
    "battery-34": (
        0, "f6a1d5ee6b355aa3d322d809193bfc6d26b27d7f4170dd56830816e4d9beb712"),
    "battery-35": (
        0, "d3f23a4394bf596df24a3176e579ab6b79f0b143d7620366cd164f61e1259bdf"),
    "battery-36": (
        0, "db17f27fc26b7be35ca64a319a5cd4d631638b9bc2d30ca639c17414a40e9377"),
    "battery-37": (
        0, "073b376d1c45b7f7ab531b2df85ab21d4123c9605a61511aefa8135958c9c76e"),
    "battery-38": (
        0, "e40e21ee6e3273567d102f9c53bce597fb52840c9626a46003b9e4e3c257990d"),
    "battery-39": (
        0, "22a99e95cc9fb299524b8d82c9b2e637a8b11d267d1ba490f525f179ad285063"),
    "battery-40": (
        0, "30aec988116f46a8d1ba22667a024b3ec9bfb50f2c91053e2a09eb1e67054636"),
    "battery-41": (
        0, "fe150d3a9274ba56334feec3611b11c8b414f24330f1fa4e7394e082f4f7248e"),
    "battery-42": (
        0, "50a1599b269783d943e42ae307c469387a605be070b32cb94c3bd09b06f7efc9"),
    "battery-43": (
        0, "c0607d9280428e964a00e7627104c542d578a9192de0a60d58babe1d690910b0"),
    "battery-44": (
        0, "2fe2cf751ead613e8bed0edb69c5b37925e4957358b4ead6d4b6819940d98581"),
    "battery-45": (
        0, "b6c06f4d68e7837ddb960d24e751cac921b01e2f8609c493bd3452f3c5acbffa"),
    "battery-46": (
        0, "3ce61d20f45831f6f95400a8f33c2078ece1300b4b36fb35abf51f746e7d1098"),
    "battery-47": (
        0, "01348dff1feef82948284a06904fdcb8693402b6c84f381819a10d1233908ee6"),
    "battery-48": (
        0, "d06697ad34f8c5bd844e4938642955864af33e07938feb73d8dc033fb95400a7"),
    "battery-49": (
        0, "f041730f2246b3c03ec83176bfece5d5c6cb5e5055d912bf46e0c7720a60c719"),
    "pad(1,1)": (
        0, "442308b8a7bcbc40eb0e262d375a5776ef2c8e7238d7cc5dd4c2cd86df8bc048"),
    "pad(y^2-y+1,y^2+1)": (
        0, "568af86d6b03947a28d24a3a765668ea8ee4c48b37f99d07f3f8d40893c66e85"),
    "pad(y^2-y+1,y^2+y+1)": (
        0, "4fd3f01beede6caeb9b8bd44703239c9fbdcb4f7b8d56ca7bf0c4c60e8b44c97"),
    "pad(y^2-y+1,y^2+2*y+1)": (
        0, "69631c53d23e8c11cb43298badc44a164a5eab5c859d95c456233e82fa2050cc"),
    "pad(y^2+1,y^2-y+1)": (
        0, "f7ff7513b6309330530af8027fd58c489d71ba94a27efd7070b2bde8e165cf40"),
    "pad(y^2+1,y^2+y+1)": (
        0, "b725e097e93ca223fd46b37fa06d4fac23f93c39d02ee0f9832719a1b7ad534c"),
    "pad(y^2+1,y^2+2*y+1)": (
        0, "1136c1604f40149ba91b129f4faf3160cbb8ab8a4d6f52546d70c36da63ef5cc"),
    "pad(y^2+y+1,y^2-y+1)": (
        0, "6b72441adadf5690283a01060624d81d68ae3a743c7a8c91878414414c789e4e"),
    "pad(y^2+y+1,y^2+1)": (
        0, "5d1ca3a40ff4d0612277c31c9fd2a15873db651d8074b40fec7b992707a346cf"),
    "pad(y^2+y+1,y^2+2*y+1)": (
        0, "96a1c109c1a58d6812024b2dfb5cce9036fc868e6cabca3d12070f1022b60ec8"),
    "examples": (
        0, "8cf3dd1dbe7fc3ca4411f9403eb4d92b225a99a063ae4c36294a691a0a3f2071"),
    "invalid-analyze-shared-factor": (
        2, "e36054796a87775ec1c0b973a345a4441769143e1e394dc786a55dd908f5bb82"),
    "invalid-pad(y^2+1,y^2+1)": (
        2, "bd86e7f47b76d008e5d5ab69b0cf80e47ee6081ccb9891aa76f8740aa02f75ef"),
    "invalid-pad(y^2+1,y^2-2*y+1)": (
        2, "e36054796a87775ec1c0b973a345a4441769143e1e394dc786a55dd908f5bb82"),
    "anisotropy-large-entries": (
        0, "0461935e7c9e4c53f69a30c8eed504b16e1b3b43f4c541814b46459773baf10b"),
}


# the lines of tools/traffic_digest.py: one SHA-256 per benchmark
# workload over the exit codes and canonical reports of its seed 1-3
# passes.  A change to perfbench/workloads.py changes the traffic itself
# and re-pins these lines in the same change; any other change that moves
# them changes what the benchmark's commands report.
TRAFFIC = {
    "quintic":
        "938c63d5a3dea4ead08af23b28a5bdf2ccae2dd550dee84fed9562fd37a47714",
    "definite":
        "f4ed37963608f917117882f601c9ef1c0b184c2aecccadb29a94e50d5a6c37c2",
    "wide":
        "d4746ea8a4e9211781e0e87012898964344939903fe5ef7024c8f001a4241658",
}


def _tool(name):
    """The module tools/<name>.py of this checkout."""
    path = pathlib.Path(__file__).parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_traffic_is_byte_identical():
    assert _tool("traffic_digest").digests() == TRAFFIC


# the n = 5 and n = 6 lines of tools/verdict_census.py: the pairs of
# min(p, q) >= 2 of degree 5 (the O(2, 3) list) and 6, each set's counts
# with a SHA-256 of every pair's (conclusion, translation rank, lo, hi).
# The battery's verdicts are pinned by the report digests above, and
# n = 7 runs in the tool alone
CENSUS = [
    "n = 5: 78 pairs, 39 witnessed, 20 open, gap 20; sha256 "
    "5aaa17cac48fd0b9d6f58135134505d91b1b6b3e44473fb0ca5a76ce6a789df9",
    "n = 6: 212 pairs, 138 witnessed, 84 open, gap 84; sha256 "
    "2c4df0dd4397382768e08ee2b49cc1fc620ddd43ba8a57314450a62bd1259370",
]


def test_degree_5_and_6_census_verdicts_are_pinned():
    assert _tool("verdict_census").lines((5, 6)) == CENSUS


# the pads line of tools/verdict_census.py: the 11 worked examples padded
# by each ordered pair P != Q of perfbench's PAD_FACTORS at d = 6 and 12,
# with a SHA-256 of every pad's (lo, hi, base lo, conclusion).  The base's
# witnesses seed each padded Q-rank search, so no pad may fall below its
# base lo
PADS_CENSUS = [
    "pads: 240 accepted, 200 rejected, 0 below base lo; sha256 "
    "cef95ec5975ac6986e82e9c7529b38fdc0cf765e454dd6f95469f6df4fdf819c",
]


def test_pads_census_is_pinned():
    assert _tool("verdict_census").lines(("pads",)) == PADS_CENSUS


def test_every_case_is_pinned():
    assert [label for label, _ in CASES] == list(DIGESTS)


@functools.lru_cache(maxsize=None)
def _command(label: str) -> tuple[int, str]:
    """The exit code and --json text of a case's command, run once for
    both tests below."""
    argv = dict(CASES)[label]
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        out = pathlib.Path(tmp) / "report.json"
        code = cli.main(argv + ["--quiet", "--json", str(out)])
        return code, out.read_text()


@pytest.mark.parametrize("label", [label for label, _ in CASES])
def test_report_is_byte_identical(label):
    code, text = _command(label)
    doc = cli.parse_report(text)
    doc.pop("timings", None)
    text = cli.serialize_report(doc)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (code, digest) == DIGESTS[label]


@pytest.mark.parametrize("label", [label for label, _ in CASES])
def test_report_text_is_the_stdlib_json_text(label):
    # what a command writes, timings included, is the text the stdlib
    # gives for its document, so a reader can reproduce the digests
    text = _command(label)[1]
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
