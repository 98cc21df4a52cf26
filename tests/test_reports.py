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
records the new values, and why, in CHANGES.md.  tools/ab_pass.py, the
A/B timing of a pass, is run once in a subprocess for the shape of its
table.
"""
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import pathlib
import subprocess
import sys
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
        0, "8449c6528d3d5f0212fc122df701aad1a9d3f49631be58883fca0a5c4e349412"),
    "entry-ex01": (
        0, "e182ac6e7faad474e3d4fd493c4553719aaef1374c294064d57505d147bafeb9"),
    "entry-ex02": (
        0, "55d16bd51dba4c43ecd0ed04afaa7f140cbe469da85c12c78f5ba8bc7aba2e29"),
    "entry-ex03": (
        0, "03af8ce34ff825ef944122e7de93a882c979be15dd3c27050e3c6f7450e573ac"),
    "entry-ex04": (
        0, "ac5f0e8b48fda8dd361fab7203234f8c0397202a5a4d0d3dfa65b378e180710a"),
    "entry-ex05": (
        0, "d8f932ab0758aa9f1352ea9a5a799889bd6236e2bb9023497a7d7bce66686989"),
    "entry-ex06": (
        0, "fa1d4d659184b50b5d5503f0a9f0c6d24bb86119be5956da7ce2514a3d183eb7"),
    "entry-ex07": (
        0, "0e154f0cc114aa9ed49045c792b64ebe783ef8d1a5174d2cd6d6cdcb9fa9b011"),
    "entry-ex08": (
        0, "e8db020b37b9b88364972498b48b27cafb0393d66773378a13dbaf01591c736a"),
    "entry-ex09": (
        0, "43a9ccc927b607418d0f0b4d35b2595c8163486a99c0303405d6e15c42c1e687"),
    "entry-ex10": (
        0, "d165c6800c57af56be0b4bfae97a9f54c0f8b43b9014e026921818f04cf8007e"),
    "battery-00": (
        0, "0ed549f09650fbde7917788221135f89948e0d6eec0e22305d0ea07f7b7c8966"),
    "battery-01": (
        0, "56e12cef96ffdd9c59781a1bdd74ac9cec29ba0d00e3ec29de085d9c4ec9edc0"),
    "battery-02": (
        0, "4dfbcd0862275a706ca3736214341d696ff68b714090ca6bcc022731ce24baf9"),
    "battery-03": (
        0, "baa48397640e4cd9f25c01fd107fa28cb0d74bf293502e9011f813d507af253a"),
    "battery-04": (
        0, "ea933c399ec1084041c7fe6b37e9d16bce9322453be94b7ac4c5be663401132a"),
    "battery-05": (
        0, "519617de42d95d7fa11aa81c592a5842c6c411bb9969c2fe88e367b6e5a7b640"),
    "battery-06": (
        0, "d3f7157fd05df89aacb171fd5ed36e9fb143d55d403e67bfdaddcfce32f93d41"),
    "battery-07": (
        0, "679433dd2c5cdbe3f6073e0ff748a1435e45c5b3474a9ac980c2120b79525708"),
    "battery-08": (
        0, "1786d91ba6a9bb3756d5b6a9c65f5fbcbceef7f4a0d8086c62e793d457845935"),
    "battery-09": (
        0, "182ac1fda02b3075b86af7f77d253f3d12b7b1417260a58e0b346446b71347af"),
    "battery-10": (
        0, "e06523d1523425eb1a5479f2343c670c0ff695e8d5122e05cb9930eaeb0d2fb0"),
    "battery-11": (
        0, "c07d0311f49e4d73cecae5d3b861be51e6d984fdc2f92855dd28cf94fb58b8ef"),
    "battery-12": (
        0, "47e6f6475355448691968d1a036f6cd7e7aaed50fed28e293df79c87df134486"),
    "battery-13": (
        0, "cedcfd93dc4b4acb0e465976d881fbcc72342062b38de63671972b893ddea1a6"),
    "battery-14": (
        0, "ad44ca67a5f1d47ebb89a7248d180233ed54524a395871569c1047dbb044ae49"),
    "battery-15": (
        0, "9f9746c3573cc6f14ace9b9adbdd3120c2cfea75a61fff19443c7b374f510454"),
    "battery-16": (
        0, "0271a380aee096a158eed2000a403f9456264063870ef09b3a341271cd4345f7"),
    "battery-17": (
        0, "b60a0dd0b011a778ef2db3ad77134f731fb1f284ba4bf57fc2e8d2c521ff9b71"),
    "battery-18": (
        0, "f421cebc5e0ba7741779869f946e5982950690494f80ef74d223ca1822533dfd"),
    "battery-19": (
        0, "a223833a642b09095e25d20d6c3f26ed72b87567de722e2bbddc0bcd9e62e8c5"),
    "battery-20": (
        0, "9a11c5b475775014b33f4fd975324b797e6ed7869c8555fe4569225800643870"),
    "battery-21": (
        0, "29ec234cf2bc71794387f61bd53ef7630de7c816974ef6184fca68c2d3af5d08"),
    "battery-22": (
        0, "e614495e43af31c9cfb904f30ec8a587417b3cced74244c9eb43fd3d3daeb199"),
    "battery-23": (
        0, "98a77874bff4fc2932a850698610f0e625737296b7bf60d2bcd2ee1989881ff1"),
    "battery-24": (
        0, "58da3238b843fc9aff473083308b30b0c24c2e14640f95fc17355fa251de9ba7"),
    "battery-25": (
        0, "07111e7472b5a5a24ad9d847821caa75a0463b5be649ac823a5da88d79d3faac"),
    "battery-26": (
        0, "6f8a8e59d3fcd57ad67cb8c65eba06790dc15af10de06a454fba2c324af0e902"),
    "battery-27": (
        0, "e039b2e1a8555a21f42f244ab45206ab45c801460421aed5785ba3cea785cc67"),
    "battery-28": (
        0, "4a61ff383b8f23db7255f2d32b504f5515d4360c6a1951d64a837d69556db6fb"),
    "battery-29": (
        0, "2681ab68e87408874af6202b73b9146c5299bf6499120ce132b3cc7942802ba6"),
    "battery-30": (
        0, "98b1cc822b5fb9b7b8f11c76052185e3303951578eeb17ad5820c5434320f125"),
    "battery-31": (
        0, "3ed43700ed975ebe985854442acbb3ced86c6f197555bd317d7fc3ffb80a28a8"),
    "battery-32": (
        0, "8c618ffcd57b5e7638a1e2e6e44838d52e3f60fc1523cc224d38c8e69a985093"),
    "battery-33": (
        0, "c8c80edad19923a878d9996239dd7a507e4985c5d791bf51b67faabc20984fa4"),
    "battery-34": (
        0, "90e39713ad579f2e52286cda68901594a27c790e72d50fa44f09c5d402ab0845"),
    "battery-35": (
        0, "413e360483bb764d59eda1ade84459d130979eadf75f11784b2dbe57b7711ddf"),
    "battery-36": (
        0, "6482c24a900c38a251721638e728dbf1123e006a446fbf85e6d29139d9c52a3a"),
    "battery-37": (
        0, "0621a1c68c0103a48399385e4bb195dbe16135a9845b693d32b036801f177637"),
    "battery-38": (
        0, "bf4601c23dbc2b3c555ba478b754e80eec09808e6ce3b5473aec931074486a07"),
    "battery-39": (
        0, "d69b8faa4dd8d87c4e823c0422a55b6bd5b0baabb88715b17c0c2449ce476dc7"),
    "battery-40": (
        0, "e8b86b4110a33eb869442531a3199fc8680a7faa64f89a035e7c935e7c21d67a"),
    "battery-41": (
        0, "783e30547fff1ea9f05639d3b4de0672af340cee5ce3000749eceabb95e6e739"),
    "battery-42": (
        0, "88baf51a935338f2d754611f57812ba3e30a51ab61f1bc4006261fb70e22dc1a"),
    "battery-43": (
        0, "d31537f94ef244711f830903ab10d7475a2b8a689645913b034a69cc9f3d8f4e"),
    "battery-44": (
        0, "d7199a3654473fed8d6eecae27b2f48f971c651111cfc81e091ca3e8a408fa19"),
    "battery-45": (
        0, "6f9d544d7b504be4a1b75a35680b54091fe2174c2548382148fc229bf2ad8afd"),
    "battery-46": (
        0, "dec3cc7c10ca34d1eda70fd083c2e6569c5738505a7cb032637a951293c71178"),
    "battery-47": (
        0, "c8deab494fc7667ed0e7f7bcded76c421bab6d6e3054def4d5c136ef46588175"),
    "battery-48": (
        0, "7140eee2914238a0f7d823073e80b7e6636e1b542e904adfd65f87a0b53c3e84"),
    "battery-49": (
        0, "b33015261ec989e50b2b8388d9a9bda15ae0b35ae0a3f25533850e0a455b611e"),
    "pad(1,1)": (
        0, "a0d3412e9c0f8f6e164f1a9a3c73f5806e567157f83a8b8d324e9e8e1089bb1e"),
    "pad(y^2-y+1,y^2+1)": (
        0, "80dabe305f055da486141c96eefacb996bfd7b8117804c122a8b53c6ef38506e"),
    "pad(y^2-y+1,y^2+y+1)": (
        0, "474d55550c89e64c8ce4c3c937c1e55ef3cad6be2864743100c0b3e9f8ecb4f4"),
    "pad(y^2-y+1,y^2+2*y+1)": (
        0, "8ded6539f6e8660a80ae525f1ed51ecc226ca4a8c777a0ac68e1869f28df55ac"),
    "pad(y^2+1,y^2-y+1)": (
        0, "0d08b62088e491efca01b5a4501f1e635f02049e35cdefcc887a002eabeee04f"),
    "pad(y^2+1,y^2+y+1)": (
        0, "ca540896bd070149e04f5ceeec19890213b3f89bf95949733eeb6cdd4e8791e6"),
    "pad(y^2+1,y^2+2*y+1)": (
        0, "25bc82671604d221a53ab47209403cf2f4a1bfdd69a0f86cc13f2235b1d44fcd"),
    "pad(y^2+y+1,y^2-y+1)": (
        0, "6954429bff5310ee83adf7d84195e0210a1e6f58fc7b11b35c6f77acd24fdc49"),
    "pad(y^2+y+1,y^2+1)": (
        0, "f99f5f93fe8e610a73b96d9c2f85163b26893a518eff74e26cc84ffe577b6ce8"),
    "pad(y^2+y+1,y^2+2*y+1)": (
        0, "a95add03dbee7f9eba576ec31bb9578e0f8776ae37750427a82f8f14431dfc07"),
    "examples": (
        0, "8cf3dd1dbe7fc3ca4411f9403eb4d92b225a99a063ae4c36294a691a0a3f2071"),
    "invalid-analyze-shared-factor": (
        2, "e36054796a87775ec1c0b973a345a4441769143e1e394dc786a55dd908f5bb82"),
    "invalid-pad(y^2+1,y^2+1)": (
        2, "bd86e7f47b76d008e5d5ab69b0cf80e47ee6081ccb9891aa76f8740aa02f75ef"),
    "invalid-pad(y^2+1,y^2-2*y+1)": (
        2, "e36054796a87775ec1c0b973a345a4441769143e1e394dc786a55dd908f5bb82"),
    "anisotropy-large-entries": (
        0, "486f02fce993ab91146ce347829761f919da4ba0d224f18cd405dee9d1ad9adc"),
}


# the lines of tools/traffic_digest.py: one SHA-256 per benchmark
# workload over the exit codes and canonical reports of its seed 1-3
# passes.  A change to perfbench/workloads.py changes the traffic itself
# and re-pins these lines in the same change; any other change that moves
# them changes what the benchmark's commands report.
TRAFFIC = {
    "quintic":
        "3a7c7f5fc0e8c1229b84424161c12a19ba7dd2ab80253b824f9d7df77b718670",
    "definite":
        "c08673650a2ebf5751bfe05008caecfa2cd9c989a47c9b689a960747607d0ae9",
    "wide":
        "fa8a93882ecb6b1486f2eb270d72f1a36a1bcf701f6aa01989a82c8d32789c48",
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


# the n = 5, 6 and 7 lines of tools/verdict_census.py: the pairs of
# min(p, q) >= 2 of degree 5 (the O(2, 3) list), 6 and 7, each set's
# counts with a SHA-256 of every pair's (conclusion, translation rank, lo,
# hi).  The battery's verdicts are pinned by the report digests above
CENSUS = [
    "n = 5: 78 pairs, 51 witnessed, 20 open, gap 20; sha256 "
    "fa212afa16e3c7b5cb523bf0a0c3a2bd5c9e9bbd74e1b948323381a090c87351",
    "n = 6: 212 pairs, 139 witnessed, 84 open, gap 84; sha256 "
    "e73458a73effc65760cd1b5a9c53e5b5e3957368ad848d8e534bfec2126ed75b",
    "n = 7: 550 pairs, 305 witnessed, 275 open, gap 387; sha256 "
    "2e62f0bff86fe5437398362f3ac3e4ccf9ceaae8769aeb675c9727b19f592fa7",
]


def test_degree_5_to_7_census_verdicts_are_pinned():
    assert _tool("verdict_census").lines((5, 6, 7)) == CENSUS


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


# tools/ab_pass.py swaps orthomono's modules in sys.modules, so it runs in
# a process of its own; against its own checkout, one round of the
# definite pass gives a row per command kind and one for the pass, each
# with the ratio's quartiles, which one round makes the ratio itself, and
# the rounds in which this side was faster

def test_ab_pass_prints_a_row_per_kind_and_the_pass():
    root = pathlib.Path(__file__).parent.parent
    done = subprocess.run(
        [sys.executable, str(root / "tools" / "ab_pass.py"), str(root),
         "--workload", "definite", "--rounds", "1"],
        capture_output=True, text=True, timeout=300, check=True)
    title, header, *rows = done.stdout.splitlines()
    assert title.startswith("workload definite, seed 1, 1 rounds; ")
    assert header.split() == ["kind", "commands", "this/other", "q1", "q3",
                              "faster", "this", "ms", "other", "ms"]
    rows = [row.split() for row in rows]
    assert [row[0] for row in rows] == ["analyze", "pass"]
    assert rows[0][1] == rows[1][1]
    for _, _, ratio, q1, q3, faster, this_ms, other_ms in rows:
        assert float(ratio) > 0 and q1 == ratio == q3
        assert faster in ("0/1", "1/1")
        assert float(this_ms) > 0 and float(other_ms) > 0


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
