"""Pinned digests of the Sequitur grammars every caller builds.

Each case stores the sha256 of a grammar's ``to_productions()``, rule
ids included, in the format ``perfbench/workload_profile.productions_digest``
uses.  A change to the Sequitur kernel may make it faster; it must not
move a production, a rule id or the order in which rules are created,
and any of those changes a digest here.

The cases cover every kind of terminal the callers feed:

* WHOMP's four dimension grammars (int terminals) on all eight
  registered workloads;
* RASG split by dimension (ints) and interleaved (``("I", id)`` /
  ``("A", addr)`` tuples);
* the hot-stream grammar of ``extract_hot_streams`` (``(group, serial)``
  tuples).
"""

import hashlib
import json

import pytest

from repro.baselines.rasg import RasgProfiler
from repro.compression.sequitur import Ref, SequiturGrammar
from repro.core.cdc import translate_trace
from repro.core.omc import ObjectManager
from repro.core.tuples import DIMENSIONS
from repro.postprocess import hot_streams
from repro.profilers.whomp import WhompProfiler
from repro.workloads.registry import SPEC_BENCHMARKS, create

#: small enough to keep the module at a couple of seconds; ``micro``
#: runs at a larger scale because it is tiny
SCALES = {**{name: 0.02 for name in SPEC_BENCHMARKS}, "micro": 0.3}

WHOMP_PINS = {
    "gzip": {
        "instruction": "66582e4acf6430767e71aa33de8e5833a1941a01fd14e6ff23e53f811980f07a",
        "group": "fbf0d3c855c3eea3dc8fdf83bd10c88a1ab153409c6fc11dfed90d3a597124cb",
        "object": "df806cfa388b5fccd8ca52983e58dcb4fb87f42fd3655fbf1ad9ebabf7e8eb3f",
        "offset": "04f766dc9e93bf95df304fe6df496b87884778faf7f81ec1423b4945487992e3",
    },
    "vpr": {
        "instruction": "f1a562cc301fd3cb7a0d3f280156cb21e2bea4363771bc832fe0e1b024970a4b",
        "group": "67e7e2c1e2c63b8dbbac3e2970a6fb3b1753c18b77a94462f59588bf3d7fec92",
        "object": "5f41fe7d979782a3942cd7d5a9fbb95e180981902c99f7b6a6d7251dbc081a6b",
        "offset": "bdaf90df3676aeaff7c1245f8e7e826a7699d7834a82b41134b919fe714d1a64",
    },
    "mcf": {
        "instruction": "6ce428aaecb192dc90f99e076366643dce961db607052b2d2c7f73e808eba8a1",
        "group": "489cc444bab5b268de914884e40b1d20768feb94a706e4bc6f00869d6bccc9c0",
        "object": "3acb95af687a8c7259be0b3669c9d369cc8cecba0eac687691a01f8fc63307cd",
        "offset": "360b9cf00a0b072a4db45d318d5f1a30067d3b3ab064b1babf593f792023d29f",
    },
    "crafty": {
        "instruction": "002f3020b0223c313843b893b7401b97f23bb35cdd45b021e5bddee3304241fb",
        "group": "4d956de8ea4c4926c6071bf5cd18d0f69263aac48540a19361f6cf5d3bd5ba68",
        "object": "03fe9b662f9a1c71ce1e6c765513b81388ae04f6bec08ee8dd265190a6b55f50",
        "offset": "bd37a33f194a764e6b46f3c11bc90edafbd50f3022dbbfde0ba4976476de6329",
    },
    "parser": {
        "instruction": "5a498420e3c7bbd699fd02cd35346930edcbc0d2d45239568f59d42b4e904aa6",
        "group": "87db61cf5810994a8deb88c606f1d73e97a190ba0eb0935b1c3800903d8da30d",
        "object": "3ab31cfca90862717ee592fc1b8a9749b11517774366d8343cd1a5d11faacfe4",
        "offset": "7865599fdf10e604314687c8eae85743f60c22c792789c9b37ff4ff323e92824",
    },
    "bzip2": {
        "instruction": "e421723dbca45a6dbab1beacf9832028c04a2ee83e734134031d64f1a88f8333",
        "group": "83cb6ef5f7c036a12822242247496611f2914e2e758bf869de00a0b58ee269af",
        "object": "170fd5d31a388fb955d46f42415ebb626c89c9cc7cc768f69b044ec6a362b9b9",
        "offset": "6a11ed82517367286f2bd7282be0506f5d685a2e95ff087157a35aadef15abb2",
    },
    "twolf": {
        "instruction": "1606d859c52743c3390b0d9205f1df7b49a955b90aad4052b8a61ba1adf555e9",
        "group": "78b48026eba1d621d6124536984db907d4e9a4dc627987030cf18ac3b43e2b2a",
        "object": "6c0c509aad932b6eb6cc00313176fbee03d69c58afc1ac43991616e53abc5d74",
        "offset": "e406e7ed6e9f918c358fd306bfe4c59eeba0c980da80a8d6432ebab305773f9c",
    },
    "micro": {
        "instruction": "b9e95f17d661308f47e9bfd1d552066d6d28ce4d05d991cbe9f6a4ddc6a2e479",
        "group": "c86326c37b53cc44d36096dd9ebdc98d3d6f8e1498b6804cd87e263fda2646b6",
        "object": "c86326c37b53cc44d36096dd9ebdc98d3d6f8e1498b6804cd87e263fda2646b6",
        "offset": "e5b171dc4ff87ca9aa9f682a367cdf2cf9f7232d56390b82f8323f3ad47a30d3",
    },
}

RASG_PINS = {
    "split": {
        "instruction": "66582e4acf6430767e71aa33de8e5833a1941a01fd14e6ff23e53f811980f07a",
        "address": "1175321c2060759b9c2a921a22f2afc416f5c8ba7e7f6e2ab1e2306620e657ff",
    },
    "interleaved": {
        "stream": "0cae543239dc72f44c6cecb146918aabe31ae05cd60517c304e0762dace75ba4",
    },
}

HOT_STREAM_PIN = "88013c40e2eb09d44585be2c726abcbc1c7ef03bf497e20b4a4a4b4b6459d627"


def productions_digest(grammar: SequiturGrammar) -> str:
    rules = [
        [rule_id, [["R", s.rule_id] if isinstance(s, Ref) else ["T", s] for s in rhs]]
        for rule_id, rhs in sorted(grammar.to_productions().items())
    ]
    text = json.dumps(rules, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trace_of(name: str):
    return create(name, scale=SCALES[name], seed=0).trace()


@pytest.mark.parametrize("name", list(WHOMP_PINS))
def test_whomp_dimension_grammars(name):
    profile = WhompProfiler().profile(trace_of(name))
    digests = {d: productions_digest(profile.grammars[d]) for d in DIMENSIONS}
    assert digests == WHOMP_PINS[name]


@pytest.mark.parametrize(
    "mode, split", [("split", True), ("interleaved", False)]
)
def test_rasg_grammars(mode, split):
    profile = RasgProfiler(split_dimensions=split).profile(trace_of("gzip"))
    digests = {n: productions_digest(g) for n, g in profile.grammars.items()}
    assert digests == RASG_PINS[mode]


def test_hot_stream_grammar(monkeypatch):
    built = []

    class Recording(SequiturGrammar):
        def __init__(self) -> None:
            super().__init__()
            built.append(self)

    monkeypatch.setattr(hot_streams, "SequiturGrammar", Recording)
    trace = trace_of("twolf")
    hot_streams.extract_hot_streams(translate_trace(trace, ObjectManager()))
    assert len(built) == 1
    assert productions_digest(built[0]) == HOT_STREAM_PIN
