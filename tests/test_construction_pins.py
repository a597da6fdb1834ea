"""The constructions write the same certificates as they did when these
digests were taken.

Each digest is the sha256, cut to 16 hex digits, of two lines per
instance: `certificate.json_text()` of `glg_realization`, then that of
`single_extra_realization`, or "-" where it refuses the instance
(HypothesisNotMet).  So any change to a certificate's digraph, ordering,
extras or base shows up here, and so does a change in which instances
take one extra.  Each line must also be what
`json.dumps(..., sort_keys=True)` writes for its document, byte for
byte.  Each certificate's body, read by label, must come back from the
label-to-position step as the same body and labels, and its digraph must
verify with the same extras: the position bodies the constructions build
and the label bodies from outside agree.

SMALL holds, per connected atlas base of 2-5 vertices, the digest over
all of its weight maps with weights 0-2 in product order.  RANDOM holds
the digests of `random_instances()`, in order: seeded random sparse bases
of 8-20 vertices with up to four weighted vertices.  HEAVY holds those of
`heavy_instances()`: complete bases of 6-10 vertices with weights up to 6,
where the blocks and the cliques placed for them are largest.

PINNED holds, per SMALL base, the digest of one line per edge e of the
base, in sorted order, and per weight map {} and {first vertex: 2}: the
text of `glg_realization(h, weights, e)`, or "-" where it refuses the pin.
DISCONNECTED holds, per atlas base of at most 6 vertices that is
disconnected and has an edge, a pair of digests: the two lines of each of
the weight maps {} and {first vertex: 2}, then that base's pinned lines,
as for PINNED.  They cover the roots of the components off the pin (a
simplicial edge or the largest edge), the order of the chain, and the
refusal of a lone edge pinned while other components hand on two cliques.
"""

import hashlib
import itertools
import json
import random

from corpus import atlas_graphs, connected_graphs, random_connected
from glgcomp import (Graph, HypothesisNotMet, glg_realization,
                     single_extra_realization, verify_realization)
from glgcomp.graph_core import is_connected
from glgcomp.realization import _positions

SMALL = {
    "2:01": "c35d25107076d5cc", "3:01-02": "0423a30f05890bb9",
    "3:01-02-12": "ca5d3e384b782ea8", "4:03-13-23": "af34c8db9554c7cf",
    "4:01-03-12": "691df10ab19deabc", "4:03-12-13-23": "939c06c930fffbff",
    "4:01-03-12-23": "b85b8b7fa9fc3ae1",
    "4:01-02-03-12-23": "140c7572d6d9566f",
    "4:01-02-03-12-13-23": "0000e2dfecd8be7b",
    "5:04-14-24-34": "670d346a36d49bd5", "5:04-13-23-34": "22eff14031aae921",
    "5:01-04-12-23": "9ebecd84b8ad9ff3",
    "5:04-14-23-24-34": "7fa46052977ccce2",
    "5:01-02-04-12-23": "73388c6a1ba5c633",
    "5:04-12-13-23-34": "3d6cf615c160ef5a",
    "5:01-13-14-23-24": "3c58e9a164ce6841",
    "5:01-04-12-23-34": "c21ae03f6cca43b5",
    "5:01-12-13-14-23-24": "7bf5c83c4f0e3e92",
    "5:01-13-14-23-24-34": "ce6508de264a1c88",
    "5:01-04-14-23-24-34": "ffd6d844031bbb10",
    "5:01-03-04-12-23-34": "d4b0a59e803503be",
    "5:02-03-04-12-13-14": "315f4cbc8846e0f4",
    "5:04-12-13-14-23-24-34": "1157b7a6f1976f36",
    "5:03-04-13-14-23-24-34": "ce54300c338218e2",
    "5:01-04-12-13-14-23-34": "7eebbff921299e1c",
    "5:02-03-04-12-13-14-24": "c1ea38e443b553d1",
    "5:01-03-04-13-14-23-24-34": "3147fd490b05c3f7",
    "5:01-03-04-12-14-23-24-34": "77d11d9b002413b0",
    "5:01-03-04-12-13-14-23-24-34": "882aac11907c0682",
    "5:01-02-03-04-12-13-14-23-24-34": "5a32e7a00f2ada8e",
}

RANDOM = [
    "2486ff89f22e6fbe", "cdcc5e8df5281124", "3c4da6705a0bee31",
    "8aa54b94e6b27d41", "c65c65430bc2ede9", "c9ad6b8e330648bc",
    "04a1fdd81afc8adc", "5b98b69fb12203df", "e257a13adf318922",
    "cc88a3b3498c5955", "6ef40a66402ce833", "37754671d75856df",
    "8c87e5c5a5074362", "941b0bfc66927ecf", "8c3022f014f24b44",
    "dbcd202f6e086b03", "fbbaa862f7a90200", "29eaa7aaebb9e202",
    "e3088b50a135f5d9", "a2ad02e397218d1a", "32affb4a63baf478",
    "39514d3e460e1ab0", "704175ef653e1951", "216a4e6fd607bafa",
    "38327fb135f143d9", "f85c99c1a23cbb32", "a93f2346b4876a90",
    "dc71c99a0d5093e4", "1f1ea1c3673c2511", "c531a1bc178389c3",
]

HEAVY = [
    "a7d4920b2f8df47a", "cc923a80b2bfb97b", "8854dfd01980600f",
    "aeba3db68acd9a0c", "280dcf5a3e08b8ef", "c1e5695418045168",
    "63277ad231c809be", "53d23282724ffd37", "eb7b5e5cdef2349b",
    "9d05ebc146bd5348", "0a314be951a1c0ba", "1f1c50d4f7dd0d6d",
    "f97f7e6a83301123", "5022c51d8c2c56de", "6610dd6430cc8ed5",
    "7bc8b27f48baa4c7", "6cd1ff6c764e7838", "04fa0632b928dce4",
    "3ae5a0fc3564c0e0", "f3c270b1d84b141e", "ff92bd8ed857bc4e",
    "d2e8f978c6a3aa96", "2884e610a3c6ea3d", "76d9c61265461919",
    "339c89b0f076980a",
]

PINNED = {
    "2:01": "d9b1deafade2519e",
    "3:01-02": "ffc774e4b247d7cd",
    "3:01-02-12": "daff0631499fd4c5",
    "4:03-13-23": "b63fed782444ae66",
    "4:01-03-12": "2247c3d5c4a203cd",
    "4:03-12-13-23": "bbd132a446ae8fdc",
    "4:01-03-12-23": "a3bc842f8f0e8568",
    "4:01-02-03-12-23": "6937a05e13ee6b10",
    "4:01-02-03-12-13-23": "4d4f587558efcb0a",
    "5:04-14-24-34": "2e0d2fd81a6468f7",
    "5:04-13-23-34": "aa7c4da0f833dff0",
    "5:01-04-12-23": "2c09b890e67247d5",
    "5:04-14-23-24-34": "0d556121a73b4d81",
    "5:01-02-04-12-23": "c21ba326b89a8f25",
    "5:04-12-13-23-34": "4303f93d9416a0ed",
    "5:01-13-14-23-24": "06a03e005c1f529f",
    "5:01-04-12-23-34": "5fabd2e433d864d8",
    "5:01-12-13-14-23-24": "35b7b125ed3e835f",
    "5:01-13-14-23-24-34": "b0314f3e43640558",
    "5:01-04-14-23-24-34": "8ba956e504dc8d8f",
    "5:01-03-04-12-23-34": "39207432efb0b03c",
    "5:02-03-04-12-13-14": "e973ccaba93657f5",
    "5:04-12-13-14-23-24-34": "b9be05fe3648f071",
    "5:03-04-13-14-23-24-34": "47b1d5c2115ccced",
    "5:01-04-12-13-14-23-34": "7faea7a5f5b45f30",
    "5:02-03-04-12-13-14-24": "18a0f450e9bb54ae",
    "5:01-03-04-13-14-23-24-34": "ff5020bd07027f3f",
    "5:01-03-04-12-14-23-24-34": "17c334d9ae0aa32e",
    "5:01-03-04-12-13-14-23-24-34": "f45374de6a2998e8",
    "5:01-02-03-04-12-13-14-23-24-34": "efefd4b56e3dd690",
}

DISCONNECTED = {
    "3:12": ("14474cce5330a5ad", "1767edca760fa507"),
    "4:23": ("634c4c66108c71f9", "9a2065fca75be93f"),
    "4:13-23": ("9de6514ddf0cf630", "1ad75c4c4098b45f"),
    "4:01-23": ("e72931d8ca946006", "01b8b278864cbd25"),
    "4:12-13-23": ("a82876b9185b07db", "c8e19e82a181045e"),
    "5:34": ("ff29a5a40e1159d4", "de70a3fbc2bd942a"),
    "5:01-12": ("a8d79757ee4a022f", "57453af5bed8faaa"),
    "5:02-34": ("1aba0f95d5325020", "a578d332cfe27ae5"),
    "5:01-02-12": ("e99cbef2aabcd704", "daff0631499fd4c5"),
    "5:13-23-34": ("6d72fb239174c44a", "6216e92116b77cca"),
    "5:04-23-34": ("354dbd75c005d8e5", "33c010f7fd565f1b"),
    "5:01-12-34": ("90064020886a4a8e", "f295c3f522918ff5"),
    "5:12-13-23-34": ("eb28ad59294bbdfe", "f4bee769068b57a7"),
    "5:01-03-12-23": ("5b9d7e5122cde2b1", "a3bc842f8f0e8568"),
    "5:01-02-12-34": ("5bf24ce4f9702f2e", "8621f1b4291605f9"),
    "5:01-02-03-12-23": ("90b83422681779de", "6937a05e13ee6b10"),
    "5:01-03-04-13-14-34": ("7456731019a1e4ed", "4e204f46d8a82762"),
    "6:45": ("f4dc0d879f692e5f", "5ae6d1e047fb67df"),
    "6:03-45": ("6b51430634c93573", "acb34ab8882fe0a4"),
    "6:12-13": ("ff8462d86fb8c9a7", "9524570ed71f699e"),
    "6:12-13-23": ("a82876b9185b07db", "c8e19e82a181045e"),
    "6:03-04-05": ("1778ebe2740cbfcb", "e53cc19d9497e89d"),
    "6:05-34-45": ("5f1499d5b20b2818", "62c3379413ce754c"),
    "6:15-25-34": ("b7e3bd7d3dafe6df", "5424dc249d3bc9f1"),
    "6:03-12-45": ("7770a2009ee7fbab", "224a650184cf6085"),
    "6:03-04-05-45": ("f5fb972865b4ff10", "7b2838cee1769080"),
    "6:03-04-35-45": ("f1181f31c0537448", "e0fb6faa9bf8287d"),
    "6:05-15-25-35": ("89e210059ee06aa2", "280fcf9b8cc948b5"),
    "6:04-13-23-34": ("8da4ffea7d603101", "aa7c4da0f833dff0"),
    "6:02-12-13-35": ("83f4ea7b6b2d3392", "e0d1100a71f47f70"),
    "6:05-12-13-23": ("6221620fcca673e8", "ae969a0fef814ecf"),
    "6:03-04-05-12": ("865ad2d91fe44d38", "a93fa503b11937e2"),
    "6:05-12-34-45": ("31a47d993e3ab68e", "0673ff22f37553a2"),
    "6:02-04-13-35": ("8c2cecb1eb97e511", "0546d0cb9fc06fee"),
    "6:03-04-05-35-45": ("16aae6e2316a36da", "39a1fafcf28196c3"),
    "6:13-23-34-35-45": ("aef6f67f92d8130a", "514765c08dc58a57"),
    "6:04-23-34-35-45": ("8a68a33271089d4b", "8958ed7cb0bca8db"),
    "6:04-12-13-23-34": ("c73a41b81939fe98", "4303f93d9416a0ed"),
    "6:04-12-14-23-34": ("8f532187e2875149", "3a3d6464a1d7891b"),
    "6:01-04-12-23-34": ("cf17b86144355303", "5fabd2e433d864d8"),
    "6:01-12-13-23-45": ("b64d558579336170", "9293fa89b01091ab"),
    "6:03-04-15-25-34": ("5123fd1ac4471256", "b5c3567ec96bd7d2"),
    "6:03-04-12-35-45": ("013bc2c24bc674df", "216bff809ad0b520"),
    "6:03-04-05-34-35-45": ("42e310d21c1b562c", "0f0367e9b47d18d2"),
    "6:04-13-14-23-24-34": ("dd1539c3273128c9", "b16980aa30a0dfee"),
    "6:04-12-13-14-23-24": ("bf8fe297cdc1777c", "ab904e6bc2f17de9"),
    "6:02-04-24-34-35-45": ("41b7cf94823fd70d", "8d98e4255c18f8b7"),
    "6:01-03-04-12-23-34": ("90132724403ae6d9", "39207432efb0b03c"),
    "6:01-02-13-14-23-24": ("78b593429f1bcea3", "5eafaaad823a887c"),
    "6:03-04-05-12-35-45": ("3189e1d931b251ac", "86352cde3dea96ba"),
    "6:04-05-12-13-23-45": ("fad313b5e8e49ad1", "a94ebeaff9c532be"),
    "6:01-02-03-05-12-13-23": ("79bfb4d3c402bc73", "a208cc2255d125f5"),
    "6:01-02-12-13-14-23-24": ("6fbc2607e7e69500", "3904316c24df6416"),
    "6:01-04-12-13-14-23-34": ("5b83ba6183691230", "7faea7a5f5b45f30"),
    "6:01-02-03-13-15-23-25": ("b82b195573f58046", "004f23953b85594f"),
    "6:01-02-03-12-13-23-45": ("74f69841d7e25d1d", "4a742f2e0d25d6dd"),
    "6:01-02-03-12-13-15-23-25": ("50057aef561706ae", "efb258f2088e7c1e"),
    "6:01-03-04-12-14-23-24-34": ("72a09411cf0f2681", "17c334d9ae0aa32e"),
    "6:01-03-04-12-13-14-23-24-34": ("75f333f0b9af294a", "f45374de6a2998e8"),
    "6:01-02-03-04-12-13-14-23-24-34": (
        "a1e7356ac2853674", "efefd4b56e3dd690"),
}


def certificate_line(cert):
    """The certificate's text, which must be json.dumps of its document
    byte for byte."""
    line = cert.json_text()
    assert json.dumps(json.loads(line), sort_keys=True) == line
    name = cert.labels.__getitem__
    entries = [(name(v), frozenset(map(name, clique)))
               for v, clique in cert.body]
    assert _positions(entries, cert.base) == (cert.body, cert.labels)
    assert verify_realization(cert.digraph, cert.base, cert.k).added == \
        cert.added
    return line


def certificate_lines(h, weights):
    """The two lines one instance adds to its digest."""
    lines = [certificate_line(glg_realization(h, weights).certificate)]
    try:
        cert = single_extra_realization(h, weights)
    except HypothesisNotMet:
        lines.append("-")
    else:
        lines.append(certificate_line(cert))
    return lines


def weight_pair(h):
    """The two weight maps of the pinned and disconnected digests."""
    return {}, {h.vertices[0]: 2}


def pinned_lines(h):
    """One line per edge of h and weight map of weight_pair: the pinned
    construction's certificate, or "-" where it refuses the pin."""
    lines = []
    for e in sorted(h.edges):
        for weights in weight_pair(h):
            try:
                cert = glg_realization(h, weights, e).certificate
            except HypothesisNotMet:
                lines.append("-")
            else:
                lines.append(certificate_line(cert))
    return lines


def disconnected_bases():
    """Every atlas base of at most 6 vertices that is disconnected and has
    an edge."""
    return [h for h in atlas_graphs(6)
            if any(h._rows) and not is_connected(h)]


def digest(lines):
    text = "".join(line + "\n" for line in lines)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def base_key(h):
    return "%d:%s" % (len(h.vertices),
                      "-".join(a[1:] + b[1:] for a, b in sorted(h.edges)))


def random_instances():
    """30 sparse connected bases on r0..r(n-1), 8-20 vertices and n - 1 to
    n + 3 edges, each with 0-4 vertices of weight 1 or 2."""
    rng = random.Random(20231)
    out = []
    for i in range(30):
        n = 8 + i % 13
        h = random_connected(rng, n, rng.randint(n - 1, n + 3))
        weighted = rng.sample(h.vertices, rng.randint(0, 4))
        out.append((h, {v: rng.randint(1, 2) for v in sorted(weighted)}))
    return out


def heavy_instances():
    """25 complete bases on k0..k(n-1), five for each n of 6-10: one with
    every weight 6, then four with each weight drawn from 0-6."""
    rng = random.Random(20241)
    out = []
    for n in range(6, 11):
        verts = ["k%d" % i for i in range(n)]
        h = Graph(verts, itertools.combinations(verts, 2))
        out.append((h, dict.fromkeys(verts, 6)))
        for _ in range(4):
            out.append((h, {v: rng.randint(0, 6) for v in verts}))
    return out


def test_small_bases():
    got = {}
    for h in connected_graphs(5, min_edges=1):
        lines = []
        for values in itertools.product(range(3), repeat=len(h.vertices)):
            lines += certificate_lines(h, dict(zip(h.vertices, values)))
        got[base_key(h)] = digest(lines)
    assert got == SMALL


def test_random_sparse_bases():
    got = [digest(certificate_lines(h, w)) for h, w in random_instances()]
    assert got == RANDOM


def test_heavy_complete_bases():
    got = [digest(certificate_lines(h, w)) for h, w in heavy_instances()]
    assert got == HEAVY


def test_pinned_edges():
    got = {base_key(h): digest(pinned_lines(h))
           for h in connected_graphs(5, min_edges=1)}
    assert got == PINNED


def test_disconnected_bases():
    got = {}
    for h in disconnected_bases():
        lines = []
        for weights in weight_pair(h):
            lines += certificate_lines(h, weights)
        got[base_key(h)] = (digest(lines), digest(pinned_lines(h)))
    assert got == DISCONNECTED
