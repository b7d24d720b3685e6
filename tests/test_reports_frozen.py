"""Frozen command-line reports: one SHA-256 per command and input.

Each digest covers the exit code, standard output, standard error and the
--out report of an in-process `lie2` call.  The inputs are the catalog
fixtures over F2 and seeded GF(4) and GF(16) lifts of them, rewritten in a
random basis with the arithmetic below, so a refactor of the algebra layers
that changes any byte of any report fails here.  The digests were recorded
from the scalar implementation that preceded the packed F2 core.  Every
fixture with a 2-map is also run with its `two_map` removed (label suffix
`/synthesized`), so the commands synthesize one; those digests were recorded
from the dense `ad` matrix synthesis that preceded the packed elimination,
and they pin the centre reduction of non-unique images.

The case-analysis reports (`paper verify` in its default, strict and
10..20 forms, `paper cross-check`), the emitted `strictly_upper(n)` tables
for n = 5, 8 and 12, and `decompose --torus` on a torus file written in a
basis that is not in echelon form were recorded from the dense `Mat`
elimination that computed their ranks, kernels and catalog tables.

The GF(16) `decompose` and `toral-rank` rows were re-pinned when the toral
sweep stopped refusing field degrees above 2.  They held the exit-2 report
of that guard; now gl2, w11_p2, heis3 and sl2 report the ranks, nil parts
and root dimensions that brute-force fixpoint scans confirm, and gl3, with
2^36 vectors to sweep, exits 3 on the sweep budget.

Sampled GF(2^k) census reports are pinned the same way, as the digest of
the report without its `runtime_ms`; those digests were recorded from the
per-sample engine that preceded the vectorised GF(2^k) Jacobi mask.

The `decompose` and `toral-rank` reports of the direct sums gl3+w11_p2 and
sl3+heis3, each in one seeded GL(n, 2) basis (`RANDOM_BASES`), were
recorded from the torus search that walked every increasing basis of each
torus; in a random basis the toral basis it reports rests on its tie-break.
"""
from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import io
import json
import random

import pytest

from lie2.cli import main
from lie2.field import GF
from lie2.liealg import LieAlgebra, catalog, to_json
from lie2.restricted import RestrictedAlgebra
from lie2.search import CensusSpec, census
from dense_oracles import dense_rref, dense_solve

F2_NAMES = ["o3", "heis3", "sl2", "gl2", "sl3", "gl3", "w11_p2", "abelian(3)",
            "strictly_upper(4)"]
# (degree, seed, names): lifts small enough for the exhaustive toral sweep
LIFTS = [(2, 1, ["o3", "heis3", "sl2", "gl2", "w11_p2", "abelian(3)",
                 "strictly_upper(3)", "sl3", "strictly_upper(4)", "gl3"]),
         (4, 2, ["o3", "heis3", "sl2", "gl2", "w11_p2", "gl3"])]
# (seed, names): direct sums in one seeded GL(n, 2) basis each, where the
# toral-basis tie-break of the torus search meets a basis that is not the
# catalog's
RANDOM_BASES = (1, ["gl3+w11_p2", "sl3+heis3"])
SYNTHESIZED = "/synthesized"
COMMANDS = {"validate": ["validate", "--restricted"],
            "decompose": ["decompose"],
            "toral-rank": ["toral-rank"]}


def direct_sum(a: RestrictedAlgebra, b: RestrictedAlgebra) -> RestrictedAlgebra:
    n, m = a.algebra.dim, b.algebra.dim
    table = {k: v + (0,) * m for k, v in a.algebra.table.items()}
    table.update({(i + n, j + n): (0,) * n + v for (i, j), v in b.algebra.table.items()})
    two_map = tuple(v + (0,) * m for v in a.two_map) + \
        tuple((0,) * n + v for v in b.two_map)
    return RestrictedAlgebra(LieAlgebra(a.algebra.gf, n + m, table), two_map)


def fixture(name: str) -> tuple:
    """(algebra, two_map) of a catalog fixture, or of the direct sum of the
    fixtures joined by "+" in `name`."""
    entries = [catalog(part) for part in name.split("+")]
    if len(entries) == 1:
        return entries[0].algebra, entries[0].two_map
    ra = functools.reduce(direct_sum, (RestrictedAlgebra(e.algebra, e.two_map)
                                       for e in entries))
    return ra.algebra, ra.two_map


def lift_matrix(name: str, degree: int, seed: int) -> tuple:
    """The rows of the seeded invertible matrix P of `lifted_doc`."""
    gf, n = GF(degree), fixture(name)[0].dim
    rng = random.Random(f"{name}/{degree}/{seed}")
    while True:
        rows = tuple(tuple(rng.randrange(gf.order) for _ in range(n)) for _ in range(n))
        if len(dense_rref(gf, rows, n)[1]) == n:
            return rows


def lifted_coords(name: str, degree: int, seed: int, v) -> tuple:
    """Coordinates in the basis of `lifted_doc` of v, given in the catalog
    basis: the solution y of P y = v."""
    return dense_solve(GF(degree), lift_matrix(name, degree, seed), len(v), v)


def lifted_doc(name: str, degree: int, seed: int) -> dict:
    """The `fixture` algebra over GF(2^degree) in the basis f_a = sum_i P[i][a] e_i.

    [f_a, f_b] = sum_{i<j} (P_ia P_jb + P_ja P_ib) [e_i, e_j] and
    f_a^[2] = sum_i P_ia^2 e_i^[2] + sum_{i<j} P_ia P_ja [e_i, e_j],
    both written in f-coordinates by solving P y = v.  Each document is
    built once per process (the GF(2^16) `strictly_upper(8)` one takes
    seconds), and every call gets a fresh copy of it.
    """
    return copy.deepcopy(_lifted_doc(name, degree, seed))


@functools.lru_cache(maxsize=None)
def _lifted_doc(name: str, degree: int, seed: int) -> dict:
    alg, two_map = fixture(name)
    gf, n = GF(degree), alg.dim
    P = lift_matrix(name, degree, seed)

    def combo(coeff) -> tuple:
        acc = [0] * n
        for key, c in coeff:
            if c:
                v = two_map[key] if isinstance(key, int) else alg.table.get(key, ())
                for k, x in enumerate(v):
                    acc[k] ^= gf.mul(c, x)
        return dense_solve(gf, P, n, acc)

    table = {(a, b): combo([((i, j), gf.mul(P[i][a], P[j][b]) ^ gf.mul(P[j][a], P[i][b]))
                            for i in range(n) for j in range(i + 1, n)])
             for a in range(n) for b in range(a + 1, n)}
    doc = {"name": f"{name}/GF{gf.order}",
           "field": {"degree": degree, "modulus_bits": gf.modulus},
           "dim": n,
           "bracket": [[a, b, [[k, c] for k, c in enumerate(v) if c]]
                       for (a, b), v in sorted(table.items()) if any(v)]}
    if two_map is not None:
        images = [combo([(i, gf.mul(P[i][a], P[i][a])) for i in range(n)]
                        + [((i, j), gf.mul(P[i][a], P[j][a]))
                           for i in range(n) for j in range(i + 1, n)])
                  for a in range(n)]
        doc["two_map"] = [[a, [[k, c] for k, c in enumerate(v) if c]]
                          for a, v in enumerate(images)]
    return doc


@functools.lru_cache(maxsize=None)
def fixture_docs() -> dict:
    docs = {}
    for name in F2_NAMES:
        entry = catalog(name)
        docs[f"{name}/F2"] = to_json(entry.algebra, entry.two_map)
    for degree, seed, names in LIFTS:
        for name in names:
            doc = lifted_doc(name, degree, seed)
            docs[doc["name"]] = doc
    for name in RANDOM_BASES[1]:
        doc = lifted_doc(name, 1, RANDOM_BASES[0])
        docs[doc["name"]] = doc
    for label, doc in list(docs.items()):
        if "two_map" in doc:
            docs[label + SYNTHESIZED] = {k: v for k, v in doc.items() if k != "two_map"}
    return docs


def report_digest(argv, tmp_path) -> str:
    out_path = tmp_path / "report.json"
    if out_path.exists():
        out_path.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv) + ["--out", str(out_path)])
    report = out_path.read_bytes() if out_path.exists() else b""
    h = hashlib.sha256()
    for part in (str(code).encode(), out.getvalue().encode(),
                 err.getvalue().encode(), report):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _unit(n: int, i: int) -> tuple:
    return tuple(int(j == i) for j in range(n))


def _partial_sums(vectors) -> list:
    """b0, b0+b1, b0+b1+b2, ...: a basis of the same span, not in echelon form."""
    out, acc = [], None
    for v in vectors:
        acc = v if acc is None else tuple(a ^ b for a, b in zip(acc, v))
        out.append(list(acc))
    return out


@functools.lru_cache(maxsize=None)
def torus_files() -> dict:
    """The diagonal torus of each fixture, in a mixed basis: E11, E22, E33
    of gl3 over F2, and E11, E22 of gl2 in the GF(4) basis of `lifted_doc`."""
    gl2 = [lifted_coords("gl2", 2, 1, _unit(4, i)) for i in (0, 3)]
    return {"gl3/F2": _partial_sums([_unit(9, i) for i in (0, 4, 8)]),
            "gl2/GF4": _partial_sums(gl2)}


# catalog tables too large for the fixture sweeps, pinned as emitted
EMIT_ONLY = ["strictly_upper(5)", "strictly_upper(8)", "strictly_upper(12)"]
# case-analysis reports, which take no algebra file
PAPER_CASES = ["paper verify", "paper verify --rule-mode strict",
               "paper verify --dims 10..20", "paper cross-check"]


def case_digest(case: str, tmp_path) -> str:
    cmd, _, label = case.partition(" ")
    if cmd == "catalog-emit":
        return report_digest(["catalog", "emit", label], tmp_path)
    if cmd == "paper":
        return report_digest(case.split(), tmp_path)
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(fixture_docs()[label]), encoding="utf-8")
    if cmd == "decompose-torus":
        torus = tmp_path / "torus.json"
        torus.write_text(json.dumps(torus_files()[label]), encoding="utf-8")
        return report_digest(["decompose", str(path), "--torus", str(torus)], tmp_path)
    return report_digest(COMMANDS[cmd] + [str(path)], tmp_path)


def all_cases():
    labels = [f"{n}/F2" for n in F2_NAMES] + [
        f"{n}/GF{1 << d}" for d, _, names in LIFTS for n in names]
    labels += [label + SYNTHESIZED for label in labels
               if label + SYNTHESIZED in fixture_docs()]
    cases = [f"catalog-emit {n}" for n in F2_NAMES + EMIT_ONLY]
    cases += [f"{cmd} {label}" for cmd in COMMANDS for label in labels]
    cases += [f"{cmd} {name}/GF2" for cmd in ("decompose", "toral-rank")
              for name in RANDOM_BASES[1]]
    return cases + PAPER_CASES + [f"decompose-torus {label}" for label in torus_files()]


FROZEN = {
    "catalog-emit o3":
        "12ada63fa4c3d19face6c69ce1a5715b1770a886b9c7b3d5f10bdafd562c7ace",
    "catalog-emit heis3":
        "976afdad9957a1d76494df7e969ba6d4b6386bed4bd79ec9526e7684b085b13a",
    "catalog-emit sl2":
        "5efa9da8ad7ce07b4560022bb0819693f55394abc5aaf57cdafc3b42df046e31",
    "catalog-emit gl2":
        "26c316d7d3cac3540b355555bad89a2774165ed2029289a9271f7cd4aef930e3",
    "catalog-emit sl3":
        "443f5e735b78c6e5a2f23063953280f801816693d03a37f3c272625e55ee9ab0",
    "catalog-emit gl3":
        "e0baa5681520e6eb98499e0b6e399fa448b503dd0868bc9e1f972daf3be01b21",
    "catalog-emit w11_p2":
        "6eb8e5d85f29637e263085b0b84618902ed2c112e52d9bb7a23157771d833e66",
    "catalog-emit abelian(3)":
        "a9e6fc95ba2626d2c6c5f1ae6eb2f80625775a39b5abaf765367654ebc3356e1",
    "catalog-emit strictly_upper(4)":
        "2d2aa4ba4375f344a36f13d8e9e84a47c24e77e1df24e0ad6f8adfe6b64ce14a",
    "validate o3/F2":
        "af4262761a8a9854c585476e745d103f748375c2f105ee6f9e51961688118252",
    "validate heis3/F2":
        "8e66f97b5a7619f850e3c7c4d443b2cc12b557b99b6062e211e7edc730bc0a4a",
    "validate sl2/F2":
        "e2ab939d5d5bc069fa4da14c7141c0aeeede599bead6c89ed9fc90a44be57260",
    "validate gl2/F2":
        "49814e8e9f990a2029cbe35344fe089896cb1d75e22cff22303ac13d9de88153",
    "validate sl3/F2":
        "15ab06dd8384a745a7b1968201f09a0bbea6d9f7b51f57aa7b14c57430e72039",
    "validate gl3/F2":
        "fcb5990aae2a2497852ecd80749c6e1bf7c2ffe250504e61319789e109f0a94d",
    "validate w11_p2/F2":
        "169b0224b2b4451ce7d03f3b5ee2d7b14c1804791d5536f695d0b43926fb28c9",
    "validate abelian(3)/F2":
        "c3f99f150bb27b48b603378979765366c4a3c736a1bb28af9f3425efde296d8c",
    "validate strictly_upper(4)/F2":
        "9ebb872980726bdd8cf1ff8bf59cea44595cf920b0a680948e2e1b6a10b3f16c",
    "validate o3/GF4":
        "f715ea9b6eda86e9896ab27c7433032475c29a448e8ea4d0149cb2469b585dae",
    "validate heis3/GF4":
        "6a058bfe24b604f93701c994e846eae381a2faad245b31d32087c583501eb328",
    "validate sl2/GF4":
        "fba3ed927696b9ab5d8e63a293e2cc1dc86d0d3915dab538ec74b39c219403d5",
    "validate gl2/GF4":
        "5b80af3598d855d192e4bc9acabaabd42166e1668616609736fe2d9f9b89e107",
    "validate w11_p2/GF4":
        "61f784a1c131c1025a329aab6dab1f34b44517719ee05a69ff4dae80312a23e8",
    "validate abelian(3)/GF4":
        "67806c2df5d24fd2f9c55cb39b5b7ec15679e75d07e7d9f9a1775f565dd83e97",
    "validate strictly_upper(3)/GF4":
        "cf179e5fea6fe26d37f04f47d4730a9cccab383f0fcd79f71601939be1afd80e",
    "validate sl3/GF4":
        "79daafec3b952e322086fa728e4becc662d144458802568a3e06363f7aafd5b5",
    "validate strictly_upper(4)/GF4":
        "85e561a9cbbe45212f871bc1e4860ecaf12e9f9de60ffcc60ea9f56101a92753",
    "validate gl3/GF4":
        "ecaec80cc11816d7c492a265a667228a408953f7de86d9ffa29f007f6d2fcaf0",
    "validate o3/GF16":
        "0728ff758da21ab3bbb49fb888fcdcefa2bafa16acfdee1be4414bb4784cd37a",
    "validate heis3/GF16":
        "400bee4547de3b0317190bb8cc34fcddab57d9f9290c5555a37d6fb3d2c3087d",
    "validate sl2/GF16":
        "d7c6937b0465b7fa1b97cc6a6f76c71aa99f6e8f0207db0530b3d1f1bc4ffa92",
    "validate gl2/GF16":
        "6b7e75653700436d74a959274f41508e8371d73be25a7aa111316453f6f03ad6",
    "validate w11_p2/GF16":
        "43781b81f24f04f1eeb5d7df3342557c7e8efdd1d3cec3da096b9faf757fbbb7",
    "validate gl3/GF16":
        "e7783009f8aca3622fbb4322730e7b789603e65be13c1d062810ed76bcdf8332",
    "decompose o3/F2":
        "b225489cf215ffb2d2d60903213c6f9b00622ed1100cd231548d2a51938d946e",
    "decompose heis3/F2":
        "6df5764143508dc0e42d8a3326075e1a434b78c920f7a5941e57cebc10687fb6",
    "decompose sl2/F2":
        "66bcb95fcfbba9863b36a6b1289a3266ead99ce5f4be5c5ad36541ff7f788b31",
    "decompose gl2/F2":
        "d629683928eea48a9879f4949aed2d014b5298696c9f5c810fd377c1434f23fa",
    "decompose sl3/F2":
        "70653c1f8c8fa8b5d9630d695f1b1239daf4043388cc99c42f2d6a91863c2e6e",
    "decompose gl3/F2":
        "ff2f8b7593f09c1ef64dceaca2f3386822b9196c6eefeca3101eb17590259108",
    "decompose w11_p2/F2":
        "5a0b4ba17f7ddfafc0f47e367d5104c9291b95fcbe75819a9e5617b0a23137ee",
    "decompose abelian(3)/F2":
        "674d52e076e0351f277a47f46de82d848467058951c08cdb7f7d9830871bac5f",
    "decompose strictly_upper(4)/F2":
        "30712e9594e593052af27ea926baab15b31e10c326c057aa80af25b1d80d7572",
    "decompose o3/GF4":
        "580a07bd68d64780af675e5a12c3f5ad8c46041fbf3b0c7728483ff1ec6114dc",
    "decompose heis3/GF4":
        "85260e2583a1c72b33d6b8f60950154776fec45886dfa1d5d49c1745e4dd6a15",
    "decompose sl2/GF4":
        "66bcb95fcfbba9863b36a6b1289a3266ead99ce5f4be5c5ad36541ff7f788b31",
    "decompose gl2/GF4":
        "72ba2b4004cf6b2c8d868af58a351136123446020d589f1ea2f6f67172e86601",
    "decompose w11_p2/GF4":
        "f845553123ed23a3d70a1ad9d41578efb073b46a6c18e26ff3cf22c7210f99d7",
    "decompose abelian(3)/GF4":
        "938399093bb16715fdbebfe51637bd1f89aaad6a4d3ca04c93cd3c41b5b0d783",
    "decompose strictly_upper(3)/GF4":
        "09e893afef2bf51aa30e93e00434a384e3f282672e932e80e89b59fa57a739cf",
    "decompose sl3/GF4":
        "5a9050c68820abf20fd3d95af6c6a8bb02aa079db98ab2c89c8ea692ead11c8f",
    "decompose strictly_upper(4)/GF4":
        "b0f5f6856d1e1725feee66e9812d69a471d9e40399e5533061453838af922c5d",
    "decompose gl3/GF4":
        "db2f4e262e33d084d68515ad514e3f3f33f41b9a36fa4a712d8cf642298dc9c2",
    "decompose o3/GF16":
        "1e5baf1b0adced4507189564058dd7aae29387acc1815e81f065cd1c508c1522",
    "decompose heis3/GF16":
        "09f4d9e39cde41e5b6c3f420615d183d3e6ef21a814775dabeefd54356435b16",
    "decompose sl2/GF16":
        "c57b214e2ad6e238b28431649a42c38735973b2a3cf658b7279e418d58dd7935",
    "decompose gl2/GF16":
        "d127bda2447c0d1531ae171f15212358a3e194a18b07d572f74e2e7061a085a6",
    "decompose w11_p2/GF16":
        "f20b922c2b284cf7e19de77d3d94f6357a5b89832ad10050b683c379a8441a9f",
    "decompose gl3/GF16":
        "6860eeb6d59f5d64d5d566176ff5245708a402636d49102eaa665420dbba2982",
    "toral-rank o3/F2":
        "7f675fb10d10b8715beb13a9a6c58babb47c5b8dd24d5dfd8dc26cafea30a3d3",
    "toral-rank heis3/F2":
        "7c3b71744dbebd8193d86803ba1d0d792bec8936d5b314117f882ed17105349d",
    "toral-rank sl2/F2":
        "3f7a64257af219d25b678f2d3197fa10aa9678c3aa60f6594070f1c56e4635c5",
    "toral-rank gl2/F2":
        "0325cba0496f25650caa31706b6231153251a7c6a0bfeab8b74510c5e5fadc2e",
    "toral-rank sl3/F2":
        "6997a890483ece4867acf5e675bff0e09c24e13d65d01a65af87f060b16c68d6",
    "toral-rank gl3/F2":
        "a0a5bfbb46b58cc40172fda2596e243ad5434f68a722eb62b6628813e4391d9b",
    "toral-rank w11_p2/F2":
        "20e8368232b5417d7d9cc87828b7d96c694cda65a0d8410c9b1a3af91d10db5b",
    "toral-rank abelian(3)/F2":
        "9b9c616f09aba33dd0ed808ba205f17b141f152a043f3699f342baef5f51e7d9",
    "toral-rank strictly_upper(4)/F2":
        "de02588afa59cc42d35ad551bc5c6dc4a91b2135b40ebf15ea49dd16ba4e6410",
    "toral-rank o3/GF4":
        "6f10b67a9c80a98d7a3541fe3431b368853ceea3f78f1ee04b0eea7d333ee88a",
    "toral-rank heis3/GF4":
        "324b0867e17c91d7552bc9dd6de0980497327b46a8ef8a4d83f52926de69da0e",
    "toral-rank sl2/GF4":
        "9d05c95d928e665245768cde13627a7fede688396f99b0a1a49787b20efed938",
    "toral-rank gl2/GF4":
        "af61dafe821bc4dcdef1deba23f8db6d1ecac713e91c5c11f2f21b9afa643df9",
    "toral-rank w11_p2/GF4":
        "87682ee23a798f70161a56862a95c84224a2f929636098e95cb049794883f38b",
    "toral-rank abelian(3)/GF4":
        "dcdbd0cdc28de58954af6348532337526f0ae3ed7a56f246ba6e2badd9cc8b4c",
    "toral-rank strictly_upper(3)/GF4":
        "d890ff6cc125fcd6f68abe746e5c7be03cad05d5e662f6d3f1e862786d9c8f95",
    "toral-rank sl3/GF4":
        "91ae51028bbcd1d61a31754d5437ccb21e528cb4838d3dc616b56db41017200e",
    "toral-rank strictly_upper(4)/GF4":
        "0b4b7544efec3087ec89dd6cc649769484e92c94875384ee7ad63aa9c08e67b7",
    "toral-rank gl3/GF4":
        "9ae1caadbc5d386617751b9ef29373d80b509e9a06e912b1ca7a8d9a8d933ab8",
    "toral-rank o3/GF16":
        "8c58b81042d513a1ecd9309cbe686032ca7d2c2e1c4e1b4a735707876bdcc927",
    "toral-rank heis3/GF16":
        "caca1a834759c9ad1b579b302fd11321f10352fa3198ff5bf375aa9c34254451",
    "toral-rank sl2/GF16":
        "1917808d12d2462b2d07b8f51df6a851520e1d7f3a6d3edec73b862c98bbf04d",
    "toral-rank gl2/GF16":
        "54926dae5b5878900a3a58906915768b8ddd35c5a697c84909b139237a67f955",
    "toral-rank w11_p2/GF16":
        "1126d13706394460018b101f804f2364c59297e4c2449bec116dc9e698f2f84e",
    "toral-rank gl3/GF16":
        "6860eeb6d59f5d64d5d566176ff5245708a402636d49102eaa665420dbba2982",
    "validate heis3/F2/synthesized":
        "8e3f87960778c83e05c10eb543477b0621657c1754e3fb86d1ad1a946975c12d",
    "validate sl2/F2/synthesized":
        "7f57295efbbdc71daf153a73d1b85243a371b83eb23b8092bedb0466499d2d10",
    "validate gl2/F2/synthesized":
        "9f404acc714c2e6ce69d1920e42138105bd1b0e89b16a05621dac87b769e00d4",
    "validate sl3/F2/synthesized":
        "2cab51de50399ca68311e05479f17cd436ff63bec5fa8ef619cedf1c1a998378",
    "validate gl3/F2/synthesized":
        "8b8bbc415d7192cc0ab74d9069986fb4fd9ef16b46a7be0d481f08a032db133e",
    "validate w11_p2/F2/synthesized":
        "4e378926f4277913df1e15addcbaf89525e94d2efa008e5bff17fbcafcb51c6e",
    "validate abelian(3)/F2/synthesized":
        "8fbb5305952d2afb755a5a2414dd8b8be81b631c41dd7404e5aeb292a634d317",
    "validate strictly_upper(4)/F2/synthesized":
        "4073d78d34988452efa98f273b50b763081a847257acf668aa059ff9ff348433",
    "validate heis3/GF4/synthesized":
        "a31276dd40010ed1ff0338a5f227826386b24ab56663d33a0d4cd5eb1d6648bf",
    "validate sl2/GF4/synthesized":
        "402ed2523e04ea41095a8fcc001cf8cc0a41ac0973dd5df2a91ea11abb8b92f0",
    "validate gl2/GF4/synthesized":
        "f2292ede5e952720f20ecc0c8ecbbb6285b34de4030fbb524ef397d307607f6f",
    "validate w11_p2/GF4/synthesized":
        "b7ebc29070121c8d7c2e147ae9b5b9f53cc519fa833602f60c8c9dec5763a3af",
    "validate abelian(3)/GF4/synthesized":
        "b4060c9dce516602a58e795c8f9ddb441e27539d10bb5c292808ed3e04629013",
    "validate strictly_upper(3)/GF4/synthesized":
        "b2159135107419080a4b580ee27e793bbea91ce00a57c55ad1c9bc06afe27834",
    "validate sl3/GF4/synthesized":
        "8f5f672a48edf41089406c13bdf31d473f74c3448c6ae388cd3f3f74d11ab481",
    "validate strictly_upper(4)/GF4/synthesized":
        "844147cb24cd9dc152a5ff0599802c9c63d52dadc632d1c7751f6c039db21e14",
    "validate gl3/GF4/synthesized":
        "3e402a17313cea0d176ad9fa7d12eb52d3c7345b082059daadcc708ee1019ab9",
    "validate heis3/GF16/synthesized":
        "ab957cc37ec02a68c7ceaa3dd08847a8d6e0c9a16d02d06d50a07483f9f7ef5b",
    "validate sl2/GF16/synthesized":
        "a2462d92c258ddb497ead2245c93f1e38a2e61892f750ad5615328fe9fc84eaf",
    "validate gl2/GF16/synthesized":
        "5369d9eccf146bed0e957c4f717f54032ae9f760229f4f2f2c56e675edf6a470",
    "validate w11_p2/GF16/synthesized":
        "1dbe33f79474ecbb6de97c45e32a9337a0fe3364c0be81d227ca3879cc151442",
    "validate gl3/GF16/synthesized":
        "63386a64bb86ea7409a7e9f067c26b0342dfc8d169a1dad757a456d23f61d375",
    "decompose heis3/F2/synthesized":
        "5244981f0f51e441a214724c595fff77105491aee9d25be44dacba298edc3ff4",
    "decompose sl2/F2/synthesized":
        "3eba6c4ad382031956ae3dabe43371b119b689627a9f319f7e3b829d01aafd64",
    "decompose gl2/F2/synthesized":
        "21b20ad51e868367f93351a2de68b59656d2cfb725ed5e0dc4a88a53af4f1672",
    "decompose sl3/F2/synthesized":
        "5f5208d7f2cb85643258ab6bc6439b5898219876e93911fb1df764ed588c1919",
    "decompose gl3/F2/synthesized":
        "1f2ef63baab209c9077ec6905d06bb50b0bc5355b2c3f993f4109c1f6851e73d",
    "decompose w11_p2/F2/synthesized":
        "3c491d3b2dce562559384d4654d03c5c8f96c5c56dae9915b856fe40942d84ad",
    "decompose abelian(3)/F2/synthesized":
        "981914c7591947e64c8e197a7f446974613d4022ac233f1c204a0f65ed2676d6",
    "decompose strictly_upper(4)/F2/synthesized":
        "2455d5066761b62bbb198fade11bd2723ba73bad95435542f937f33ad7d7ae23",
    "decompose heis3/GF4/synthesized":
        "c57b214e2ad6e238b28431649a42c38735973b2a3cf658b7279e418d58dd7935",
    "decompose sl2/GF4/synthesized":
        "03f6e7696c40d3914800767eaa5d658ba92756b07db2d7d8eb0e47a5c3578ff9",
    "decompose gl2/GF4/synthesized":
        "63fec4c7a00e1cce39fac3ca2a6f3ec8d2dd3c5b84a8613782ab10c788f7782a",
    "decompose w11_p2/GF4/synthesized":
        "22a3b55437d435d7538d731654d9a24db743406f1474c9b27345aa14283948c6",
    "decompose abelian(3)/GF4/synthesized":
        "db17b8f83d2225b78dcf502d2fa8e2e3a7e1622ecedfef674687e64bf2c12623",
    "decompose strictly_upper(3)/GF4/synthesized":
        "ad0f0585e679468a848ea7123efa05deb71073d745c3a6355e768eb0793e5b02",
    "decompose sl3/GF4/synthesized":
        "0a6f0b7920299547fe826ce0b8357c51c47067d2c406d02e0aafbe8ff42351c4",
    "decompose strictly_upper(4)/GF4/synthesized":
        "06f58d40dacd70ed49c803db2f1bc4174f0f5a7774be61b3418068b3de13a51f",
    "decompose gl3/GF4/synthesized":
        "ba75afaab8e7914c999b9057abbbc40a506ecd3c918b5dcdb4c39e78d76467ea",
    "decompose heis3/GF16/synthesized":
        "eb6559a804a20e49836fd22607dfadcada101cb1dab2d26b043c7d2632c06aa8",
    "decompose sl2/GF16/synthesized":
        "c57b214e2ad6e238b28431649a42c38735973b2a3cf658b7279e418d58dd7935",
    "decompose gl2/GF16/synthesized":
        "cad0b7e9fb3779a1e1d024c6cf527a69d45a9c2dfbdebde52d51e2390a2eaec6",
    "decompose w11_p2/GF16/synthesized":
        "edcfc453ddc43dd53351678d5b00ed9f3558e9e60c91e19966334d9e8c17e6f2",
    "decompose gl3/GF16/synthesized":
        "6860eeb6d59f5d64d5d566176ff5245708a402636d49102eaa665420dbba2982",
    "toral-rank heis3/F2/synthesized":
        "4292eae6d20e4249efaaaaa161f40128ac4f5c4c2fd438871500b560b8c37a8a",
    "toral-rank sl2/F2/synthesized":
        "a34b8fb1c2f6b47955c1c348c3d66a1fc7388001f9d3c1bcf7f95c3c99cbbe5b",
    "toral-rank gl2/F2/synthesized":
        "e54577a9f5d3bedda8af730e30a554ffc5facb98f0c17e3c3d69795ac21093d5",
    "toral-rank sl3/F2/synthesized":
        "5f789ad30d727499005d13f890ae671c27ceb05973fc1fed6f1f9353833b3551",
    "toral-rank gl3/F2/synthesized":
        "42ff58357367093256d282891263fcdc200f14e97908d960f1a0c358e31a3ace",
    "toral-rank w11_p2/F2/synthesized":
        "ff46c731870340b96b73c7289d26c547d17d1f6140e2b9221baf0c462ed9e700",
    "toral-rank abelian(3)/F2/synthesized":
        "d6c9274d44919e7da5a9b8a89e7b8773da81aafa18cf56400f5b4b0d687c33ae",
    "toral-rank strictly_upper(4)/F2/synthesized":
        "e7201701d66e6ea98a01e6060a4d785e0c11cd229ed2df27faacecb4d616da29",
    "toral-rank heis3/GF4/synthesized":
        "7b152b4dccde489a93eebe6e933211381bd48ac105e6822a635f2752c5e008c0",
    "toral-rank sl2/GF4/synthesized":
        "9d39b218d043d1596efdf558c40a179dfc5e42e722c43f63321026daed9a1a21",
    "toral-rank gl2/GF4/synthesized":
        "c478fcf8ed16c10806dcdb648112466258843d86ac33c05b7663f2edac58e4ff",
    "toral-rank w11_p2/GF4/synthesized":
        "ca035078a8dd64dd3aa735cdb00ea940d2f1d578689ed63365997c06ebeeb69b",
    "toral-rank abelian(3)/GF4/synthesized":
        "1a532cd6d72740bd8b5a400e6436565ea2fc84a572b70f5f32cdbe34f4ae5b65",
    "toral-rank strictly_upper(3)/GF4/synthesized":
        "21e614e8b626a5b90c425434cc380198169dd53a0129bfc0129b5e878ab5081c",
    "toral-rank sl3/GF4/synthesized":
        "fc1d23db00f2823120e3e19b147d05f26796dabb9ab5c8d7ea72c805dfc47a83",
    "toral-rank strictly_upper(4)/GF4/synthesized":
        "548d388e688504a1e0fb9cdac76c4d0da5e677cbab4f24dafa3545b58e8ba9b6",
    "toral-rank gl3/GF4/synthesized":
        "34b08258e975c9fe9b14d50d72e70a535a7f9b5f6e3e4eb0b53c980b450e0d82",
    "toral-rank heis3/GF16/synthesized":
        "21b385ae226b5293156e548e52e9336e5f1d776724ce6a635c936004acd760bc",
    "toral-rank sl2/GF16/synthesized":
        "943c1af998e7eac25fef0dcf59afb8dd69a49097e14b2ec2a0680c026ee990a0",
    "toral-rank gl2/GF16/synthesized":
        "1b0d8c47f5622c94d136269fef4f807be299dbe8aa4ab61a4152eaf79340c4d2",
    "toral-rank w11_p2/GF16/synthesized":
        "964f52cbfc2c6c7b107ba4b2b1a7b247afb0a08af69f671f277de1248d3b9f06",
    "toral-rank gl3/GF16/synthesized":
        "6860eeb6d59f5d64d5d566176ff5245708a402636d49102eaa665420dbba2982",
    "catalog-emit strictly_upper(5)":
        "f374011a698f8910d1f067b9b7f0546c7265c4e653ddc14f9165d4b12b4156b9",
    "catalog-emit strictly_upper(8)":
        "467d1a8c7d8415d64f3c11e5ba7d2a94c8d064daf6f828a34b63e7fcdb640ee4",
    "catalog-emit strictly_upper(12)":
        "219a87aa5c66844ee1ce0a6d78e041c088231fe191fb8b830e01b0aabadc1309",
    "paper verify":
        "99177a4ecb857fe3e4dddacce91ed094882c68e174a75a85d6f591c6713c7335",
    "paper verify --rule-mode strict":
        "137c84ff7c474afc3094d5d82ffbb896e8f53423ebec77040081b23ccdd1dd2e",
    "paper verify --dims 10..20":
        "db93f0084b4854b18eae429721bca33b5b442ae96d93fd6f19a41e8985433b27",
    "paper cross-check":
        "1afd27b1f953612bcdf016d7b74b069426fac2da5490fdafd0cd8d3eb1f7b4b1",
    "decompose-torus gl3/F2":
        "2555e1f26141377519e249613fa824a2af4796e22dfeab1a973c880293bad420",
    "decompose-torus gl2/GF4":
        "5a5a8e5af2d591c8da32c3a0102edc51e23bf7efd91ef05efac5f38668a8c379",
    "decompose gl3+w11_p2/GF2":
        "1f47130ba41c891781559da478336d4a488c2c29f6e59fbdd388af0a4c6c7158",
    "decompose sl3+heis3/GF2":
        "33f2611c0d42a22ce7ecb5afed0805efde812ce4d37d80a2d1fa2e65e06ac0af",
    "toral-rank gl3+w11_p2/GF2":
        "eabcddafb0c37247bc5356ae79a625e34546f4fa57d2ef6612af32cf91a6216f",
    "toral-rank sl3+heis3/GF2":
        "c367c25b45e8227bfbe4c41eadd0a312eaaf9b6673095eb0b0bfe1a5757a898e",
}


@pytest.mark.parametrize("case", all_cases())
def test_report_frozen(case, tmp_path):
    assert case_digest(case, tmp_path) == FROZEN[case]


# (dim, field degree, sample count, seed): GF(16) seeds 1 and 2 have Jacobi
# survivors, GF(4) dim 3 has simple ones; over F2 a sample count of None is
# the exhaustive scan, F2 dim 3 seed 11 has 472 Jacobi passes and 100 simple
# tables, F2 dim 4 seed 0 has 388 passes; GF(8) dim 3 seed 2 has 18 passes
# and 8 simple tables, GF(32) dim 3 seed 1 has 2 and 2, every dim-2 table
# passes, GF(2^13) dim 5 and GF(2^16) dim 6 have n*k > 64 bits per
# bracket, and GF(4) dim 3 seed 1 with 2000 samples has 85 passes and 28
# simple tables.  Cases run in insertion order, so each keeps its test id;
# add new ones at the end.
CENSUS_FROZEN = {
    (3, 2, 20000, 0):
        "5b5b59d7a9b132f388491f5a6b4079769ea43a097d5d2a7fecf7bd58dbf864a0",
    (3, 2, 20000, 1):
        "fc44babd61de21e109e4827dcf3daf1106034bd6692815e403f4d1b4aee6fe89",
    (3, 2, 20000, 2):
        "03b6a23129b70022bc99444bed438fe5d7c03db8da9f903a086184084a78c33a",
    (3, 2, 20000, 3):
        "88ff822af03d88b26e59a43f41e6e06cf27dbfee53cbffb1c2b8aeced15b8566",
    (3, 4, 3000, 1):
        "3a396b468c9d4dd6582d7936a3fb12157f24414947c005543d7d2fcb8b07e726",
    (3, 4, 3000, 2):
        "4ca7cff77ed94400518ec322ef46ab855662eae6b16e16cb5a1cb336f9d9441e",
    (3, 16, 1000, 0):
        "39b1c6b7df5ecfc2e5405d7c47a7ecd6b9c2df16b60d0cd48389135667935885",
    (4, 2, 2000, 0):
        "1fc0e3e68391e3343011d8d3947d84ea2811855c413c38dd1c3d46b340dfe31f",
    (1, 1, None, 0):
        "04a7875e81a4884db418353f0ba89dc6d172991d93fd382fa69086a447c3f274",
    (2, 1, None, 0):
        "80f384bd46bb8aa61f1c3d4e7bd3644ebc69ce76dffcb93e9825ce998cd21766",
    (3, 1, None, 0):
        "d0cf62734d9c853d5a78e2da8646d97faa2352aa5d90947813a21cb6a7864527",
    (3, 1, 2000, 11):
        "099e2ce28928fb2beca7c0c5418112841ea8de283aad002d06eb88371d8d170d",
    (4, 1, None, 0):
        "a8cd0a5a6e5a7b591ee3748fa680d0708e3a669b35847a86633c9c266a9009fe",
    (4, 1, 200000, 0):
        "00efc74500d57184e2f093163009b335945973a2f0d9892d5998b2589cefff91",
    (5, 1, 1048576, 3):
        "cf4a0d4d481e8ca4e568f355a37d06eb75043dd32813eecf3642f596ea3ac2c9",
    (6, 1, 262144, 3):
        "4835df1547455608f923147c3c4108a5439ef6ca37efebb961cef06eb4a67232",
    (3, 3, 3000, 2):
        "988ab968f38dc09498e5b4e92a3ba304cc714f48372acbea4a6700e226144de2",
    (3, 5, 5000, 1):
        "bdc26dd397eefaddfb47c417bdad47f5b13e3a2377a7c2d188bb979b10c39029",
    (2, 4, 500, 0):
        "6b504b9355cafc949f138cd2ae96ee5c02a42ec093ace4c41a857a123383b69f",
    (5, 13, 2000, 1):
        "97db38d26c385b77732d93117db119c05b743cabbbbbf81009bf5198d7f3bcbe",
    (6, 16, 2000, 0):
        "ca0ef6ab53a91424615d38cf25f94effb5041930e9e2b6ba0d55f46a30a8fe33",
    (3, 2, 2000, 1):
        "6e4dfe88344fa6cdb720f2fb2fc6ef093aaf04f64633d1a011830e402549b639",
    (3, 3, 2000, 1):
        "f5a5cb270e6461ba636dbc0e1c64417bcd8d17afc6e4062c28d0bbde76608846",
    # a uniform dim-3 table over GF(q) satisfies Jacobi with probability of
    # order q^-3, so no sample this small has a survivor at q = 2^10
    (3, 10, 3000, 1):
        "e3552861a52850f0822f601c17181e6335663133d35e96d91853b872f416c0c7",
    (3, 1, 3000, 5):
        "c06a2078bf7cc2969258cbdb59d7b9502733267a982a0a306507cedccb308182",
}


def census_digest(case) -> str:
    """SHA-256 of the census report of a CENSUS_FROZEN key, without runtime_ms."""
    dim, degree, count, seed = case
    doc = census(CensusSpec(dim=dim, field_degree=degree, sample_count=count,
                            seed=seed)).to_json()
    doc.pop("runtime_ms")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("case", list(CENSUS_FROZEN))
def test_census_report_frozen(case):
    assert census_digest(case) == CENSUS_FROZEN[case]
