"""Golden CLI output: exit code and sha256 of stdout and stderr per command.

Each command runs in-process through `weaklg.cli.main`, in a temporary
directory, on files written from the catalog records and from seeded point
sets; file names are relative, so no temporary path reaches the output.  A
change that alters any byte of any output fails here.  When an output
changes on purpose, copy the table this test prints into GOLDEN and say why
in the change log.
"""

import hashlib
import itertools
import random
from fractions import Fraction

from weaklg import catalog
from weaklg.cli import main
from weaklg.dseries import solve_series
from weaklg.laurent import LaurentPoly, constant_term_series
from weaklg.polytope import newton_polytope


def _point_set(seed, size):
    """Points of [-2,2]^3 that hold +-e_i, so the origin is interior."""
    axes = [tuple(s * int(i == j) for j in range(3)) for i in range(3) for s in (1, -1)]
    pool = [p for p in itertools.product(range(-2, 3), repeat=3) if p not in axes]
    points = sorted(axes + random.Random(seed).sample(pool, size - len(axes)))
    return "".join(" ".join(map(str, p)) + "\n" for p in points)


def _orbit_ansatz(model):
    """Coordinate-permutation orbits of the support; vertex orbits fixed to 1."""
    vertices = set(newton_polytope(model).vertices)
    support = sorted(model.support())
    orbits = sorted({tuple(sorted(set(itertools.permutations(p)))) for p in support})
    lines = ["# dim 3"]
    for k, orbit in enumerate(orbits):
        domain = "fixed 1" if vertices.issuperset(orbit) else "free"
        lines.extend(f"{' '.join(map(str, q))} : o{k} : {domain}" for q in orbit)
    return "\n".join(lines) + "\n"


def _write_inputs(directory):
    files = {}
    for name in ("V16", "V18", "V22"):
        rec = catalog.builtin(name)
        files[f"{name}.poly"] = rec.model.to_text()
        files[f"{name}.op"] = rec.operator.to_text()
    files["V16.rec"] = catalog.dumps(catalog.builtin("V16"))
    files["bad-degree.rec"] = catalog.dumps(catalog.builtin("V16")._replace(degree=17))
    files["h0-12.rec"] = catalog.dumps(catalog.builtin("V16")._replace(h0=12))
    files["V16.series"] = solve_series(catalog.builtin("V16").operator, 25).to_text()
    files["V22.series"] = constant_term_series(catalog.builtin("V22").model, 30).to_text()
    for seed, size in ((1, 12), (2, 18), (3, 24)):
        files[f"pts{seed}.vert"] = _point_set(seed, size)
    files["ragged.vert"] = "1 0 0\n0 1\n"
    files["polygon.vert"] = "2 0\n0 1\n-1 1\n-1 -1\n1 -1\n"
    files["hexagon.vert"] = "1 0\n0 1\n-1 1\n-1 0\n0 -1\n1 -1\n"
    files["segment.vert"] = "# dim 1\n-1\n3\n"
    # Canonical but not reflexive: the dual has vertices such as (-1, -1, 1/2).
    files["fractional.vert"] = "1 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n1 1 2\n"
    toy = LaurentPoly(1, {(1,): 1, (-1,): 3})
    files["toy.series"] = constant_term_series(toy, 8).to_text()
    files["toy.ansatz"] = "# dim 1\n1 : apex : fixed 1\n-1 : tail : free\n"
    files["tall.series"] = constant_term_series(LaurentPoly(1, {(1,): 1, (-1,): 6}), 8).to_text()
    files["V18.ansatz"] = _orbit_ansatz(catalog.builtin("V18").model)
    files["two-free.ansatz"] = "# dim 1\n1 : a : free\n-1 : b : free\n"
    files["two-free.series"] = constant_term_series(
        LaurentPoly(1, {(1,): 2, (-1,): 3}), 8).to_text()
    files["simplex.poly"] = LaurentPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1,
                                            (-1, -1, -1): 1}).to_text()
    files["fractions.poly"] = LaurentPoly(2, {(1, 0): Fraction(2, 3), (-1, 0): Fraction(-5, 7),
                                              (0, 1): 3, (0, -1): Fraction(1, 2),
                                              (1, -1): -2, (0, 0): Fraction(1, 4)}).to_text()
    # Straub's model of the Apery numbers and the operator that annihilates
    # its series, D^3 - t(34D^3+51D^2+27D+5) + t^2(D+1)^3.
    files["apery.poly"] = (LaurentPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1})
                           * LaurentPoly(3, {(0, 0, 1): 1, (0, 0, 0): 1})
                           * LaurentPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
                           * LaurentPoly(3, {(0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1})
                           * LaurentPoly.monomial(3, (-1, -1, -1))).to_text()
    files["apery.op"] = "order 3, tdeg 2\n0 0 0 1\n-5 -27 -51 -34\n1 3 3 1\n"
    for name, text in files.items():
        (directory / name).write_text(text)


# name: argv, run in a directory holding the files above.
COMMANDS = {
    "catalog-list": ["catalog", "list"],
    "catalog-show-V16": ["catalog", "show", "V16"],
    "catalog-show-V18": ["catalog", "show", "V18"],
    "catalog-show-V22": ["catalog", "show", "V22"],
    "catalog-show-P3": ["catalog", "show", "P3-sample"],
    "catalog-show-lines": ["catalog", "show", "product-of-lines-sample"],
    "verify-V16": ["verify", "--catalog", "V16", "-N", "10"],
    "verify-V18-pretty": ["verify", "--catalog", "V18", "-N", "10", "--pretty"],
    "verify-V22-mismatch": ["verify", "--catalog", "V22", "-N", "8"],
    "verify-V22-derived": ["verify", "--catalog", "V22", "--derived", "-N", "10"],
    "verify-files": ["verify", "-f", "V16.poly", "-L", "V16.op", "-N", "8"],
    "verify-apery": ["verify", "-f", "apery.poly", "-L", "apery.op", "-N", "20"],
    "polytope-V16": ["polytope", "--catalog", "V16"],
    "polytope-V18-pretty": ["polytope", "--catalog", "V18", "--pretty"],
    "polytope-V22": ["polytope", "--catalog", "V22"],
    "polytope-P3": ["polytope", "--catalog", "P3-sample"],
    "polytope-pts1": ["polytope", "-p", "pts1.vert"],
    "polytope-pts2": ["polytope", "-p", "pts2.vert", "--pretty"],
    "polytope-pts3": ["polytope", "-p", "pts3.vert"],
    "polytope-expect-mismatch": ["polytope", "-f", "V22.poly", "--expect", "V16.rec"],
    "polytope-expect-bad-degree": ["polytope", "--catalog", "V16", "--expect", "bad-degree.rec"],
    "polytope-expect-mismatch-pretty": ["polytope", "--catalog", "V16", "--expect", "h0-12.rec",
                                        "--pretty"],
    "polytope-polygon": ["polytope", "-p", "polygon.vert"],
    "polytope-hexagon-pretty": ["polytope", "-p", "hexagon.vert", "--pretty"],
    "polytope-segment": ["polytope", "-p", "segment.vert"],
    "polytope-fractional-dual": ["polytope", "-p", "fractional.vert"],
    "fit-V16": ["fit", "-s", "V16.series", "-m", "3", "-r", "2"],
    "fit-V22": ["fit", "-s", "V22.series", "-m", "3", "-r", "4"],
    "series-V18": ["series", "-f", "V18.poly", "-N", "12"],
    "series-V16-mitm": ["series", "-f", "V16.poly", "-N", "10", "--mitm"],
    "series-V16-shallow": ["series", "-f", "V16.poly", "-N", "4"],
    "series-simplex": ["series", "-f", "simplex.poly", "-N", "12"],
    "series-fractions": ["series", "-f", "fractions.poly", "-N", "6"],
    "solve-V22": ["solve", "-L", "V22.op", "-N", "15"],
    "search-toy": ["search", "-a", "toy.ansatz", "-s", "toy.series",
                   "--prime", "7", "--prime", "11", "--height", "5"],
    "search-height-bound": ["search", "-a", "toy.ansatz", "-s", "tall.series",
                            "--prime", "13", "--height", "5"],
    "search-V18-fixed": ["search", "-a", "V18.ansatz", "--catalog", "V18",
                         "--prime", "7", "--height", "5"],
    "search-V18-two-primes": ["search", "-a", "V18.ansatz", "--catalog", "V18",
                              "--prime", "5", "--prime", "7", "--height", "5"],
    "error-lift-bound": ["search", "-a", "two-free.ansatz", "-s", "two-free.series",
                         "--prime", "7", "--height", "1000000"],
    "error-composite-prime": ["search", "-a", "toy.ansatz", "-s", "toy.series", "--prime", "6"],
    "error-ragged-vertices": ["polytope", "-p", "ragged.vert"],
    "error-derived-usage": ["verify", "-f", "V16.poly", "-L", "V16.op", "--derived"],
}


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


EMPTY = _digest("")

# Recorded before the elimination in `linalg` was unified, the polygon,
# hexagon, segment and fractional-dual rows before the volume moved onto the
# hull's boundary triangulation, the three shallow or sparse series rows
# before plain keys became one-slot rows, the catalog-show-V18,
# catalog-show-P3 and verify-apery rows before the builtin records became
# catalog text, the bad-degree row after record warnings became one
# plain stderr line, the search-V18-two-primes row before one level
# expansion served every prime, the error-lift-bound row after the lift
# stage got its bound, and the polytope-expect-mismatch-pretty row before
# the support ansatz, operator and polytope became named tuples;
# name: (exit code, sha256 of stdout, sha256 of stderr).
GOLDEN = {
    "catalog-list": (0, "405b952b2a14d823ed71ab3269ffc4e6d3049bb7aad191d012cdcc88c6ec1822", EMPTY),
    "catalog-show-V16": (0, "1dc37f7ac9e828a985a4ddf020905a8a6fc5253855e60c022e8ffa0c04a1d7d9", EMPTY),
    "catalog-show-V18": (0, "228fd3baa6523af0d99dab638413dda30d9110e63e4f2b65e15f0d90bf62a266", EMPTY),
    "catalog-show-V22": (0, "976ad1692ca1f34161b9ac1b2198e6aaec6a61a35403921def2ae1df6741d203", EMPTY),
    "catalog-show-P3": (0, "e49db7106cc71fb1d9d34cd7f5074e6ab720533a2cafec825a0ef59b522663ce", EMPTY),
    "catalog-show-lines": (0, "9ff7027a7fbc5d79ce56117aec12afc24ccfa9dd19ae91d20d5378ce615b49ea", EMPTY),
    "verify-V16": (0, "66700813a0733331affa1a5b4f6f9544686479948df72d3fc99d2be70f3f617b", EMPTY),
    "verify-V18-pretty": (0, "becd3983f404d8bcfdcbe64ef5c61c5e8143003ec3e866c2abb15addcff53b28", EMPTY),
    "verify-V22-mismatch": (3, "9e536736e681d67d3663553b915d55072fc39f082fac986a5799d491ca1c3584", EMPTY),
    "verify-V22-derived": (0, "cabb3ad7dfb62ae192686139f3bf1c046d9b50c250516a7bc1c7bb3472a32a52", EMPTY),
    "verify-files": (0, "1574847a5b8f72eb9e640a7dc06143e6abea023f6e5e29a5ad7c0ed94992e3e5", EMPTY),
    "verify-apery": (0, "95c21cc4e1249fdd7e661b70873f89e1cf27e3882735b09a1a1f92a70a5261bd", EMPTY),
    "polytope-V16": (0, "75647ae06064fa42c9e7821c43b40d7d1fdaa31652f4c572c965ac65b41ef37f", EMPTY),
    "polytope-V18-pretty": (0, "4826c83ecb7fbbe9c5c422dd0214af32c04b22e938951c294e521381a935b03b", EMPTY),
    "polytope-V22": (0, "1b82d4210a404dc7f038980f45dc5242d945b0392f5a1691ab413b1fc0ae3125", EMPTY),
    "polytope-P3": (0, "54932cd24f1c73af21fdb46a2b8d84891b3a8a75cd9a61a28e6646dea56a4887", EMPTY),
    "polytope-pts1": (0, "bbb615abb2703068bacbb5dc8c770bf4b6c78b7cdd29410b95ebbe44d1cc6b07", EMPTY),
    "polytope-pts2": (0, "f54646f1f8537af74423ecfeb7c2d167669d17c78cc322538c909b64e337c7bc", EMPTY),
    "polytope-pts3": (0, "ebbbf60c96560af2fc1b48a5e752912c2f8de675ddc139f24a42ef02186319b0", EMPTY),
    "polytope-expect-mismatch": (3, "1d8beaaeee207b0c53380204539dac9317c1f3a74538d1ecca4e8b52712d04b6", EMPTY),
    "polytope-expect-bad-degree": (3, "d8d869aca1bc6a8393de1e57f549d254f9eadfa1021309ccb652596fc88832f3", "10e1d1944d9c87c01827ef0dfaf1b6e0d3cf173ca203783bd6c9bc9f038db267"),
    "polytope-expect-mismatch-pretty": (3, "da2a20b294b2f9e5096b0c29381f9bbeb3601b13af1d84bb6fd7b54861cbd049", EMPTY),
    "polytope-polygon": (0, "b64b75ccf089a08a074f4d787cfa9099f5d3c6f0617b391a730c481545aa5070", EMPTY),
    "polytope-hexagon-pretty": (0, "4d4a9c6c3cae1d90a239e4a6867114e47fb21802c772d6c1fab9953c69129a60", EMPTY),
    "polytope-segment": (0, "5d4c504af28a88f403b44578ab0d78e41b48cd39f7edb86d087ab82e94aff9a3", EMPTY),
    "polytope-fractional-dual": (0, "49879fb3c021aa5cd534b670d671b861c6adf18e07be44840e16b16f76b11aca", EMPTY),
    "fit-V16": (0, "c58aeb0db438e79c0de97228860e5916779de38856fede9c6ab0d83286fae9e7", EMPTY),
    "fit-V22": (0, "f29772d207f4d997d505d2091e5ef4536a437b0dd6125e6d8f7db2ef4604a0d6", EMPTY),
    "series-V18": (0, "88f3075e5cd1d2b5f7822c9cf3b24eb0babb9349204f8eb42bc4adc7af743eec", EMPTY),
    "series-V16-mitm": (0, "134d9f1332ce1c2cfe533d185c458929b8e008534a12f94c001d244bfc008335", EMPTY),
    "series-V16-shallow": (0, "ac6be03b2f1cfd33e7cf662ef0c0fb4d362c76ed8a98e429c8da77ec71346dae", EMPTY),
    "series-simplex": (0, "a7a635ee4b2c6c8b07035adb56dac944ff5abf6f842893f28046aa8a9856e475", EMPTY),
    "series-fractions": (0, "bcf61847b3c4b507484c0199ac162f892d3df636ed465da259bf0445f6c6d446", EMPTY),
    "solve-V22": (0, "5adadaec14c7f24fd8103a9e3b0b5143a9104f473ef18561574dd8667c727f0d", EMPTY),
    "search-toy": (0, "da6928f7edceea0201d29e770da1f0e59511cac4092080df880846c3d4a17c8c", EMPTY),
    "search-height-bound": (4, "7731841f1cc021a6c4e63013cfda3a79c36e0a929a9fedb087b752ca066cd5e6", "f09aff3219f883372bb411419d6f17e16eb2c0a70e5a0ebbdaf5e17f93d965db"),
    "search-V18-fixed": (0, "0eba196d9198f9da4603dcac16bf3bda7f2165fd841bdee4a5327c9c2a3cae35", EMPTY),
    "search-V18-two-primes": (0, "3b8798e6bd534fbd22ee2a8c50cf964c6f58ed6c9d348359c0538ffc9beffbc5", EMPTY),
    "error-lift-bound": (2, EMPTY, "6a85e729e43545d234fb0ca132a0a7d62112eebd7152fcdf0374212ccf84bc47"),
    "error-composite-prime": (2, EMPTY, "1f721441378d821ffd89002fcf2afe3d1adc40269f5bf863988a73de9a6f47f4"),
    "error-ragged-vertices": (2, EMPTY, "dc41e2323c02926a2be9f8905dd863340bc2f5f1fbbacb77fa44d9933fb8678c"),
    "error-derived-usage": (1, EMPTY, "d080b57a16da0b014d4d85251503514213a236775deb8945b0f7eb63dad43fa0"),
}


def test_cli_outputs_match_the_golden_table(tmp_path, monkeypatch, capsys):
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    actual = {}
    for name, argv in COMMANDS.items():
        code = main(argv)
        out, err = capsys.readouterr()
        assert str(tmp_path) not in out + err, name
        actual[name] = (code, _digest(out), _digest(err))
    if actual != GOLDEN:
        def shown(digest):
            return "EMPTY" if digest == EMPTY else f'"{digest}"'

        table = "".join(
            f'    "{name}": ({code}, {shown(out)}, {shown(err)}),\n'
            for name, (code, out, err) in actual.items()
        )
        print("GOLDEN = {\n" + table + "}")
    assert actual == GOLDEN
