"""Golden outputs: sha256 digests of CLI results recorded before the code
that makes them was replaced (the census and rewiring CSVs before the integer
LP descent and the leaner sampler round; the growth curve and the per-graph
commands before the kernel computed its moments, r_{d,delta} and delta on
first read; the messy edge file before the one-pass edge-list reader; the
large-graph rewiring row before the array stub shuffle and the summed float
delta; the help texts at COLUMNS=80 before the parser took the terminal width
once per call; the argument table before a call gave arguments only to the
subcommand it names). Any change to a figure, or to the output bytes, fails
here."""

import hashlib
import random

import pytest

from sgfp.cli import main
from sgfp.experiments import strip_isolates
from sgfp.ingest import edge_list_text, node_values_text
from sgfp.randgen import gnp, mix

from conftest import preferential_attachment, preferential_attachment_edges

CENSUS_SHA256 = "c193031d97fdc80fcd0b5330aac883b47c4661cbe70435c49d02160b1c70cfb3"
REWIRE_SHA256 = "1085e132eabcfb7a0cf52cce3b4f0bfb869a489450921b0d3b2d06584c7c2dce"
GROW_SHA256 = "664805c596d44b5ab90e83dd3fc9ee662016f92a914dda9d3f1c1bed64aa20af"
# On preferential_attachment(2500, seed=3), attributes random.Random(3).randint(-50, 50).
# The rewire row covers a 10**4-stub shuffle and the float-filtered LP on both graphs.
PA_REWIRE_SHA256 = "055459b9e47d84ac13f509943eacb4d72664a2612e2958eee80a95f54cdfd57d"
PA_SHA256 = {
    "classify": "5e15e8daa39a3ff79904a03549b8c0e7697b447adddd1918c3cc009746d824f4",
    "analyze": "10527b8fd34ce84ac77a0b0f43ae3c0e30a99746a4608ae3a55435d16e5453dd",
    "optimize": "647bfee41260e5ec23233d9eb4e2993e2ed85276577ca1d17df328b80d32ea0f",
    "threshold": "643e134bcd57da2731388c76c6772e0c9664c894283c8a597ea6a83343f47f73",
}
# On messy_edge_text(2500, seed=11), attributes random.Random(11).randint(-50, 50)
# in sorted label order.
MESSY_SHA256 = {
    "classify": "0cb6a12b9562c3a2be35b8c7d26a1e50b3e94b837d723aa58fa2a772b63711fe",
    "analyze": "26da4556a7137a5adfc1b87d422448fad107a194428046f06fddaba108dfc033",
}

# `sgfp --help` (key "") and `sgfp <command> --help`, at COLUMNS=80.
HELP_SHA256 = {
    "": "beec2e906f20cd4c95fe37679c06281b3b8cb561cb6c49766a9f5d9845610e63",
    "analyze": "ab69a99f5ea4e69d57c0039c286bd437ae5e4ed669a6aac28e489ba252a92690",
    "classify": "f681fa7ac62932c78bd5fc907bd39550081863060581791861bd38e1ce678b28",
    "optimize": "370da9ff64d663be3e5d39f8687050fa8250c23ce4906a742b9ccaf9d72a3ce2",
    "threshold": "2ca976e5c4f55b5f749180eb220662790cb07078f4e0d7dc92cec4a865a8cc86",
    "census": "5d247eeab3937060f92b86bb5857389c8c75ba5444dd704ba574b9bf62eb0f89",
    "grow": "6c6d7f5ba92a2d192a745dd769b95c4ff54aa48396b70c768bb87809c2bc2658",
    "rewire-experiment": "15b7ed7caea45bbf113cdd85c6e7e1f7ed3ca0cc860fe47f62c9e2e694082a3f",
    "propown": "fd514092e81668746bc2e7e4b5e2375148b44280823c29c5929c0e2bdfb0367b",
    "gen": "2208c87f44a9166248eebce13f29f7699347eaea7a97ae672e15dcc94dafb9d0",
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_census_output_is_unchanged(tmp_path):
    out = tmp_path / "census.csv"
    argv = ["census", "--nmin", "3", "--nmax", "10", "--samples", "2000", "--seed", "0"]
    assert main([*argv, "--output", str(out)]) == 0
    assert _digest(out) == CENSUS_SHA256


def test_rewire_experiment_output_is_unchanged(tmp_path, monkeypatch):
    # 20 graphs drawn as criterion 9 draws them; relative paths keep the
    # network ids, and so the digest, free of the temporary directory.
    monkeypatch.chdir(tmp_path)
    names = []
    for i in range(20):
        n = 12 + mix(204, 10_000 + i) % 29
        p = 0.15 + (mix(204, 20_000 + i) % 1000) / 1000 * 0.45
        names.append(f"g{i:02d}.edges")
        (tmp_path / names[-1]).write_text(edge_list_text(strip_isolates(gnp(n, p, mix(204, i)))))
    assert main(["rewire-experiment", *names, "--seed", "5", "--output", "rewire.csv"]) == 0
    assert _digest(tmp_path / "rewire.csv") == REWIRE_SHA256


def test_grow_output_is_unchanged(tmp_path):
    out = tmp_path / "grow.csv"
    assert main(["grow", "150", "--output", str(out)]) == 0
    assert _digest(out) == GROW_SHA256


@pytest.fixture(scope="module")
def pa_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("pa")
    g = preferential_attachment(2500, seed=3)
    rng = random.Random(3)
    (root / "g.edges").write_text(edge_list_text(g))
    (root / "a.csv").write_text(node_values_text(g, [rng.randint(-50, 50) for _ in range(g.n)]))
    return root


@pytest.mark.parametrize("command, extra", [
    ("classify", []), ("analyze", ["{a}", "--per-node"]), ("optimize", ["--witness"]),
    ("threshold", []),
])
def test_per_graph_command_output_is_unchanged(pa_files, command, extra):
    out = pa_files / f"{command}.json"
    argv = [command, str(pa_files / "g.edges"), *(a.format(a=pa_files / "a.csv") for a in extra)]
    assert main([*argv, "--output", str(out)]) == 0
    assert _digest(out) == PA_SHA256[command]


def test_rewire_experiment_on_a_large_graph_is_unchanged(pa_files, monkeypatch):
    # Run from the directory with the relative name, so the network id is "g.edges".
    monkeypatch.chdir(pa_files)
    assert main(["rewire-experiment", "g.edges", "--seed", "5", "--output", "rewire.csv"]) == 0
    assert _digest(pa_files / "rewire.csv") == PA_REWIRE_SHA256


def messy_edge_text(n, seed):
    """preferential_attachment_edges(n, seed) in generation order under
    shuffled string labels, with CRLF line ends, tabs and runs of blanks
    between labels, comment lines (some indented, some holding three
    labels), blank lines, and duplicate or reversed copies of earlier edges."""
    rng = random.Random(seed)
    names = [f"v{k}" for k in range(n)]
    rng.shuffle(names)
    edges = preferential_attachment_edges(n, seed)
    lines = ["# messy edge list", ""]
    for k, (u, v) in enumerate(edges):
        if rng.random() < 0.5:
            u, v = v, u
        gap, tail = rng.choice([" ", "\t", "  ", " \t "]), rng.choice(["", " ", "\t"])
        lines.append(f"{names[u]}{gap}{names[v]}{tail}")
        roll = rng.random()
        if roll < 0.03:
            lines.append(rng.choice(["# a b c", "  #note", "\t# x y", "#"]))
        elif roll < 0.05:
            lines.append(rng.choice(["", "  ", "\t"]))
        elif roll < 0.10:
            a, b = edges[rng.randrange(k + 1)]
            lines.append(names[b] + "\t" + names[a] if roll < 0.08 else f" {names[a]} {names[b]}")
    return "\r\n".join(lines) + "\r\n"


@pytest.fixture(scope="module")
def messy_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("messy")
    (root / "g.edges").write_bytes(messy_edge_text(2500, seed=11).encode())
    rng = random.Random(11)
    labels = sorted(f"v{k}" for k in range(2500))
    (root / "a.csv").write_text("node,value\n" + "".join(
        f"{label},{rng.randint(-50, 50)}\n" for label in labels))
    return root


@pytest.mark.parametrize("command, extra", [("classify", []), ("analyze", ["{a}", "--per-node"])])
def test_messy_edge_file_output_is_unchanged(messy_files, command, extra):
    out = messy_files / f"{command}.json"
    argv = [command, str(messy_files / "g.edges"),
            *(a.format(a=messy_files / "a.csv") for a in extra)]
    assert main([*argv, "--output", str(out)]) == 0
    assert _digest(out) == MESSY_SHA256[command]


@pytest.mark.parametrize("command", HELP_SHA256)
def test_help_text_is_unchanged(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == HELP_SHA256[command]


EMPTY = hashlib.sha256(b"").hexdigest()
CHOICES = ("(choose from 'analyze', 'classify', 'optimize', 'threshold', 'census', 'grow', "
           "'rewire-experiment', 'propown', 'gen')")

# (argv, stdout sha256, stderr, exit code) at COLUMNS=80: help, usage errors,
# unknown commands, options before the command and abbreviations.
ARGUMENT_TABLE = [
    ([], EMPTY, "error: sgfp: the following arguments are required: command\n", 1),
    (["--help"], HELP_SHA256[""], "", 0),
    (["-h"], HELP_SHA256[""], "", 0),
    (["--he"], HELP_SHA256[""], "", 0),
    (["-h", "census"], HELP_SHA256[""], "", 0),
    (["--help", "grow"], HELP_SHA256[""], "", 0),
    (["foo"], EMPTY, f"error: sgfp: argument command: invalid choice: 'foo' {CHOICES}\n", 1),
    (["foo", "census"], EMPTY,
     f"error: sgfp: argument command: invalid choice: 'foo' {CHOICES}\n", 1),
    (["cen"], EMPTY, f"error: sgfp: argument command: invalid choice: 'cen' {CHOICES}\n", 1),
    (["GROW", "2"], EMPTY,
     f"error: sgfp: argument command: invalid choice: 'GROW' {CHOICES}\n", 1),
    (["-x", "grow"], EMPTY, "error: sgfp grow: the following arguments are required: steps\n", 1),
    (["--output", "x", "grow", "2"], EMPTY,
     f"error: sgfp: argument command: invalid choice: 'x' {CHOICES}\n", 1),
    (["--", "grow", "2"], EMPTY,
     f"error: sgfp: argument command: invalid choice: '--' {CHOICES}\n", 1),
    (["grow", "2"], "e4adc8eec6d39c1ede165844ecb894f0ae12541fc975297fa1b8a5c21438666d", "", 0),
    (["grow", "2", "--bogus"], EMPTY, "error: sgfp: unrecognized arguments: --bogus\n", 1),
    (["grow", "--help"], HELP_SHA256["grow"], "", 0),
    (["grow", "-h"], HELP_SHA256["grow"], "", 0),
    (["grow", "--help", "census"], HELP_SHA256["grow"], "", 0),
    (["grow", "--he"], HELP_SHA256["grow"], "", 0),
    (["grow"], EMPTY, "error: sgfp grow: the following arguments are required: steps\n", 1),
    (["grow", "x"], EMPTY, "error: sgfp grow: argument steps: invalid int value: 'x'\n", 1),
    (["grow", "2", "--out"], EMPTY,
     "error: sgfp grow: argument --output: expected one argument\n", 1),
    (["grow", "2", "3"], EMPTY, "error: sgfp: unrecognized arguments: 3\n", 1),
    (["census", "--nm", "3"], EMPTY,
     "error: sgfp census: ambiguous option: --nm could match --nmin, --nmax\n", 1),
    (["census", "--nmi", "3", "--nma", "3", "--sam", "2", "--se", "1"],
     "a8e24522187c6ebe8109a327af720dabab4a77b5387b421fafc4e7805949f709", "", 0),
    (["census", "--nmin", "3", "--nmax", "3", "--samples", "2", "--jobs", "x"], EMPTY,
     "error: sgfp census: argument --jobs: invalid int value: 'x'\n", 1),
    (["census", "-h"], HELP_SHA256["census"], "", 0),
    (["gen", "nosuch"], EMPTY, "error: sgfp gen: argument kind: invalid choice: 'nosuch' "
                               "(choose from 'gnp', 'star', 'knee', 'path', 'fig1', 'fig4')\n", 1),
    (["gen", "star", "--n", "4"],
     "b2a1a891691e049e560dcc50a86e3e35e455d7ae00054b90f2194d4a8214f29c", "", 0),
    (["gen", "star", "--p", "0.5"], EMPTY, "error: sgfp gen: argument --p: star does not use it\n",
     1),
    (["gen", "fig4", "--sample", "3"], EMPTY,
     "error: sgfp gen: argument --sample: invalid choice: 3 (choose from 0, 1, 2)\n", 1),
    (["gen", "fig1", "--attrs"], EMPTY,
     "error: sgfp gen: argument --attrs-output: expected one argument\n", 1),
    (["gen", "fig1"], "380fdf52667480e3c13bd25b059bba40104b6ccbd8e6a256b6cdf5f179133056", "", 0),
    (["threshold"], EMPTY,
     "error: sgfp threshold: the following arguments are required: graph\n", 1),
    (["threshold", "--grid"], EMPTY,
     "error: sgfp threshold: argument --grid: expected one argument\n", 1),
    (["analyze", "--help"], HELP_SHA256["analyze"], "", 0),
    (["rewire-experiment"], EMPTY,
     "error: sgfp rewire-experiment: the following arguments are required: graphs\n", 1),
    (["propown", "a"], EMPTY,
     "error: sgfp propown: the following arguments are required: labels\n", 1),
    (["classify", "--witness", "g"], EMPTY, "error: sgfp: unrecognized arguments: --witness\n", 1),
    (["optimize", "-h", "--witness"], HELP_SHA256["optimize"], "", 0),
]


@pytest.mark.parametrize("argv, out_sha256, err, code", ARGUMENT_TABLE)
def test_argument_table_is_unchanged(argv, out_sha256, err, code, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        status = main(argv)
    except SystemExit as exc:  # --help
        status = exc.code
    captured = capsys.readouterr()
    assert (hashlib.sha256(captured.out.encode()).hexdigest(), captured.err, status) == (
        out_sha256, err, code)
