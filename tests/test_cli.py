import hashlib

import pytest

import roadgeom as rg
from roadgeom.cli import GENERATORS, REPORT_METRICS, main, resolve_graph
from roadgeom.errors import ConfigError


def run(tmp_path, *argv, name="out.csv"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else ""


class TestResolveGraph:
    def test_generator_specs(self):
        g = resolve_graph("gotham:side=8,express=2", seed=4)
        assert g == rg.gen_gotham(8, 2, seed=4)
        g2 = resolve_graph("rgg:n=40,radius=0.3", seed=1)
        assert g2 == rg.gen_random_geometric(40, 0.3, seed=1)

    def test_csv_directory(self, tmp_path):
        g = rg.gen_gotham(5, 0, seed=0)
        rg.save_csv(g, tmp_path / "vertices.csv", tmp_path / "edges.csv")
        assert resolve_graph(str(tmp_path), seed=0) == g
        assert resolve_graph(str(tmp_path / "vertices.csv"), seed=0) == g

    def test_dimacs_pair(self, tmp_path):
        g = rg.gen_gotham(4, 0, seed=0)
        rg.save_dimacs(g, tmp_path / "net.gr", tmp_path / "net.co")
        loaded = resolve_graph(str(tmp_path / "net.gr"), seed=0)
        assert loaded.n == g.n and loaded.m == g.m

    def test_bad_specs(self):
        with pytest.raises(ConfigError):
            resolve_graph("gotham:side=8,bogus=1", seed=0)
        with pytest.raises(ConfigError):
            resolve_graph("nonsense", seed=0)


class TestSubcommands:
    def test_crossings_csv(self, tmp_path):
        code, text = run(tmp_path, "crossings", "gotham:side=12,express=2", "--seed", "3")
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "e1,e2,x,y,level1,level2,kind"
        assert any(line.startswith("# proper_total=") for line in lines)

    def test_ply_csv(self, tmp_path):
        code, text = run(tmp_path, "ply", "gotham:side=8,express=1", "--seed", "5")
        assert code == 0
        header, row = text.splitlines()[:2]
        assert header == "n,max_center_ply,sqrt_n_th_ply,max_disk_degree"
        assert int(row.split(",")[0]) == 66

    def test_decompose_csv(self, tmp_path):
        code, text = run(
            tmp_path, "decompose", "gotham:side=12,express=0", "--leaf", "16", "--seed", "2"
        )
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "node,depth,n,cut,balance,retries"
        root = lines[1].split(",")
        assert root[0] == "0" and int(root[2]) == 144
        retries = [row.split(",")[5] for row in lines[1:]]
        assert all(r.isdigit() for r in retries)  # non-negative integers

    def test_sssp_csv(self, tmp_path):
        code, text = run(tmp_path, "sssp", "gotham:side=4,express=0", "--source", "0")
        assert code == 0
        rows = text.splitlines()
        assert rows[0] == "vertex,dist,parent"
        assert rows[1].split(",")[1] == "0.0"

    def test_voronoi_cross_checks(self, tmp_path):
        code, text = run(
            tmp_path, "voronoi", "gotham:side=8,express=0", "--sites", "random:3", "--seed", "7"
        )
        assert code == 0
        assert text.splitlines()[0] == "vertex,label,dist"

    def test_neighborly_and_clustering(self, tmp_path):
        code, text = run(tmp_path, "neighborly", "gotham:side=6,express=0", "--cutoff", "50")
        assert code == 0
        assert text.splitlines()[0] == (
            "n,max_hops_augmented,max_hops_plain,augmented_truncated,plain_truncated"
        )
        code, text = run(tmp_path, "clustering", "gotham:side=6,express=0")
        assert code == 0
        assert text.splitlines()[0] == "n,max_components"

    def test_arrangement_modes(self, tmp_path):
        code, naive = run(tmp_path, "arrangement", "rgg:n=40,radius=0.25", "--seed", "1")
        assert code == 0
        code, inductive = run(
            tmp_path, "arrangement", "rgg:n=40,radius=0.25", "--seed", "1", "--inductive",
            name="out2.csv",
        )
        assert code == 0
        v_naive = naive.splitlines()[1].split(",")[:4]
        v_ind = inductive.splitlines()[1].split(",")[:4]
        assert v_naive == v_ind

    def test_report(self, tmp_path):
        code, text = run(
            tmp_path, "report", "--gen", "gotham", "--sizes", "256,1024",
            "--metric", "crossings", "--seed", "9",
        )
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "network,n,metric,sqrt_n"
        assert len(lines) == 3

    def test_report_gotham_floors_the_side_for_expressways(self, tmp_path):
        # Chords need side >= 4, so small sizes round up to a 4 x 4 city.
        code, text = run(tmp_path, "report", "--gen", "gotham", "--sizes", "1,12,13", "--metric", "ply")
        assert code == 0
        assert [row.split(",")[:2] for row in text.splitlines()[1:]] == [["gotham-4x4", "24"]] * 3
        code, text = run(
            tmp_path, "report", "--gen", "gotham", "--sizes", "1", "--metric", "ply", "--expressways", "0"
        )
        assert code == 0
        assert text.splitlines()[1].startswith("gotham-2x2,4,")

    def test_report_equals_subcommands(self, tmp_path):
        # metric -> (subcommand, its CSV column); crossings reads the
        # proper_total comment line, and system_ply, which no subcommand
        # prints, is compared with the library call.
        column_of = {
            "crossings": ("crossings", None),
            "ply": ("ply", "max_center_ply"),
            "sqrt_ply": ("ply", "sqrt_n_th_ply"),
            "disk_degree": ("ply", "max_disk_degree"),
            "clustering": ("clustering", "max_components"),
            "neighborly": ("neighborly", "max_hops_augmented"),
            "neighborly_plain": ("neighborly", "max_hops_plain"),
            "plain_truncated": ("neighborly", "plain_truncated"),
            "system_ply": (None, None),
            "arrangement": ("arrangement", "ratio"),
        }
        assert set(column_of) == set(REPORT_METRICS)
        for metric, (command, column) in column_of.items():
            code, text = run(
                tmp_path, "report", "--gen", "gotham", "--sizes", "64", "--metric", metric, "--seed", "3"
            )
            assert code == 0
            assert text.splitlines()[1].startswith("gotham-8x8,")
            reported = text.splitlines()[1].split(",")[2]
            if command is None:
                assert reported == str(rg.system_ply(rg.build_disk_system(rg.gen_gotham(8, 4, seed=3))))
                continue
            code, text = run(tmp_path, command, "gotham:side=8,express=4", "--seed", "3")
            assert code == 0
            if column is None:
                line = next(x for x in text.splitlines() if x.startswith("# proper_total="))
                want = line.split()[1].split("=")[1]
            else:
                header, row = text.splitlines()[:2]
                want = row.split(",")[header.split(",").index(column)]
            assert reported == want, metric

    @pytest.mark.parametrize(
        "argv, sizes",
        [
            (["--gen", "gotham", "--sizes", "64,144", "--expressways", "2", "--metric", "crossings"], 2),
            (["--gen", "hubspoke", "--sizes", "144", "--metric", "system_ply"], 1),
            (["--gen", "gotham", "--sizes", "64", "--expressways", "2", "--metric", "neighborly_plain"], 1),
        ],
    )
    def test_report_paper_sweeps(self, tmp_path, argv, sizes):
        # The smallest sweeps of the paper's crossing, ply and hop tables.
        code, text = run(tmp_path, "report", *argv)
        assert code == 0
        table = [row.split(",") for row in text.splitlines()]
        assert len(table) == sizes + 1
        assert all(len(row) == len(table[0]) for row in table)

    def test_report_determinism(self, tmp_path):
        args = ["report", "--gen", "rgg", "--sizes", "200,400", "--metric", "ply", "--seed", "3"]
        _, first = run(tmp_path, *args, name="a.csv")
        _, second = run(tmp_path, *args, name="b.csv")
        assert first == second


# SHA-256 of the CSV each invocation writes, recorded before the CLI's
# output moved into one writer; every subcommand and report family is here.
GOLDEN = [
    (("crossings", "gotham:side=12,express=2", "--seed", "3"),
     "20adbef1477b0d9cdb85de0d575b30e706c5682a855e98681e2d9978e92ac2a4"),
    (("ply", "gotham:side=8,express=1", "--seed", "5"),
     "a5d7d210473cffee77a90bc1d4f2d00cd77ce3cff7c69d1d76c782391fa72e0e"),
    (("decompose", "gotham:side=12,express=0", "--leaf", "16", "--seed", "2"),
     "0da1fd79be765982c02efb781d365a29512ced4b071e052e612077d13994592e"),
    (("sssp", "gotham:side=4,express=0", "--source", "0"),
     "109be096df309c8be79243eb4e7b4ee1bb9d79e469cf70e726a4863e67a6a518"),
    # Disconnected: unreachable vertices print dist "inf".
    (("sssp", "rgg:n=40,radius=0.1", "--source", "0", "--seed", "1"),
     "eaeb062fc59990dbf9916a287751e4ff0d62d2f3ad9981084baca1c941dca3cf"),
    (("voronoi", "gotham:side=8,express=0", "--sites", "random:3", "--seed", "7"),
     "d0a4145de45e7908cef09046e6f5b6a08afbc9fb915547ca620314c8e183634b"),
    (("voronoi", "rgg:n=40,radius=0.1", "--sites", "0,5", "--seed", "1"),
     "e767012b6cbbc19847e9c9db2fa55fe5a9a8ab52940423b693776ce43d6293b4"),
    (("neighborly", "gotham:side=6,express=0", "--cutoff", "50"),
     "625cd25b062354368c4c8897aa78dfd226b4b7f3f8fc491479208c15a23610b5"),
    (("clustering", "gotham:side=6,express=0"),
     "43449560fd8c667c26c688b00a760644e0d75b311aaa8344d3c713186fb3e2ae"),
    (("arrangement", "rgg:n=40,radius=0.25", "--seed", "1"),
     "0a682daaac40e94716a06c0643c2581ef1b18122369c353715fdd5fccefb887a"),
    (("arrangement", "rgg:n=40,radius=0.25", "--seed", "1", "--inductive"),
     "bf23428924451b69da1aa13496cc9f5b77ae86466114fdd6563974b9e75499f4"),
    (("report", "--gen", "gotham", "--sizes", "256,1024", "--metric", "crossings", "--seed", "9"),
     "ce1a4afc80e89cd830938b390d4d68024ccd7d9dbcf27ceceb890ee096f3f805"),
    (("report", "--gen", "rgg", "--sizes", "200,400", "--metric", "ply", "--seed", "3"),
     "a70664080ce98c737851f951182717eb4465fd4f050c2c1f32255bc6daec1471"),
    (("report", "--gen", "hubspoke", "--sizes", "144", "--metric", "arrangement", "--seed", "3"),
     "ce034a5e15e8ece67b391e6d7e4c73fe3c761d572bae745e1f4a0a77c22f3e7d"),
]


def test_golden_output(tmp_path, capsys):
    assert {argv[0] for argv, _ in GOLDEN} == {
        "crossings", "ply", "decompose", "sssp", "voronoi", "neighborly", "clustering",
        "arrangement", "report",
    }
    assert {argv[2] for argv, _ in GOLDEN if argv[0] == "report"} == set(GENERATORS)
    for argv, digest in GOLDEN:
        code, text = run(tmp_path, *argv)
        assert code == 0, argv
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, argv
        # Without --out the same bytes go to stdout.
        capsys.readouterr()
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == text, argv


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["no-such-command"]) == 1
        capsys.readouterr()
        # The arrangement mode is naive unless --inductive is given.
        assert main(["arrangement", "rgg:n=40,radius=0.25", "--naive"]) == 1
        assert "unrecognized arguments: --naive" in capsys.readouterr().err

    def test_empty_sizes_is_config_error(self, tmp_path, capsys):
        code = main(["report", "--gen", "gotham", "--sizes", "", "--metric", "crossings"])
        assert code == 1
        assert "size list" in capsys.readouterr().err

    def test_unknown_metric(self, capsys):
        code = main(["report", "--gen", "gotham", "--sizes", "64", "--metric", "bogus"])
        assert code == 1
        capsys.readouterr()

    def test_bad_size_tokens(self, capsys):
        code = main(["report", "--gen", "gotham", "--sizes", "64,xyz", "--metric", "ply"])
        assert code == 1
        assert "size list" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["ply", str(tmp_path / "missing.gr")])
        assert code == 2
        capsys.readouterr()

    def test_malformed_file_is_data_error(self, tmp_path, capsys):
        (tmp_path / "bad.gr").write_text("p sp 1 1\nbogus line\n", encoding="utf-8")
        (tmp_path / "bad.co").write_text("v 1 0 0\n", encoding="utf-8")
        code = main(["ply", str(tmp_path / "bad.gr")])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["report", "--gen", "rgg", "--sizes", "100,0", "--metric", "ply"],
             "configuration error: sizes must be positive in '100,0' (--sizes)"),
            (["report", "--gen", "gotham", "--sizes", "-4", "--metric", "ply"],
             "configuration error: sizes must be positive in '-4' (--sizes)"),
            (["voronoi", "gotham:side=6", "--sites", "random:x"],
             "configuration error: bad site list 'random:x'"),
            (["report", "--gen", "bogus", "--sizes", "64", "--metric", "ply"],
             "configuration error: unknown generator 'bogus'; choose from ('gotham', 'rgg', 'hubspoke')"),
            (["ply", "gotham:express=2"],
             "configuration error: 'gotham:express=2' is missing parameter 'side'"),
            (["ply", "rgg:n=10,radius=x"],
             "configuration error: bad value in 'rgg:n=10,radius=x': could not convert string to float: 'x'"),
            (["decompose", "gotham:side=4,express=0", "--delta", "0.9"],
             "configuration error: delta must be in [2/3, 3/4]"),
            (["report", "--gen", "rgg", "--sizes", "100", "--metric", "ply", "--radius", "0"],
             "configuration error: radius must be > 0"),
            (["ply", "rgg:n=40,radius=nan"],
             "configuration error: radius must be > 0"),
            (["ply", "gotham:side=8,side=9"],
             "configuration error: parameter 'side' given twice in 'gotham:side=8,side=9'"),
            # Each family's report option is an error with another family.
            (["report", "--gen", "gotham", "--sizes", "16", "--metric", "ply", "--radius", "5"],
             "configuration error: --radius applies to --gen rgg only"),
            (["report", "--gen", "gotham", "--sizes", "16", "--metric", "ply", "--spokes", "3"],
             "configuration error: --spokes applies to --gen hubspoke only"),
            (["report", "--gen", "rgg", "--sizes", "16", "--metric", "ply", "--expressways", "2"],
             "configuration error: --expressways applies to --gen gotham only"),
        ],
    )
    def test_bad_input_is_config_error_and_writes_no_file(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"roadgeom: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_failed_report_after_rows_writes_no_file(self, tmp_path, capsys, monkeypatch):
        # The second size fails after the first row is computed.
        def fail_on_second(g, args):
            if g.n > 100:
                raise ConfigError("planted failure")
            return 1

        monkeypatch.setitem(REPORT_METRICS, "ply", fail_on_second)
        out = tmp_path / "out.csv"
        argv = ["report", "--gen", "gotham", "--sizes", "64,1024", "--metric", "ply"]
        assert main([*argv, "--out", str(out)]) == 1
        assert "planted failure" in capsys.readouterr().err
        assert not out.exists()
