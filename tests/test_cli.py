import pytest

import roadgeom as rg
from roadgeom.cli import REPORT_METRICS, main, resolve_graph
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

    def test_report_equals_subcommands(self, tmp_path):
        # metric -> (subcommand, its CSV column); crossings reads the
        # proper_total comment line.
        column_of = {
            "crossings": ("crossings", None),
            "ply": ("ply", "max_center_ply"),
            "sqrt_ply": ("ply", "sqrt_n_th_ply"),
            "disk_degree": ("ply", "max_disk_degree"),
            "clustering": ("clustering", "max_components"),
            "neighborly": ("neighborly", "max_hops_augmented"),
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
            code, text = run(tmp_path, command, "gotham:side=8,express=4", "--seed", "3")
            assert code == 0
            if column is None:
                line = next(x for x in text.splitlines() if x.startswith("# proper_total="))
                want = line.split()[1].split("=")[1]
            else:
                header, row = text.splitlines()[:2]
                want = row.split(",")[header.split(",").index(column)]
            assert reported == want, metric

    def test_report_determinism(self, tmp_path):
        args = ["report", "--gen", "rgg", "--sizes", "200,400", "--metric", "ply", "--seed", "3"]
        _, first = run(tmp_path, *args, name="a.csv")
        _, second = run(tmp_path, *args, name="b.csv")
        assert first == second


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["no-such-command"]) == 1
        capsys.readouterr()

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
