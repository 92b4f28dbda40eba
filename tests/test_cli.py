"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core.space import NucleusSpace
from repro.datasets import load_dataset
from repro.graph.io import write_edge_list


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_decompose_defaults(self):
        args = build_parser().parse_args(["decompose"])
        assert args.dataset == "fb"
        assert args.algorithm == "and"
        assert args.workers is None
        assert args.parallel is None

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_decompose_toy(self, capsys):
        assert main(["decompose", "--dataset", "toy", "--r", "1", "--s", "2"]) == 0
        out = capsys.readouterr().out
        assert "decomposition" in out
        assert "kappa histogram" in out

    def test_decompose_with_hierarchy(self, capsys):
        assert (
            main(
                [
                    "decompose",
                    "--dataset",
                    "toy",
                    "--r",
                    "2",
                    "--s",
                    "3",
                    "--algorithm",
                    "peeling",
                    "--hierarchy",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "nucleus hierarchy" in out

    def test_decompose_hierarchy_and_densest_on_csr(self, capsys, monkeypatch):
        """--hierarchy/--densest run on the in-memory CSR result: one
        decomposition, applications included, no dict space."""

        def forbidden(self, *args, **kwargs):
            raise AssertionError("decompose built a NucleusSpace")

        monkeypatch.setattr(NucleusSpace, "__init__", forbidden)
        assert (
            main(
                [
                    "decompose",
                    "--dataset",
                    "toy",
                    "--r",
                    "2",
                    "--s",
                    "3",
                    "--hierarchy",
                    "--densest",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "nucleus hierarchy" in out
        assert "densest nucleus" in out

    @pytest.mark.parametrize(
        "dataset, r, s", [("sw", "2", "3"), ("sw", "3", "4"), ("fb", "2", "3")]
    )
    def test_dataset_and_its_edge_list_print_the_same(
        self, capsys, tmp_path, dataset, r, s
    ):
        """One graph gives one space: a registry dataset and the same graph
        read back from an edge list print the same hierarchy and nucleus."""
        path = tmp_path / f"{dataset}.txt"
        write_edge_list(load_dataset(dataset), path)
        outputs = []
        for source in (["--dataset", dataset], ["--edge-list", str(path)]):
            argv = ["decompose", *source, "--r", r, "--s", s, "--hierarchy", "--densest"]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert "nucleus hierarchy" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_decompose_densest_alone(self, capsys):
        assert (
            main(["decompose", "--dataset", "toy", "--r", "1", "--s", "2", "--densest"])
            == 0
        )
        out = capsys.readouterr().out
        assert "densest nucleus" in out
        assert "nucleus hierarchy" not in out

    def test_query_command_with_backend(self, capsys):
        # the space's type picks the kernels: there is no --backend flag
        with pytest.raises(SystemExit) as exc:
            main(["query", "--dataset", "toy", "--backend", "csr"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err
        assert main(["query", "--dataset", "toy"]) == 0
        assert "Query-driven" in capsys.readouterr().out

    def test_decompose_rejects_backend_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--dataset", "toy", "--backend", "dict"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_convergence_command(self, capsys):
        assert (
            main(
                [
                    "convergence",
                    "--datasets",
                    "toy",
                    "--max-iterations",
                    "4",
                ]
            )
            == 0
        )
        assert "kendall_tau" in capsys.readouterr().out

    def test_iterations_command(self, capsys):
        assert main(["iterations", "--datasets", "toy"]) == 0
        assert "Table 4" in capsys.readouterr().out

    def test_scalability_command(self, capsys):
        assert (
            main(["scalability", "--datasets", "toy", "--threads", "1", "4"]) == 0
        )
        assert "speedup" in capsys.readouterr().out

    def test_tradeoff_command(self, capsys):
        assert main(["tradeoff", "--dataset", "sw"]) == 0
        assert "Figure 9" in capsys.readouterr().out

    def test_query_command(self, capsys):
        assert main(["query", "--dataset", "toy"]) == 0
        assert "hops" in capsys.readouterr().out

    def test_quality_command(self, capsys):
        assert main(["quality", "--dataset", "sw"]) == 0
        assert "stability" in capsys.readouterr().out

    def test_plateaus_command(self, capsys):
        assert main(["plateaus", "--dataset", "toy"]) == 0
        assert "Figure 5" in capsys.readouterr().out


class TestDecomposeWorkers:
    def test_workers_without_parallel_errors(self, capsys):
        """Regression: a bare --workers used to be silently discarded."""
        with pytest.raises(SystemExit) as excinfo:
            main(["decompose", "--dataset", "toy", "--workers", "3"])
        assert excinfo.value.code == 2
        assert "--parallel" in capsys.readouterr().err

    def test_workers_with_parallel_process(self, capsys):
        assert (
            main(
                [
                    "decompose",
                    "--dataset",
                    "toy",
                    "--r",
                    "1",
                    "--s",
                    "2",
                    "--parallel",
                    "process",
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "decomposition" in out

    def test_parallel_without_workers_uses_default(self, capsys):
        assert (
            main(
                [
                    "decompose",
                    "--dataset",
                    "toy",
                    "--r",
                    "1",
                    "--s",
                    "2",
                    "--parallel",
                    "process",
                ]
            )
            == 0
        )
        assert "decomposition" in capsys.readouterr().out

    def test_parallel_runs_and_only(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["decompose", "--dataset", "toy", "--algorithm", "snd",
                  "--parallel", "process"])
        assert excinfo.value.code == 2
        assert "--algorithm and only" in capsys.readouterr().err
        # the measured scalability times the pool's AND: no algorithm knob
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scalability", "--algorithm", "snd"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--r", "3", "--s", "2"], "--r < --s"),
            (["--r", "2", "--s", "2"], "--r < --s"),
            (["--r", "0", "--s", "2"], "at least 1"),
            (["--parallel", "process", "--workers", "0"], "at least 1"),
            (["--parallel", "process", "--workers", "-2"], "at least 1"),
            (["--parallel", "process", "--workers", "x"], "not an integer"),
        ],
    )
    def test_bad_instance_or_workers_exit_before_reading(
        self, capsys, monkeypatch, argv, message
    ):
        """Rejected by the parser (exit 2): no dataset is loaded and no
        pool is built, so no worker is forked."""
        import repro.cli as cli
        from repro.parallel.procpool import PersistentPool

        def forbidden(*args, **kwargs):
            raise AssertionError("read input or built a pool")

        monkeypatch.setattr(cli, "load_dataset", forbidden)
        monkeypatch.setattr(PersistentPool, "__init__", forbidden)
        with pytest.raises(SystemExit) as excinfo:
            main(["decompose", "--dataset", "toy", *argv])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--workers", "--threads"])
    def test_scalability_counts_must_be_positive(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["scalability", "--measured", flag, "2", "0"])
        assert excinfo.value.code == 2
        assert "at least 1" in capsys.readouterr().err

    def test_workers_allowed_for_other_commands(self, capsys):
        # scalability --measured has its own --workers; must stay unaffected
        args = build_parser().parse_args(
            ["scalability", "--measured", "--workers", "1", "2"]
        )
        assert args.workers == [1, 2]


class TestSaveLoad:
    """``decompose --save`` / ``--load`` round trips through the store."""

    def _saved(self, tmp_path, capsys):
        path = str(tmp_path / "bundle")
        assert (
            main(
                [
                    "decompose", "--dataset", "toy", "--r", "1", "--s", "2",
                    "--algorithm", "peeling", "--save", path,
                ]
            )
            == 0
        )
        return path, capsys.readouterr().out

    def test_save_writes_a_bundle(self, tmp_path, capsys):
        path, out = self._saved(tmp_path, capsys)
        assert "saved bundle" in out
        from repro.store import open_bundle

        bundle = open_bundle(path, verify=True)
        assert all(bundle.has(c) for c in ("graph", "space", "result", "index"))

    def test_load_reprints_the_same_summary(self, tmp_path, capsys):
        path, cold = self._saved(tmp_path, capsys)
        assert main(["decompose", "--load", path]) == 0
        warm = capsys.readouterr().out
        # identical histogram; the warm run only adds the bundle banner
        cold_hist = cold[cold.index("kappa histogram"):].split("saved bundle")[0]
        assert cold_hist.strip() in warm

    def test_load_runs_applications_from_the_bundle(self, tmp_path, capsys):
        path, _ = self._saved(tmp_path, capsys)
        assert main(["decompose", "--load", path, "--hierarchy", "--densest"]) == 0
        out = capsys.readouterr().out
        assert "nucleus hierarchy" in out
        assert "densest nucleus" in out

    def test_load_rejects_conflicting_flags(self, tmp_path, capsys):
        for extra in (
            ["--save", str(tmp_path / "x")],
            ["--edge-list", "nope.txt"],
            ["--parallel", "process"],
        ):
            with pytest.raises(SystemExit):
                main(["decompose", "--load", str(tmp_path / "b")] + extra)

    def test_load_missing_bundle_raises_store_error(self, tmp_path):
        from repro.store import StoreFormatError

        with pytest.raises(StoreFormatError):
            main(["decompose", "--load", str(tmp_path / "absent")])
