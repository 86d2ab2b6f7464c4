"""Tests for the MaxK deep-MLP extension (§6) and the CLI driver."""

import numpy as np
import pytest

from repro.cli import ARTIFACTS, build_parser, main
from repro.gpusim.memory import mlp_feature_traffic_cut
from repro.models import MaxKMLPClassifier, train_mlp_classifier


def blobs(n_per_class=40, n_classes=3, n_features=8, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(n_classes, n_features))
    inputs = np.concatenate(
        [centers[c] + rng.normal(size=(n_per_class, n_features))
         for c in range(n_classes)]
    )
    labels = np.repeat(np.arange(n_classes), n_per_class)
    return inputs, labels


class TestMaxKMLPClassifier:
    def test_forward_shape(self):
        model = MaxKMLPClassifier(8, 16, 3, n_layers=2, nonlinearity="maxk", k=4)
        logits = model(np.zeros((5, 8)))
        assert logits.shape == (5, 3)

    def test_maxk_mlp_learns_blobs(self):
        inputs, labels = blobs()
        model = MaxKMLPClassifier(8, 32, 3, nonlinearity="maxk", k=8, seed=0)
        accuracy = train_mlp_classifier(model, inputs, labels, epochs=120)
        assert accuracy > 0.9

    def test_maxk_matches_relu_on_blobs(self):
        """§6 extension claim: MaxK regularised sparsity works beyond GNNs."""
        inputs, labels = blobs(seed=1)
        relu_model = MaxKMLPClassifier(8, 32, 3, nonlinearity="relu", seed=0)
        maxk_model = MaxKMLPClassifier(8, 32, 3, nonlinearity="maxk", k=8, seed=0)
        relu_acc = train_mlp_classifier(relu_model, inputs, labels, epochs=120)
        maxk_acc = train_mlp_classifier(maxk_model, inputs, labels, epochs=120)
        assert maxk_acc > relu_acc - 0.1

    def test_hidden_activation_sparsity(self):
        model = MaxKMLPClassifier(8, 16, 3, nonlinearity="maxk", k=4, seed=0)
        from repro.tensor import Tensor, maxk

        x = Tensor(np.random.default_rng(2).normal(size=(10, 8)))
        hidden = maxk(model.hidden_layers[0](x), model.k)
        assert ((hidden.numpy() != 0).sum(axis=1) <= 4).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            MaxKMLPClassifier(8, 16, 3, n_layers=0)
        with pytest.raises(ValueError):
            MaxKMLPClassifier(8, 16, 3, nonlinearity="maxk")  # missing k
        with pytest.raises(ValueError):
            MaxKMLPClassifier(8, 16, 3, nonlinearity="gelu")

    def test_traffic_cut_formula(self):
        # hidden 256 -> k 32 with uint8 index: 1 - 5*32/(4*256) = 84.4%.
        assert mlp_feature_traffic_cut(256, 32, 1024) == pytest.approx(
            1 - (5 * 32) / (4 * 256)
        )

    @pytest.mark.parametrize("hidden,index_bytes", [
        (256, 1), (257, 4), (512, 4),
    ])
    def test_traffic_cut_index_width_follows_hidden(self, hidden,
                                                     index_bytes):
        # A uint8 sp_index addresses 256 columns; past that it is 4 bytes:
        # 1 - (4 + index_bytes) * k / (4 * hidden).
        assert mlp_feature_traffic_cut(hidden, 32, 64) == pytest.approx(
            1 - ((4 + index_bytes) * 32) / (4 * hidden)
        )

    def test_traffic_cut_monotone_in_k(self):
        cuts = [mlp_feature_traffic_cut(256, k, 64) for k in (8, 32, 128)]
        assert cuts == sorted(cuts, reverse=True)


class TestCLI:
    def test_artifact_registry_complete(self):
        assert set(ARTIFACTS) == {
            "fig1", "fig4", "fig8", "fig9", "fig10",
            "table1", "table2", "table3", "table4", "table5",
            "drift",
        }

    def test_descriptive_tables(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Reddit" in out and "114615891" in out
        assert main(["table3"]) == 0
        assert "384" in capsys.readouterr().out  # Yelp's paper hidden dim

    def test_parser_accepts_every_artifact(self):
        parser = build_parser()
        for name in ARTIFACTS:
            args = parser.parse_args([name])
            assert args.artifact == name

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "table5" in out

    def test_fig8_restricted_run(self, capsys):
        assert main(["fig8", "--graphs", "pubmed"]) == 0
        out = capsys.readouterr().out
        assert "pubmed" in out

    def test_table4_run(self, capsys):
        assert main(["table4"]) == 0
        assert "spgemm" in capsys.readouterr().out

    def test_fig9_restricted_run(self, capsys):
        assert main(["fig9", "--models", "sage", "--datasets", "Flickr"]) == 0
        assert "Flickr" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
