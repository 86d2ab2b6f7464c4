"""§6 extension: MaxK as a regular-sparsity nonlinearity beyond GNNs.

Trains deep MLP classifiers with ReLU and MaxK on a Gaussian-blob task and
reports (i) accuracy parity and (ii) the input-fetch traffic a CBSR-based
dense-layer kernel would save — the dense-layer analogue of the paper's
§4.3 SpGEMM reduction.

Run:  python examples/maxk_beyond_gnns.py
"""

import numpy as np

from repro.gpusim.memory import mlp_feature_traffic_cut
from repro.models import MaxKMLPClassifier, train_mlp_classifier


def make_blobs(n_per_class=60, n_classes=5, n_features=16, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=2.5, size=(n_classes, n_features))
    inputs = np.concatenate(
        [centers[c] + rng.normal(size=(n_per_class, n_features))
         for c in range(n_classes)]
    )
    labels = np.repeat(np.arange(n_classes), n_per_class)
    return inputs, labels


def main():
    inputs, labels = make_blobs()
    hidden = 64
    print(f"5-class blobs, {len(labels)} samples, MLP hidden={hidden}, 2 layers\n")

    relu = MaxKMLPClassifier(16, hidden, 5, n_layers=2, nonlinearity="relu",
                             seed=0)
    relu_acc = train_mlp_classifier(relu, inputs, labels, epochs=150)
    print(f"{'ReLU':>10}: train acc {relu_acc:.3f}")

    for k in (32, 16, 8, 4):
        model = MaxKMLPClassifier(16, hidden, 5, n_layers=2,
                                  nonlinearity="maxk", k=k, seed=0)
        accuracy = train_mlp_classifier(model, inputs, labels, epochs=150)
        cut = mlp_feature_traffic_cut(hidden, k, len(labels))
        print(f"{'MaxK k=' + str(k):>10}: train acc {accuracy:.3f}  "
              f"(dense-layer input-fetch traffic cut: {cut:.1%})")

    print("\nModerate k matches ReLU while a CBSR dense-layer kernel would "
          "fetch a fraction of the activation traffic — the paper's §6 "
          "extension direction.")


if __name__ == "__main__":
    main()
