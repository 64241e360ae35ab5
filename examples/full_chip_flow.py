#!/usr/bin/env python3
"""Full-chip flow from raw geometry, with a *real* litho-labeling loop.

Unlike the quickstart (which uses a pre-labeled benchmark dataset), this
example walks the complete physical pipeline on a freshly generated
chip, paying for every label through the counting
:class:`repro.litho.LithoLabeler` — the flow a downstream user would run
on their own layout:

    layout (GLP) -> clips -> DCT features -> GMM seeding ->
    active entropy sampling with on-demand litho simulation ->
    trained detector -> full-chip scan

Run:  python examples/full_chip_flow.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.calibration import TemperatureScaler
from repro.core import entropy_sampling
from repro.data.synth import EUV_RULES, generate_layout
from repro.dataplane import BatchFeatureExtractor, DataPlaneConfig
from repro.features import FeatureExtractor
from repro.layout import extract_clip_grid, save_layout
from repro.litho import LithoLabeler, LithoSimulator
from repro.model import HotspotClassifier
from repro.stats import PCA, GaussianMixture


def main() -> None:
    rng = np.random.default_rng(7)

    # --- 1. a fresh 7 nm chip, saved to GLP for inspection -------------
    layout = generate_layout(
        EUV_RULES, tiles_x=16, tiles_y=16, stress_probability=0.3,
        seed=7, name="demo-chip", target_ratio=0.08,
    )
    glp_path = Path(tempfile.gettempdir()) / "demo_chip.glp"
    save_layout(layout, glp_path)
    clips = extract_clip_grid(
        layout, EUV_RULES.clip_size, EUV_RULES.core_margin, drop_empty=False
    )
    print(f"chip: {len(layout)} shapes, {len(clips)} clips "
          f"(layout saved to {glp_path})")

    # --- 2. features + the metered lithography oracle ------------------
    # the data plane extracts tensors and flats from one raster pass per
    # clip, chunked and content-cached (repeat clips encode once)
    plane = BatchFeatureExtractor(FeatureExtractor(grid=96),
                                  DataPlaneConfig(chunk_size=64))
    features = plane.extract(clips)
    tensors = features.tensors
    labeler = LithoLabeler(LithoSimulator.for_tech(EUV_RULES.tech_nm, grid=96))

    # --- 3. GMM posterior seeding (Alg. 2 lines 1-2) --------------------
    density = features.flats[:, -64:]
    posterior = (
        GaussianMixture(n_components=8, seed=0)
        .fit(PCA(10).fit_transform(density))
        .posterior(PCA(10).fit(density).transform(density))
    )
    order = np.argsort(posterior)
    train_idx = list(order[:24])
    val_idx = list(order[np.linspace(24, len(order) - 1, 20).astype(int)])
    pool = [i for i in range(len(clips))
            if i not in set(train_idx) | set(val_idx)]

    y_train = labeler.label_batch([clips[i] for i in train_idx])
    y_val = np.array(labeler.label_batch([clips[i] for i in val_idx]))
    print(f"seed labels: {sum(y_train)} hotspots in the initial "
          f"{len(train_idx)}-clip training set")

    # --- 4. train, then iterate entropy-based sampling ------------------
    clf = HotspotClassifier(input_shape=tensors.shape[1:], arch="mlp",
                            epochs=25, seed=0)
    clf.fit_scaler(tensors)
    clf.fit(tensors[train_idx], np.array(y_train))

    temperature = TemperatureScaler()
    for iteration in range(5):
        query = sorted(pool, key=lambda i: posterior[i])[:80]
        temperature.fit(clf.predict_logits(tensors[val_idx]), y_val)
        probs = temperature.transform(clf.predict_logits(tensors[query]))
        embeddings = clf.embeddings(tensors[query])
        outcome = entropy_sampling(probs, embeddings, k=12)
        batch = [query[i] for i in outcome.selected]

        labels = labeler.label_batch([clips[i] for i in batch])  # litho
        train_idx.extend(batch)
        y_train.extend(labels)
        pool = [i for i in pool if i not in set(batch)]
        clf.update(tensors[train_idx], np.array(y_train), epochs=8)
        print(f"iter {iteration + 1}: +{sum(labels)} hotspots, "
              f"weights w1={outcome.weights[0]:.2f} "
              f"w2={outcome.weights[1]:.2f}, "
              f"litho so far {labeler.query_count}")

    # --- 5. full-chip detection with the calibrated model ---------------
    temperature.fit(clf.predict_logits(tensors[val_idx]), y_val)
    pool_probs = temperature.transform(clf.predict_logits(tensors[pool]))
    flagged = [i for i, p in zip(pool, pool_probs[:, 1]) if p > 0.5]
    verified = labeler.label_batch([clips[i] for i in flagged])  # verify
    hits = sum(verified)
    print(f"\nfull-chip scan: flagged {len(flagged)} clips, "
          f"{hits} verified hotspots, {len(flagged) - hits} false alarms")
    print(f"total litho-clips consumed: {labeler.query_count} "
          f"({labeler.simulated_seconds:.0f} s at 10 s/clip)")


if __name__ == "__main__":
    main()
