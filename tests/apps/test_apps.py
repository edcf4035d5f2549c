"""Tests of the three application reproductions."""
from __future__ import annotations

import numpy as np
import pytest

from benchmarks.paper.apps.defect_analysis import DefectAnalysisResult
from benchmarks.paper.apps.defect_analysis import defect_inference_task
from benchmarks.paper.apps.defect_analysis import generate_micrograph
from benchmarks.paper.apps.defect_analysis import segment_defects
from benchmarks.paper.apps.federated_learning import create_model
from benchmarks.paper.apps.federated_learning import federated_average
from benchmarks.paper.apps.federated_learning import generate_client_data
from benchmarks.paper.apps.federated_learning import model_nbytes
from benchmarks.paper.apps.federated_learning import train_local
from benchmarks.paper.apps.molecular_design import CampaignConfig
from benchmarks.paper.apps.molecular_design import MoleculeDataset
from benchmarks.paper.apps.molecular_design import SurrogateModel
from benchmarks.paper.apps.molecular_design import run_campaign
from benchmarks.paper.apps.molecular_design import simulate_ionization_potential
from repro.connectors.local import LocalConnector
from repro.store import Store


# --------------------------------------------------------------------------- #
# Defect analysis
# --------------------------------------------------------------------------- #
def test_micrograph_generation_shape_and_range():
    image = generate_micrograph(side=128, n_defects=5, seed=1)
    assert image.shape == (128, 128)
    assert image.dtype == np.float32
    assert float(image.max()) <= 1.5


def test_segmentation_finds_planted_defects():
    image = generate_micrograph(side=256, n_defects=12, seed=2)
    result = segment_defects(image)
    assert isinstance(result, DefectAnalysisResult)
    # Blobs can merge or be smoothed away, but the count should be in the
    # right ballpark.
    assert 5 <= result.n_defects <= 12
    assert 0 < result.defect_area_fraction < 0.5
    assert len(result.centroids) == result.n_defects
    assert result.summary()['n_defects'] == result.n_defects


def test_segmentation_empty_image():
    result = segment_defects(np.zeros((64, 64), dtype=np.float32))
    assert result.n_defects == 0
    assert result.centroids == []


def test_segmentation_rejects_wrong_dims():
    with pytest.raises(ValueError):
        segment_defects(np.zeros((4, 4, 3)))


def test_defect_inference_task_plain_and_proxied_output():
    image = generate_micrograph(side=128, n_defects=6, seed=3)
    plain = defect_inference_task(image)
    assert isinstance(plain, DefectAnalysisResult)

    store = Store('defect-output-store', LocalConnector())
    try:
        proxied = defect_inference_task(image, proxy_output_store=store.name)
        assert proxied.n_defects == plain.n_defects  # resolves transparently
    finally:
        store.close(clear=True)


def test_defect_inference_task_unknown_store_raises():
    image = generate_micrograph(side=64, seed=0)
    with pytest.raises(ValueError, match='no store named'):
        defect_inference_task(image, proxy_output_store='never-registered')


# --------------------------------------------------------------------------- #
# Federated learning
# --------------------------------------------------------------------------- #
def test_model_size_grows_with_hidden_blocks():
    sizes = [model_nbytes(create_model(b)) for b in (1, 5, 20)]
    assert sizes[0] < sizes[1] < sizes[2]
    with pytest.raises(ValueError):
        create_model(-1)


def test_model_forward_and_predict_shapes():
    model = create_model(2)
    images, labels = generate_client_data(32, seed=0)
    logits = model.forward(images)
    assert logits.shape == (32, 10)
    assert model.predict(images).shape == (32,)


def test_local_training_reduces_loss():
    model = create_model(1, seed=0)
    images, labels = generate_client_data(256, seed=1)

    def loss(m):
        logits = m.forward(images)
        logits = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        return float(-np.mean(np.log(probs[np.arange(len(labels)), labels] + 1e-9)))

    before = loss(model)
    trained = train_local(model, images, labels, epochs=3)
    assert loss(trained) < before
    # Training returns a copy; the global model is untouched.
    assert np.array_equal(model.layers[0][0], create_model(1, seed=0).layers[0][0])


def test_federated_average():
    a = create_model(1, seed=1)
    b = create_model(1, seed=2)
    avg = federated_average([a, b])
    expected = (a.layers[0][0] + b.layers[0][0]) / 2
    assert np.allclose(avg.layers[0][0], expected)
    with pytest.raises(ValueError):
        federated_average([])
    with pytest.raises(ValueError):
        federated_average([create_model(1), create_model(2)])


# --------------------------------------------------------------------------- #
# Molecular design
# --------------------------------------------------------------------------- #
def test_molecule_dataset_and_simulation():
    dataset = MoleculeDataset.generate(64, seed=0)
    assert len(dataset) == 64
    assert simulate_ionization_potential(dataset, 3) == pytest.approx(float(dataset.true_ip[3]))


def test_surrogate_learns_the_structure():
    dataset = MoleculeDataset.generate(256, seed=1)
    surrogate = SurrogateModel().fit(dataset.features[:200], dataset.true_ip[:200])
    predictions = surrogate.predict(dataset.features[200:])
    correlation = np.corrcoef(predictions, dataset.true_ip[200:])[0, 1]
    assert correlation > 0.9
    top = surrogate.rank_candidates(dataset.features, top_k=5)
    assert len(top) == 5


def test_surrogate_requires_fit_before_predict():
    with pytest.raises(ValueError):
        SurrogateModel().predict(np.zeros((2, 32)))


def test_campaign_baseline_degrades_with_scale():
    small = run_campaign(CampaignConfig(n_cpu_nodes=128), use_proxystore=False)
    large = run_campaign(CampaignConfig(n_cpu_nodes=1024), use_proxystore=False)
    assert large.cpu_utilization < small.cpu_utilization


def test_campaign_proxystore_restores_scaling():
    baseline = run_campaign(CampaignConfig(n_cpu_nodes=1024), use_proxystore=False)
    proxied = run_campaign(CampaignConfig(n_cpu_nodes=1024), use_proxystore=True)
    assert proxied.cpu_utilization > baseline.cpu_utilization + 0.3
    assert proxied.gpu_utilization > baseline.gpu_utilization
    assert proxied.avg_result_processing_s < baseline.avg_result_processing_s
