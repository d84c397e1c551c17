"""Guard for ``tools/golden_hashes.py``, whose runs take minutes: every
variant's config, built as the script builds it, validates and loads its
schedule, and every gzip variant has the overrides of the variant it
must match. The script is loaded from its file; nothing is run."""

import importlib.util
from pathlib import Path

import pytest

from fedgrow import experiment, fedsim

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "tools" / "golden_hashes.py"


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden_hashes", GOLDEN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_golden_variant_config_validates_and_loads_its_schedule(golden, tmp_path):
    for name, overrides in golden.VARIANTS.items():
        config = experiment.ExperimentConfig.from_dict(
            golden.variant_config(name, overrides, tmp_path))
        config.validate()
        fedsim.fd_plan(config.method, experiment.build_schedule(config), config)


def test_every_gzip_variant_has_the_overrides_of_the_variant_it_names(golden):
    for name, plain in golden.IDX_GZIP.items():
        assert golden.VARIANTS[name] == golden.VARIANTS[plain]
        assert golden.IDX_TRAIN_IMAGES.get(name) == golden.IDX_TRAIN_IMAGES.get(plain)
        assert golden.IDX_TEST_IMAGES.get(name) == golden.IDX_TEST_IMAGES.get(plain)
