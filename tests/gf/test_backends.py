"""Kernel-backend engine: selection rules and oracle equivalence.

Three contracts:

- **Selection is loud where it must be**: junk ``REPRO_GF_BACKEND``
  values and explicit requests for unavailable backends raise
  :class:`ConfigError` (the ``REPRO_PARALLEL`` convention); silent
  fallthrough happens only in auto mode.
- **Every available backend is byte-identical to the numpy oracle** at
  the ``scale``/``dot``/``matmul`` kernel layer and at the
  ``parity_batch``/``decode_batch`` codec layer, across
  hypothesis-generated inputs including the 0/1/255 boundary elements.
- **Codec objects pickle across backends**: ``__getstate__`` drops
  backend handles and memoised plans, so a codec pickled under one
  backend rehydrates cleanly under another (the process-pool pipeline
  depends on this).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BackendUnavailable, ConfigError
from repro.gf import backends
from repro.gf.backends import (
    AUTO_ORDER,
    BACKEND_ENV,
    backend_env_choice,
    backend_statuses,
    select_backend,
    use_backend,
)
from repro.gf.field import DEFAULT_FIELD

gf = DEFAULT_FIELD

AVAILABLE = [
    name
    for name, status in backend_statuses().items()
    if status.startswith("available")
]
NATIVE_AVAILABLE = [n for n in AVAILABLE if n != "numpy"]

elements = st.integers(min_value=0, max_value=255)
edge_biased = st.one_of(st.sampled_from([0, 1, 255]), elements)


@pytest.fixture(autouse=True)
def _restore_selection():
    yield
    backends.reset_backend_state()


# ----------------------------------------------------------------------
# Selection rules
# ----------------------------------------------------------------------


class TestEnvChoice:
    def test_unset_empty_and_auto_mean_auto(self):
        assert backend_env_choice({}) is None
        assert backend_env_choice({BACKEND_ENV: ""}) is None
        assert backend_env_choice({BACKEND_ENV: "auto"}) is None

    def test_valid_names_pass_through(self):
        for name in ("numpy", "cffi"):
            assert backend_env_choice({BACKEND_ENV: name}) == name

    @pytest.mark.parametrize(
        "junk", ["fast", "NUMPY", "cffi ", "1", "yes", "native", "numba"]
    )
    def test_junk_rejected_loudly(self, junk):
        with pytest.raises(ConfigError, match="REPRO_GF_BACKEND"):
            backend_env_choice({BACKEND_ENV: junk})

    def test_junk_env_rejected_at_selection(self):
        with pytest.raises(ConfigError):
            select_backend(env={BACKEND_ENV: "turbo"})


class TestExplicitRequests:
    def test_numpy_always_selectable(self):
        backend = select_backend("numpy")
        assert backend.name == "numpy"
        assert not backend.is_native

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown GF backend"):
            select_backend("simd")

    def test_explicitly_requested_unavailable_backend_is_loud(
        self, monkeypatch
    ):
        # Force the probe to fail regardless of what this host has.
        monkeypatch.setitem(
            backends._failures, "cffi", "forced unavailable (test)"
        )
        monkeypatch.delitem(backends._instances, "cffi", raising=False)
        with pytest.raises(ConfigError, match="requested explicitly"):
            select_backend("cffi")
        with pytest.raises(ConfigError, match="requested explicitly"):
            select_backend(env={BACKEND_ENV: "cffi"})


class TestAutoFallback:
    def test_auto_falls_back_to_numpy_when_native_tiers_fail(
        self, monkeypatch
    ):
        # Auto-mode semantics: clear any CI pin of the backend env var.
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        for name in AUTO_ORDER:
            if name == "numpy":
                continue
            monkeypatch.setitem(
                backends._failures, name, "forced unavailable (test)"
            )
            monkeypatch.delitem(backends._instances, name, raising=False)
        backends.reset_backend_state()
        assert backends.active_backend().name == "numpy"
        assert backends.native_backend() is None

    def test_auto_prefers_the_fastest_available_tier(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        backends.reset_backend_state()
        expected = next(n for n in AUTO_ORDER if n in AVAILABLE)
        assert backends.active_backend().name == expected

    def test_statuses_cover_every_tier(self):
        statuses = backend_statuses()
        assert set(statuses) == set(AUTO_ORDER)
        assert statuses["numpy"].startswith("available")

    def test_use_backend_restores_previous_selection(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        backends.reset_backend_state()
        before = backends.active_backend().name
        with use_backend("numpy") as pinned:
            assert pinned.name == "numpy"
            assert backends.active_backend().name == "numpy"
        assert backends.active_backend().name == before

    def test_backend_unavailable_is_an_exception_type(self):
        assert issubclass(BackendUnavailable, Exception)


# ----------------------------------------------------------------------
# Oracle equivalence (kernel layer)
# ----------------------------------------------------------------------


def _payload(draw_list):
    return np.array(draw_list, dtype=np.uint8)


payloads = st.lists(edge_biased, min_size=1, max_size=5000).map(_payload)


@pytest.mark.parametrize("name", NATIVE_AVAILABLE or ["numpy"])
class TestKernelOracleEquivalence:
    """scale/dot/matmul agree with the numpy oracle byte for byte.

    Payloads cross :data:`~repro.gf.field.NATIVE_MIN_BYTES` in the
    dedicated large-size test so both the dispatch and fallback sides
    of the size gate are exercised.
    """

    @given(coefficient=edge_biased, payload=payloads)
    @settings(max_examples=30, deadline=None)
    def test_scale(self, name, coefficient, payload):
        with use_backend("numpy"):
            expected = gf.scale(coefficient, payload)
        with use_backend(name):
            assert np.array_equal(gf.scale(coefficient, payload), expected)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=6),
        length=st.sampled_from([1, 7, 63, 64, 4095, 4096, 10001]),
    )
    @settings(max_examples=30, deadline=None)
    def test_dot_and_matmul(self, name, seed, n, length):
        rng = np.random.default_rng(seed)
        coefficients = rng.integers(0, 256, n, dtype=np.uint8)
        rows = rng.integers(0, 256, (n, length), dtype=np.uint8)
        a = rng.integers(0, 256, (3, n), dtype=np.uint8)
        with use_backend("numpy"):
            expected_dot = gf.dot(coefficients, list(rows))
            expected_mm = gf.matmul(a, list(rows))
        with use_backend(name):
            assert np.array_equal(gf.dot(coefficients, list(rows)), expected_dot)
            assert np.array_equal(gf.matmul(a, list(rows)), expected_mm)

    def test_large_payload_crosses_native_threshold(self, name):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 256, (4, 1 << 16), dtype=np.uint8)
        a = rng.integers(0, 256, (3, 4), dtype=np.uint8)
        with use_backend("numpy"):
            expected = gf.matmul(a, list(rows))
        with use_backend(name):
            assert np.array_equal(gf.matmul(a, list(rows)), expected)


# ----------------------------------------------------------------------
# Oracle equivalence (codec layer)
# ----------------------------------------------------------------------


def _codes():
    from repro.codes.crs import CauchyBitmatrixRSCode
    from repro.codes.rs import ReedSolomonCode

    return [ReedSolomonCode(4, 2), CauchyBitmatrixRSCode(4, 2)]


@pytest.mark.parametrize("name", NATIVE_AVAILABLE or ["numpy"])
class TestCodecOracleEquivalence:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_parity_and_decode_batch(self, name, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, (3, 4, 64), dtype=np.uint8)
        for code_builder in _codes():
            with use_backend("numpy"):
                code = type(code_builder)(4, 2)
                expected_parity = code.parity_batch(data)
                stripe = np.concatenate([data, expected_parity], axis=1)
                available = {
                    i: stripe[:, i, :] for i in (1, 3, 4, 5)
                }
                expected_decode = code.decode_batch(available)
            with use_backend(name):
                code = type(code_builder)(4, 2)
                assert np.array_equal(code.parity_batch(data), expected_parity)
                assert np.array_equal(
                    code.decode_batch(available), expected_decode
                )


# ----------------------------------------------------------------------
# Pickling across backends
# ----------------------------------------------------------------------


class TestPicklingAcrossBackends:
    """Codecs pickle under any backend and rehydrate under any other.

    ``__getstate__`` must drop backend handles (cffi owns C pointers)
    and memoised plans; the pipeline pickles codes into pool workers
    that may auto-select a different backend than the parent.
    """

    @pytest.mark.parametrize("name", AVAILABLE)
    def test_codes_pickle_after_hot_use(self, name):
        from repro.codes.crs import CauchyBitmatrixRSCode
        from repro.codes.rs import ReedSolomonCode

        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, (4, 64), dtype=np.uint8)
        with use_backend(name):
            for code in (ReedSolomonCode(4, 2), CauchyBitmatrixRSCode(4, 2)):
                stripe = code.encode(data)  # warms plans/schedules
                blob = pickle.dumps(code)
                clone = pickle.loads(blob)
                assert np.array_equal(clone.encode(data), stripe)
                survivors = {i: stripe[i] for i in (0, 2, 4, 5)}
                assert np.array_equal(clone.decode(survivors), data)

    @pytest.mark.parametrize("source", AVAILABLE)
    @pytest.mark.parametrize("target", AVAILABLE)
    def test_pickled_under_one_backend_decodes_under_another(
        self, source, target
    ):
        from repro.codes.rs import ReedSolomonCode

        rng = np.random.default_rng(4)
        data = rng.integers(0, 256, (4, 4096), dtype=np.uint8)
        with use_backend(source):
            code = ReedSolomonCode(4, 2)
            stripe = code.encode(data)
            blob = pickle.dumps(code)
        with use_backend(target):
            clone = pickle.loads(blob)
            assert np.array_equal(clone.encode(data), stripe)

    def test_packed_matmul_pickles_without_backend_handle(
        self, monkeypatch
    ):
        from repro.gf.packed import PackedMatmul

        # Not a selection test: a broken env pin must not mask it.
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        backends.reset_backend_state()
        rng = np.random.default_rng(5)
        matrix = rng.integers(0, 256, (2, 4), dtype=np.uint8)
        rows = [rng.integers(0, 256, 4096, dtype=np.uint8) for _ in range(4)]
        out = [np.empty(4096, dtype=np.uint8) for _ in range(2)]
        plan = PackedMatmul(matrix, gf)
        plan.apply(rows, out)
        clone = pickle.loads(pickle.dumps(plan))
        out2 = [np.empty(4096, dtype=np.uint8) for _ in range(2)]
        clone.apply(rows, out2)
        assert all(np.array_equal(a, b) for a, b in zip(out, out2))
