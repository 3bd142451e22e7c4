"""Shared fixture: inject_fault(suite) corrupts the one call a verify suite
checks, so that the suite's failure report can be seen."""

import pytest

from measure_attn import attention, spectrum, verify


@pytest.fixture
def inject_fault(monkeypatch):
    basis = spectrum.MercerSpectrum.basis_matrix
    isometry = spectrum.isometry_map
    bound = spectrum.truncation_bound
    attend = attention.measure_attention
    probe = attention._probe_trials
    grads = verify._squared_loss_grads

    def probe_fake(*args, **kwargs):
        ratio, b, skipped = probe(*args, **kwargs)
        return ratio, b * 1e-3, skipped

    def grads_fake(b, gb, *args):
        resid = grads(b, gb, *args)
        for g in gb.values():
            g *= 1.0 + 1e-3
        return resid

    fakes = {
        "orthonormality": (spectrum.MercerSpectrum, "basis_matrix",
                           lambda self: basis(self) * (1.0 + 1e-6)),
        "isometry": (spectrum, "isometry_map",
                     lambda *args: isometry(*args) * (1.0 + 1e-6)),
        "truncation": (spectrum, "truncation_bound",
                       lambda *args: bound(*args) * 1e-3),
        # 10 eps2 at the suite's eps2 = 1e-4
        "recall": (attention, "measure_attention", lambda *args: attend(*args) + 1e-3),
        "lipschitz": (attention, "_probe_trials", probe_fake),
        "gradient": (verify, "_squared_loss_grads", grads_fake),
    }
    assert set(fakes) == set(verify.SUITE_NAMES)

    def inject(suite):
        monkeypatch.setattr(*fakes[suite])
    return inject
