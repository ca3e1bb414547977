"""Shared helpers: finite-difference gradient oracles and a per-video
retrieval score oracle.

Central differences with h=1e-5 on float64 give ~1e-10 truncation error for
smooth graphs, so a 1e-4 relative tolerance cleanly separates correct from
broken adjoints.
"""

import numpy as np

from vcmr.autodiff import Tape, Tensor

H = 1e-5
RTOL = 1e-4


def rel_err(a, b, floor=1e-6):
    return abs(a - b) / max(abs(a), abs(b), floor)


def fd_check(build, arrays, h=H, sample=None, rng=None):
    """Max relative error between tape gradients and central differences.

    `build` maps one Tensor per input array to a scalar Tensor. When `sample`
    is set, at most that many coordinates per input are probed (chosen by
    `rng`), otherwise every coordinate is.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a.copy()) for a in arrays]
    with Tape() as tape:
        loss = build(*tensors)
        tape.backward(loss)
        grads = [tape.grad(t) for t in tensors]

    def value_at(i, idx, v):
        mod = [a.copy() for a in arrays]
        mod[i].flat[idx] = v
        return build(*[Tensor(a) for a in mod]).item()

    worst = 0.0
    for i, a in enumerate(arrays):
        coords = np.arange(a.size)
        if sample is not None and a.size > sample:
            coords = (rng or np.random.default_rng(0)).choice(a.size, size=sample, replace=False)
        for idx in coords:
            x = a.flat[idx]
            num = (value_at(i, idx, x + h) - value_at(i, idx, x - h)) / (2.0 * h)
            worst = max(worst, rel_err(num, grads[i].flat[idx]))
    return worst


def fd_check_params(loss_fn, params, h=H, sample=2, rng=None, names=None):
    """Finite-difference check of a model loss against its parameter registry.

    `loss_fn()` rebuilds the scalar loss from the current parameter values;
    gradients come from one taped evaluation, numeric probes perturb the
    parameter arrays in place. Probes `sample` coordinates per parameter.
    """
    rng = rng or np.random.default_rng(0)
    with Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)
        grads = {name: tape.grad(t) for name, t in params.items()}
    worst = 0.0
    for name, t in params.items():
        if names is not None and name not in names:
            continue
        a = t.data
        coords = np.arange(a.size)
        if a.size > sample:
            coords = rng.choice(a.size, size=sample, replace=False)
        for idx in coords:
            x = a.flat[idx]
            a.flat[idx] = x + h
            up = loss_fn().item()
            a.flat[idx] = x - h
            down = loss_fn().item()
            a.flat[idx] = x
            num = (up - down) / (2.0 * h)
            worst = max(worst, rel_err(num, grads[name].flat[idx]))
    return worst


def reference_score(reps, image, subtitle, use_subtitles=True):
    """One video's retrieval score from its own (image, subtitle) encodings:
    the best clip cosine per modality, averaged over the modalities. Scores
    the video on its own, as a loop over videos would."""

    def best(q, clips):
        norms = np.linalg.norm(clips, axis=-1, keepdims=True)
        return float(np.max((clips / np.where(norms > 0.0, norms, 1.0)) @ (q / np.linalg.norm(q))))

    phi_image = best(reps.q_image, image)
    return phi_image if not use_subtitles else (phi_image + best(reps.q_subtitle, subtitle)) / 2.0
