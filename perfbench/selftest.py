"""Self-test of the benchmark's checks: none of them may be vacuous.

Every check in ``checks.py`` is run twice on small inputs, once on the
program's true output, where it must pass, and once on a deliberately
perturbed output, where it must fail. Run from the root of a checkout:

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""

import sys

import numpy as np

import checks
from run import import_package


class _Gamma:
    """Stands in for a CmState with a given blend weight."""

    def __init__(self, value):
        self.value = value

    def gamma(self):
        return self.value


def cases(npmca):
    """Yield (name, check on the true output, check on a perturbed output)."""
    ops, matching, attention, propagation = npmca.ops, npmca.matching, npmca.attention, npmca.propagation
    from npmca.tensor import Tensor

    rng = np.random.default_rng(7)

    x, w, b = rng.normal(size=(6, 8, 3)), rng.normal(size=(3, 3, 3, 4)), rng.normal(size=4)
    out = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, pad=1).array
    dropped = w.copy()
    dropped[1, 2] = 0.0
    bad = ops.conv2d(Tensor(x), Tensor(dropped), Tensor(b), stride=1, pad=1).array
    call = ((x, w, b), {"stride": 1, "pad": 1})
    yield "conv2d, one tap dropped", checks.check_conv2d(*call, out), checks.check_conv2d(*call, bad)

    img = rng.uniform(size=(5, 7, 2))
    out = ops.bilinear_resize(Tensor(img), 8, 11).array
    bad = out.copy()
    bad[3, 4, 1] *= 1.01
    call = ((img, 8, 11), {})
    yield "bilinear_resize, one sample scaled by 1.01", checks.check_bilinear_resize(*call, out), \
        checks.check_bilinear_resize(*call, bad)

    m = rng.normal(size=(6, 5)) * 3.0
    out = ops.softmax_columns(Tensor(m)).array
    bad = out.copy()
    bad[:, 2] *= 1.01
    yield "softmax_columns, one column scaled by 1.01", checks.check_softmax_columns((m,), {}, out), \
        checks.check_softmax_columns((m,), {}, bad)

    params = matching.init_nlpmm_params(rng, 8, "selftest")
    f_ref = matching.FeatureMap(Tensor(rng.normal(size=(4, 6, 8))))
    f_tar = matching.FeatureMap(Tensor(rng.normal(size=(4, 6, 8))))
    out = checks.array_of(matching.nlpmm_forward(f_ref, f_tar, params))
    bad = out.copy()
    bad[2, 3] *= 1.01
    call = ((f_ref, f_tar, params), {})
    yield "nlpmm_forward, one pixel scaled by 1.01", checks.check_nlpmm(*call, out), checks.check_nlpmm(*call, bad)

    state = attention.init_cm_state("selftest", raw=0.5)
    f_in = matching.FeatureMap(Tensor(rng.normal(size=(4, 6, 2))))
    out = checks.array_of(attention.cm_forward(f_in, state))
    bad = checks.ref_cm(f_in, _Gamma(state.gamma() * 1.01))
    yield "cm_forward, gamma scaled by 1.01", checks.check_cm((f_in, state), {}, out), \
        checks.check_cm((f_in, state), {}, bad)

    per_object = rng.uniform(size=(2, 5, 6))
    eps = propagation.CLAMP_EPS
    merged = propagation.aggregate_multi_object(per_object)
    bad = propagation.AggregateResult(merged.probabilities.copy(), merged.labels)
    bad.probabilities[:, 1, 2] *= 1.001
    yield "aggregate_multi_object, one pixel summing to 1.001", \
        checks.check_aggregate((per_object,), {}, merged, eps), checks.check_aggregate((per_object,), {}, bad, eps)
    flipped = propagation.AggregateResult(merged.probabilities, merged.labels.copy())
    flipped.labels[0, 0] = (flipped.labels[0, 0] + 1) % 3
    yield "aggregate_multi_object, one label flipped", \
        checks.check_aggregate((per_object,), {}, merged, eps), checks.check_aggregate((per_object,), {}, flipped, eps)

    stacks = [merged.probabilities]
    bad = merged.probabilities.copy()
    bad[:, 0, 0] *= 1.001
    yield "stacks, one pixel summing to 1.001", checks.check_stacks(stacks), checks.check_stacks([bad])

    ids = [3, 5]
    masks = [np.asarray([0] + ids)[s.argmax(axis=0)] for s in stacks]
    bad = [masks[0].copy()]
    bad[0][1, 1] = 4
    yield "labels, one pixel given a foreign id", checks.check_labels(masks, stacks, ids), \
        checks.check_labels(bad, stacks, ids)
    swapped = [np.asarray([0] + ids[::-1])[s.argmax(axis=0)] for s in stacks]
    yield "labels, object ids swapped", checks.check_labels(masks, stacks, ids), \
        checks.check_labels(swapped, stacks, ids)

    given = masks[0]
    bad = given.copy()
    bad[0, 0] = 5 if given[0, 0] != 5 else 3
    yield "frame 0 echo, one pixel changed", checks.check_echo([given], given), checks.check_echo([bad], given)

    losses = [0.9, 0.85, 0.8, 0.7, 0.65, 0.6]
    yield "losses, one above 1", checks.check_losses(losses), checks.check_losses(losses + [1.2])
    yield "losses, one not finite", checks.check_losses(losses), checks.check_losses(losses + [np.nan])
    yield "loss falls, rising sequence", checks.check_loss_falls(losses, 2), checks.check_loss_falls(losses[::-1], 2)

    again = list(losses)
    again[3] = np.nextafter(again[3], 1.0)
    yield "repeat, last bit of one loss changed", checks.check_repeat("losses", [losses, list(losses)]), \
        checks.check_repeat("losses", [losses, again])

    groups, loss = _tiny_model_gradients(npmca, rng)
    bad = dict(groups)
    name = "decoder/refine1/w"
    values, grad = groups[name]
    grad = grad.copy()
    grad.reshape(-1)[np.argmax(np.abs(grad))] *= 1.01
    bad[name] = (values, grad)
    yield "gradients, one entry scaled by 1.01", checks.check_gradients(groups, loss), \
        checks.check_gradients(bad, loss)


def _tiny_model_gradients(npmca, rng):
    """The full model at 16x24 with biases clear of zero, on a soft-IoU loss."""
    from npmca.autodiff import Tape
    from npmca.tensor import Tensor

    params = npmca.model.init_model_params(3)
    for p in params.named_parameters().values():
        if p.name.endswith("/b"):
            p.value = Tensor(rng.uniform(-0.1, 0.1, size=p.value.shape))
    first, prev, cur = (rng.uniform(size=(16, 24, 3)) for _ in range(3))
    guidance = rng.uniform(size=(16, 24))
    target = (rng.uniform(size=(16, 24)) > 0.5).astype(np.float64)

    tape = Tape()
    prob = npmca.model.forward_single_object(params, first, prev, cur, guidance, tape=tape)
    tape.backward(npmca.metrics.iou_loss(prob, target))

    def loss():
        return npmca.metrics.iou_loss(npmca.model.forward_single_object(params, first, prev, cur, guidance),
                                      target).item()

    groups = {n: (p.value.array, p.gradient.array.copy()) for n, p in params.named_parameters().items()}
    return groups, checks.relu_region_loss(npmca, loss)


def main() -> int:
    npmca = import_package()
    ok = True
    for name, (true_ok, true_detail), (bad_ok, bad_detail) in cases(npmca):
        good = true_ok and not bad_ok
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'} {name}\n       true: {true_detail}\n  perturbed: {bad_detail}")
    print("every check passes on true outputs and fails on perturbed ones" if ok else "some check is vacuous")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
