"""The finite-difference verifier itself: it must pass on the real code and
fail loudly when a backward pass is wrong."""
import numpy as np
import pytest

from stegnet import cli, gradcheck, nnops, srm
from stegnet.tensor import Tensor


def test_numerical_gradient_matches_a_quadratic_exactly():
    # f(x) = sum(c * x^2) has gradient 2*c*x, quadratic so central
    # differences are exact up to round-off
    rng = np.random.default_rng(0)
    c = rng.normal(size=(3, 4))
    x = rng.normal(size=(3, 4))
    grad = gradcheck.numerical_gradient(lambda a: float(np.sum(c * a * a)), x)
    assert np.allclose(grad, 2 * c * x, rtol=1e-7, atol=1e-9)


def test_compare_gradients_two_tier_rule():
    ok, rel = gradcheck.compare_gradients(
        np.array([1.0, 1e-9]), np.array([1.0 + 1e-7, -1e-9]), tol=1e-6
    )
    assert ok and rel < 1e-6
    ok, _ = gradcheck.compare_gradients(np.array([1.0]), np.array([1.001]), tol=1e-6)
    assert not ok


def test_all_operator_checks_pass_with_margin():
    for result in gradcheck.run_ops_checks(seed=0):
        assert result.ok, result.line()
        assert result.max_rel < result.tol / 2, result.line()


def test_end_to_end_model_check_passes():
    result = gradcheck.check_model(seed=0)
    assert result.ok, result.line()
    assert result.name == "model_end_to_end"


def test_check_results_are_reproducible_per_seed():
    a = [r.line() for r in gradcheck.run_ops_checks(seed=4)]
    b = [r.line() for r in gradcheck.run_ops_checks(seed=4)]
    assert a == b


def test_run_suite_selects_scale():
    ops = gradcheck.run_suite("ops", seed=1)
    assert [r.name for r in ops] == [name for name, _ in gradcheck.OP_CHECKS]
    model = gradcheck.run_suite("model", seed=1)
    assert [r.name for r in model] == ["model_end_to_end"]
    with pytest.raises(ValueError):
        gradcheck.run_suite("everything")


def test_a_corrupted_backward_pass_is_caught(monkeypatch):
    real = nnops.conv2d_backward

    def corrupted(upstream, ctx):
        gx, gw, gb = real(upstream, ctx)
        return gx, Tensor(gw.array * 1.01), gb  # 1% error in the kernel grad

    monkeypatch.setattr(nnops, "conv2d_backward", corrupted)
    result = gradcheck.check_conv2d(seed=0)
    assert not result.ok
    assert result.max_rel > result.tol


def test_a_corrupted_activation_backward_is_caught(monkeypatch):
    monkeypatch.setattr(
        nnops, "relu_backward",
        lambda up, mask: Tensor(up.array * mask * 0.99),
    )
    result = gradcheck.check_relu(seed=0)
    assert not result.ok


def test_report_lines_name_the_operator_and_verdict():
    line = gradcheck.check_linear(seed=0).line()
    assert line.startswith("linear:")
    assert "max_rel_err=" in line and line.endswith("ok")


@pytest.mark.parametrize("seed", range(10))
def test_ops_scale_exits_zero_at_seeds_0_to_9(seed, capsys):
    assert cli.run(["gradcheck", "--scale", "ops", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out.count(" ok\n") == len(gradcheck.OP_CHECKS)


def _scaling(real, index):
    """``real`` with its gradient number ``index`` scaled by 1 + 1e-4."""
    def backward(*args):
        grads = real(*args)
        if isinstance(grads, Tensor):
            return Tensor(grads.array * (1 + 1e-4))
        return tuple(Tensor(g.array * (1 + 1e-4)) if i == index else g
                     for i, g in enumerate(grads))
    return backward


# (op, module, backward name, which gradient to scale): a weight gradient
# where the op has one
BACKWARDS = [
    ("conv2d", nnops, "conv2d_backward", 1),
    ("batchnorm", nnops, "batchnorm_backward", 1),
    ("relu", nnops, "relu_backward", 0),
    ("tlu", nnops, "tlu_backward", 0),
    ("abs", nnops, "abs_backward", 0),
    ("avg_pool", nnops, "avg_pool_backward", 0),
    ("spp", nnops, "spp_backward", 0),
    ("linear", nnops, "linear_backward", 1),
    ("preprocess", srm, "preprocess_backward", 1),
]


def test_the_mutation_list_covers_every_operator_check():
    assert sorted([op for op, *_ in BACKWARDS] + ["softmax_xent"]) == sorted(
        name for name, _ in gradcheck.OP_CHECKS)


@pytest.mark.parametrize("op,module,attr,index", BACKWARDS, ids=[op for op, *_ in BACKWARDS])
def test_a_gradient_off_by_one_part_in_ten_thousand_fails_at_seeds_0_to_9(
        monkeypatch, op, module, attr, index):
    monkeypatch.setattr(module, attr, _scaling(getattr(module, attr), index))
    check = dict(gradcheck.OP_CHECKS)[op]
    assert [seed for seed in range(10) if check(seed).ok] == []


def test_a_softmax_xent_gradient_off_by_one_part_in_ten_thousand_fails_at_seeds_0_to_9(
        monkeypatch):
    real = nnops.softmax_xent

    def scaled(logits, labels):
        loss, grad = real(logits, labels)
        return loss, Tensor(grad.array * (1 + 1e-4))

    monkeypatch.setattr(nnops, "softmax_xent", scaled)
    assert [seed for seed in range(10) if gradcheck.check_softmax_xent(seed).ok] == []
