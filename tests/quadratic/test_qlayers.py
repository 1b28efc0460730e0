"""Tests of the quadratic dense and convolution layers (all neuron types)."""

import numpy as np
import pytest

from repro import quadratic as qua
from repro.autodiff import Tensor, randn
from repro.quadratic import QuadraticConv2d, QuadraticConv2dT1, QuadraticLinear

ALL_LINEAR_TYPES = ["T1", "T1_PURE", "T2", "T3", "T4", "T4_ID", "T1_2", "T2_4", "OURS"]
COMPOSABLE_CONV_TYPES = ["T2", "T3", "T4", "T4_ID", "T2_4", "OURS"]


class TestQuadraticLinearForward:
    """Each neuron type must compute exactly its Table 1 formula."""

    def _layer(self, neuron_type, in_f=6, out_f=4, bias=False):
        return QuadraticLinear(in_f, out_f, neuron_type=neuron_type, bias=bias)

    def test_t2_formula(self):
        layer = self._layer("T2")
        x = randn(3, 6)
        expected = (x.data ** 2) @ layer.weight_sq.data.T
        assert np.allclose(layer(x).data, expected, atol=1e-5)

    def test_t3_formula(self):
        layer = self._layer("T3")
        x = randn(3, 6)
        expected = (x.data @ layer.weight_a.data.T) ** 2
        assert np.allclose(layer(x).data, expected, atol=1e-5)

    def test_t4_formula(self):
        layer = self._layer("T4")
        x = randn(3, 6)
        a = x.data @ layer.weight_a.data.T
        b = x.data @ layer.weight_b.data.T
        assert np.allclose(layer(x).data, a * b, atol=1e-5)

    def test_t4_identity_formula(self):
        layer = QuadraticLinear(6, 6, neuron_type="T4_ID", bias=False)
        x = randn(3, 6)
        a = x.data @ layer.weight_a.data.T
        b = x.data @ layer.weight_b.data.T
        assert np.allclose(layer(x).data, a * b + x.data, atol=1e-5)

    def test_ours_formula(self):
        layer = self._layer("OURS")
        x = randn(3, 6)
        a = x.data @ layer.weight_a.data.T
        b = x.data @ layer.weight_b.data.T
        c = x.data @ layer.weight_c.data.T
        assert np.allclose(layer(x).data, a * b + c, atol=1e-5)

    def test_fan_t2_4_formula(self):
        layer = self._layer("T2_4")
        x = randn(3, 6)
        a = x.data @ layer.weight_a.data.T
        b = x.data @ layer.weight_b.data.T
        sq = (x.data ** 2) @ layer.weight_sq.data.T
        assert np.allclose(layer(x).data, a * b + sq, atol=1e-5)

    def test_t1_formula(self):
        layer = self._layer("T1", in_f=5, out_f=3)
        x = randn(2, 5)
        bilinear = np.einsum("ni,oij,nj->no", x.data, layer.weight_bilinear.data, x.data)
        linear = x.data @ layer.weight_b.data.T
        assert np.allclose(layer(x).data, bilinear + linear, atol=1e-4)

    def test_t1_pure_formula(self):
        layer = self._layer("T1_PURE", in_f=5, out_f=3)
        x = randn(2, 5)
        bilinear = np.einsum("ni,oij,nj->no", x.data, layer.weight_bilinear.data, x.data)
        assert np.allclose(layer(x).data, bilinear, atol=1e-4)

    def test_bias_added_after_combination(self):
        layer = QuadraticLinear(4, 4, neuron_type="OURS", bias=True)
        x = randn(2, 4)
        no_bias = QuadraticLinear(4, 4, neuron_type="OURS", bias=False)
        for name in ("weight_a", "weight_b", "weight_c"):
            getattr(no_bias, name).data[...] = getattr(layer, name).data
        assert np.allclose(layer(x).data - no_bias(x).data, layer.bias.data, atol=1e-6)

    def test_t4_id_requires_matching_dims(self):
        with pytest.raises(ValueError):
            QuadraticLinear(4, 8, neuron_type="T4_ID")

    @pytest.mark.parametrize("neuron_type", ALL_LINEAR_TYPES)
    def test_all_types_gradients_flow(self, neuron_type):
        layer = QuadraticLinear(6, 6, neuron_type=neuron_type)
        x = randn(3, 6, requires_grad=True)
        layer(x).sum().backward()
        assert x.grad is not None and np.isfinite(x.grad).all()
        for _, param in layer.named_parameters():
            assert param.grad is not None and np.isfinite(param.grad).all()

    @pytest.mark.parametrize("neuron_type", ["T2", "T4", "OURS"])
    def test_numeric_weight_gradients(self, neuron_type, numgrad):
        layer = QuadraticLinear(4, 3, neuron_type=neuron_type, bias=False)
        x = randn(2, 4)
        name = layer.weight_parameter_names()[0]
        weight = getattr(layer, name)

        def run():
            return float(layer(Tensor(x.data)).sum().data)

        layer(x).sum().backward()
        expected = numgrad(run, weight.data)
        assert np.allclose(weight.grad, expected, atol=5e-2)


class TestQuadraticConv:
    @pytest.mark.parametrize("neuron_type", COMPOSABLE_CONV_TYPES)
    def test_shapes_all_types(self, neuron_type):
        layer = QuadraticConv2d(4, 6 if neuron_type != "T4_ID" else 4, kernel_size=3,
                                padding=1, neuron_type=neuron_type)
        out = layer(randn(2, 4, 8, 8))
        assert out.shape[0] == 2 and out.shape[2:] == (8, 8)

    def test_ours_conv_matches_composed_convs(self):
        layer = QuadraticConv2d(3, 5, kernel_size=3, padding=1, neuron_type="OURS", bias=False)
        x = randn(2, 3, 6, 6)
        a = x.conv2d(layer.weight_a, padding=1).data
        b = x.conv2d(layer.weight_b, padding=1).data
        c = x.conv2d(layer.weight_c, padding=1).data
        assert np.allclose(layer(x).data, a * b + c, atol=1e-5)

    def test_stride_and_padding(self):
        layer = QuadraticConv2d(3, 8, kernel_size=3, stride=2, padding=1, neuron_type="OURS")
        assert layer(randn(1, 3, 16, 16)).shape == (1, 8, 8, 8)

    def test_grouped_quadratic_conv(self):
        layer = QuadraticConv2d(8, 8, kernel_size=1, groups=8, neuron_type="OURS")
        assert layer(randn(2, 8, 4, 4)).shape == (2, 8, 4, 4)

    def test_parameter_counts_match_weight_sets(self):
        first_order_params = 6 * 4 * 3 * 3
        t4 = QuadraticConv2d(4, 6, 3, neuron_type="T4", bias=False)
        ours = QuadraticConv2d(4, 6, 3, neuron_type="OURS", bias=False)
        assert t4.num_parameters() == 2 * first_order_params
        assert ours.num_parameters() == 3 * first_order_params

    def test_gradients_flow_through_conv(self):
        layer = QuadraticConv2d(3, 4, kernel_size=3, padding=1, neuron_type="T2_4")
        x = randn(2, 3, 6, 6, requires_grad=True)
        layer(x).sum().backward()
        assert np.isfinite(x.grad).all()
        assert layer.weight_sq.grad is not None

    def test_full_rank_type_rejected_by_composable_class(self):
        with pytest.raises(ValueError):
            QuadraticConv2d(3, 4, neuron_type="T1")

    def test_t4_id_channel_constraint(self):
        with pytest.raises(ValueError):
            QuadraticConv2d(3, 8, neuron_type="T4_ID")

    @pytest.mark.parametrize("kernel_size,padding", [(3, 0), ((3, 3), (1, 0)), (2, 0), (5, 1)])
    def test_t4_id_requires_a_size_preserving_convolution(self, kernel_size, padding):
        # The raw input is added to the conv output, so stride 1 alone is not
        # enough: only 2·padding == kernel − 1 keeps H×W on both axes.
        with pytest.raises(ValueError, match="T4_ID.*padding"):
            QuadraticConv2d(4, 4, kernel_size, padding=padding, neuron_type="T4_ID")
        layer = QuadraticConv2d(4, 4, 3, padding=1, neuron_type="T4_ID")
        assert layer(randn(1, 4, 6, 6)).shape == (1, 4, 6, 6)

    def test_invalid_groups(self):
        with pytest.raises(ValueError):
            QuadraticConv2d(3, 4, groups=2, neuron_type="OURS")

    def test_output_shape_helper(self):
        layer = QuadraticConv2d(3, 4, kernel_size=3, stride=2, padding=1, neuron_type="OURS")
        assert layer.output_shape((32, 32)) == (16, 16)


class TestQuadraticConvT1:
    def test_forward_shape(self):
        layer = QuadraticConv2dT1(3, 4, kernel_size=3, padding=1, neuron_type="T1_PURE")
        assert layer(randn(1, 3, 6, 6)).shape == (1, 4, 6, 6)

    def test_parameter_explosion_versus_ours(self):
        # The P2 argument: T1's full-rank weights dwarf the composable designs.
        t1 = QuadraticConv2dT1(16, 16, kernel_size=3, neuron_type="T1_PURE", bias=False)
        ours = QuadraticConv2d(16, 16, kernel_size=3, neuron_type="OURS", bias=False)
        assert t1.num_parameters() > 20 * ours.num_parameters()

    def test_gradients_flow(self):
        layer = QuadraticConv2dT1(2, 3, kernel_size=3, padding=1, neuron_type="T1")
        x = randn(1, 2, 5, 5, requires_grad=True)
        layer(x).sum().backward()
        assert np.isfinite(x.grad).all()
        assert layer.weight_bilinear.grad is not None

    def test_composable_type_rejected(self):
        with pytest.raises(ValueError):
            QuadraticConv2dT1(3, 4, neuron_type="OURS")


class TestFactory:
    def test_typenew_builds_conv_or_linear(self):
        conv = qua.typenew(3, 8, kernel_size=3, padding=1)
        dense = qua.typenew(16, 8)
        assert isinstance(conv, QuadraticConv2d)
        assert isinstance(dense, QuadraticLinear)

    def test_type1_builds_full_rank_conv(self):
        layer = qua.type1(3, 4, kernel_size=3)
        assert isinstance(layer, QuadraticConv2dT1)

    def test_hybrid_flag_selects_hybrid_class(self):
        from repro.quadratic import HybridQuadraticConv2d, HybridQuadraticLinear

        conv = qua.quadratic_layer("OURS", 3, 8, kernel_size=3, hybrid_bp=True)
        dense = qua.quadratic_layer("OURS", 16, 8, hybrid_bp=True)
        assert isinstance(conv, HybridQuadraticConv2d)
        assert isinstance(dense, HybridQuadraticLinear)

    def test_hybrid_flag_ignored_for_types_without_symbolic_backward(self):
        # T2/T3 have no symbolic-backward implementation, so the flag falls back
        # to the composed layer; T4 and Fan do (see test_hybrid_general.py).
        layer = qua.quadratic_layer("T2", 3, 8, kernel_size=3, hybrid_bp=True)
        assert isinstance(layer, QuadraticConv2d)

    def test_all_factories_runnable(self):
        x = randn(2, 4, 6, 6)
        for factory in (qua.type2, qua.type3, qua.type4, qua.type_fan, qua.typenew):
            layer = factory(4, 4, kernel_size=3, padding=1)
            assert layer(x).shape == (2, 4, 6, 6)
