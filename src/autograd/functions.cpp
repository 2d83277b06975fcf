#include "autograd/functions.h"

#include <utility>

#include "autograd/node.h"

namespace mls::ag {

namespace {

// Flattens leading axes: [..., k] -> [rows, k].
Tensor as_2d(const Tensor& t) {
  const int64_t k = t.dim(-1);
  return t.reshape(Shape{{t.numel() / k, k}});
}

}  // namespace

// ----------------------------------------------------------------- matmul

namespace {
class MatmulNode : public Node {
 public:
  MatmulNode(const Var& x, const Var& w, bool trans_b)
      : trans_b_(trans_b),
        x_needed_(w.requires_grad()),
        w_needed_(x.requires_grad()) {
    if (x_needed_) saved_x_ = SavedTensor(x.value(), !x.is_param());
    if (w_needed_) saved_w_ = SavedTensor(w.value(), !w.is_param());
  }
  const char* name() const override { return "matmul"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    std::vector<Tensor> grads(2);
    if (w_needed_) {
      // dx = dy @ w^T   (or dy @ w when the forward used w^T)
      grads[0] = ops::matmul(grad_out, saved_w_.get(), false, !trans_b_);
      grads[0] = grads[0].reshape(inputs[0].value().shape());
    }
    if (x_needed_) {
      const Tensor x2d = as_2d(saved_x_.get());
      const Tensor dy2d = as_2d(grad_out);
      // dw = x^T @ dy   (or dy^T @ x when the forward used w^T)
      grads[1] = trans_b_ ? ops::matmul(dy2d, x2d, /*trans_a=*/true)
                          : ops::matmul(x2d, dy2d, /*trans_a=*/true);
    }
    return grads;
  }
  void release_saved() override {
    saved_x_.reset();
    saved_w_.reset();
  }

 private:
  SavedTensor saved_x_, saved_w_;
  bool trans_b_;
  bool x_needed_, w_needed_;
};
}  // namespace

Var matmul(const Var& x, const Var& w, bool trans_b) {
  Tensor y = ops::matmul(x.value(), w.value(), false, trans_b);
  std::shared_ptr<Node> node;
  if (GradMode::enabled() && (x.requires_grad() || w.requires_grad())) {
    node = std::make_shared<MatmulNode>(x, w, trans_b);
  }
  return make_output(std::move(y), std::move(node), {x, w});
}

// -------------------------------------------------------------------- bmm

namespace {
class BmmNode : public Node {
 public:
  BmmNode(const Var& a, const Var& b, bool trans_b) : trans_b_(trans_b) {
    saved_a_ = SavedTensor(a.value(), !a.is_param());
    saved_b_ = SavedTensor(b.value(), !b.is_param());
  }
  const char* name() const override { return "bmm"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    std::vector<Tensor> grads(2);
    const Tensor& a = saved_a_.get();
    const Tensor& b = saved_b_.get();
    if (!trans_b_) {
      grads[0] = ops::bmm(grad_out, b, false, /*trans_b=*/true);  // dy @ b^T
      grads[1] = ops::bmm(a, grad_out, /*trans_a=*/true, false);  // a^T @ dy
    } else {
      grads[0] = ops::bmm(grad_out, b, false, false);             // dy @ b
      grads[1] = ops::bmm(grad_out, a, /*trans_a=*/true, false);  // dy^T @ a
    }
    return grads;
  }
  void release_saved() override {
    saved_a_.reset();
    saved_b_.reset();
  }

 private:
  SavedTensor saved_a_, saved_b_;
  bool trans_b_;
};
}  // namespace

Var bmm(const Var& a, const Var& b, bool trans_b) {
  Tensor y = ops::bmm(a.value(), b.value(), false, trans_b);
  std::shared_ptr<Node> node;
  if (GradMode::enabled() && (a.requires_grad() || b.requires_grad())) {
    node = std::make_shared<BmmNode>(a, b, trans_b);
  }
  return make_output(std::move(y), std::move(node), {a, b});
}

// -------------------------------------------------------- add / bias / scale

namespace {
class AddNode : public Node {
 public:
  const char* name() const override { return "add"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    return {grad_out, grad_out};
  }
};

class AddBiasNode : public Node {
 public:
  const char* name() const override { return "add_bias"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    return {grad_out, ops::sum_to_last_dim(grad_out)};
  }
};

class ScaleNode : public Node {
 public:
  explicit ScaleNode(float s) : s_(s) {}
  const char* name() const override { return "scale"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    return {ops::scale(grad_out, s_)};
  }

 private:
  float s_;
};
}  // namespace

Var add(const Var& a, const Var& b) {
  return make_output(ops::add(a.value(), b.value()), std::make_shared<AddNode>(),
                     {a, b});
}

Var add_bias(const Var& x, const Var& bias) {
  return make_output(ops::add_bias(x.value(), bias.value()),
                     std::make_shared<AddBiasNode>(), {x, bias});
}

Var scale(const Var& x, float s) {
  return make_output(ops::scale(x.value(), s), std::make_shared<ScaleNode>(s), {x});
}

// ------------------------------------------------------------------- gelu

namespace {
class GeluNode : public Node {
 public:
  explicit GeluNode(const Var& x) : saved_x_(x.value(), !x.is_param()) {}
  const char* name() const override { return "gelu"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    return {ops::gelu_grad(saved_x_.get(), grad_out)};
  }
  void release_saved() override { saved_x_.reset(); }

 private:
  SavedTensor saved_x_;
};
}  // namespace

Var gelu(const Var& x) {
  Tensor y = ops::gelu(x.value());
  std::shared_ptr<Node> node;
  if (GradMode::enabled() && x.requires_grad()) {
    node = std::make_shared<GeluNode>(x);
  }
  return make_output(std::move(y), std::move(node), {x});
}

namespace {
class BiasGeluNode : public Node {
 public:
  BiasGeluNode(const Var& x, const Var& bias)
      : saved_x_(x.value(), !x.is_param()),
        saved_bias_(bias.value(), !bias.is_param()) {}
  const char* name() const override { return "bias_gelu"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    auto g = ops::bias_gelu_grad(saved_x_.get(), saved_bias_.get(), grad_out);
    return {g.dx, g.dbias};
  }
  void release_saved() override {
    saved_x_.reset();
    saved_bias_.reset();
  }

 private:
  SavedTensor saved_x_, saved_bias_;
};
}  // namespace

Var bias_gelu(const Var& x, const Var& bias) {
  Tensor y = ops::bias_gelu(x.value(), bias.value());
  std::shared_ptr<Node> node;
  if (GradMode::enabled() && (x.requires_grad() || bias.requires_grad())) {
    node = std::make_shared<BiasGeluNode>(x, bias);
  }
  return make_output(std::move(y), std::move(node), {x, bias});
}

// ----------------------------------------------------------------- softmax

namespace {
class SoftmaxNode : public Node {
 public:
  explicit SoftmaxNode(Tensor y) : saved_y_(std::move(y), /*counted=*/true) {}
  const char* name() const override { return "softmax"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    return {ops::softmax_lastdim_grad(saved_y_.get(), grad_out)};
  }
  void release_saved() override { saved_y_.reset(); }

 private:
  SavedTensor saved_y_;
};
}  // namespace

Var softmax(const Var& x, bool causal) {
  Tensor y = ops::softmax_lastdim(x.value(), causal);
  std::shared_ptr<Node> node;
  if (GradMode::enabled() && x.requires_grad()) {
    node = std::make_shared<SoftmaxNode>(y);
  }
  return make_output(std::move(y), std::move(node), {x});
}

namespace {
class ScaledSoftmaxNode : public Node {
 public:
  ScaledSoftmaxNode(Tensor y, float alpha)
      : saved_y_(std::move(y), /*counted=*/true), alpha_(alpha) {}
  const char* name() const override { return "scaled_softmax"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    return {ops::scaled_softmax_grad(saved_y_.get(), grad_out, alpha_)};
  }
  void release_saved() override { saved_y_.reset(); }

 private:
  SavedTensor saved_y_;
  float alpha_;
};
}  // namespace

Var scaled_softmax(const Var& x, float alpha, bool causal) {
  Tensor y = ops::scaled_softmax(x.value(), alpha, causal);
  std::shared_ptr<Node> node;
  if (GradMode::enabled() && x.requires_grad()) {
    node = std::make_shared<ScaledSoftmaxNode>(y, alpha);
  }
  return make_output(std::move(y), std::move(node), {x});
}

// ----------------------------------------------------------------- dropout

namespace {
class DropoutNode : public Node {
 public:
  DropoutNode(Tensor mask, float p)
      : saved_mask_(std::move(mask), /*counted=*/true), p_(p) {}
  const char* name() const override { return "dropout"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    return {ops::dropout_grad(grad_out, saved_mask_.get(), p_)};
  }
  void release_saved() override { saved_mask_.reset(); }

 private:
  SavedTensor saved_mask_;
  float p_;
};
}  // namespace

Var dropout(const Var& x, float p, uint64_t seed, const ops::IndexMap& map) {
  ops::DropoutOut out = ops::dropout_stateless(x.value(), p, seed, map);
  std::shared_ptr<Node> node;
  if (GradMode::enabled() && x.requires_grad()) {
    node = std::make_shared<DropoutNode>(std::move(out.mask), p);
  }
  return make_output(std::move(out.y), std::move(node), {x});
}

// ------------------------------------------------- folded fused ops
// The folded-TSP plan's two fusions: each consumes a pointwise-
// recomputable activation inside the node so it is never saved. Both
// recompute with the exact forward kernels on the exact saved inputs,
// so their outputs and gradients are bitwise identical to the unfused
// chains they replace.

namespace {
class BiasGeluMatmulNode : public Node {
 public:
  BiasGeluMatmulNode(const Var& x, const Var& bias, const Var& w)
      : saved_x_(x.value(), !x.is_param()),
        saved_bias_(bias.value(), !bias.is_param()),
        saved_w_(w.value(), !w.is_param()) {}
  const char* name() const override { return "bias_gelu_matmul"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    // Pointwise recompute of the GeLU output the fusion folded away;
    // bitwise equal to the forward value (same kernel, same input).
    const Tensor z = ops::bias_gelu(saved_x_.get(), saved_bias_.get());
    std::vector<Tensor> grads(3);
    Tensor dz = ops::matmul(grad_out, saved_w_.get(), false, /*trans_b=*/true);
    dz = dz.reshape(saved_x_.get().shape());
    grads[2] = ops::matmul(as_2d(z), as_2d(grad_out), /*trans_a=*/true);
    auto g = ops::bias_gelu_grad(saved_x_.get(), saved_bias_.get(), dz);
    grads[0] = g.dx;
    grads[1] = g.dbias;
    return grads;
  }
  void release_saved() override {
    saved_x_.reset();
    saved_bias_.reset();
    saved_w_.reset();
  }

 private:
  SavedTensor saved_x_, saved_bias_, saved_w_;
};
}  // namespace

Var bias_gelu_matmul(const Var& x, const Var& bias, const Var& w) {
  Tensor z = ops::bias_gelu(x.value(), bias.value());
  Tensor y = ops::matmul(z, w.value());
  std::shared_ptr<Node> node;
  if (GradMode::enabled() &&
      (x.requires_grad() || bias.requires_grad() || w.requires_grad())) {
    node = std::make_shared<BiasGeluMatmulNode>(x, bias, w);
  }
  return make_output(std::move(y), std::move(node), {x, bias, w});
}

namespace {
class ScaledSoftmaxDropoutBmmNode : public Node {
 public:
  ScaledSoftmaxDropoutBmmNode(const Var& scores, const Var& v, Tensor mask,
                              float alpha, bool causal, float p)
      : saved_scores_(scores.value(), !scores.is_param()),
        saved_mask_(std::move(mask), /*counted=*/true),
        saved_v_(v.value(), !v.is_param()),
        alpha_(alpha),
        causal_(causal),
        p_(p) {}
  const char* name() const override { return "scaled_softmax_dropout_bmm"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    // Recompute the softmax output from the saved scores (same kernel →
    // bitwise equal), then re-apply the saved mask: dropout_grad is
    // exactly the mask-multiply the forward performed.
    const Tensor probs = ops::scaled_softmax(saved_scores_.get(), alpha_, causal_);
    const Tensor probs_d = ops::dropout_grad(probs, saved_mask_.get(), p_);
    std::vector<Tensor> grads(2);
    Tensor dprobs_d = ops::bmm(grad_out, saved_v_.get(), false, /*trans_b=*/true);
    grads[1] = ops::bmm(probs_d, grad_out, /*trans_a=*/true, false);
    const Tensor dprobs = ops::dropout_grad(dprobs_d, saved_mask_.get(), p_);
    grads[0] = ops::scaled_softmax_grad(probs, dprobs, alpha_);
    return grads;
  }
  void release_saved() override {
    saved_scores_.reset();
    saved_mask_.reset();
    saved_v_.reset();
  }

 private:
  SavedTensor saved_scores_, saved_mask_, saved_v_;
  float alpha_;
  bool causal_;
  float p_;
};
}  // namespace

Var scaled_softmax_dropout_bmm(const Var& scores, const Var& v, float alpha,
                               bool causal, float p, uint64_t seed,
                               const ops::IndexMap& map) {
  Tensor probs = ops::scaled_softmax(scores.value(), alpha, causal);
  ops::DropoutOut d = ops::dropout_stateless(probs, p, seed, map);
  Tensor y = ops::bmm(d.y, v.value());
  std::shared_ptr<Node> node;
  if (GradMode::enabled() && (scores.requires_grad() || v.requires_grad())) {
    node = std::make_shared<ScaledSoftmaxDropoutBmmNode>(
        scores, v, std::move(d.mask), alpha, causal, p);
  }
  return make_output(std::move(y), std::move(node), {scores, v});
}

// --------------------------------------------------------------- layernorm

namespace {
class LayerNormNode : public Node {
 public:
  LayerNormNode(const Var& x, const Var& gamma, Tensor mean, Tensor rstd)
      : saved_x_(x.value(), !x.is_param()),
        saved_gamma_(gamma.value(), /*counted=*/false),
        // The paper's §4 explicitly ignores these sb-sized buffers
        // ("2sb << sbh"); we track them as minor so a test can verify
        // they are indeed negligible.
        saved_mean_(std::move(mean), true, /*major=*/false),
        saved_rstd_(std::move(rstd), true, /*major=*/false) {}
  const char* name() const override { return "layernorm"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    auto g = ops::layernorm_grad(saved_x_.get(), saved_gamma_.get(),
                                 saved_mean_.get(), saved_rstd_.get(), grad_out);
    return {g.dx, g.dgamma, g.dbeta};
  }
  void release_saved() override {
    saved_x_.reset();
    saved_gamma_.reset();
    saved_mean_.reset();
    saved_rstd_.reset();
  }

 private:
  SavedTensor saved_x_, saved_gamma_, saved_mean_, saved_rstd_;
};
}  // namespace

Var layernorm(const Var& x, const Var& gamma, const Var& beta, float eps) {
  ops::LayerNormOut out = ops::layernorm(x.value(), gamma.value(), beta.value(), eps);
  std::shared_ptr<Node> node;
  if (GradMode::enabled() &&
      (x.requires_grad() || gamma.requires_grad() || beta.requires_grad())) {
    node = std::make_shared<LayerNormNode>(x, gamma, std::move(out.mean),
                                           std::move(out.rstd));
  }
  return make_output(std::move(out.y), std::move(node), {x, gamma, beta});
}

// ----------------------------------------------------- structural ops

namespace {
class ReshapeNode : public Node {
 public:
  explicit ReshapeNode(Shape in_shape) : in_shape_(std::move(in_shape)) {}
  const char* name() const override { return "reshape"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    return {grad_out.reshape(in_shape_)};
  }

 private:
  Shape in_shape_;
};

class SliceNode : public Node {
 public:
  SliceNode(Shape in_shape, int dim, int64_t start)
      : in_shape_(std::move(in_shape)), dim_(dim), start_(start) {}
  const char* name() const override { return "slice"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    // Scatter the slice gradient into a zero tensor of the input shape.
    Tensor dx = Tensor::zeros(in_shape_, grad_out.dtype());
    int64_t outer = 1, inner = 1;
    for (int i = 0; i < dim_; ++i) outer *= in_shape_.dim(i);
    for (int i = dim_ + 1; i < in_shape_.ndim(); ++i) inner *= in_shape_.dim(i);
    const int64_t d = in_shape_.dim(dim_);
    const int64_t len = grad_out.dim(dim_);
    const float* gp = grad_out.data();
    float* dp = dx.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::copy(gp + o * len * inner, gp + (o + 1) * len * inner,
                dp + (o * d + start_) * inner);
    }
    return {dx};
  }

 private:
  Shape in_shape_;
  int dim_;
  int64_t start_;
};
}  // namespace

Var reshape(const Var& x, Shape shape) {
  return make_output(x.value().reshape(shape),
                     std::make_shared<ReshapeNode>(x.value().shape()), {x});
}

Var slice(const Var& x, int dim, int64_t start, int64_t len) {
  dim = x.value().shape().normalize_axis(dim);
  Tensor y = ops::slice(x.value(), dim, start, len);
  return make_output(std::move(y),
                     std::make_shared<SliceNode>(x.value().shape(), dim, start),
                     {x});
}

std::vector<Var> chunk(const Var& x, int64_t n, int dim) {
  dim = x.value().shape().normalize_axis(dim);
  MLS_CHECK_EQ(x.value().dim(dim) % n, 0);
  const int64_t len = x.value().dim(dim) / n;
  std::vector<Var> out;
  out.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) out.push_back(slice(x, dim, i * len, len));
  return out;
}

namespace {
// The two attention-layout transposes are exact inverses of each other,
// so each node's backward is the opposite specialized copy — no saved
// tensors, no generic permute coordinate walk.
class SbhToBhsdNode : public Node {
 public:
  explicit SbhToBhsdNode(int64_t heads) : heads_(heads) {}
  const char* name() const override { return "sbh_to_bhsd"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    return {ops::bhsd_to_sbh(grad_out, heads_)};
  }

 private:
  int64_t heads_;
};

class BhsdToSbhNode : public Node {
 public:
  explicit BhsdToSbhNode(int64_t heads) : heads_(heads) {}
  const char* name() const override { return "bhsd_to_sbh"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    return {ops::sbh_to_bhsd(grad_out, heads_)};
  }

 private:
  int64_t heads_;
};
}  // namespace

Var sbh_to_bhsd(const Var& x, int64_t heads) {
  Tensor y = ops::sbh_to_bhsd(x.value(), heads);
  return make_output(std::move(y), std::make_shared<SbhToBhsdNode>(heads), {x});
}

Var bhsd_to_sbh(const Var& x, int64_t heads) {
  Tensor y = ops::bhsd_to_sbh(x.value(), heads);
  return make_output(std::move(y), std::make_shared<BhsdToSbhNode>(heads), {x});
}

}  // namespace mls::ag
