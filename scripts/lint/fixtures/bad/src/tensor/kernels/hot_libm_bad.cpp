// Lint fixture (never compiled): MUST fire hot-libm.
float gelu_value(float v) {
  return 0.5f * v * (1.0f + std::tanh(0.7978845608f * v));
}

float softmax_term(float x, float mx) { return expf(x - mx); }
