// Lint fixture (never compiled): must NOT fire hot-libm — the shared
// approximations, libm named only in prose (std::tanh, expf) and in a
// string, a look-alike identifier, and a suppressed boundary case.
float gelu_value(float v) {
  return 0.5f * v * (1.0f + fast_tanh(0.7978845608f * v));
}

const char* kReplaced = "std::exp";

float expm1_like(float x) { return std::expm1(x); }

double reference_exp(double x) {
  return std::exp(x);  // lint:allow(hot-libm)
}
