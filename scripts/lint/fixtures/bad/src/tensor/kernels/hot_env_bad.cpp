// Lint fixture (never compiled): MUST fire hot-env.
void gemm(const float* a, const float* b, float* c, int m, int n, int k) {
  if (core::Env::flag("MLS_KERNEL_REF", false)) return gemm_ref(a, b, c);
  const int64_t nt = mls::core::Env::integer("MLS_KERNEL_THREADS", 0);
  run_parallel(nt, a, b, c, m, n, k);
}
