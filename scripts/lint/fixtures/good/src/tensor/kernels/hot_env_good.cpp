// Lint fixture (never compiled): must NOT fire hot-env — the knobs come
// from the per-thread cache, core::Env::integer is named only in prose
// and in a string, and the cache's refresh read is suppressed.
void gemm(const float* a, const float* b, float* c, int m, int n, int k) {
  if (knobs().reference) return gemm_ref(a, b, c);
  run_parallel(knobs().threads, a, b, c, m, n, k);
}

const char* kReadVia = "core::Env::integer";

const Knobs& knobs() {
  t_knobs.threads =
      core::Env::integer("MLS_KERNEL_THREADS", 0);  // lint:allow(hot-env)
  return t_knobs;
}
