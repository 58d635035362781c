#include "workload.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using namespace dsinfer;

namespace {

// Rationale for each shape lives in perfbench/README.md.
std::vector<Workload> make_workloads() {
  std::vector<Workload> ws;

  Workload chat;
  chat.name = "chat_short";
  chat.hidden = 256;
  chat.layers = 4;
  chat.heads = 4;
  chat.max_seq = 256;
  chat.slots = 16;
  chat.open_loop = true;
  chat.rate_rps = 20.0;
  chat.prompt_min = 16;
  chat.prompt_max = 64;
  chat.out_min = 32;
  chat.out_max = 128;
  chat.slo_ttft_ms = 40.0;
  chat.slo_itl_ms = 5.0;
  chat.setup_reps = 9;
  chat.check_sample = 8;
  ws.push_back(chat);

  Workload wide;
  wide.name = "offline_wide";
  wide.hidden = 1024;
  wide.layers = 8;
  wide.heads = 16;
  wide.max_seq = 320;
  wide.slots = 4;
  wide.tp = 2;
  wide.open_loop = false;
  wide.clients = 4;
  wide.prompt_min = wide.prompt_max = 32;
  wide.out_min = wide.out_max = 256;
  wide.slo_ttft_ms = 800.0;
  wide.slo_itl_ms = 40.0;
  wide.cold_weights = true;
  wide.setup_reps = 3;
  wide.check_sample = 1;
  ws.push_back(wide);

  Workload shared;
  shared.name = "shared_prefix";
  shared.hidden = 512;
  shared.layers = 4;
  shared.heads = 8;
  shared.max_seq = 768;
  shared.slots = 8;
  shared.page_tokens = 16;
  shared.pages = 256;
  shared.prefix_cache = true;
  shared.prefill_chunk = 128;
  shared.open_loop = true;
  shared.rate_rps = 4.5;
  shared.prefixes = 8;
  shared.prefix_len = 512;
  shared.zipf_s = 1.0;
  shared.prompt_min = 32;
  shared.prompt_max = 128;
  shared.out_min = 16;
  shared.out_max = 64;
  shared.slo_ttft_ms = 250.0;
  shared.slo_itl_ms = 10.0;
  shared.setup_reps = 7;
  shared.check_sample = 2;
  ws.push_back(shared);

  return ws;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> ws = make_workloads();
  return ws;
}

}  // namespace

model::DenseModelConfig Workload::model() const {
  model::DenseModelConfig c;
  c.name = name;
  c.hidden = hidden;
  c.layers = layers;
  c.heads = heads;
  c.vocab = vocab;
  c.max_seq = max_seq;
  return c;
}

core::EngineSpec Workload::engine_spec() const {
  core::EngineSpec spec(model());
  spec.tensor_parallel(tp)
      .max_batch(slots)
      .max_seq(max_seq)
      .kv_page_tokens(page_tokens)
      .kv_pages(pages)
      .kv_prefix_cache(prefix_cache)
      .prefill_chunk_tokens(prefill_chunk);
  return spec;
}

core::EngineSpec Workload::reference_spec() const {
  core::EngineSpec spec(model());
  spec.max_batch(1).max_seq(max_seq);
  return spec;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& w : workloads()) names.push_back(w.name);
  return names;
}

RequestGen::RequestGen(const Workload& w, std::uint64_t seed)
    : w_(w), rng_(seed) {
  double total = 0.0;
  for (std::int64_t p = 0; p < w.prefixes; ++p) {
    std::vector<std::int32_t> toks(static_cast<std::size_t>(w.prefix_len));
    for (auto& t : toks) {
      t = static_cast<std::int32_t>(rng_.integer(0, w.vocab - 1));
    }
    prefixes_.push_back(std::move(toks));
    total += 1.0 / std::pow(static_cast<double>(p + 1), w.zipf_s);
    prefix_cdf_.push_back(total);
  }
  for (auto& c : prefix_cdf_) c /= total;
}

Request RequestGen::make(double due_s, std::int64_t prefix, std::int64_t own,
                         std::int64_t max_new) {
  Request r;
  r.due_s = due_s;
  if (prefix >= 0) r.prompt = prefixes_[static_cast<std::size_t>(prefix)];
  for (std::int64_t i = 0; i < own; ++i) {
    r.prompt.push_back(static_cast<std::int32_t>(rng_.integer(0, w_.vocab - 1)));
  }
  r.max_new = max_new;
  return r;
}

Request RequestGen::next(double due_s) {
  std::int64_t prefix = -1;
  if (!prefixes_.empty()) {
    const double u = rng_.uniform(0.0f, 1.0f);
    const auto it = std::lower_bound(prefix_cdf_.begin(), prefix_cdf_.end(), u);
    prefix = std::min<std::int64_t>(it - prefix_cdf_.begin(), w_.prefixes - 1);
  }
  const std::int64_t own = rng_.integer(w_.prompt_min, w_.prompt_max);
  return make(due_s, prefix, own, rng_.integer(w_.out_min, w_.out_max));
}

// n draws of a uniform integer in [lo, hi], stratified: one per equal-width
// quantile band, in random order.
std::vector<std::int64_t> RequestGen::stratified(std::size_t n, std::int64_t lo,
                                                 std::int64_t hi) {
  std::vector<std::int64_t> v(n);
  const double width = static_cast<double>(hi - lo + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + rng_.uniform(0.0f, 1.0f)) /
                     static_cast<double>(n);
    v[i] = std::min(hi, lo + static_cast<std::int64_t>(u * width));
  }
  std::shuffle(v.begin(), v.end(), rng_.engine());
  return v;
}

std::vector<Request> RequestGen::warmup() {
  std::vector<Request> out;
  for (std::int64_t p = w_.prefixes - 1; p >= 0; --p) {
    out.push_back(make(0.0, p, 1, 1));
  }
  return out;
}

std::vector<Request> RequestGen::open_loop_schedule(double seconds) {
  const auto n = static_cast<std::size_t>(
      std::max<long long>(1, std::llround(w_.rate_rps * seconds)));
  std::vector<double> due(n);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = seconds * (static_cast<double>(i) + rng_.uniform(0.0f, 1.0f)) /
             static_cast<double>(n);
  }
  // Prefix popularity by exact Zipf shares (largest remainder), shuffled.
  std::vector<std::int64_t> prefix(n, -1);
  if (!prefixes_.empty()) {
    std::size_t k = 0;
    for (std::size_t p = 0; p < prefix_cdf_.size(); ++p) {
      const auto end = static_cast<std::size_t>(
          std::llround(prefix_cdf_[p] * static_cast<double>(n)));
      for (; k < std::min(end, n); ++k) prefix[k] = static_cast<std::int64_t>(p);
    }
    for (; k < n; ++k) prefix[k] = w_.prefixes - 1;
    std::shuffle(prefix.begin(), prefix.end(), rng_.engine());
  }
  const auto own = stratified(n, w_.prompt_min, w_.prompt_max);
  const auto out_len = stratified(n, w_.out_min, w_.out_max);
  std::vector<Request> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(make(due[i], prefix[i], own[i], out_len[i]));
  }
  return out;
}

}  // namespace perfbench
