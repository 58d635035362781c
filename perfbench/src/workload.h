// Workload definitions and the seeded request generator of the serving
// benchmark. The engine only ever sees the generated requests; every random
// choice (arrival times, prompt tokens, lengths, prefix popularity) comes
// from the command-line seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine_spec.h"
#include "util/rng.h"

namespace perfbench {

struct Request {
  double due_s = 0.0;  // when the client wanted it served, on the run clock
  std::vector<std::int32_t> prompt;
  std::int64_t max_new = 0;
};

struct Workload {
  std::string name;

  // Model and engine configuration.
  std::int64_t hidden = 0;
  std::int64_t layers = 0;
  std::int64_t heads = 0;
  std::int64_t vocab = 256;
  std::int64_t max_seq = 0;
  std::int64_t slots = 0;
  std::int64_t tp = 1;
  std::int64_t page_tokens = 0;  // 0 = strip KV
  std::int64_t pages = 0;
  bool prefix_cache = false;
  std::int64_t prefill_chunk = 0;  // 0 = monolithic prefill inside admit()

  // Traffic. Open loop: arrivals at rate_rps, one at a uniformly jittered
  // time in each 1/rate interval. Closed loop: `clients` callers, each
  // sending its next request when the previous one finishes.
  bool open_loop = true;
  double rate_rps = 0.0;
  std::int64_t clients = 0;
  std::int64_t prompt_min = 0, prompt_max = 0;  // unshared part of a prompt
  std::int64_t out_min = 0, out_max = 0;
  std::int64_t prefixes = 0;    // shared system prefixes (0 = none)
  std::int64_t prefix_len = 0;  // tokens per shared prefix
  double zipf_s = 1.0;          // prefix popularity exponent

  // Per-request SLO: time to first token and mean inter-token latency.
  double slo_ttft_ms = 0.0;
  double slo_itl_ms = 0.0;

  // The weights must stream from DRAM: bytes >= 4x the LLC (checked).
  bool cold_weights = false;
  std::int64_t setup_reps = 3;    // engine constructions timed per run
  std::int64_t check_sample = 4;  // requests regenerated by the output check

  dsinfer::model::DenseModelConfig model() const;
  // The served engine.
  dsinfer::core::EngineSpec engine_spec() const;
  // The output check's reference: same model and weight seed, tp=1, strip
  // KV, batch 1.
  dsinfer::core::EngineSpec reference_spec() const;
};

// nullptr when `name` is not a workload.
const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

class RequestGen {
 public:
  RequestGen(const Workload& w, std::uint64_t seed);

  // Draws the next request's prompt and output budget.
  Request next(double due_s);
  // An open-loop schedule over [0, seconds): round(rate * seconds) arrivals,
  // one at a uniform random time within each 1/rate interval. Poisson
  // arrivals made the tail metrics depend on each seed's bursts (see
  // README.md). Prompt lengths, output budgets and prefix choices are
  // stratified over the run, so every seed serves the same mix in a
  // different order and arrival pattern.
  std::vector<Request> open_loop_schedule(double seconds);
  // One single-token request per shared prefix, least popular first, which
  // leave the prefix cache holding what a long-running server would.
  std::vector<Request> warmup();

 private:
  Request make(double due_s, std::int64_t prefix, std::int64_t own,
               std::int64_t max_new);
  std::vector<std::int64_t> stratified(std::size_t n, std::int64_t lo,
                                       std::int64_t hi);

  const Workload& w_;
  dsinfer::Rng rng_;
  std::vector<std::vector<std::int32_t>> prefixes_;
  std::vector<double> prefix_cdf_;
};

}  // namespace perfbench
