// The serving loop: one single thread that feeds generated requests
// to core::RaggedDecoder through its public admit / step / finished / tokens
// / retire calls, timestamps every token as it appears, and records the
// scheduler-side counters the per-layer metrics are built from.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/inference_engine.h"
#include "workload.h"

namespace perfbench {

struct RequestRecord {
  double first_s = -1.0;  // first output token seen
  double done_s = -1.0;   // finished and retired
  std::int64_t out_tokens = 0;
  double itl_sum_ms = 0.0;
  std::vector<std::int32_t> tokens;  // prompt + output, once finished
};

struct ServeStats {
  // Requests by id (send order) and what happened to each.
  std::vector<Request> inputs;
  std::vector<RequestRecord> records;
  std::int64_t ok = 0;
  std::int64_t refused = 0;  // could never fit this engine

  // End-to-end samples.
  std::vector<double> ttft_ms;  // due time -> first token, per request
  std::vector<double> itl_ms;   // consecutive tokens of one request
  std::int64_t window_tokens = 0;  // output tokens seen before `seconds`
  double seconds = 0.0;            // the measured window
  double end_s = 0.0;              // last request drained

  // Scheduler side (the `core` layer).
  std::vector<double> step_ms, decode_step_ms, admit_ms, queue_wait_ms;
  std::vector<double> gen_late_ms;  // how late the generator noticed a due
  std::vector<double> decode_rows;  // rows of steps that ran no prefill
  std::vector<double> prefill_rows;  // prompt rows of one admit/step
  std::vector<double> decode_ctx;   // mean slot length after a decode step
  std::int64_t step_rows = 0;
  double busy_s = 0.0;  // inside admit() or step()
  double backlog_first = 0.0, backlog_last = 0.0;  // mean queue, 1st/4th quarter

  // KV layer.
  std::int64_t pages_in_use_peak = 0, pages_committed_peak = 0;
  std::int64_t prompt_tokens = 0, prefix_hit_tokens = 0;
  std::int64_t evictions = 0, cow_splits = 0;

  std::string invariant_error;  // first violated accounting invariant

  std::int64_t sent() const { return static_cast<std::int64_t>(inputs.size()); }
  std::int64_t failed() const { return sent() - ok; }
};

// Serves `w`'s traffic from `gen` for `seconds` (then drains what was sent)
// on a fresh decoder, after warming its prefix cache with gen.warmup().
ServeStats serve(dsinfer::core::RaggedDecoder& dec, const Workload& w,
                 RequestGen& gen, double seconds);

// Regenerates a seeded sample of finished requests with
// InferenceEngine::generate on `ref` (the workload's reference engine) and
// compares the greedy tokens. Returns false and sets `why` on a mismatch.
bool check_outputs(dsinfer::core::InferenceEngine& ref, const Workload& w,
                   const ServeStats& st, std::uint64_t seed, std::string* why);

}  // namespace perfbench
