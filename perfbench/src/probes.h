// Host measurements and the kernel replay.
//
// The replay re-issues one engine step's public kernel calls at the shapes
// the serving run observed, on copies of the engine's own weights rotated
// past the last-level cache, so each kernel figure is a cold-weight number
// comparable with the host read ceiling measured in the same process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/inference_engine.h"
#include "workload.h"

namespace perfbench {

struct HostMeta {
  unsigned nproc = 0;
  std::size_t pool_threads = 0;  // ThreadPool::global()
  std::size_t llc_bytes = 0;
  std::string isa;
  std::string build_type;
  double read_gbps = 0.0;  // streaming-read ceiling, best of several passes
};

// Measures the host. Runs the read-bandwidth probe (a buffer 8x the LLC).
HostMeta measure_host();
std::string meta_json(const HostMeta& m);

// VmHWM of this process in MiB.
double peak_rss_mb();

// Bytes of the engine's transformer-layer weight matrices.
std::size_t layer_weight_bytes(const dsinfer::core::InferenceEngine& eng);

struct ReplayShape {
  std::int64_t decode_rows = 1;    // rows of a decode-only step
  std::int64_t prefill_rows = 1;   // prompt rows of one prefill call
  std::int64_t decode_ctx = 1;     // cached positions a decode row attends
};

struct ReplayResult {
  double gemm_decode_ms = 0.0;   // the 4 GeMMs of every layer, one step
  double gemm_decode_gbps = 0.0;
  double gemm_op_max_gbps = 0.0;  // fastest of the 4 GeMMs (median call)
  double gemm_prefill_gflops = 0.0;
  double attention_ms = 0.0;     // every layer, one decode step
  double elementwise_us = 0.0;   // every layer, one decode step
  double parallel_for_us = 0.0;  // one empty 64-item parallel_for
  double device_group_run_us = 0.0;  // construct + run + join (tp > 1)
};

ReplayResult replay_kernels(const dsinfer::core::InferenceEngine& eng,
                            const Workload& w, const ReplayShape& shape,
                            std::size_t llc_bytes);

}  // namespace perfbench
