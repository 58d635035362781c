#include "probes.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "kernels/attention.h"
#include "kernels/elementwise.h"
#include "kernels/gemm.h"
#include "kernels/kv_arena.h"
#include "kernels/simd.h"
#include "parallel/device_group.h"
#include "parallel/tensor_parallel.h"
#include "util/stats.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using namespace dsinfer;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 0.5);
}

// The LLC slice this machine exposes in sysfs; sysconf's figure can be the
// whole package's L3, which the cores of a VM do not all share.
std::size_t llc_bytes() {
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (f >> s && !s.empty()) {
    std::size_t mult = 1;
    const char unit = s.back();
    if (unit == 'K') mult = 1024;
    if (unit == 'M') mult = 1024 * 1024;
    if (mult > 1) s.pop_back();
    return static_cast<std::size_t>(std::stoull(s)) * mult;
  }
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<std::size_t>(v) : std::size_t{32} << 20;
}

// Streaming read over a buffer 8x the LLC, split across the global pool the
// way the kernels split their work. Returns the best pass in GB/s.
double read_bandwidth_gbps(std::size_t llc) {
  const std::size_t words = 8 * llc / sizeof(std::uint64_t);
  std::vector<std::uint64_t> buf(words);
  constexpr std::size_t kChunks = 64;
  const std::size_t per = words / kChunks;
  auto& pool = ThreadPool::global();
  pool.parallel_for(0, kChunks, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t c = b; c < e; ++c) {
      for (std::size_t i = c * per; i < (c + 1) * per; ++i) buf[i] = i;
    }
  });
  std::vector<std::uint64_t> sums(kChunks);
  double best = 0.0;
  for (int pass = 0; pass < 7; ++pass) {
    const auto t0 = Clock::now();
    pool.parallel_for(0, kChunks, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t c = b; c < e; ++c) {
        const std::uint64_t* p = buf.data() + c * per;
        std::uint64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
        for (std::size_t i = 0; i + 4 <= per; i += 4) {
          a0 += p[i];
          a1 += p[i + 1];
          a2 += p[i + 2];
          a3 += p[i + 3];
        }
        sums[c] = a0 ^ a1 ^ a2 ^ a3;
      }
    });
    const double s = seconds_since(t0);
    best = std::max(best, static_cast<double>(kChunks * per * 8) / s / 1e9);
  }
  return best;
}

// Runs body(rank, comm) on every TP rank; rank threads come from a
// DeviceGroup exactly as in the engine's fused TP step. comm is null at tp=1.
template <class Body>
void on_ranks(std::int64_t tp, Body&& body) {
  if (tp == 1) {
    body(std::int64_t{0}, static_cast<comm::Communicator*>(nullptr));
    return;
  }
  parallel::DeviceGroup group(tp);
  group.run([&](std::int64_t rank, comm::Communicator& c) { body(rank, &c); });
}

}  // namespace

HostMeta measure_host() {
  HostMeta m;
  m.nproc = std::thread::hardware_concurrency();
  m.pool_threads = ThreadPool::global().size();
  m.llc_bytes = llc_bytes();
  m.isa = kernels::simd::isa_name(kernels::simd::active_isa());
  m.build_type = PERFBENCH_BUILD_TYPE;
  m.read_gbps = read_bandwidth_gbps(m.llc_bytes);
  return m;
}

std::string meta_json(const HostMeta& m) {
  std::ostringstream os;
  os << "{\"nproc\": " << m.nproc << ", \"pool_threads\": " << m.pool_threads
     << ", \"llc_bytes\": " << m.llc_bytes << ", \"isa\": \"" << m.isa
     << "\", \"build_type\": \"" << m.build_type
     << "\", \"host.read_gbps\": " << m.read_gbps << "}";
  return os.str();
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

std::size_t layer_weight_bytes(const core::InferenceEngine& eng) {
  std::size_t n = 0;
  for (const auto& l : eng.weights().layers) {
    n += static_cast<std::size_t>(l.w_qkv.numel() + l.w_attn_out.numel() +
                                  l.w_fc1.numel() + l.w_fc2.numel());
  }
  return n * sizeof(float);
}

ReplayResult replay_kernels(const core::InferenceEngine& eng,
                            const Workload& w, const ReplayShape& shape,
                            std::size_t llc) {
  ReplayResult out;
  const auto& layers = eng.weights().layers;
  const auto L = static_cast<std::int64_t>(layers.size());
  const std::int64_t H = eng.config().hidden;
  const std::int64_t F = eng.config().ffn();
  const std::int64_t tp = w.tp;
  const auto& policy = eng.options().policy;
  const double op_bytes[4] = {
      4.0 * static_cast<double>(3 * H * H), 4.0 * static_cast<double>(H * H),
      4.0 * static_cast<double>(F * H), 4.0 * static_cast<double>(H * F)};
  const double layer_bytes = op_bytes[0] + op_bytes[1] + op_bytes[2] + op_bytes[3];

  // Cold weights: enough packed copies of the engine's layers (as TP shards,
  // the layout the engine runs) that one sweep reads 4x the LLC.
  const auto copies = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(4.0 * static_cast<double>(llc) /
                                             layer_bytes)));
  std::vector<std::vector<parallel::TpLayerShard>> shards(
      static_cast<std::size_t>(tp));
  for (std::int64_t r = 0; r < tp; ++r) {
    for (std::int64_t i = 0; i < copies; ++i) {
      auto s = parallel::TpLayerShard::from_full(
          layers[static_cast<std::size_t>(i % L)], tp, r);
      s.prepare(policy);
      s.w_qkv = Tensor();
      s.w_attn_out = Tensor();
      s.w_fc1 = Tensor();
      s.w_fc2 = Tensor();
      shards[static_cast<std::size_t>(r)].push_back(std::move(s));
    }
  }

  // One layer's four GeMMs at m rows on every rank, lockstep per op. Rank 0
  // times each op barrier to barrier, so an op's time covers all ranks.
  // op_s[op] collects every call of that op.
  using OpSamples = std::vector<double>[4];
  auto gemm_sweep = [&](std::int64_t m, std::int64_t layer_count, int passes,
                        std::vector<double>& layer_s, OpSamples& op_s) {
    on_ranks(tp, [&](std::int64_t rank, comm::Communicator* c) {
      const auto& mine = shards[static_cast<std::size_t>(rank)];
      std::vector<float> x(static_cast<std::size_t>(m * F), 0.01f);
      std::vector<float> y(static_cast<std::size_t>(m * 3 * F));
      auto sync = [&] {
        if (c != nullptr) c->barrier(rank);
      };
      for (int pass = 0; pass < passes; ++pass) {
        for (std::int64_t i = 0; i < layer_count; ++i) {
          const auto& s = mine[static_cast<std::size_t>(i)];
          const kernels::PackedWeight* ops[4] = {&s.p_qkv, &s.p_attn_out,
                                                 &s.p_fc1, &s.p_fc2};
          double t_layer = 0.0;
          for (int op = 0; op < 4; ++op) {
            const auto& p = *ops[op];
            sync();
            const auto t0 = Clock::now();
            kernels::linear_sbi(
                std::span<const float>(x.data(),
                                       static_cast<std::size_t>(m * p.in())),
                p, {},
                std::span<float>(y.data(),
                                 static_cast<std::size_t>(m * p.out())),
                m);
            sync();
            const double dt = seconds_since(t0);
            t_layer += dt;
            if (rank == 0) op_s[op].push_back(dt);
          }
          if (rank == 0) layer_s.push_back(t_layer);
        }
      }
    });
  };

  std::vector<double> decode_s;
  OpSamples decode_op_s;
  const int decode_passes =
      static_cast<int>(std::max<std::int64_t>(3, 96 / copies));
  gemm_sweep(shape.decode_rows, copies, decode_passes, decode_s, decode_op_s);
  const double layer_decode_s = median(decode_s);
  out.gemm_decode_ms = layer_decode_s * static_cast<double>(L) * 1e3;
  out.gemm_decode_gbps = layer_bytes / layer_decode_s / 1e9;
  for (int op = 0; op < 4; ++op) {
    out.gemm_op_max_gbps = std::max(
        out.gemm_op_max_gbps, op_bytes[op] / median(decode_op_s[op]) / 1e9);
  }

  std::vector<double> prefill_s;
  OpSamples prefill_op_s;
  gemm_sweep(shape.prefill_rows, std::min<std::int64_t>(copies, 4), 2,
             prefill_s, prefill_op_s);
  out.gemm_prefill_gflops = 2.0 * static_cast<double>(shape.prefill_rows) *
                            (layer_bytes / 4.0) / median(prefill_s) / 1e9;
  shards.clear();

  // Attention at the decode shape, tp=1 geometry: every row in its own slot
  // with `decode_ctx` cached positions, all layers back to back.
  const std::int64_t rows = shape.decode_rows;
  const std::int64_t ctx = shape.decode_ctx;
  const std::int64_t heads = eng.config().heads;
  const std::int64_t hd = eng.config().head_dim();
  const std::int64_t page = w.page_tokens > 0 ? w.page_tokens : ctx;
  kernels::KVArena arena(L, rows, heads, hd, ctx, page, /*pages=*/0,
                         /*prefix_cache=*/false);
  std::vector<float> kv(static_cast<std::size_t>(ctx * H), 0.02f);
  for (std::int64_t s = 0; s < rows; ++s) {
    const std::int64_t slot = arena.acquire();
    for (std::int64_t l = 0; l < L; ++l) arena.append(l, slot, kv, kv, ctx);
  }
  std::vector<float> q(static_cast<std::size_t>(rows * H), 0.01f);
  std::vector<float> att(static_cast<std::size_t>(rows * H));
  std::vector<std::int32_t> slot_ids(static_cast<std::size_t>(rows));
  std::vector<std::int32_t> pos(static_cast<std::size_t>(rows),
                                static_cast<std::int32_t>(ctx - 1));
  for (std::int64_t s = 0; s < rows; ++s) {
    slot_ids[static_cast<std::size_t>(s)] = static_cast<std::int32_t>(s);
  }
  std::vector<double> att_s;
  for (int pass = 0; pass < 15; ++pass) {
    const auto t0 = Clock::now();
    for (std::int64_t l = 0; l < L; ++l) {
      kernels::attention_fused_ragged(q, arena, l, slot_ids, pos, att);
    }
    att_s.push_back(seconds_since(t0));
  }
  out.attention_ms = median(att_s) * 1e3;

  // Deep-Fusion elementwise kernels of one decode step.
  std::vector<float> xe(static_cast<std::size_t>(rows * H), 0.01f);
  std::vector<float> ye(static_cast<std::size_t>(rows * F), 0.01f);
  std::vector<float> act(static_cast<std::size_t>(rows * F));
  std::vector<double> elt_s;
  for (int pass = 0; pass < 31; ++pass) {
    const auto t0 = Clock::now();
    for (const auto& lw : layers) {
      kernels::layernorm(xe, lw.ln1_g.span(), lw.ln1_b.span(),
                         std::span<float>(ye.data(), xe.size()), rows, H);
      kernels::bias_residual(std::span<const float>(ye.data(), xe.size()),
                             lw.b_attn_out.span(), xe, xe, rows, H);
      kernels::layernorm(xe, lw.ln2_g.span(), lw.ln2_b.span(),
                         std::span<float>(ye.data(), xe.size()), rows, H);
      kernels::bias_gelu(ye, lw.b_fc1.span(), act, rows, F);
      kernels::bias_residual(std::span<const float>(ye.data(), xe.size()),
                             lw.b_fc2.span(), xe, xe, rows, H);
    }
    elt_s.push_back(seconds_since(t0));
  }
  out.elementwise_us = median(elt_s) * 1e6;

  // Fixed cost of one pool dispatch, the unit every kernel call pays.
  auto& pool = ThreadPool::global();
  std::vector<double> pf_s;
  for (int i = 0; i < 2000; ++i) {
    const auto t0 = Clock::now();
    pool.parallel_for(0, 64, 1, [](std::size_t, std::size_t) {});
    pf_s.push_back(seconds_since(t0));
  }
  out.parallel_for_us = median(pf_s) * 1e6;

  // Fixed cost of the per-step rank group (only the TP path builds one).
  if (tp > 1) {
    std::vector<double> dg_s;
    for (int i = 0; i < 300; ++i) {
      const auto t0 = Clock::now();
      parallel::DeviceGroup g(tp);
      g.run([](std::int64_t, comm::Communicator&) {});
      dg_s.push_back(seconds_since(t0));
    }
    out.device_group_run_us = median(dg_s) * 1e6;
  }
  return out;
}

}  // namespace perfbench
