// serve_mix: closed-loop ClientContext tenants on one device (at most
// four, and never more client threads than the host has cores). Every
// tenant but the last is interactive and sends small grids; the last is
// a batch tenant that sends large ones. Each request draws one of six
// Fig.-8-shaped endpoints from the tenant's seeded stream and does a
// quota malloc + launch + free. Every quantum of the serve scheduler is
// a bare Device::launch_sync, so this is the only workload on the serve
// layer and it never touches a stream.
#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <thread>

#include "perfbench.h"
#include "serve/serve.h"
#include "simt/simt.h"

namespace perfbench {
namespace {

/// Shaped after a Fig. 8 application kernel: grid/block silhouette and
/// a rough roofline cost (the same six shapes as bench/serve_traffic).
struct Endpoint {
  const char* name;
  std::uint32_t grid;
  std::uint32_t block;
  double flops_per_thread;
  double bytes_per_thread;
  std::size_t alloc_bytes;
};

constexpr Endpoint kEndpoints[] = {
    {"xsbench", 64, 256, 120.0, 96.0, 64 << 10},
    {"rsbench", 48, 256, 400.0, 48.0, 48 << 10},
    {"su3", 32, 128, 950.0, 64.0, 96 << 10},
    {"aidw", 24, 128, 300.0, 32.0, 32 << 10},
    {"adam", 96, 256, 60.0, 72.0, 128 << 10},
    {"stencil1d", 128, 64, 30.0, 24.0, 16 << 10},
};
constexpr std::size_t kNumEndpoints = std::size(kEndpoints);
constexpr std::uint32_t kQuantumBlocks = 16;
constexpr std::uint32_t kInteractiveDivisor = 8;  // small grids
constexpr std::uint32_t kBatchMultiplier = 2;     // large grids
/// The server appends one launch-log record per request; the log is
/// cleared every kLogWindow requests so memory does not grow with
/// throughput (launch_chain is the workload that shows log growth). The
/// window stays below 1024 so a few records appended between the count
/// and the clear never double the log's capacity.
constexpr std::uint64_t kLogWindow = 1000;

/// One tenant's closed-loop outcome for one phase.
struct TenantLog {
  Samples ms;  ///< every request's latency (kFailed when it failed)
  Samples traced_ms, untraced_ms;  ///< the same, split (traced phases)
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t threads = 0;  // simulated threads of correct requests
  std::map<std::string, double> values;  // engine counters (traced)
};

/// A device, its server and the tenants on it.
struct Mix {
  std::unique_ptr<simt::Device> dev;
  std::unique_ptr<serve::Server> server;
  std::vector<serve::ClientContext*> clients;
  std::vector<Rng> rngs;
  std::atomic<std::uint64_t> completed{0};

  Mix(std::uint64_t seed, unsigned tenants)
      : dev(std::make_unique<simt::Device>(simt::make_sim_a100_config())),
        server(std::make_unique<serve::Server>()) {
    server->set_quantum_blocks(kQuantumBlocks);
    serve::ClientLimits limits;
    limits.memory_quota_bytes = 4 << 20;
    limits.max_pending = 8;
    for (unsigned i = 0; i < tenants; ++i)
      clients.push_back(server->create_client(dev.get(), limits));
    reseed(seed);
  }
  /// Restarts every tenant's request stream from `seed`.
  void reseed(std::uint64_t seed) {
    rngs.clear();
    for (std::size_t i = 0; i < clients.size(); ++i)
      rngs.push_back(Rng{seed ^ (0x51ed2701ull * (i + 1))});
  }
  ~Mix() {
    for (serve::ClientContext* c : clients) server->destroy_client(c);
    server.reset();  // stops the scheduler before the device goes
  }
  Mix(const Mix&) = delete;
  Mix& operator=(const Mix&) = delete;

  [[nodiscard]] bool batch(std::size_t tenant) const {
    return clients.size() > 1 && tenant + 1 == clients.size();
  }

  /// One request: malloc + launch + free, checksum checked. Returns its
  /// wall ms, or a negative value when it failed. `counters` adds its
  /// engine counters to out.values.
  double request(std::size_t tenant, SpanLog& log, bool counters,
                 TenantLog& out) {
    serve::ClientContext& client = *clients[tenant];
    Rng& rng = rngs[tenant];
    const Endpoint& ep = kEndpoints[rng.next() % kNumEndpoints];
    const std::uint64_t salt = rng.next();
    const std::uint32_t grid =
        batch(tenant) ? ep.grid * kBatchMultiplier
                      : std::max(1u, ep.grid / kInteractiveDivisor);
    const std::uint64_t unit = (std::uint64_t{tenant} << 48) | ++out.requests;
    std::atomic<std::uint64_t> sum{0};
    bool ok = false;
    const auto t0 = Clock::now();
    {
      Scope req(log, Layer::kBench, "request", unit);
      try {
        void* scratch = nullptr;
        {
          Scope s(log, Layer::kServe, "serve.malloc", unit);
          scratch = client.malloc(ep.alloc_bytes);
        }
        simt::LaunchParams p;
        p.grid = {grid, 1, 1};
        p.block = {ep.block, 1, 1};
        p.name = ep.name;
        p.cost.flops_per_thread = ep.flops_per_thread;
        p.cost.global_bytes_per_thread = ep.bytes_per_thread;
        simt::LaunchRecord rec;
        try {
          Scope s(log, Layer::kServe, "serve.launch", unit);
          rec = client.launch(p, [&sum, salt] {
            const simt::ThreadCtx& t = simt::this_thread();
            const std::uint64_t gid =
                std::uint64_t{t.block_idx.x} * t.block_dim.x + t.flat_tid;
            sum.fetch_add(gid + salt, std::memory_order_relaxed);
          });
        } catch (...) {
          client.free(scratch);
          throw;
        }
        {
          Scope s(log, Layer::kServe, "serve.free", unit);
          client.free(scratch);
        }
        if (completed.fetch_add(1) % kLogWindow == kLogWindow - 1)
          dev->clear_launch_log();
        const std::uint64_t n = std::uint64_t{grid} * ep.block;
        ok = sum.load() == n * (n - 1) / 2 + n * salt;
        if (ok) out.threads += n;
        if (counters) add_launch_stats(rec.stats, out.values);
      } catch (const std::exception&) {
        ok = false;  // refused or failed: counts against failed_ratio
      }
    }
    const double ms = ms_since(t0);
    if (!ok) out.failed++;
    return ok ? ms : -1.0;
  }
};

/// Every tenant runs its closed loop on its own thread until `seconds`
/// have passed (or for `requests` requests each, when non-zero). When
/// its log is on, a tenant traces every other request and counts the
/// engine work of all of them.
std::vector<TenantLog> run_phase(Mix& mix, double seconds,
                                 std::uint64_t requests,
                                 std::vector<SpanLog>& logs) {
  const std::size_t n = mix.clients.size();
  std::vector<TenantLog> out(n);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    threads.emplace_back([&, i] {
      const bool trace = logs[i].on();
      SpanLog off(false);
      for (std::uint64_t r = 0;; ++r) {
        if (requests != 0 ? r >= requests : s_since(t0) >= seconds) break;
        const bool traced = traced_op(trace, r);
        const double ms = mix.request(i, traced ? logs[i] : off, trace, out[i]);
        const double sample = ms < 0.0 ? kFailed : ms;
        out[i].ms.push_back(sample);
        if (trace) (traced ? out[i].traced_ms : out[i].untraced_ms)
                       .push_back(sample);
      }
    });
  for (std::thread& t : threads) t.join();
  return out;
}

struct QuotaSnapshot {
  std::vector<std::uint64_t> quanta;
  std::uint64_t admission = 0;
  std::uint64_t quota = 0;
};

QuotaSnapshot snapshot(const Mix& mix) {
  QuotaSnapshot s;
  for (const serve::ClientContext* c : mix.clients) {
    const serve::ClientStats st = c->stats();
    s.quanta.push_back(st.quanta);
    s.admission += st.admission_rejections;
    s.quota += st.quota_rejections;
  }
  return s;
}

}  // namespace

Result run_serve_mix(const Options& opt) {
  Result out;
  const unsigned tenants =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<SpanLog> off(tenants, SpanLog(false));

  auto account = [&](const std::vector<TenantLog>& phase) {
    for (const TenantLog& t : phase) {
      out.attempted += t.requests;
      out.failed += t.failed;
    }
  };

  // Cold set-up, repeated: a fresh device, server and tenants, and one
  // request per tenant. Its requests come from a fixed seed, so set-up
  // does the same work whatever --seed is. The last one is kept.
  constexpr std::uint64_t kSetupSeed = 0;
  std::unique_ptr<Mix> mix;
  for (int rep = 0; rep < kColdSetups; ++rep) {
    mix.reset();
    const double cpu0 = cpu_seconds();
    mix = std::make_unique<Mix>(kSetupSeed, tenants);
    account(run_phase(*mix, 0.0, 1, off));
    out.setup_s.push_back(cpu_seconds() - cpu0);
  }
  mix->reseed(opt.seed);

  const double warm0 = cpu_seconds();
  account(run_phase(*mix, 0.0, 64, off));
  out.warmup_s = cpu_seconds() - warm0;

  // Measured phase; a traced run traces every other request.
  for (unsigned i = 0; i < tenants; ++i) out.logs.emplace_back(opt.trace);
  const QuotaSnapshot before = snapshot(*mix);
  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  const std::vector<TenantLog> phase =
      run_phase(*mix, opt.seconds, 0, out.logs);
  out.measure_cpu_s = cpu_seconds() - cpu0;
  out.measure_s = s_since(t0);
  const QuotaSnapshot after = snapshot(*mix);
  account(phase);
  for (std::size_t i = 0; i < tenants; ++i) {
    const TenantLog& t = phase[i];
    out.ops += t.requests - t.failed;
    out.threads += t.threads;
    if (mix->batch(i)) {
      out.samples["serve.batch_req_ms"].assign(t.ms.begin(), t.ms.end());
      continue;
    }
    out.op_ms.insert(out.op_ms.end(), t.ms.begin(), t.ms.end());
    out.traced_op_ms.insert(out.traced_op_ms.end(), t.traced_ms.begin(),
                            t.traced_ms.end());
    out.untraced_op_ms.insert(out.untraced_op_ms.end(), t.untraced_ms.begin(),
                              t.untraced_ms.end());
  }

  if (opt.trace) {
    for (const TenantLog& t : phase)
      for (const auto& [k, v] : t.values) out.values[k] += v;
    for (auto& [k, v] : out.values) v /= static_cast<double>(out.ops);
    std::uint64_t quanta = 0;
    std::uint64_t min_quanta = UINT64_MAX;
    for (std::size_t i = 0; i < tenants; ++i) {
      const std::uint64_t q = after.quanta[i] - before.quanta[i];
      quanta += q;
      min_quanta = std::min(min_quanta, q);
    }
    out.values["serve.quanta_per_req"] =
        static_cast<double>(quanta) / static_cast<double>(out.ops);
    out.values["serve.min_share"] =
        static_cast<double>(min_quanta) * tenants /
        static_cast<double>(std::max<std::uint64_t>(quanta, 1));
    out.values["serve.admission_rejections"] =
        static_cast<double>(after.admission - before.admission);
    out.values["serve.quota_rejections"] =
        static_cast<double>(after.quota - before.quota);
    for (const char* name : {"serve.malloc", "serve.launch", "serve.free"}) {
      std::vector<double>& dst = out.samples[std::string(name) + "_us"];
      for (const SpanLog& log : out.logs) {
        const std::vector<double> d = log.durations_us(name);
        dst.insert(dst.end(), d.begin(), d.end());
      }
    }
  }
  return out;
}

}  // namespace perfbench
